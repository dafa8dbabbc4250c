"""Schema checks for BENCH_PERF.json recordings (repro.experiments.perf_log).

The trajectory is append-only measurement history; a malformed recording must
fail in the run that produces it, not corrupt a later comparison.  The
committed file itself is validated here, so schema drift in either direction
(code or data) breaks tier-1.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments.perf_log import (
    PerfLogSchemaError,
    append_entry,
    load_trajectory,
    validate_entry,
)

pytestmark = pytest.mark.tier1

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")


def scenario_entry(**overrides):
    entry = {
        "label": "test",
        "scenario": {"ops": 100, "events": 200, "wall_seconds": 1.5,
                     "ops_per_wall_sec": 66.7},
    }
    entry.update(overrides)
    return entry


class TestValidateEntry:
    def test_committed_trajectory_is_schema_clean(self):
        trajectory = load_trajectory(os.path.join(REPO_ROOT, "BENCH_PERF.json"))
        assert trajectory, "committed BENCH_PERF.json should not be empty"
        assert all("label" in entry for entry in trajectory)

    def test_accepts_every_known_section(self):
        validate_entry(scenario_entry())
        validate_entry({
            "label": "x",
            "query_deref": {"entries": 20, "queries": 400,
                            "hit_us_per_entry": 3.5, "miss_us_per_entry": 9.0},
        })
        validate_entry({
            "label": "x",
            "replication": {"writes": 20000, "replicas": 2, "us_per_write": 12.5,
                            "tracked_objects_per_inflight": 2.0},
        })
        validate_entry({
            "label": "x",
            "event_queue": {"events": 1, "wall_seconds": 0.1,
                            "events_per_wall_sec": 10.0},
        })
        validate_entry({
            "label": "x",
            "notes": "recorded on a 1-cpu container",
            "sweep": {"runs": 8, "workers": 4, "cpus": 4,
                      "per_run_sim_seconds": 120.0,
                      "serial_wall_seconds": 80.0,
                      "parallel_wall_seconds": 22.0, "speedup": 3.6,
                      "results_identical": True},
        })

    def test_rejects_missing_label_and_unknown_keys(self):
        with pytest.raises(PerfLogSchemaError, match="label"):
            validate_entry({"scenario": scenario_entry()["scenario"]})
        with pytest.raises(PerfLogSchemaError, match="unknown keys"):
            validate_entry(scenario_entry(scenari_o={"ops": 1}))

    def test_rejects_entry_without_any_section(self):
        with pytest.raises(PerfLogSchemaError, match="no measurement section"):
            validate_entry({"label": "x"})

    def test_rejects_missing_extra_and_mistyped_fields(self):
        entry = scenario_entry()
        del entry["scenario"]["events"]
        with pytest.raises(PerfLogSchemaError, match="missing fields"):
            validate_entry(entry)
        entry = scenario_entry()
        entry["scenario"]["bogus"] = 1
        with pytest.raises(PerfLogSchemaError, match="unknown fields"):
            validate_entry(entry)
        entry = scenario_entry()
        entry["scenario"]["ops"] = "lots"
        with pytest.raises(PerfLogSchemaError, match="must be a number"):
            validate_entry(entry)
        entry = scenario_entry()
        entry["scenario"]["ops"] = 1.5
        with pytest.raises(PerfLogSchemaError, match="must be an integer"):
            validate_entry(entry)
        entry = scenario_entry()
        entry["scenario"]["wall_seconds"] = -1.0
        with pytest.raises(PerfLogSchemaError, match="non-negative"):
            validate_entry(entry)


class TestTrajectoryFile:
    def test_append_validates_and_round_trips(self, tmp_path):
        path = str(tmp_path / "perf.json")
        append_entry(path, scenario_entry(label="first"))
        append_entry(path, scenario_entry(label="second"))
        trajectory = load_trajectory(path)
        assert [e["label"] for e in trajectory] == ["first", "second"]

    def test_append_rejects_malformed_without_touching_the_file(self, tmp_path):
        path = str(tmp_path / "perf.json")
        append_entry(path, scenario_entry())
        with pytest.raises(PerfLogSchemaError):
            append_entry(path, {"label": "broken", "scenario": {"ops": 1}})
        assert len(load_trajectory(path)) == 1

    def test_load_fails_fast_on_a_corrupted_file(self, tmp_path):
        path = str(tmp_path / "perf.json")
        with open(path, "w") as fh:
            json.dump([{"label": "ok", "scenario": {"ops": 1}}], fh)
        with pytest.raises(PerfLogSchemaError):
            load_trajectory(path)
        with open(path, "w") as fh:
            json.dump({"not": "a list"}, fh)
        with pytest.raises(PerfLogSchemaError, match="JSON list"):
            load_trajectory(path)

    def test_missing_file_loads_empty(self, tmp_path):
        assert load_trajectory(str(tmp_path / "absent.json")) == []
