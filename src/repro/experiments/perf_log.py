"""``BENCH_PERF.json`` access with schema validation.

The perf trajectory is append-only measurement history: every entry a future
PR reads to judge a speedup claim.  A malformed recording (a typoed section
name, a string where a number belongs, a forgotten field) used to be
discovered only when some later comparison crashed or — worse — silently
skipped the entry.  This module makes the schema explicit and *fails fast*:
entries are validated both when appended and when loaded, so a bad recording
dies in the run that produced it.

Schema: a JSON list of entries, oldest first.  Each entry is an object with
a non-empty ``label``, an optional free-text ``notes`` string (hardware
caveats and the like), and at least one known measurement section:

* ``scenario`` — the frozen single-run closed-loop scenario;
* ``event_queue`` — the bare discrete-event kernel microbench;
* ``sweep`` — the suite-level serial-vs-parallel sweep comparison;
* ``telemetry`` — observability-on vs -off overhead on the scenario;
* ``cache_index`` — the cache tier's range-index microbench;
* ``query_deref`` — the query read path's dereference microbench;
* ``replication`` — the lazy replication engine's propagation microbench.

Unknown entry keys, unknown section fields, and missing section fields are
all rejected.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

# field name -> required type family: "int" (exact integers), "number"
# (int or float), "bool".
SECTION_FIELDS: Dict[str, Dict[str, str]] = {
    "scenario": {
        "ops": "int",
        "events": "int",
        "wall_seconds": "number",
        "ops_per_wall_sec": "number",
    },
    "event_queue": {
        "events": "int",
        "wall_seconds": "number",
        "events_per_wall_sec": "number",
    },
    "sweep": {
        "runs": "int",
        "workers": "int",
        "cpus": "int",
        "per_run_sim_seconds": "number",
        "serial_wall_seconds": "number",
        "parallel_wall_seconds": "number",
        "speedup": "number",
        "results_identical": "bool",
    },
    "telemetry": {
        "off_wall_seconds": "number",
        "on_wall_seconds": "number",
        "on_off_ratio": "number",
        "traces": "int",
        "results_identical": "bool",
    },
    # E15's mixed-fleet economics (bench_e15_spot_fleet): dollars for the
    # spot-surge fleet vs the all-on-demand arm of the same scenario, and
    # the interruption-handling counters behind the savings.
    "spot_fleet": {
        "mixed_dollars": "number",
        "on_demand_dollars": "number",
        "spot_dollars": "number",
        "savings_fraction": "number",
        "interruptions": "int",
        "hibernated": "int",
        "fallbacks": "int",
    },
    # E16's noisy-neighbor economics (bench_e16_noisy_neighbor): SLA
    # recovery time and dollars for the placement-aware controller vs the
    # capacity-only ablation on the same contention episode, and the
    # diagnosis/remediation counters behind the gap.
    "contention": {
        "placement_dollars": "number",
        "capacity_dollars": "number",
        "placement_recovery_seconds": "number",
        "capacity_recovery_seconds": "number",
        "contention_windows": "int",
        "evacuations": "int",
        "capacity_scale_ups": "int",
    },
    # The cache tier's range index (bench_perf_throughput's cache-index
    # microbench): per-op cost of a containment miss and of invalidate_key
    # with `ranges` disjoint per-user prefix ranges cached, and that cost
    # over the same cost with 128 ranges cached (the worse of the two ops).
    "cache_index": {
        "ranges": "int",
        "ops": "int",
        "lookup_miss_us": "number",
        "invalidate_us": "number",
        "scaling_ratio": "number",
    },
    # The query read path (bench_perf_throughput's query-deref microbench):
    # per-entry host cost of a compiled query that scans `entries` index
    # entries and dereferences each, with everything served by the cache
    # tier (hit) and with the cache emptied before every query (miss).
    "query_deref": {
        "entries": "int",
        "queries": "int",
        "hit_us_per_entry": "number",
        "miss_us_per_entry": "number",
    },
    # Lazy replication (bench_perf_throughput's replication microbench):
    # host cost per write of propagating `writes` writes to `replicas`
    # replicas each and delivering them, and the gc-tracked objects one
    # scheduled replica copy holds while in flight (collector off).
    "replication": {
        "writes": "int",
        "replicas": "int",
        "us_per_write": "number",
        "tracked_objects_per_inflight": "number",
    },
}

ENTRY_KEYS = {"label", "notes", *SECTION_FIELDS}


class PerfLogSchemaError(ValueError):
    """A BENCH_PERF.json entry does not match the recording schema."""


def _check_field(section: str, name: str, value: Any, kind: str) -> None:
    if kind == "bool":
        if not isinstance(value, bool):
            raise PerfLogSchemaError(
                f"{section}.{name} must be a boolean, got {value!r}")
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise PerfLogSchemaError(
            f"{section}.{name} must be a number, got {value!r}")
    if kind == "int" and not isinstance(value, int):
        raise PerfLogSchemaError(
            f"{section}.{name} must be an integer, got {value!r}")
    if value < 0:
        raise PerfLogSchemaError(
            f"{section}.{name} must be non-negative, got {value!r}")


def validate_entry(entry: Any) -> Dict[str, Any]:
    """Check one trajectory entry against the schema; returns it unchanged."""
    if not isinstance(entry, dict):
        raise PerfLogSchemaError(f"entry must be an object, got {type(entry).__name__}")
    label = entry.get("label")
    if not isinstance(label, str) or not label:
        raise PerfLogSchemaError(f"entry needs a non-empty string label, got {label!r}")
    if "notes" in entry and not isinstance(entry["notes"], str):
        raise PerfLogSchemaError("notes must be a string when present")
    unknown = set(entry) - ENTRY_KEYS
    if unknown:
        raise PerfLogSchemaError(
            f"entry {label!r} has unknown keys {sorted(unknown)} "
            f"(known: {sorted(ENTRY_KEYS)})")
    sections = [name for name in SECTION_FIELDS if name in entry]
    if not sections:
        raise PerfLogSchemaError(
            f"entry {label!r} records no measurement section "
            f"(expected one of {sorted(SECTION_FIELDS)})")
    for name in sections:
        section = entry[name]
        if not isinstance(section, dict):
            raise PerfLogSchemaError(f"{label!r}.{name} must be an object")
        fields = SECTION_FIELDS[name]
        missing = set(fields) - set(section)
        if missing:
            raise PerfLogSchemaError(
                f"{label!r}.{name} is missing fields {sorted(missing)}")
        extra = set(section) - set(fields)
        if extra:
            raise PerfLogSchemaError(
                f"{label!r}.{name} has unknown fields {sorted(extra)}")
        for field_name, kind in fields.items():
            _check_field(name, field_name, section[field_name], kind)
    return entry


def load_trajectory(path: str, validate: bool = True) -> List[Dict[str, Any]]:
    """Load the trajectory list ([] when the file does not exist yet)."""
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        trajectory = json.load(fh)
    if not isinstance(trajectory, list):
        raise PerfLogSchemaError("BENCH_PERF.json must hold a JSON list of entries")
    if validate:
        for entry in trajectory:
            validate_entry(entry)
    return trajectory


def append_entry(path: str, entry: Dict[str, Any]) -> None:
    """Validate ``entry`` and append it to the trajectory file."""
    validate_entry(entry)
    trajectory = load_trajectory(path)
    trajectory.append(entry)
    with open(path, "w") as fh:
        json.dump(trajectory, fh, indent=2)
        fh.write("\n")
