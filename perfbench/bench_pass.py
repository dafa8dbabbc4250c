"""One pass of one workload, in a fresh process.

    python3 perfbench/bench_pass.py --workload NAME --seed N --seconds S \
        --mode timed|plain|traced

Builds the engine the way ``Scads()`` ships (through the experiment
harness), bulk-loads the social graph, runs the open-loop workload phase,
then checks the run's invariants.  The last stdout line is one JSON object:
simulated metrics with sample counts, host timings, correctness checks, a
fingerprint of everything simulated and, in traced mode, per-layer counts.
``run.py`` starts this script and reads that line; run it directly only to
debug a single pass.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.experiments.harness import build_engine_and_app  # noqa: E402
from repro.workloads.generator import LoadGenerator  # noqa: E402
from calibration import ReferenceClock  # noqa: E402
from tracing import LAYER_WORKLOADS, LayerTracer  # noqa: E402
from workloads import (  # noqa: E402
    SLA_LATENCY_S,
    SLA_MIN_WINDOW_OPS,
    SLA_PERCENTILE,
    WINDOW_SECONDS,
    WORKLOADS,
    Workload,
)

# Timed passes set up engines until at least SETUP_MIN_REPEATS set-ups and
# SETUP_MIN_SECONDS of set-up have been timed (at most SETUP_MAX_REPEATS) and
# report the median; the last engine runs the workload.  Plain and traced
# passes set up once.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 9
SETUP_MIN_SECONDS = 5.0
# The workload phase runs in slices of this many simulated seconds, with the
# calibration loop between slices (see calibration.ReferenceClock).
RUN_SLICE_SECONDS = 2.0
# Simulated seconds of quiet after the workload before replicas are compared.
SETTLE_SECONDS = 5.0


class PhaseRecorder:
    """Records every client operation the engine serves in the workload phase.

    The engine's own trackers also hold the bulk-load writes, so the
    simulated metrics are computed from this record instead.  It wraps the
    engine's public read and write calls on the instance; it draws no random
    numbers and schedules nothing.
    """

    def __init__(self, engine) -> None:
        self.samples: Dict[str, List[Tuple[float, Optional[float]]]] = {
            "read": [], "write": []}
        self.max_lag = 0.0
        clock = engine.sim.clock
        for method, op_type in (("get", "read"), ("query", "read"),
                                ("put", "write"), ("delete", "write")):
            setattr(engine, method,
                    self._wrap(getattr(engine, method), self.samples[op_type], clock))
        engine.cluster.replication.add_lag_listener(self._on_lag)

    @staticmethod
    def _wrap(method, log, clock):
        def recorded(*args, **kwargs):
            now = clock.now
            result = method(*args, **kwargs)
            # Queries have no failure outcome; entity ops carry ``success``.
            ok = getattr(result, "success", True)
            log.append((now, result.latency if ok else None))
            return result
        return recorded

    def _on_lag(self, record) -> None:
        lag = record.lag
        if lag is not None and lag > self.max_lag:
            self.max_lag = lag


def build(workload: Workload, seed: int):
    engine, app, graph = build_engine_and_app(
        seed=seed,
        n_users=workload.n_users,
        initial_groups=workload.initial_groups,
        engine_kwargs=dict(workload.engine_knobs),
    )
    engine.start()
    return engine, app, graph


def latency_summary(samples, start: float) -> Dict[str, float]:
    """Percentiles (ms) of successful ops and the windowed SLA verdicts."""
    latencies = np.sort(np.array([lat for _, lat in samples if lat is not None]))
    buckets: Dict[int, List[int]] = {}
    for now, lat in samples:
        bucket = buckets.setdefault(int((now - start) // WINDOW_SECONDS), [0, 0])
        bucket[0] += 1
        if lat is not None and lat <= SLA_LATENCY_S:
            bucket[1] += 1
    judged = [b for b in buckets.values() if b[0] >= SLA_MIN_WINDOW_OPS]
    violated = sum(1 for total, within in judged
                   if within < total * SLA_PERCENTILE / 100.0)
    out = {"samples": int(latencies.size), "failed": len(samples) - int(latencies.size),
           "windows_judged": len(judged), "windows_violated": violated,
           "viol_frac": violated / len(judged) if judged else 0.0}
    if latencies.size:
        for label, p in (("p50", 50), ("p99", 99), ("p999", 99.9)):
            out[f"{label}_ms"] = float(np.percentile(latencies, p)) * 1000.0
            out[f"beyond_{label}"] = int(np.count_nonzero(
                latencies > np.percentile(latencies, p)))
    return out


def hit_rate(cache: Dict[str, int]) -> float:
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    return cache["hits"] / lookups if lookups else 0.0


def replica_divergence(engine) -> Tuple[List[str], int]:
    """Compare every alive replica with its group primary.

    Returns the replicas that disagree with their primary on a key the group
    owns, and the number of *orphan* copies: keys a replica holds that
    neither its primary holds nor its group owns.  An orphan is left behind
    when a write's propagation lands on a replica after data movement has
    handed the key to another group; no read is routed to it.
    """
    cluster = engine.cluster
    nodes = cluster.nodes
    diverged: List[str] = []
    orphans = 0

    def contents(node) -> Dict[str, dict]:
        return {ns: {k: (v.timestamp, v.version, v.tombstone)
                     for k, v in node.scan_namespace(ns)}
                for ns in node.namespaces()}

    for group_id, group in cluster.groups.items():
        primary = nodes.get(group.primary)
        if primary is None or not primary.alive:
            continue
        reference = contents(primary)
        for node_id in group.node_ids[1:]:
            node = nodes.get(node_id)
            if node is None or not node.alive or node.draining:
                continue
            held = contents(node)
            for ns in set(reference) | set(held):
                ours, theirs = reference.get(ns, {}), held.get(ns, {})
                if ours == theirs:
                    continue
                for key in set(ours) | set(theirs):
                    if ours.get(key) == theirs.get(key):
                        continue
                    owned = cluster.group_for_key(ns, key).group_id == group_id
                    if owned or key in ours:
                        diverged.append(f"{node_id}:{ns}:{key}")
                    else:
                        orphans += 1
    return diverged, orphans


class TracedCounters:
    """Counts sampled by tracer hooks where the work happens."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Start counting afresh (called when the workload phase begins)."""
        self.index_entries_read = 0
        self.rows_returned = 0
        self.replication_pending_max = 0
        self.index_backlog_max = 0
        self.utilisation_samples: List[float] = []

    def hooks(self):
        def query_rows(_executor, result) -> None:
            self.index_entries_read += result.index_entries_read
            self.rows_returned += len(result.rows)

        def replication_pending(replication, _records) -> None:
            self.replication_pending_max = max(self.replication_pending_max,
                                               replication.pending_count())

        def index_backlog(updater, _task) -> None:
            self.index_backlog_max = max(self.index_backlog_max,
                                         updater.pending_count())

        def window_utilisation(_monitor, observation) -> None:
            self.utilisation_samples.append(observation.features.mean_utilisation)

        return {
            "core.query.QueryExecutor.execute": query_rows,
            "storage.replication.ReplicationEngine.propagate": replication_pending,
            "core.index.AsyncIndexUpdater.enqueue": index_backlog,
            "core.provisioning.SLAMonitor.close_window": window_utilisation,
        }


def run_pass(workload: Workload, seed: int, seconds: float, mode: str) -> dict:
    horizon = workload.horizon(seconds)
    traced = mode == "traced"
    tracer = counters = None
    if traced:
        counters = TracedCounters()
        tracer = LayerTracer(
            hooks=counters.hooks(),
            keep_durations=("apps.SocialNetworkApp.execute",
                            "setup.SocialNetworkApp.load_graph"))
        tracer.install()

    setups: List[ReferenceClock] = []
    built: list = []
    while not setups or mode == "timed" and len(setups) < SETUP_MAX_REPEATS and (
            len(setups) < SETUP_MIN_REPEATS
            or sum(c.wall_s for c in setups) < SETUP_MIN_SECONDS):
        built.clear()
        gc.collect()
        setups.append(ReferenceClock())
        setups[-1].time(lambda: built.append(build(workload, seed)))
    engine, app, graph = built[0]
    setup_walls = [c.wall_s for c in setups]
    setup_ops = engine.cumulative_operation_counts()

    recorder = PhaseRecorder(engine)
    mix = workload.operation_mix(graph, engine.sim.random.get("workload-mix"))
    generator = LoadGenerator(engine.sim, workload.trace(horizon), mix, app.execute)
    phase_start = engine.now
    events_before = engine.sim.processed_events
    calls_before = dict(tracer.calls) if traced else None
    cache_before = (dataclasses.replace(engine.cache.store.stats)
                    if engine.cache is not None else None)
    if traced:
        counters.reset()
    gc.collect()
    run_clock = ReferenceClock()
    generator.start()
    slices = max(1, round(horizon / RUN_SLICE_SECONDS))
    for i in range(1, slices + 1):
        end = phase_start + horizon * i / slices
        run_clock.time(lambda: engine.sim.run_until(end))
    generator.stop()
    run_wall = run_clock.wall_s
    events = engine.sim.processed_events - events_before

    ops = generator.stats.operations_issued
    served = {op: len(log) for op, log in recorder.samples.items()}
    cache = {}
    if cache_before is not None:
        stats = dataclasses.asdict(engine.cache.store.stats)
        cache = {k: v - getattr(cache_before, k) for k, v in stats.items()}
    engine_ops = {op: n - setup_ops.get(op, 0)
                  for op, n in engine.cumulative_operation_counts().items()}
    reads = latency_summary(recorder.samples["read"], phase_start)
    writes = latency_summary(recorder.samples["write"], phase_start)
    attempted = served["read"] + served["write"]
    failed = reads["failed"] + writes["failed"]
    sim = {
        "horizon_s": horizon,
        "ops_issued": ops,
        "events": events,
        "reads": reads,
        "writes": writes,
        "attempted": attempted,
        "failed": failed,
        "dollars": engine.pool.total_cost(),
        "machine_hours": engine.pool.total_machine_hours(),
        "max_staleness_s": recorder.max_lag,
        "cache_hit_rate": hit_rate(cache),
        "scale_ups": engine.controller.scale_up_count(),
        "scale_downs": engine.controller.scale_down_count(),
        "repartitions": engine.controller.repartition_count(),
        "final_nodes": engine.cluster.node_count(),
        "setup_writes": setup_ops.get("write", 0),
    }
    digest = hashlib.sha256(json.dumps(
        [sim, recorder.samples["read"], recorder.samples["write"]]).encode())
    sim["fingerprint"] = digest.hexdigest()

    layers = layer_checks = None
    if traced:
        layers, layer_checks = traced_layers(
            tracer, counters, engine, calls_before, cache, attempted, events,
            workload, setup_walls[0], run_wall, setup_ops.get("write", 0))
        tracer.uninstall()

    lost = engine.lost_write_count()
    checks = {
        # The recorder must have seen every client op the engine counted.
        "recorder_saw_every_op": served == {op: engine_ops.get(op, 0)
                                            for op in served},
        "no_stale_reads": engine.stale_read_count() == 0,
        "no_lost_writes": lost is None or lost == 0,
        "write_audit_on": lost is not None or not workload.engine_knobs.get("write_audit"),
        "anti_affinity": not engine.cluster.anti_affinity_violations(),
        "reads_sampled_beyond_p999": reads.get("beyond_p999", 0) >= 10,
    }
    engine.settle(SETTLE_SECONDS)
    diverged, orphans = replica_divergence(engine)
    checks["replicas_converged"] = not diverged
    if traced:
        checks.update(layer_checks)
        layers["storage.cluster.orphan_copies"] = orphans
    return {
        "workload": workload.name,
        "seed": seed,
        "mode": mode,
        "sim": sim,
        "host": {
            "setup_s": statistics.median(c.reference_s for c in setups),
            "setup_wall_s": statistics.median(setup_walls),
            "setup_walls_s": setup_walls,
            "run_wall_s": run_wall,
            "ops_per_wall_s": ops / run_wall,
            "ops_per_ref_s": ops / run_clock.reference_s,
            "pass_wall_s": setup_walls[-1] + run_wall,
            "pass_ref_s": setups[-1].reference_s + run_clock.reference_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "checks": checks,
        "diverged": diverged[:10],
        "orphan_copies": orphans,
        "layers": layers,
        "missing_entry_points": tracer.missing if traced else [],
    }


def traced_layers(tracer: LayerTracer, counters: TracedCounters, engine,
                  calls_before: Dict[str, int], cache: Dict[str, int],
                  client_ops: int, events: int,
                  workload: Workload, setup_wall: float, run_wall: float,
                  setup_writes: int) -> Tuple[dict, dict]:
    """Per-layer metrics of a traced pass, and the trace's own checks.

    Calls and self times span the set-up and the workload phase, so they
    add up to the traced wall time; ``setup.*`` covers the set-up alone and
    every other count the workload phase alone.
    """
    wall = setup_wall + run_wall
    out: Dict[str, float] = {}
    for name in tracer.calls:
        out[f"{name}.calls"] = tracer.calls[name]
        out[f"{name}.self_s"] = tracer.self_s[name]
    attributed = sum(tracer.self_s.values())

    def delta(name: str) -> int:
        return tracer.calls[name] - calls_before[name]

    execute = np.array(tracer.durations["apps.SocialNetworkApp.execute"]) * 1e6
    scans = delta("cache.StalenessBudgetCache._containment_lookup")
    router_reads = sum(delta(f"storage.router.Router.{m}")
                       for m in ("read", "read_many", "read_range"))
    load_graph = tracer.durations["setup.SocialNetworkApp.load_graph"]
    utilisation = counters.utilisation_samples
    updater = engine.updater.stats()
    out.update({
        "sim.events": events,
        "sim.events_per_op": events / client_ops,
        "apps.execute.host_us_p50": float(np.percentile(execute, 50)) if execute.size else 0.0,
        "apps.execute.host_us_p99": float(np.percentile(execute, 99)) if execute.size else 0.0,
        "core.engine.reads_per_op": router_reads / client_ops,
        "core.query.keys_examined_per_row": (
            counters.index_entries_read / counters.rows_returned
            if counters.rows_returned else 0.0),
        "cache.hit_rate": hit_rate(cache),
        "cache.containment_hits": cache.get("containment_hits", 0),
        "cache.containment.useful_frac": (
            cache["containment_hits"] / scans if cache and scans else 0.0),
        "cache.lru_evictions": cache.get("lru_evictions", 0),
        "cache.invalidations": cache.get("invalidations", 0),
        "storage.node.mean_utilisation": (
            sum(utilisation) / len(utilisation) if utilisation else 0.0),
        "storage.replication.retries":
            tracer.calls["storage.replication.ReplicationEngine._schedule_retry"],
        "storage.replication.pending_max": counters.replication_pending_max,
        "core.index.deadline_miss_frac": updater.miss_rate,
        "core.index.backlog_max": counters.index_backlog_max,
        "storage.cluster.keys_moved": engine.cluster.keys_moved_total,
        "core.provisioning.scale_ups": engine.controller.scale_up_count(),
        "core.provisioning.scale_downs": engine.controller.scale_down_count(),
        "core.provisioning.repartitions": engine.controller.repartition_count(),
        "cloud.machine_hours": engine.pool.total_machine_hours(),
        "setup.engine_build_s": setup_wall - sum(load_graph),
        "setup.load_graph_s": sum(load_graph),
        "setup.bulk_writes": setup_writes,
        "trace.unattributed_s": wall - attributed,
        "trace.wall_s": wall,
    })
    layer_calls = tracer.layer_calls()
    checks = {
        "trace_self_times_non_negative": all(v >= -1e-9 for v in tracer.self_s.values()),
        "trace_accounts_for_wall": 0.0 <= wall - attributed <= wall,
    }
    for layer, names in LAYER_WORKLOADS.items():
        if workload.name in names:
            checks[f"layer_{layer}_called"] = layer_calls.get(layer, 0) > 0
    return out, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("timed", "plain", "traced"), required=True)
    args = parser.parse_args(argv)
    result = run_pass(WORKLOADS[args.workload], args.seed, args.seconds,
                      args.mode)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
