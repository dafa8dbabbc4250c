"""Perf — simulator throughput on the standard closed-loop scenario.

Every experiment in this repository is a closed-loop simulation, so simulator
throughput (simulated operations per wall-clock second) bounds the scenario
scale we can afford: more users, longer traces, more seeds per benchmark.
This harness pins down two numbers and records their trajectory in
``BENCH_PERF.json`` so each future PR can see what it did to them:

* **scenario ops/wall-sec** — a fixed Zipf closed-loop scenario (point reads
  and writes through the full engine stack: router, partitioner, replication,
  SLA accounting, provisioning loop) divided by the wall time it took.
* **event-queue events/wall-sec** — a bare push/pop microbench of the
  discrete-event kernel, isolating ``Event``/``EventQueue`` overhead from the
  request path.
* **suite-level sweep wall-clock** — a fixed batch of independent seeded
  runs executed serially vs across a process pool (the parallel experiment
  fabric, ``repro.parallel``), recording the wall-clock of each and
  asserting byte-identical per-run results; the >= 3x speedup assertion
  only arms on machines with 4+ cores.
* **cache range index** — per-op cost of a containment miss and of
  ``invalidate_key`` in the cache store with 128 and with 4096 disjoint
  per-user prefix ranges cached; asserts in every mode that the cost grows
  at most 4x across that 32x growth in cached ranges.
* **query dereference** — per-entry cost of a 20-entry dereferencing query
  (one index scan plus 20 profile reads) with every read served by the
  cache tier, and with the cache emptied before every query; asserts in
  every mode that a hit costs less per entry than a miss.
* **replication** — per-write cost of propagating writes to two replicas
  and delivering them, and the gc-tracked objects one in-flight
  propagation holds; asserts in every mode that it holds at most two (the
  propagation record and its simulator event).

Run it via ``make perf`` (full scenario; sets ``BENCH_PERF_RECORD=1`` to
append to ``BENCH_PERF.json`` and assert the speedup) or as part of
``make bench`` / ``make bench-smoke``, where it only reports (never dirties
the committed trajectory or fails on unrelated hardware).  The committed
baseline entry (``pre-PR4-baseline``) was measured immediately before the
hot-path overhaul landed; the assertion checks the overhaul's >= 3x claim
against it on comparable hardware and can be disabled with
``BENCH_PERF_NO_ASSERT=1`` (e.g. on a much slower machine, where an absolute
comparison against committed numbers is meaningless).
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import replace

from repro.apps.social_network import SocialNetworkApp
from repro.cache.store import StalenessBudgetCache
from repro.core.engine import Scads
from repro.experiments.harness import build_engine_and_app, smoke_scaled, smoke_mode
from repro.experiments.perf_log import append_entry, load_trajectory
from repro.parallel.scenarios import STANDARD_CLOSED_LOOP, smoke_grid
from repro.parallel.spec import SweepGrid
from repro.parallel.executor import run_sweep
from repro.sim.network import NetworkModel
from repro.sim.simulator import Simulator
from repro.storage.node import StorageNode
from repro.storage.records import VersionedValue
from repro.storage.replication import ReplicaGroup, ReplicationEngine
from repro.workloads.generator import LoadGenerator
from repro.workloads.opmix import CloudStoneMix
from repro.workloads.traces import ConstantTrace

BENCH_PERF_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_PERF.json")

# The standard closed-loop scenario: the repository's own experiment-harness
# path (social-network app, CloudStone mix, trace-driven load generator,
# autoscaling engine) at a flat offered rate.  This is the request loop every
# paper experiment (E1/E5/E6, fig1/fig2) drives; its simulated-ops-per-wall-
# second is what bounds scenario scale.  Parameters are frozen — changing
# them invalidates the trajectory in BENCH_PERF.json.
N_USERS = 300
RATE = 300.0            # offered ops/sec (CloudStone default ~90/10 read mix)
DURATION = smoke_scaled(1200.0, 20.0)
CONTROL_INTERVAL = 30.0
SEED = 11

EVENT_QUEUE_EVENTS = int(smoke_scaled(300_000, 20_000))
SPEEDUP_TARGET = 3.0
# Single-run throughput must not erode between recordings: each recorded run
# is also compared against the most recent prior scenario entry.  The
# tolerance absorbs the documented ±10% run-to-run noise on shared hardware
# (see PERFORMANCE.md) — a real regression larger than that fails the run.
NO_REGRESS_FRACTION = 0.85


def _run_scenario_instrumented(duration: float,
                               engine_kwargs: dict | None = None) -> tuple:
    """One closed-loop run; returns (stats, fingerprint, trace_count).

    The fingerprint captures every deterministic observable of the run —
    op/event counts and the full per-op latency distributions — so two runs
    can be compared for byte-identical simulation behaviour (the
    telemetry-overhead test's determinism gate).
    """
    # The frozen scenario pins the pre-flip engine shape (no cache tier, no
    # rebalancer): BENCH_PERF.json entries recorded before the features
    # became default-on must stay comparable with entries recorded after.
    engine_kwargs = {"cache": False, "repartition": False,
                     **(engine_kwargs or {})}
    engine, app, graph = build_engine_and_app(
        seed=SEED,
        n_users=N_USERS,
        autoscale=True,
        predictive_scaling=False,
        initial_groups=4,
        control_interval=CONTROL_INTERVAL,
        engine_kwargs=engine_kwargs,
    )
    engine.start()
    mix = CloudStoneMix(graph, engine.sim.random.get("workload-mix"))
    generator = LoadGenerator(engine.sim, ConstantTrace(rate=RATE), mix, app.execute)
    events_before = engine.sim.processed_events
    generator.start()
    start = time.perf_counter()
    engine.run_for(duration)
    wall = time.perf_counter() - start
    generator.stop()
    stats = {
        "ops": generator.stats.operations_issued,
        "events": engine.sim.processed_events - events_before,
        "wall_seconds": round(wall, 3),
        "ops_per_wall_sec": round(generator.stats.operations_issued / wall, 1),
    }
    fingerprint = {
        "ops": generator.stats.operations_issued,
        "events": engine.sim.processed_events,
        "latencies": {op: engine.latencies.all_time(op).snapshot()
                      for op in sorted(engine.latencies.op_types())},
    }
    return stats, fingerprint, len(engine.traces())


def run_scenario() -> dict:
    """One closed-loop run; returns simulated-op and wall-clock counts.

    Setup (graph bulk load) is excluded from the timed section; the clock
    runs only while the simulator processes the ``DURATION`` seconds of
    closed-loop traffic.
    """
    stats, _, _ = _run_scenario_instrumented(DURATION)
    return stats


def run_event_queue_microbench() -> dict:
    """Push/pop throughput of the bare discrete-event kernel.

    A self-rescheduling chain of no-op events, the same shape as the load
    generators and periodic loops that dominate the queue in real scenarios.
    """
    sim = Simulator(seed=0)
    remaining = {"n": EVENT_QUEUE_EVENTS}

    def tick() -> None:
        remaining["n"] -= 1
        if remaining["n"] > 0:
            sim.schedule(0.001, tick, name="tick")

    # Four concurrent chains so the heap holds more than one live event.
    for _ in range(4):
        sim.schedule(0.001, tick, name="tick")
    start = time.perf_counter()
    sim.run(max_events=EVENT_QUEUE_EVENTS + 8)
    wall = time.perf_counter() - start
    events = sim.processed_events
    return {
        "events": events,
        "wall_seconds": round(wall, 3),
        "events_per_wall_sec": round(events / wall, 0),
    }


def _load_trajectory() -> list:
    # Schema-validated load: a malformed committed entry fails every bench
    # run immediately instead of silently skewing a later comparison.
    return load_trajectory(BENCH_PERF_PATH)


def _append_trajectory(entry: dict) -> None:
    append_entry(BENCH_PERF_PATH, entry)


def _baseline_entry(trajectory: list) -> dict | None:
    for entry in trajectory:
        if entry.get("label") == "pre-PR4-baseline":
            return entry
    return None


def test_perf_throughput(table_printer):
    scenario = run_scenario()
    event_queue = run_event_queue_microbench()
    table_printer(
        "Perf: simulator throughput",
        ["metric", "count", "wall s", "per wall-sec"],
        [
            ["scenario ops", scenario["ops"], scenario["wall_seconds"],
             scenario["ops_per_wall_sec"]],
            ["event queue", event_queue["events"], event_queue["wall_seconds"],
             int(event_queue["events_per_wall_sec"])],
        ],
    )
    if smoke_mode():
        return  # shortened scenario: numbers are noise; no recording, no assertion
    baseline = _baseline_entry(_load_trajectory())
    if baseline is not None:
        speedup = scenario["ops_per_wall_sec"] / baseline["scenario"]["ops_per_wall_sec"]
        print(f"speedup vs pre-PR4-baseline: {speedup:.2f}x "
              f"(target >= {SPEEDUP_TARGET:.1f}x)")
    # Recording and the speedup assertion are opt-in (`make perf` sets
    # BENCH_PERF_RECORD=1): the bench_*.py glob also pulls this file into
    # `make bench`, which must neither dirty the committed trajectory nor
    # fail on hardware slower than the machine the baseline was recorded on.
    if os.environ.get("BENCH_PERF_RECORD", "") in ("", "0"):
        return
    label = os.environ.get("BENCH_PERF_LABEL", "run")
    previous = [entry for entry in _load_trajectory() if "scenario" in entry]
    # Assertions run BEFORE the entry is recorded: a regressed run must not
    # write itself into the trajectory, where it would become the next run's
    # ratchet baseline and silently lower the bar.
    if not (baseline is None or label == "pre-PR4-baseline"
            or os.environ.get("BENCH_PERF_NO_ASSERT", "") not in ("", "0")):
        assert speedup >= SPEEDUP_TARGET, (
            f"hot-path speedup regressed: {speedup:.2f}x vs the pre-PR4 "
            f"baseline (need >= {SPEEDUP_TARGET}x; set BENCH_PERF_NO_ASSERT=1 "
            "on non-comparable hardware)"
        )
        if previous:
            latest = previous[-1]["scenario"]["ops_per_wall_sec"]
            ratio = scenario["ops_per_wall_sec"] / latest
            assert ratio >= NO_REGRESS_FRACTION, (
                f"single-run throughput regressed to {ratio:.2f}x of the "
                f"latest recording ({previous[-1]['label']}: {latest} "
                f"ops/wall-sec); need >= {NO_REGRESS_FRACTION}x — set "
                "BENCH_PERF_NO_ASSERT=1 on non-comparable hardware"
            )
    _append_trajectory({
        "label": label,
        "scenario": scenario,
        "event_queue": event_queue,
    })


# --------------------------------------------------------------- suite sweep
#
# The parallel experiment fabric's headline number: wall-clock of a fixed
# batch of independent closed-loop runs executed serially (workers=1) vs
# across a process pool.  The batch is SWEEP_RUNS seeded replicates of the
# standard scenario shortened to SWEEP_DURATION simulated seconds —
# shortened because the comparison needs the *batch* shape (N independent
# runs), not the frozen single-run scenario's absolute cost, and it runs
# twice per measurement.  Parameters are frozen like the scenario's.
SWEEP_RUNS = 8
SWEEP_DURATION = smoke_scaled(120.0, 10.0)
SWEEP_BASE_SEED = 11
SWEEP_SPEEDUP_TARGET = 3.0
SWEEP_MIN_CPUS = 4


def _sweep_grid() -> SweepGrid:
    if smoke_mode():
        return smoke_grid(runs=4, base_seed=SWEEP_BASE_SEED,
                          duration=SWEEP_DURATION, rate=30.0)
    # Pin the pre-flip shape (defaults-off engine, PR 5's 4-group fleet) so
    # recorded sweep entries stay comparable as shipped defaults move.
    scenario = replace(STANDARD_CLOSED_LOOP, duration=SWEEP_DURATION,
                       initial_groups=4,
                       engine_knobs={"cache": False, "repartition": False})
    return SweepGrid(scenario=scenario, replicates=SWEEP_RUNS,
                     base_seed=SWEEP_BASE_SEED)


def _results_identical(serial, parallel) -> bool:
    """Byte-identical per-run results between serial and pooled execution.

    Every deterministic field of the portable summary is compared — op
    counts, both SLA reports, the full cost report, scaling/lag aggregates
    (via ``summary()``), hit rate, and both latency distributions — so a
    nondeterminism confined to e.g. the provisioning/cost path cannot slip
    past the gate.  Only wall-clock is exempt.
    """
    def snap(estimator):
        return estimator.snapshot() if estimator is not None else None

    if len(serial.records) != len(parallel.records):
        return False
    for a, b in zip(serial.records, parallel.records):
        if a.ok != b.ok or not a.ok:
            return False
        sa, sb = a.summary, b.summary
        if (sa.operations != sb.operations
                or sa.operation_counts != sb.operation_counts
                or sa.read_report != sb.read_report
                or sa.write_report != sb.write_report
                or sa.cost != sb.cost
                or sa.cache_hit_rate != sb.cache_hit_rate
                or sa.summary() != sb.summary()
                or snap(sa.read_latency) != snap(sb.read_latency)
                or snap(sa.write_latency) != snap(sb.write_latency)):
            return False
    return True


def test_suite_sweep_throughput(table_printer):
    """Serial vs parallel wall-clock for a fixed batch of independent runs."""
    grid = _sweep_grid()
    # At least 2 workers even on a 1-cpu container, so the parallel leg
    # always crosses the process boundary (the determinism assertion should
    # compare pooled execution against inline, not inline against itself).
    workers = max(2, min(os.cpu_count() or 1, grid.run_count()))
    if smoke_mode():
        workers = 2  # tiny grid, two workers: proves the fan-out end to end
    serial = run_sweep(grid, workers=1)
    parallel = run_sweep(grid, workers=workers)
    identical = _results_identical(serial, parallel)
    speedup = serial.wall_seconds / max(parallel.wall_seconds, 1e-9)
    table_printer(
        "Perf: suite-level sweep (serial vs parallel)",
        ["execution", "runs", "workers", "wall s"],
        [
            ["serial", len(serial.records), 1, round(serial.wall_seconds, 2)],
            ["parallel", len(parallel.records), workers,
             round(parallel.wall_seconds, 2)],
        ],
    )
    print(f"sweep speedup: {speedup:.2f}x on {os.cpu_count()} cpus; "
          f"per-run results identical: {identical}")
    # Failures first: a run that fails in both legs would also make the
    # identity check report False, pointing the maintainer at a phantom
    # nondeterminism bug instead of the actual traceback.
    for failure in (*serial.failures, *parallel.failures):
        print(f"--- {failure.run_id} ---\n{failure.traceback}")
    assert not serial.failures and not parallel.failures
    # Determinism is hardware-independent — assert it in every mode.
    assert identical, (
        "parallel sweep produced different per-run results than serial "
        "execution of the same expanded grid"
    )
    if smoke_mode():
        return  # shortened runs: wall-clock is noise; no recording/assertion
    if os.environ.get("BENCH_PERF_RECORD", "") in ("", "0"):
        return
    label = os.environ.get("BENCH_PERF_LABEL", "run")
    entry = {
        "label": f"{label}-sweep",
        "sweep": {
            "runs": grid.run_count(),
            "workers": workers,
            "cpus": os.cpu_count() or 1,
            "per_run_sim_seconds": SWEEP_DURATION,
            "serial_wall_seconds": round(serial.wall_seconds, 3),
            "parallel_wall_seconds": round(parallel.wall_seconds, 3),
            "speedup": round(speedup, 2),
            "results_identical": identical,
        },
    }
    notes = os.environ.get("BENCH_PERF_NOTES", "")
    if notes:
        entry["notes"] = notes
    # Assert before recording (a failing run must not leave its entry in the
    # trajectory).  The >= 3x claim needs cores to spread across; a 1-2 core
    # container can only demonstrate determinism, not speedup.
    if ((os.cpu_count() or 1) >= SWEEP_MIN_CPUS
            and os.environ.get("BENCH_PERF_NO_ASSERT", "") in ("", "0")):
        assert speedup >= SWEEP_SPEEDUP_TARGET, (
            f"suite-level sweep speedup {speedup:.2f}x < "
            f"{SWEEP_SPEEDUP_TARGET}x on {os.cpu_count()} cpus "
            "(set BENCH_PERF_NO_ASSERT=1 on constrained hardware)"
        )
    _append_trajectory(entry)


# ------------------------------------------------------- telemetry overhead
#
# The observability layer's contract has two halves: telemetry **off** is the
# default and must cost nothing (the engine holds a None and every op-path
# check is one `is not None` branch — covered by the main scenario ratchet
# above, which runs with telemetry off), and telemetry **on** must (a) leave
# the simulation byte-identical — sampling is counter-modulo, never an RNG
# draw — and (b) stay within a bounded wall-clock overhead.  The scenario is
# the frozen standard closed loop, shortened: the comparison needs the
# on/off *ratio* on identical work, not the frozen scenario's absolute cost,
# and it runs twice per measurement.
TELEMETRY_DURATION = smoke_scaled(600.0, 20.0)
TELEMETRY_MAX_OVERHEAD = 1.10  # on-wall <= 1.10x off-wall


def test_telemetry_overhead(table_printer):
    off_stats, off_fingerprint, _ = _run_scenario_instrumented(TELEMETRY_DURATION)
    on_stats, on_fingerprint, trace_count = _run_scenario_instrumented(
        TELEMETRY_DURATION, engine_kwargs={"telemetry": True})
    identical = off_fingerprint == on_fingerprint
    ratio = on_stats["wall_seconds"] / max(off_stats["wall_seconds"], 1e-9)
    table_printer(
        "Perf: telemetry overhead (off vs on)",
        ["telemetry", "ops", "wall s", "ops/wall-sec"],
        [
            ["off", off_stats["ops"], off_stats["wall_seconds"],
             off_stats["ops_per_wall_sec"]],
            ["on", on_stats["ops"], on_stats["wall_seconds"],
             on_stats["ops_per_wall_sec"]],
        ],
    )
    print(f"telemetry-on wall ratio: {ratio:.3f}x "
          f"(bound {TELEMETRY_MAX_OVERHEAD:.2f}x); traces sampled: "
          f"{trace_count}; simulation identical: {identical}")
    # Determinism is hardware-independent — assert it in every mode.  The
    # latency fingerprints compare full distributions, so a single diverging
    # RNG draw anywhere in the traced run fails here.
    assert identical, (
        "telemetry=True changed simulation results — tracing must not "
        "consume RNG draws or alter event ordering"
    )
    assert trace_count > 0, "traced run sampled no traces"
    if smoke_mode():
        return  # shortened run: wall-clock ratio is noise; no assertion
    if os.environ.get("BENCH_PERF_RECORD", "") in ("", "0"):
        return
    # Assert before recording, with the usual escape hatch for noisy or
    # non-comparable hardware.
    if os.environ.get("BENCH_PERF_NO_ASSERT", "") in ("", "0"):
        assert ratio <= TELEMETRY_MAX_OVERHEAD, (
            f"telemetry-on overhead {ratio:.3f}x exceeds "
            f"{TELEMETRY_MAX_OVERHEAD}x (set BENCH_PERF_NO_ASSERT=1 on "
            "noisy hardware)"
        )
    label = os.environ.get("BENCH_PERF_LABEL", "run")
    _append_trajectory({
        "label": f"{label}-telemetry",
        "telemetry": {
            "off_wall_seconds": off_stats["wall_seconds"],
            "on_wall_seconds": on_stats["wall_seconds"],
            "on_off_ratio": round(ratio, 3),
            "traces": trace_count,
            "results_identical": identical,
        },
    })


# ------------------------------------------------------- cache range index
#
# Every query's range read and every index write goes through the cache
# store's range path: an exact-token miss falls through to a containment
# lookup, and an index write calls ``invalidate_key``.  The microbench caches
# CACHE_INDEX_SIZES[i] disjoint per-user prefix ranges (the shape the social
# app issues), then times containment misses and non-matching invalidations
# for users whose ranges are not cached, interleaved with the cached ones.
# The ratio of per-op costs between the two sizes is machine-independent:
# a per-namespace scan grows with the cached ranges (32x here), the range
# index by a bisection step or two.
CACHE_INDEX_SIZES = (128, 4096)
CACHE_INDEX_OPS = int(smoke_scaled(4000, 1000))
CACHE_INDEX_REPEATS = 5
CACHE_INDEX_MAX_SCALING = 4.0


def _best_per_op_us(fn, calls) -> float:
    """Best-of-CACHE_INDEX_REPEATS wall time per call, in microseconds."""
    best = float("inf")
    for _ in range(CACHE_INDEX_REPEATS):
        start = time.perf_counter()
        for args in calls:
            fn(*args)
        best = min(best, time.perf_counter() - start)
    return best / len(calls) * 1e6


def _cache_index_costs(ranges: int) -> tuple:
    """(lookup-miss us, invalidate us) per op with ``ranges`` cached ranges."""
    store = StalenessBudgetCache(capacity=2 * ranges)
    users = [f"u{i:08d}" for i in range(2 * ranges)]
    for user in users[::2]:
        store.put_range("idx", (user,), (user + "\x00",), None, False,
                        [((user, "row"), {})], now=0.0, ttl=1e9)
    absent = [users[(2 * i + 1) % len(users)] for i in range(CACHE_INDEX_OPS)]
    lookup_us = _best_per_op_us(store.get_range, [
        ("idx", (user,), (user + "\x00",), None, False, 1.0) for user in absent])
    invalidate_us = _best_per_op_us(store.invalidate_key, [
        ("idx", (user, "row")) for user in absent])
    assert len(store) == ranges, "the timed ops must neither hit nor drop"
    return lookup_us, invalidate_us


def run_cache_index_microbench() -> tuple:
    """Per-op costs at each of CACHE_INDEX_SIZES, and the recorded section."""
    costs = [_cache_index_costs(ranges) for ranges in CACHE_INDEX_SIZES]
    (small_lookup, small_invalidate), (lookup, invalidate) = costs
    section = {
        "ranges": CACHE_INDEX_SIZES[1],
        "ops": CACHE_INDEX_OPS,
        "lookup_miss_us": round(lookup, 3),
        "invalidate_us": round(invalidate, 3),
        "scaling_ratio": round(max(lookup / small_lookup,
                                   invalidate / small_invalidate), 2),
    }
    return costs, section


def test_cache_index_scaling(table_printer):
    """Range-path cost in the cache store must stay near-flat in the number
    of cached ranges (the per-namespace range index)."""
    costs, section = run_cache_index_microbench()
    table_printer(
        "Perf: cache range index (per-op us)",
        ["ranges cached", "containment miss", "invalidate_key"],
        [[ranges, round(lookup, 3), round(invalidate, 3)]
         for ranges, (lookup, invalidate) in zip(CACHE_INDEX_SIZES, costs)],
    )
    print(f"cost growth {CACHE_INDEX_SIZES[0]} -> {CACHE_INDEX_SIZES[1]} "
          f"ranges: {section['scaling_ratio']:.2f}x "
          f"(bound {CACHE_INDEX_MAX_SCALING:.0f}x)")
    # A ratio of two timings on the same host: asserted in every mode.
    assert section["scaling_ratio"] <= CACHE_INDEX_MAX_SCALING, (
        f"cache range-path cost grew {section['scaling_ratio']:.1f}x from "
        f"{CACHE_INDEX_SIZES[0]} to {CACHE_INDEX_SIZES[1]} cached ranges "
        f"(bound {CACHE_INDEX_MAX_SCALING}x)"
    )
    if smoke_mode() or os.environ.get("BENCH_PERF_RECORD", "") in ("", "0"):
        return
    label = os.environ.get("BENCH_PERF_LABEL", "run")
    entry = {"label": f"{label}-cache-index", "cache_index": section}
    notes = os.environ.get("BENCH_PERF_NOTES", "")
    if notes:
        entry["notes"] = notes
    _append_trajectory(entry)


# ------------------------------------------------- query dereference microbench

QUERY_DEREF_ENTRIES = 20
QUERY_DEREF_QUERIES = int(smoke_scaled(400, 100))


def _query_deref_engine() -> Scads:
    """A small engine as ``Scads()`` ships it (cache on) whose user ``u00``
    has QUERY_DEREF_ENTRIES friends, so ``u00``'s birthday page is one
    20-entry index scan plus 20 profile dereferences."""
    engine = Scads(seed=13, autoscale=False, initial_groups=4)
    app = SocialNetworkApp(engine, friend_cap=QUERY_DEREF_ENTRIES,
                           page_size=QUERY_DEREF_ENTRIES)
    engine.start()
    users = [f"u{i:02d}" for i in range(QUERY_DEREF_ENTRIES + 1)]
    for i, user in enumerate(users):
        app.create_user(user, user.upper(), f"{1 + i % 12:02d}-{1 + i % 28:02d}")
    for friend in users[1:]:
        app.add_friendship(users[0], friend)
    engine.settle()
    return engine


def _query_deref_us(engine: Scads, cold: bool) -> float:
    """Best-of-CACHE_INDEX_REPEATS wall time per query, in microseconds;
    ``cold`` empties the cache before every (untimed) query start."""
    store = engine.cache.store
    hits_before = store.stats.hits
    misses_before = store.stats.misses
    best = float("inf")
    for _ in range(CACHE_INDEX_REPEATS):
        total = 0.0
        for _ in range(QUERY_DEREF_QUERIES):
            if cold:
                store.clear()
            start = time.perf_counter()
            result = engine.query("friend_birthdays", {"user_id": "u00"},
                                  session_id="u00")
            total += time.perf_counter() - start
        best = min(best, total)
    assert result.dereferences == QUERY_DEREF_ENTRIES
    unexpected = (store.stats.hits - hits_before if cold
                  else store.stats.misses - misses_before)
    assert unexpected == 0, "timed queries must be all hits or all misses"
    return best / QUERY_DEREF_QUERIES * 1e6


def run_query_deref_microbench() -> dict:
    """The recorded ``query_deref`` section: per-entry cost, hit and miss."""
    engine = _query_deref_engine()
    engine.query("friend_birthdays", {"user_id": "u00"}, session_id="u00")  # warm
    hit_us = _query_deref_us(engine, cold=False)
    miss_us = _query_deref_us(engine, cold=True)
    return {
        "entries": QUERY_DEREF_ENTRIES,
        "queries": QUERY_DEREF_QUERIES,
        "hit_us_per_entry": round(hit_us / QUERY_DEREF_ENTRIES, 3),
        "miss_us_per_entry": round(miss_us / QUERY_DEREF_ENTRIES, 3),
    }


def test_query_deref_cost(table_printer):
    """Host cost of the query read path's dereference step, per entry."""
    section = run_query_deref_microbench()
    table_printer(
        "Perf: query dereference (per-entry us, 20-entry query)",
        ["all hits", "all misses"],
        [[section["hit_us_per_entry"], section["miss_us_per_entry"]]],
    )
    # Two timings on the same host: asserted in every mode.
    assert section["hit_us_per_entry"] < section["miss_us_per_entry"], (
        "a cache-served dereference should cost less than a cluster read")
    if smoke_mode() or os.environ.get("BENCH_PERF_RECORD", "") in ("", "0"):
        return
    label = os.environ.get("BENCH_PERF_LABEL", "run")
    entry = {"label": f"{label}-query-deref", "query_deref": section}
    notes = os.environ.get("BENCH_PERF_NOTES", "")
    if notes:
        entry["notes"] = notes
    _append_trajectory(entry)


# ------------------------------------------------------- replication microbench
#
# REPLICATION_WRITES primary writes to one group of REPLICATION_FACTOR nodes,
# issued in batches of REPLICATION_BATCH with the simulator run past their
# deliveries after each batch, so a steady population of propagations is in
# flight while the collector runs, as in a write-heavy workload.  Separately,
# with the collector off, the gc-tracked objects that scheduling one
# replica copy leaves behind: everything beyond the propagation record and
# its event is per-copy garbage that young collections promote.

REPLICATION_WRITES = int(smoke_scaled(20_000, 2_000))
REPLICATION_FACTOR = 3
REPLICATION_BATCH = 100
REPLICATION_MAX_TRACKED = 2.0


def _replication_engine() -> tuple:
    sim = Simulator(seed=17)
    nodes = {f"n{i}": StorageNode(f"n{i}", sim.random.get(f"node:n{i}"))
             for i in range(REPLICATION_FACTOR)}
    engine = ReplicationEngine(sim, NetworkModel(sim.random.get("network")), nodes)
    return sim, engine, ReplicaGroup("g", list(nodes))


def _replication_us_per_write(writes: list) -> float:
    """Best-of-CACHE_INDEX_REPEATS wall time per propagated and delivered
    write, in microseconds."""
    best = float("inf")
    for _ in range(CACHE_INDEX_REPEATS):
        sim, engine, group = _replication_engine()
        start = time.perf_counter()
        for lo in range(0, len(writes), REPLICATION_BATCH):
            for key, value in writes[lo:lo + REPLICATION_BATCH]:
                engine.propagate(group, "ns", key, value)
            sim.run_until(sim.now + 0.05)
        best = min(best, time.perf_counter() - start)
        assert engine.pending_count() == 0, "every copy must have been delivered"
    return best / len(writes) * 1e6


def _tracked_objects_per_inflight(writes: list) -> float:
    """gc-tracked objects alive per scheduled replica copy, collector off."""
    _, engine, group = _replication_engine()
    engine.propagate(group, "ns", *writes[0])  # one-off first-call state
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for key, value in writes:
            engine.propagate(group, "ns", key, value)
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    return grown / (len(writes) * (REPLICATION_FACTOR - 1))


def run_replication_microbench() -> dict:
    """The recorded ``replication`` section."""
    writes = [((f"u{i:06d}",), VersionedValue({"v": i}, timestamp=0.0))
              for i in range(REPLICATION_WRITES)]
    return {
        "writes": REPLICATION_WRITES,
        "replicas": REPLICATION_FACTOR - 1,
        "us_per_write": round(_replication_us_per_write(writes), 3),
        "tracked_objects_per_inflight": round(_tracked_objects_per_inflight(writes), 3),
    }


def test_replication_propagate_cost(table_printer):
    """Host cost of lazy replication, and what an in-flight copy holds."""
    section = run_replication_microbench()
    table_printer(
        f"Perf: replication ({section['replicas']} replicas per write)",
        ["us per write", "gc-tracked objects per in-flight copy"],
        [[section["us_per_write"], section["tracked_objects_per_inflight"]]],
    )
    # An object count, not a timing: asserted in every mode.
    assert section["tracked_objects_per_inflight"] <= REPLICATION_MAX_TRACKED, (
        f"an in-flight propagation holds {section['tracked_objects_per_inflight']} "
        f"gc-tracked objects (bound {REPLICATION_MAX_TRACKED}: record + event)")
    if smoke_mode() or os.environ.get("BENCH_PERF_RECORD", "") in ("", "0"):
        return
    label = os.environ.get("BENCH_PERF_LABEL", "run")
    entry = {"label": f"{label}-replication", "replication": section}
    notes = os.environ.get("BENCH_PERF_NOTES", "")
    if notes:
        entry["notes"] = notes
    _append_trajectory(entry)
