"""Per-layer spans for the traced pass, recorded from outside the program.

:class:`LayerTracer` replaces public entry points of ``src/repro`` classes
with timing wrappers before the engine is built and restores them
afterwards.  Each wrapper keeps a call count and a *self* time: its span's
duration minus the durations of the spans it directly encloses, so the self
times of all entry points plus the time outside any span add up to the
traced wall time.  The wrappers draw no random numbers and schedule no
events, so the traced run simulates exactly what the untraced run does.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps.social_network import SocialNetworkApp
from repro.cache.store import StalenessBudgetCache
from repro.cache.tier import CacheTier
from repro.cloud.pool import InstancePool
from repro.core.engine import Scads
from repro.core.index.updater import AsyncIndexUpdater
from repro.core.provisioning.controller import ProvisioningController
from repro.core.provisioning.monitor import SLAMonitor
from repro.core.provisioning.planner import CapacityPlanner
from repro.core.query.executor import QueryExecutor
from repro.metrics.percentiles import LatencyRecorder
from repro.metrics.sla import SLATracker
from repro.ml.performance_model import LatencyPercentileModel
from repro.sim.simulator import Simulator
from repro.storage.cluster import Cluster
from repro.storage.node import StorageNode
from repro.storage.rebalancer import PartitionLoadTracker, Rebalancer
from repro.storage.replication import ReplicationEngine
from repro.storage.router import Router
from repro.workloads.opmix import CloudStoneMix

# (layer, class, method) for every timed entry point.
ENTRY_POINTS: Tuple[Tuple[str, type, str], ...] = (
    ("sim", Simulator, "run_until"),
    ("workloads", CloudStoneMix, "next_operation"),
    ("apps", SocialNetworkApp, "execute"),
    ("core.engine", Scads, "get"),
    ("core.engine", Scads, "put"),
    ("core.engine", Scads, "query"),
    ("core.query", QueryExecutor, "execute"),
    ("cache", CacheTier, "lookup_entity"),
    ("cache", StalenessBudgetCache, "get_range"),
    # The range-containment scan behind get_range misses: the first
    # optimisation target ROADMAP names, so it gets its own span.
    ("cache", StalenessBudgetCache, "_containment_lookup"),
    ("cache", StalenessBudgetCache, "invalidate_key"),
    ("storage.router", Router, "read"),
    ("storage.router", Router, "read_many"),
    ("storage.router", Router, "read_range"),
    ("storage.router", Router, "write"),
    ("storage.node", StorageNode, "get"),
    ("storage.node", StorageNode, "multi_get"),
    ("storage.node", StorageNode, "put"),
    ("storage.node", StorageNode, "get_range"),
    ("storage.node", StorageNode, "apply_replica_write"),
    ("storage.replication", ReplicationEngine, "propagate"),
    ("storage.replication", ReplicationEngine, "_schedule_retry"),
    ("core.index", AsyncIndexUpdater, "enqueue"),
    ("core.index", AsyncIndexUpdater, "_drain"),
    ("storage.cluster", Cluster, "add_replica_group"),
    ("storage.cluster", Cluster, "remove_replica_group"),
    ("storage.cluster", Cluster, "split_partition"),
    ("storage.cluster", Cluster, "migrate_partition"),
    ("storage.cluster", Cluster, "merge_partitions"),
    ("storage.rebalancer", PartitionLoadTracker, "note"),
    ("storage.rebalancer", Rebalancer, "rebalance_once"),
    ("core.provisioning", SLAMonitor, "close_window"),
    ("core.provisioning", CapacityPlanner, "plan"),
    ("core.provisioning", ProvisioningController, "control_step"),
    ("ml", LatencyPercentileModel, "observe"),
    ("ml", LatencyPercentileModel, "predict"),
    ("cloud", InstancePool, "launch"),
    ("cloud", InstancePool, "terminate"),
    ("metrics", LatencyRecorder, "record"),
    ("metrics", SLATracker, "observe"),
    ("setup", SocialNetworkApp, "load_graph"),
)

# The workloads on which each layer must record calls.
ALL = ("browse-zipf", "uniform-large", "upload-spike")
LAYER_WORKLOADS: Dict[str, Tuple[str, ...]] = {
    "sim": ALL,
    "workloads": ALL,
    "apps": ALL,
    "core.engine": ("browse-zipf",),
    "core.query": ("browse-zipf",),
    "cache": ("browse-zipf", "uniform-large", "upload-spike"),
    "storage.router": ("uniform-large",),
    "storage.node": ("uniform-large",),
    "storage.replication": ("upload-spike", "uniform-large"),
    "core.index": ("upload-spike",),
    "storage.cluster": ("upload-spike",),
    "storage.rebalancer": ("browse-zipf",),
    "core.provisioning": ("upload-spike",),
    "ml": ("upload-spike",),
    "cloud": ("upload-spike",),
    "metrics": ALL,
    "setup": ("uniform-large",),
}


def span_name(layer: str, cls: type, method: str) -> str:
    return f"{layer}.{cls.__name__}.{method}"


class LayerTracer:
    """Wraps entry points with call counters and self-time spans.

    ``hooks`` maps a span name to ``hook(instance, result)``, run inside the
    span after the wrapped call returns; the benchmark uses hooks to sample
    counts (queue depths, rows returned) where the work happens.  Spans
    named in ``keep_durations`` also keep every call's duration.
    """

    def __init__(self, hooks: Optional[Dict[str, Callable]] = None,
                 keep_durations: Tuple[str, ...] = ()) -> None:
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.durations: Dict[str, List[float]] = {n: [] for n in keep_durations}
        self._hooks = hooks or {}
        self._stack: List[float] = []
        self._originals: List[Tuple[type, str, object]] = []
        # Entry points the program no longer has: they report zero calls, so
        # a change that renames one does not stop the benchmark from running.
        self.missing: List[str] = []

    def install(self) -> None:
        for layer, cls, method in ENTRY_POINTS:
            name = span_name(layer, cls, method)
            self.calls[name] = 0
            self.self_s[name] = 0.0
            original = cls.__dict__.get(method)
            if original is None:
                self.missing.append(name)
                continue
            setattr(cls, method, self._wrap(name, original))
            self._originals.append((cls, method, original))

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._originals):
            setattr(cls, method, original)
        self._originals.clear()

    def _wrap(self, name: str, original: Callable) -> Callable:
        calls, self_s, stack = self.calls, self.self_s, self._stack
        hook = self._hooks.get(name)
        durations = self.durations.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
                if hook is not None:
                    hook(args[0], result)
                return result
            finally:
                elapsed = clock() - start
                enclosed = stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - enclosed
                if stack:
                    stack[-1] += elapsed
                if durations is not None:
                    durations.append(elapsed)

        traced.__wrapped__ = original
        return traced

    def layer_calls(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for layer, cls, method in ENTRY_POINTS:
            totals[layer] = totals.get(layer, 0) + self.calls[span_name(layer, cls, method)]
        return totals
