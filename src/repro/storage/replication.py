"""Replica groups and the lazy replication engine.

Writes are accepted at a replica group's primary and propagated to the other
replicas asynchronously.  Propagation delay is the sum of a network hop and a
configurable replication processing delay, and every completed propagation is
recorded so that the staleness-bound experiments (E4) and the read-consistency
axis of Figure 4 can measure actual replication lag rather than assume it.

Quorum writes (used to implement the "serializable" end of the write-
consistency axis and as the Dynamo-style baseline) wait for ``W`` replicas
synchronously, paying the extra latency up front.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.sim.network import NetworkModel, NetworkPartitionError
from repro.sim.simulator import Simulator
from repro.storage.node import NodeDownError, StorageNode
from repro.storage.records import Key, VersionedValue


@dataclass
class ReplicaGroup:
    """A set of storage nodes holding copies of the same key ranges."""

    group_id: str
    node_ids: List[str]

    @property
    def primary(self) -> str:
        """The node that accepts writes for this group."""
        if not self.node_ids:
            raise ValueError(f"replica group {self.group_id} has no nodes")
        return self.node_ids[0]

    @property
    def replicas(self) -> List[str]:
        """The non-primary members of the group."""
        return self.node_ids[1:]

    @property
    def replication_factor(self) -> int:
        return len(self.node_ids)


class PropagationRecord:
    """One write's propagation to one replica: its bookkeeping and its action.

    The record is what the simulator schedules.  While the propagation is in
    flight it carries everything a delivery or a retry needs (source, value,
    delay override, retries left), and calling it runs the next step of the
    state machine in :class:`ReplicationEngine`: deliver the write, or, after
    a retry interval, draw a fresh network hop and reschedule the delivery.
    An in-flight propagation therefore costs this object plus its simulator
    event: no closure and no cells.  It lives a few simulated milliseconds,
    long enough to survive young-generation collections, so every extra
    gc-tracked object here was promoted and rescanned by full collections.

    Public fields: ``namespace``, ``key``, ``write_time``, ``replica_id``,
    ``applied_time`` and ``lag`` (``applied_time - write_time``, in
    seconds).  The last two are None until the write lands, and forever if
    retries run out.
    """

    __slots__ = ("namespace", "key", "write_time", "replica_id", "applied_time",
                 "lag", "source_id", "value", "delay_override", "retries_left",
                 "_engine", "_retrying")

    def __init__(
        self,
        engine: "ReplicationEngine",
        source_id: str,
        replica_id: str,
        namespace: str,
        key: Key,
        value: VersionedValue,
        write_time: float,
        delay_override: Optional[float],
        retries_left: int,
    ) -> None:
        self.namespace = namespace
        self.key = key
        self.write_time = write_time
        self.replica_id = replica_id
        self.applied_time: Optional[float] = None
        self.lag: Optional[float] = None
        self.source_id = source_id
        self.value = value
        self.delay_override = delay_override
        self.retries_left = retries_left
        self._engine = engine
        # True while the scheduled event is a retry (re-draw the hop), False
        # while it is a delivery.
        self._retrying = False

    def __call__(self) -> None:
        if self._retrying:
            self._engine._schedule_apply(self)
        else:
            self._engine._apply(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PropagationRecord(namespace={self.namespace!r}, key={self.key!r}, "
                f"write_time={self.write_time!r}, replica_id={self.replica_id!r}, "
                f"applied_time={self.applied_time!r})")


class ReplicationEngine:
    """Propagates primary writes to replicas asynchronously.

    Each replica copy is one :class:`PropagationRecord` scheduled as its own
    event.  Delivery applies the write under last-write-wins and notifies the
    lag listeners; a partitioned link or a crashed replica sends the record
    through :meth:`_schedule_retry` (at most ``max_retries`` times, then the
    copy is abandoned with ``applied_time`` None); a replica that has left
    ``nodes`` drops the copy outright.

    Args:
        simulator: the discrete-event simulator used to schedule propagation.
        network: network model supplying hop delays and partitions.
        nodes: mapping from node id to :class:`StorageNode`.
        processing_delay: extra per-write replication processing time at the
            replica, on top of the network hop.
        retry_interval: how long to wait before retrying a propagation that
            failed because of a partition or a crashed replica.
        max_retries: retries per copy before it is abandoned.
    """

    COMPLETED_LAG_WINDOW = 10_000

    def __init__(
        self,
        simulator: Simulator,
        network: NetworkModel,
        nodes: Dict[str, StorageNode],
        processing_delay: float = 0.002,
        retry_interval: float = 1.0,
        max_retries: int = 100,
    ) -> None:
        self._sim = simulator
        self._network = network
        self._nodes = nodes
        self._processing_delay = processing_delay
        self._retry_interval = retry_interval
        self._max_retries = max_retries
        # Completed propagations are recorded as bare lag floats in a
        # bounded recent window (plus an all-time running max): keeping every
        # PropagationRecord alive forever made long closed-loop runs
        # accumulate millions of gc-tracked objects.
        self._completed_lags: Deque[float] = deque(maxlen=self.COMPLETED_LAG_WINDOW)
        self._max_lag: float = 0.0
        self._pending: int = 0
        self._lag_listeners: List[Callable[[PropagationRecord], None]] = []

    # -------------------------------------------------------------- listeners

    def add_lag_listener(self, listener: Callable[[PropagationRecord], None]) -> None:
        """Register a callback invoked whenever a propagation completes."""
        self._lag_listeners.append(listener)

    # ------------------------------------------------------------ propagation

    def propagate(
        self,
        group: ReplicaGroup,
        namespace: str,
        key: Key,
        value: VersionedValue,
        delay_override: Optional[float] = None,
    ) -> List[PropagationRecord]:
        """Schedule asynchronous propagation of a primary write to all replicas.

        ``delay_override`` lets the deadline-ordered index updater inject its
        own scheduling decision (propagate sooner for tight staleness bounds).
        """
        records = []
        node_ids = group.node_ids
        primary_id = node_ids[0]
        now = self._sim.clock.now
        nodes = self._nodes
        for i in range(1, len(node_ids)):
            replica_id = node_ids[i]
            replica = nodes.get(replica_id)
            if replica is not None and replica.draining:
                # Draining replicas accept no new writes: they are about to
                # detach (spot interruption) and will catch up from the
                # primary if they ever rejoin, so shipping them updates now
                # only races the drain deadline.
                continue
            record = PropagationRecord(self, primary_id, replica_id, namespace, key,
                                       value, now, delay_override, self._max_retries)
            records.append(record)
            self._pending += 1
            self._schedule_apply(record)
        return records

    def _schedule_apply(self, record: PropagationRecord) -> None:
        """Draw the network hop and schedule delivery (or a retry if cut off)."""
        try:
            hop = self._network.delay(record.source_id, record.replica_id)
        except NetworkPartitionError:
            self._schedule_retry(record)
            return
        override = record.delay_override
        delay = hop + self._processing_delay if override is None else override
        record._retrying = False
        self._sim.schedule(delay, record, name=f"replicate:{record.namespace}")

    def _apply(self, record: PropagationRecord) -> None:
        """Deliver a copy: apply it, retry later, or drop it."""
        node = self._nodes.get(record.replica_id)
        if node is None:
            # Replica left the cluster for good (decommission or spot
            # drain/hibernate detach); ownership moved with it, so the
            # copy is moot — drop instead of retrying into the void.
            self._pending -= 1
            return
        if not node.alive:
            self._schedule_retry(record)
            return
        node.apply_replica_write(record.namespace, record.key, record.value)
        now = self._sim.clock.now
        record.applied_time = now
        record.lag = lag = now - record.write_time
        self._pending -= 1
        self._completed_lags.append(lag)
        if lag > self._max_lag:
            self._max_lag = lag
        for listener in self._lag_listeners:
            listener(record)

    def _schedule_retry(self, record: PropagationRecord) -> None:
        """Reschedule a blocked copy after the retry interval, or give up."""
        if record.retries_left <= 0:
            # Give up; the record stays un-applied and shows up as unbounded lag.
            self._pending -= 1
            return
        record.retries_left -= 1
        record._retrying = True
        self._sim.schedule(self._retry_interval, record, name="replicate-retry")

    def replicate_to(
        self,
        source_id: str,
        replica_id: str,
        namespace: str,
        key: Key,
        value: VersionedValue,
    ) -> PropagationRecord:
        """Propagate one write to one specific node, with the retry loop.

        Used by the router's migration dual-write path and by data movement
        towards a crashed receiver: a write accepted at the migration source
        while the target primary is down must still reach that primary once
        it recovers, or reclamation of the source copies would lose it.
        """
        record = PropagationRecord(self, source_id, replica_id, namespace, key,
                                   value, self._sim.now, None, self._max_retries)
        self._pending += 1
        self._schedule_apply(record)
        return record

    # --------------------------------------------------------------- sync path

    def synchronous_write(
        self,
        group: ReplicaGroup,
        namespace: str,
        key: Key,
        value: VersionedValue,
        write_quorum: int,
        now: float,
    ) -> Tuple[int, float]:
        """Write to ``write_quorum`` replicas synchronously.

        Returns (acks, added_latency).  The added latency is the slowest of
        the contacted replicas' round trips (the client waits for the quorum).
        Used for serializable writes and the quorum-store baseline.
        """
        if write_quorum < 1:
            raise ValueError(f"write quorum must be >= 1, got {write_quorum}")
        if write_quorum > group.replication_factor:
            raise ValueError(
                f"write quorum {write_quorum} exceeds replication factor "
                f"{group.replication_factor}"
            )
        acks = 0
        slowest = 0.0
        for node_id in group.node_ids:
            if acks >= write_quorum:
                break
            node = self._nodes.get(node_id)
            if node is None or not node.alive or node.draining:
                continue
            try:
                if node_id == group.primary:
                    round_trip = 0.0
                else:
                    round_trip = 2.0 * self._network.delay(group.primary, node_id)
            except NetworkPartitionError:
                continue
            try:
                service = node.put(namespace, key, value, now) if node_id != group.primary \
                    else 0.0
            except NodeDownError:
                continue
            acks += 1
            slowest = max(slowest, round_trip + service)
        return acks, slowest

    # --------------------------------------------------------------- reporting

    def pending_count(self) -> int:
        """Number of propagations scheduled but not yet applied."""
        return self._pending

    def completed_lags(self) -> List[float]:
        """Lags (seconds) of the most recent completed propagations.

        Bounded to the last ``COMPLETED_LAG_WINDOW`` completions so long runs
        do not accumulate an unbounded list; ``max_observed_lag`` stays
        all-time.
        """
        return list(self._completed_lags)

    def max_observed_lag(self) -> float:
        """The worst completed replication lag so far (0 if none completed)."""
        return self._max_lag
