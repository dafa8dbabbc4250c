"""Unit and integration tests for partitioning, replication, routing, the
cluster manager, durability, and failure injection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.network import NetworkModel
from repro.sim.simulator import Simulator
from repro.storage.cluster import Cluster
from repro.storage.durability import DurabilityModel
from repro.storage.failure import FailureInjector
from repro.storage.node import NodeDownError, StorageNode
from repro.storage.partitioner import (
    ConsistentHashPartitioner,
    PartitionerError,
    RangePartitioner,
)
from repro.storage.records import KeyRange, VersionedValue, prefix_range
from repro.storage.replication import ReplicaGroup, ReplicationEngine
from repro.storage.router import Router

pytestmark = pytest.mark.tier1


def make_cluster(groups=2, replication=3, seed=0, **kwargs):
    sim = Simulator(seed=seed)
    return Cluster(simulator=sim, replication_factor=replication,
                   initial_groups=groups, **kwargs)


# ------------------------------------------------------------------ partitioner


class TestConsistentHashPartitioner:
    def test_routes_all_tokens_to_registered_groups(self):
        partitioner = ConsistentHashPartitioner(["g1", "g2", "g3"])
        for i in range(200):
            assert partitioner.group_for_key("ns", (f"user{i}",)) in {"g1", "g2", "g3"}

    def test_distribution_is_roughly_even(self):
        partitioner = ConsistentHashPartitioner(["g1", "g2", "g3", "g4"], virtual_nodes=128)
        counts = {g: 0 for g in partitioner.groups()}
        for i in range(4000):
            counts[partitioner.group_for_key("ns", (f"user{i}",))] += 1
        assert min(counts.values()) > 500

    def test_adding_group_moves_only_some_keys(self):
        partitioner = ConsistentHashPartitioner(["g1", "g2", "g3"])
        before = {f"u{i}": partitioner.group_for_key("ns", (f"u{i}",)) for i in range(1000)}
        partitioner.add_group("g4")
        moved = sum(
            1 for key, group in before.items()
            if partitioner.group_for_key("ns", (key,)) != group
        )
        # Consistent hashing should move roughly 1/4 of the keys, not most of them.
        assert 0 < moved < 500

    def test_duplicate_group_rejected(self):
        partitioner = ConsistentHashPartitioner(["g1"])
        with pytest.raises(PartitionerError):
            partitioner.add_group("g1")

    def test_cannot_remove_last_group(self):
        partitioner = ConsistentHashPartitioner(["g1"])
        with pytest.raises(PartitionerError):
            partitioner.remove_group("g1")

    def test_prefix_range_routes_to_single_group(self):
        partitioner = ConsistentHashPartitioner(["g1", "g2", "g3"])
        key_range = prefix_range("ns", ("user42",))
        assert len(partitioner.groups_for_range(key_range)) == 1

    def test_unbounded_range_routes_everywhere(self):
        partitioner = ConsistentHashPartitioner(["g1", "g2"])
        assert set(partitioner.groups_for_range(KeyRange("ns"))) == {"g1", "g2"}

    def test_same_key_same_group_deterministic(self):
        a = ConsistentHashPartitioner(["g1", "g2", "g3"])
        b = ConsistentHashPartitioner(["g1", "g2", "g3"])
        for i in range(100):
            key = (f"user{i}",)
            assert a.group_for_key("ns", key) == b.group_for_key("ns", key)


class TestRangePartitioner:
    def test_single_group_owns_everything(self):
        partitioner = RangePartitioner(["g1"])
        assert partitioner.group_for_key("ns", ("anything",)) == "g1"

    def test_explicit_splits(self):
        partitioner = RangePartitioner(["g1", "g2"])
        partitioner.set_splits(["", "m"], ["g1", "g2"])
        assert partitioner.group_for_key("ns", ("alice",)) == "g1"
        assert partitioner.group_for_key("ns", ("zoe",)) == "g2"

    def test_splits_must_be_sorted_and_start_empty(self):
        partitioner = RangePartitioner(["g1", "g2"])
        with pytest.raises(PartitionerError):
            partitioner.set_splits(["m", ""], ["g1", "g2"])
        with pytest.raises(PartitionerError):
            partitioner.set_splits(["a", "m"], ["g1", "g2"])

    def test_rebalance_evenly_with_samples(self):
        partitioner = RangePartitioner(["g1", "g2"])
        partitioner.rebalance_evenly([f"u{i:03d}" for i in range(100)])
        owners = {partitioner.group_for_key("ns", (f"u{i:03d}",)) for i in range(100)}
        assert owners == {"g1", "g2"}

    def test_range_spanning_splits_contacts_both_groups(self):
        partitioner = RangePartitioner(["g1", "g2"])
        partitioner.set_splits(["", "m"], ["g1", "g2"])
        key_range = KeyRange("ns", start=("a",), end=("z",))
        assert set(partitioner.groups_for_range(key_range)) == {"g1", "g2"}


# -------------------------------------------------------------------- cluster


class TestCluster:
    def test_initial_topology(self):
        cluster = make_cluster(groups=2, replication=3)
        assert cluster.group_count() == 2
        assert cluster.node_count() == 6
        for group in cluster.groups.values():
            assert group.replication_factor == 3

    def test_add_replica_group_grows_cluster(self):
        cluster = make_cluster(groups=2, replication=3)
        cluster.add_replica_group()
        assert cluster.group_count() == 3
        assert cluster.node_count() == 9

    def test_remove_replica_group_shrinks_cluster(self):
        cluster = make_cluster(groups=3, replication=2)
        victim = list(cluster.groups)[-1]
        cluster.remove_replica_group(victim)
        assert cluster.group_count() == 2
        assert victim not in cluster.groups

    def test_cannot_remove_last_group(self):
        cluster = make_cluster(groups=1)
        with pytest.raises(ValueError):
            cluster.remove_replica_group(list(cluster.groups)[0])

    def test_data_survives_scale_up(self):
        cluster = make_cluster(groups=1, replication=2)
        router = Router(cluster)
        keys = [(f"user{i}",) for i in range(200)]
        for key in keys:
            router.write("ns", key, {"v": key[0]})
        cluster.add_replica_group()
        cluster.add_replica_group()
        for key in keys:
            result = router.read("ns", key, from_primary=True)
            assert result.success and result.value is not None, key

    def test_data_survives_scale_down(self):
        cluster = make_cluster(groups=3, replication=2)
        router = Router(cluster)
        keys = [(f"user{i}",) for i in range(200)]
        for key in keys:
            router.write("ns", key, {"v": key[0]})
        cluster.sim.run_until(cluster.sim.now + 5.0)  # let replication apply
        victim = list(cluster.groups)[-1]
        cluster.remove_replica_group(victim)
        for key in keys:
            result = router.read("ns", key, from_primary=True)
            assert result.success and result.value is not None, key

    def test_rebalance_moves_bounded_fraction(self):
        cluster = make_cluster(groups=2, replication=1)
        router = Router(cluster)
        for i in range(300):
            router.write("ns", (f"user{i}",), {"v": i})
        moved_before = cluster.keys_moved_total
        cluster.add_replica_group()
        moved = cluster.keys_moved_total - moved_before
        # Consistent hashing: roughly 1/3 of 300 keys move, certainly not all.
        assert 0 < moved < 250

    def test_rebalance_leaves_every_key_only_at_its_owner(self):
        # Keys sharing a string first part move as one run; numeric first
        # parts must not: 3 == 3.0, but tokens "3" and "3.0" can have
        # different owners.
        cluster = make_cluster(groups=1, replication=2)
        router = Router(cluster)
        keys = [("str", (f"user{i}", suffix)) for i in range(40) for suffix in ("a", "b", "c")]
        keys += [("num", (i, "n")) for i in range(40)]
        keys += [("num", (float(i), "f")) for i in range(40)]
        for namespace, key in keys:
            router.write(namespace, key, {"v": 1})
        cluster.sim.run_until(5.0)
        cluster.add_replica_group()
        cluster.add_replica_group()
        assert any(cluster.group_for_key("num", (i,)) is not cluster.group_for_key("num", (float(i),))
                   for i in range(40))
        for namespace, key in keys:
            owner = cluster.group_for_key(namespace, key)
            for group in cluster.groups.values():
                for node_id in group.node_ids:
                    held = cluster.nodes[node_id].peek(namespace, key) is not None
                    assert held == (group is owner), (key, node_id)

    def test_remove_down_to_last_group_keeps_all_data(self):
        cluster = make_cluster(groups=3, replication=2)
        router = Router(cluster)
        keys = [(f"user{i}",) for i in range(120)]
        for key in keys:
            router.write("ns", key, {"v": key[0]})
        cluster.sim.run_until(cluster.sim.now + 5.0)
        while cluster.group_count() > 1:
            cluster.remove_replica_group(list(cluster.groups)[-1])
        with pytest.raises(ValueError):
            cluster.remove_replica_group(list(cluster.groups)[0])
        for key in keys:
            result = router.read("ns", key, from_primary=True)
            assert result.success and result.value is not None, key

    def test_remove_group_with_outstanding_quorum_write_and_replication(self):
        cluster = make_cluster(groups=2, replication=3)
        router = Router(cluster)
        victim_id = list(cluster.groups)[-1]
        victim = cluster.groups[victim_id]
        # Find keys owned by the victim and write them with a quorum; the
        # remaining (lazy) propagations to the victim's replicas are still
        # outstanding when the group is decommissioned.
        owned = [(f"user{i}",) for i in range(200)
                 if cluster.partitioner.group_for_key("ns", (f"user{i}",)) == victim_id]
        assert owned, "expected the victim group to own some keys"
        for key in owned:
            result = router.write("ns", key, {"v": key[0]}, write_quorum=2)
            assert result.success
        assert cluster.replication.pending_count() > 0
        cluster.remove_replica_group(victim_id)
        assert all(node_id not in cluster.nodes for node_id in victim.node_ids)
        # Outstanding propagations to deleted nodes must drain without error.
        cluster.sim.run_until(cluster.sim.now + 150.0)
        for key in owned:
            result = router.read("ns", key, from_primary=True)
            assert result.success and result.value is not None, key

    def test_remove_group_keys_moved_accounting_is_exact(self):
        cluster = make_cluster(groups=2, replication=2)
        router = Router(cluster)
        for i in range(150):
            router.write("ns", (f"user{i}",), {"v": i})
        cluster.sim.run_until(cluster.sim.now + 5.0)
        victim_id = list(cluster.groups)[-1]
        victim_primary_keys = cluster.nodes[cluster.groups[victim_id].primary].key_count()
        moved_before = cluster.keys_moved_total
        cluster.remove_replica_group(victim_id)
        assert cluster.keys_moved_total - moved_before == victim_primary_keys
        # Accounting is cumulative across scale events.
        moved_before = cluster.keys_moved_total
        cluster.add_replica_group()
        assert cluster.keys_moved_total >= moved_before

    def test_remove_migration_source_mid_flight_does_not_crash_completion(self):
        sim = Simulator(seed=0)
        cluster = Cluster(simulator=sim, replication_factor=2, initial_groups=3,
                          partitioner_kind="range",
                          movement_rate_keys_per_sec=10.0)
        router = Router(cluster)
        for i in range(60):
            router.write("ns", (f"u{i:03d}",), {"v": i})
        sim.run_until(sim.now + 5.0)
        cluster.split_partition("u030")
        record = cluster.migrate_partition("u030", "group-1")
        assert record is not None and not record.completed
        cluster.remove_replica_group("group-0")  # the migration source
        sim.run_until(record.end_time + 150.0)
        assert record.completed
        for i in range(60):
            result = router.read("ns", (f"u{i:03d}",), from_primary=True)
            assert result.success and result.value is not None, i

    def test_stats_reflect_capacity(self):
        cluster = make_cluster(groups=2, replication=2, node_capacity_ops=500.0)
        stats = cluster.stats()
        assert stats.node_count == 4
        assert stats.total_capacity_ops == pytest.approx(2000.0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            make_cluster(groups=0)
        with pytest.raises(ValueError):
            make_cluster(replication=0)


# --------------------------------------------------------------------- router


class TestRouter:
    def _setup(self, **kwargs):
        cluster = make_cluster(**kwargs)
        return cluster, Router(cluster)

    def test_write_then_primary_read(self):
        _, router = self._setup()
        write = router.write("ns", ("k",), {"a": 1})
        assert write.success
        read = router.read("ns", ("k",), from_primary=True)
        assert read.success and read.value.value == {"a": 1}

    def test_versions_increment_on_overwrite(self):
        _, router = self._setup()
        first = router.write("ns", ("k",), {"a": 1})
        second = router.write("ns", ("k",), {"a": 2})
        assert second.value.version == first.value.version + 1

    def test_replica_read_catches_up_after_replication(self):
        cluster, router = self._setup(groups=1, replication=3)
        router.write("ns", ("k",), {"a": 1})
        cluster.sim.run_until(5.0)
        # After replication has applied, any replica should serve the value.
        for _ in range(10):
            result = router.read("ns", ("k",))
            assert result.success and result.value is not None

    def test_delete_is_visible(self):
        cluster, router = self._setup()
        router.write("ns", ("k",), {"a": 1})
        router.delete("ns", ("k",))
        result = router.read("ns", ("k",), from_primary=True)
        assert result.success and result.value is None

    def test_delete_then_recreate_at_same_timestamp_converges_everywhere(self):
        # A delete and a re-create issued at the same simulated time must not
        # tie under last-write-wins: the re-create's version advances past the
        # tombstone's, so every replica converges to the live row no matter
        # which propagation arrives last.
        cluster, router = self._setup(groups=1, replication=3)
        router.write("ns", ("k",), {"a": 1})
        router.delete("ns", ("k",))
        recreated = router.write("ns", ("k",), {"a": 2})
        assert recreated.value.version > 1
        cluster.sim.run_until(cluster.sim.now + 5.0)
        for node in cluster.nodes.values():
            value = node.peek("ns", ("k",))
            assert value is not None and value.value == {"a": 2}, node.node_id

    def test_quorum_write_fails_when_replicas_unreachable(self):
        cluster, router = self._setup(groups=1, replication=3)
        group = list(cluster.groups.values())[0]
        for node_id in group.replicas:
            cluster.nodes[node_id].crash()
        result = router.write("ns", ("k",), {"a": 1}, write_quorum=3)
        assert not result.success

    def test_quorum_read_returns_newest(self):
        cluster, router = self._setup(groups=1, replication=3)
        router.write("ns", ("k",), {"a": 1})
        router.write("ns", ("k",), {"a": 2})
        cluster.sim.run_until(5.0)
        result = router.read("ns", ("k",), read_quorum=2)
        assert result.success and result.value.value == {"a": 2}

    def test_read_fails_when_all_replicas_down(self):
        cluster, router = self._setup(groups=1, replication=2)
        router.write("ns", ("k",), {"a": 1})
        for node in cluster.nodes.values():
            node.crash()
        result = router.read("ns", ("k",))
        assert not result.success

    def test_range_read_collects_prefix(self):
        cluster, router = self._setup(groups=2, replication=2)
        for i in range(5):
            router.write("idx", ("alice", f"0{i}"), {"i": i})
        cluster.sim.run_until(5.0)
        result = router.read_range(prefix_range("idx", ("alice",)))
        assert result.success
        assert len(result.rows) == 5

    def test_range_read_reverse_with_limit(self):
        cluster, router = self._setup(groups=1, replication=1)
        for i in range(5):
            router.write("idx", ("alice", i), {"i": i})
        result = router.read_range(prefix_range("idx", ("alice",)), limit=2, reverse=True)
        assert [key[1] for key, _ in result.rows] == [4, 3]

    def test_op_counts_track_operations(self):
        _, router = self._setup()
        router.write("ns", ("k",), {"a": 1})
        router.read("ns", ("k",))
        counts = router.op_counts()
        assert counts["write"] == 1
        assert counts["read"] == 1


# ----------------------------------------------------------------- replication


class TestReplication:
    def test_lag_is_recorded_after_propagation(self):
        cluster = make_cluster(groups=1, replication=3)
        router = Router(cluster)
        router.write("ns", ("k",), {"a": 1})
        cluster.sim.run_until(5.0)
        lags = cluster.replication.completed_lags()
        assert len(lags) == 2  # two replicas
        assert all(lag > 0 for lag in lags)
        assert cluster.replication.pending_count() == 0

    def test_pending_count_before_time_advances(self):
        cluster = make_cluster(groups=1, replication=3)
        router = Router(cluster)
        router.write("ns", ("k",), {"a": 1})
        assert cluster.replication.pending_count() == 2

    def test_propagation_retries_after_partition_heals(self):
        cluster = make_cluster(groups=1, replication=2)
        router = Router(cluster)
        group = list(cluster.groups.values())[0]
        replica = group.replicas[0]
        partition = cluster.network.partition({group.primary}, {replica})
        router.write("ns", ("k",), {"a": 1})
        cluster.sim.run_until(2.0)
        assert cluster.nodes[replica].peek("ns", ("k",)) is None
        cluster.network.heal(partition)
        cluster.sim.run_until(10.0)
        assert cluster.nodes[replica].peek("ns", ("k",)) is not None

    def test_lag_listener_invoked(self):
        cluster = make_cluster(groups=1, replication=2)
        router = Router(cluster)
        seen = []
        cluster.replication.add_lag_listener(lambda record: seen.append(record.lag))
        router.write("ns", ("k",), {"a": 1})
        cluster.sim.run_until(5.0)
        assert len(seen) == 1


class TestPropagationStateMachine:
    """Pin what one in-flight propagation does on each path: apply, retry
    after a crash, give up, drop a departed replica, cross a partition."""

    @staticmethod
    def _engine(max_retries=100, replication=2):
        sim = Simulator(seed=0)
        nodes = {f"n{i}": StorageNode(f"n{i}", sim.random.get(f"node:n{i}"))
                 for i in range(replication)}
        engine = ReplicationEngine(sim, NetworkModel(sim.random.get("network")),
                                   nodes, max_retries=max_retries)
        return sim, engine, nodes, ReplicaGroup("g", list(nodes))

    def test_crashed_replica_gets_the_write_after_a_retry_with_its_true_lag(self):
        sim, engine, nodes, group = self._engine()
        nodes["n1"].crash()
        seen = []
        engine.add_lag_listener(lambda record: seen.append((sim.now, record)))
        value = VersionedValue({"a": 1}, timestamp=0.0)
        sim.schedule(0.5, nodes["n1"].recover)
        [record] = engine.propagate(group, "ns", ("k",), value)
        sim.run_until(10.0)
        assert nodes["n1"].peek("ns", ("k",)) == value
        assert engine.pending_count() == 0
        [(applied_at, listened)] = seen
        assert listened is record
        assert record.write_time == 0.0 and record.applied_time == applied_at
        # One retry interval (1 s) plus two network hops and processing.
        assert 1.0 < record.lag == applied_at < 1.1
        assert engine.completed_lags() == [record.lag]
        assert engine.max_observed_lag() == record.lag

    def test_exhausted_retries_leave_the_record_unapplied_and_nothing_pending(self):
        sim, engine, nodes, group = self._engine(max_retries=2)
        nodes["n1"].crash()
        seen = []
        engine.add_lag_listener(seen.append)
        [record] = engine.propagate(group, "ns", ("k",), VersionedValue({"a": 1}, 0.0))
        assert engine.pending_count() == 1
        sim.run_until(30.0)
        assert engine.pending_count() == 0
        assert record.applied_time is None and record.lag is None
        assert seen == [] and engine.completed_lags() == []
        # The first attempt plus two retries, each an apply and a retry event.
        assert sim.processed_events == 5
        assert not sim.queue
        nodes["n1"].recover()
        assert nodes["n1"].peek("ns", ("k",)) is None

    def test_replica_removed_mid_flight_is_dropped_without_a_retry(self):
        cluster = make_cluster(groups=1, replication=3)
        router = Router(cluster)
        seen = []
        cluster.replication.add_lag_listener(seen.append)
        group = list(cluster.groups.values())[0]
        departed, kept = group.replicas
        router.write("ns", ("k",), {"a": 1})
        del cluster.nodes[departed]
        cluster.sim.run_until(5.0)
        assert cluster.replication.pending_count() == 0
        assert [record.replica_id for record in seen] == [kept]
        # Two apply events fired and nothing was rescheduled.
        assert cluster.sim.processed_events == 2
        assert not cluster.sim.queue

    def test_replicate_to_crosses_a_partition_once_it_heals(self):
        cluster = make_cluster(groups=1, replication=2)
        group = list(cluster.groups.values())[0]
        source, target = group.primary, group.replicas[0]
        partition = cluster.network.partition({source}, {target})
        value = VersionedValue({"a": 1}, timestamp=0.0)
        record = cluster.replication.replicate_to(source, target, "ns", ("k",), value)
        assert record.replica_id == target and record.write_time == 0.0
        cluster.sim.run_until(2.5)
        assert cluster.nodes[target].peek("ns", ("k",)) is None
        assert cluster.replication.pending_count() == 1 and record.lag is None
        cluster.network.heal(partition)
        cluster.sim.run_until(10.0)
        assert cluster.nodes[target].peek("ns", ("k",)) == value
        assert cluster.replication.pending_count() == 0
        # Retries run once a second from t=0; the first after the heal lands.
        assert 3.0 < record.lag < 3.1


# --------------------------------------------------------------- data movement

HANDOFF_KEYS = [(f"u{i}", j) for i in range(4) for j in range(3)]
versioned_values = st.builds(
    VersionedValue,
    value=st.integers(0, 3),
    timestamp=st.sampled_from([0.0, 1.0, 2.0]),
    writer=st.sampled_from(["", "a", "b"]),
    version=st.integers(0, 2),
    tombstone=st.booleans(),
)
writes = st.lists(st.tuples(st.sampled_from(HANDOFF_KEYS), versioned_values), max_size=16)


class TestBulkHandOff:
    """``apply_replica_writes``/``delete_many`` against the per-key calls."""

    @staticmethod
    def _node(stored):
        node = StorageNode("n", np.random.default_rng(0))
        for key, value in stored:
            node.apply_replica_write("ns", key, value)
        return node

    @staticmethod
    def _state(node):
        store = node._store("ns")
        return dict(store._data), list(store._sorted_keys), node.stats.keys_stored

    @pytest.mark.property
    @given(stored=writes, items=writes, doomed=st.lists(st.sampled_from(HANDOFF_KEYS), max_size=8))
    @example(
        # Newer, older and equal-timestamp versions of stored keys, a
        # tombstone over a live row, a new key, a repeated key, and deletes of
        # present, absent and repeated keys.
        stored=[(HANDOFF_KEYS[0], VersionedValue(0, 1.0)), (HANDOFF_KEYS[1], VersionedValue(0, 1.0)),
                (HANDOFF_KEYS[2], VersionedValue(0, 1.0, version=1)),
                (HANDOFF_KEYS[3], VersionedValue(0, 1.0))],
        items=[(HANDOFF_KEYS[5], VersionedValue(1, 0.0)), (HANDOFF_KEYS[0], VersionedValue(1, 2.0)),
               (HANDOFF_KEYS[1], VersionedValue(1, 0.0)), (HANDOFF_KEYS[2], VersionedValue(1, 1.0)),
               (HANDOFF_KEYS[3], VersionedValue(None, 1.0, tombstone=True)),
               (HANDOFF_KEYS[5], VersionedValue(2, 1.0))],
        doomed=[HANDOFF_KEYS[1], HANDOFF_KEYS[4], HANDOFF_KEYS[1], HANDOFF_KEYS[5]],
    )
    @settings(deadline=None)
    def test_bulk_calls_match_the_per_key_calls(self, stored, items, doomed):
        per_key, bulk = self._node(stored), self._node(stored)
        applied = sum(per_key.apply_replica_write("ns", key, value) for key, value in items)
        assert bulk.apply_replica_writes("ns", items) == applied
        assert self._state(bulk) == self._state(per_key)

        removed = sum(per_key._store("ns").delete(key) for key in doomed)
        assert bulk._store("ns").delete_many(doomed) == removed
        assert self._state(bulk) == self._state(per_key)

        bulk.crash()
        before = self._state(bulk), bulk.namespaces()
        with pytest.raises(NodeDownError):
            bulk.apply_replica_writes("ns", items)
        with pytest.raises(NodeDownError):
            bulk.apply_replica_writes("other", items)
        assert (self._state(bulk), bulk.namespaces()) == before


# ------------------------------------------------------------------ durability


class TestDurabilityModel:
    def test_more_replicas_more_durable(self):
        model = DurabilityModel()
        assert model.durability(3) > model.durability(2) > model.durability(1)

    def test_required_replication_factor_meets_target(self):
        model = DurabilityModel()
        factor = model.required_replication_factor(0.99999)
        assert model.durability(factor) >= 0.99999
        if factor > 1:
            assert model.durability(factor - 1) < 0.99999

    def test_relaxed_durability_saves_replicas(self):
        model = DurabilityModel()
        strict = model.required_replication_factor(0.9999999)
        relaxed = model.required_replication_factor(0.99)
        assert relaxed <= strict

    def test_unreachable_target_raises(self):
        model = DurabilityModel(node_mttf_hours=1.0, re_replication_hours=10.0)
        with pytest.raises(ValueError):
            model.required_replication_factor(0.9999999999, max_factor=3)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DurabilityModel(node_mttf_hours=0)
        with pytest.raises(ValueError):
            DurabilityModel().loss_probability(0)
        with pytest.raises(ValueError):
            DurabilityModel().required_replication_factor(1.5)

    @pytest.mark.property
    @given(factor=st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_loss_probability_in_unit_interval(self, factor):
        probability = DurabilityModel().loss_probability(factor)
        assert 0.0 <= probability <= 1.0


# -------------------------------------------------------------------- failures


class TestFailureInjector:
    def test_crash_and_recover(self):
        cluster = make_cluster(groups=1, replication=2)
        injector = FailureInjector(cluster)
        node_id = list(cluster.nodes)[0]
        injector.crash_node(node_id, at=10.0, duration=20.0)
        cluster.sim.run_until(15.0)
        assert not cluster.nodes[node_id].alive
        cluster.sim.run_until(40.0)
        assert cluster.nodes[node_id].alive

    def test_crash_unknown_node_raises(self):
        cluster = make_cluster()
        with pytest.raises(KeyError):
            FailureInjector(cluster).crash_node("nope", at=1.0)

    def test_crash_random_nodes_clamped_to_alive_at_fire_time(self):
        # Over-asking is not an error: the fault crashes whatever is alive
        # when it fires (an outage cannot kill machines that do not exist).
        cluster = make_cluster(groups=1, replication=2)
        injector = FailureInjector(cluster)
        injector.crash_random_nodes(10, at=1.0, duration=5.0)
        cluster.sim.run_until(2.0)
        assert all(not node.alive for node in cluster.nodes.values())
        cluster.sim.run_until(10.0)
        assert all(node.alive for node in cluster.nodes.values())

    def test_crash_random_nodes_picks_victims_at_fire_time(self):
        # Regression: victims are resolved when the fault *fires*, so a node
        # rented between scheduling and firing is eligible too.
        cluster = make_cluster(groups=1, replication=2)
        injector = FailureInjector(cluster)
        injector.crash_random_nodes(10, at=5.0, duration=5.0)
        late_ids = []
        group_id = next(iter(cluster.groups))
        cluster.sim.schedule_at(
            2.0, lambda: late_ids.append(cluster.add_surge_replica(group_id)))
        cluster.sim.run_until(6.0)
        assert late_ids and not cluster.nodes[late_ids[0]].alive

    def test_partition_groups_blocks_replication(self):
        cluster = make_cluster(groups=2, replication=1)
        injector = FailureInjector(cluster)
        groups = list(cluster.groups)
        injector.partition_groups({groups[0]}, {groups[1]}, at=5.0, duration=10.0,
                                  isolate_clients_from="b")
        cluster.sim.run_until(6.0)
        node_a = cluster.groups[groups[0]].primary
        node_b = cluster.groups[groups[1]].primary
        assert not cluster.network.is_reachable(node_a, node_b)
        assert not cluster.network.is_reachable("client", node_b)
        cluster.sim.run_until(20.0)
        assert cluster.network.is_reachable(node_a, node_b)

    def test_congestion_fault_applies_and_clears(self):
        cluster = make_cluster(groups=1, replication=2)
        injector = FailureInjector(cluster)
        injector.congest_link("client", "node-0@group-0", factor=50.0, at=1.0, duration=5.0)
        cluster.sim.run_until(2.0)
        congested = np.mean([cluster.network.delay("client", "node-0@group-0") for _ in range(100)])
        cluster.sim.run_until(10.0)
        cleared = np.mean([cluster.network.delay("client", "node-0@group-0") for _ in range(100)])
        assert congested > 5.0 * cleared

    def test_fault_records_kept(self):
        cluster = make_cluster(groups=1, replication=2)
        injector = FailureInjector(cluster)
        injector.crash_node(list(cluster.nodes)[0], at=1.0, duration=2.0)
        assert len(injector.faults()) == 1
