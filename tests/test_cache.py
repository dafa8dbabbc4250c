"""Tests for the staleness-budget cache tier.

Correctness contract under test:

* no cached read is ever served beyond its declared staleness bound (a
  hypothesis property over random write/read/advance schedules, validated
  against an externally maintained write history);
* read-your-writes sessions bypass the cache after they write (regression);
* write-through invalidation drops the written key and exactly the cached
  range scans covering it;
* the store's LRU + TTL accounting stays within capacity;
* the per-namespace range index serves, reclaims and invalidates exactly
  what a brute-force scan of every cached range would (a hypothesis
  differential property);
* the provisioning loop sees cache absorption (monitor hit-rate feature,
  planner demand discount).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.policy import AdmissionPolicy
from repro.cache.store import StalenessBudgetCache, entity_token
from repro.cache.tier import CacheConfig
from repro.core.consistency.spec import (
    ConsistencySpec,
    PerformanceSLA,
    ReadConsistency,
    SessionGuarantee,
)
from repro.core.engine import Scads
from repro.core.query.plans import entity_namespace
from repro.core.schema import EntitySchema, Field
from repro.storage.records import VersionedValue

pytestmark = pytest.mark.tier1

BOUND = 5.0


def make_engine(staleness_bound: float = BOUND, read_your_writes: bool = False,
                capacity: int = 256, seed: int = 3) -> Scads:
    spec = ConsistencySpec(
        performance=PerformanceSLA(percentile=99.0, latency=0.250),
        read=ReadConsistency(staleness_bound=staleness_bound),
        session=SessionGuarantee(read_your_writes=read_your_writes),
    )
    engine = Scads(seed=seed, consistency=spec, autoscale=False,
                   initial_groups=2, cache=CacheConfig(capacity=capacity))
    engine.register_entity(EntitySchema(
        "profiles", key_fields=[Field("user_id")], value_fields=[Field("bio")],
    ))
    engine.start()
    return engine


# ------------------------------------------------------------------ the store


class TestStore:
    def test_lru_eviction_keeps_cost_within_capacity(self):
        store = StalenessBudgetCache(capacity=3)
        for i in range(5):
            store.put_entity("ns", (f"k{i}",), i, now=0.0, ttl=10.0)
        assert store.cost_total <= 3
        assert store.stats.lru_evictions == 2
        assert store.get(entity_token("ns", ("k0",)), now=0.0) is None
        assert store.get(entity_token("ns", ("k4",)), now=0.0) is not None

    def test_hit_refreshes_lru_position(self):
        store = StalenessBudgetCache(capacity=2)
        store.put_entity("ns", ("a",), 1, now=0.0, ttl=10.0)
        store.put_entity("ns", ("b",), 2, now=0.0, ttl=10.0)
        store.get(entity_token("ns", ("a",)), now=0.0)  # a is now most recent
        store.put_entity("ns", ("c",), 3, now=0.0, ttl=10.0)
        assert store.get(entity_token("ns", ("a",)), now=0.0) is not None
        assert store.get(entity_token("ns", ("b",)), now=0.0) is None

    def test_ttl_expiry_is_a_miss_and_reclaims(self):
        store = StalenessBudgetCache(capacity=8)
        store.put_entity("ns", ("k",), 1, now=0.0, ttl=2.0)
        assert store.get(entity_token("ns", ("k",)), now=1.9) is not None
        assert store.get(entity_token("ns", ("k",)), now=2.0) is None
        assert store.stats.ttl_expirations == 1
        assert len(store) == 0

    def test_range_entries_cost_their_row_count(self):
        store = StalenessBudgetCache(capacity=10)
        rows = [((f"k{i}",), {"v": i}) for i in range(7)]
        store.put_range("ns", ("a",), ("z",), None, False, rows, now=0.0, ttl=10.0)
        assert store.cost_total == 7
        store.put_entity("ns", ("x",), 1, now=0.0, ttl=10.0)
        store.put_entity("ns", ("y",), 2, now=0.0, ttl=10.0)
        store.put_entity("ns", ("z",), 3, now=0.0, ttl=10.0)
        assert store.cost_total <= 10

    def test_invalidate_key_drops_exactly_the_covering_ranges(self):
        store = StalenessBudgetCache(capacity=64)
        store.put_entity("ns", ("k5",), 1, now=0.0, ttl=10.0)
        store.put_range("ns", ("k0",), ("k9",), None, False,
                        [(("k5",), {})], now=0.0, ttl=10.0)
        store.put_range("ns", ("m0",), ("m9",), None, False,
                        [(("m5",), {})], now=0.0, ttl=10.0)
        store.put_range("other", ("k0",), ("k9",), None, False,
                        [(("k5",), {})], now=0.0, ttl=10.0)
        dropped = store.invalidate_key("ns", ("k5",))
        assert dropped == 2  # the entity entry and the one covering range
        assert len(store) == 2  # the non-overlapping and other-namespace ranges

    def test_invalidate_key_respects_half_open_range_bounds(self):
        store = StalenessBudgetCache(capacity=64)
        store.put_range("ns", ("k0",), ("k5",), None, False,
                        [(("k1",), {})], now=0.0, ttl=10.0)
        assert store.invalidate_key("ns", ("k5",)) == 0  # the excluded end
        assert store.invalidate_key("ns", ("k0",)) == 1  # the included start
        assert len(store) == 0


# ----------------------------------------------------------------- the policy


class TestPolicy:
    def spec(self, bound: float = 10.0) -> ConsistencySpec:
        return ConsistencySpec(read=ReadConsistency(staleness_bound=bound))

    def test_ttl_is_bound_minus_headroom_minus_carried_staleness(self):
        policy = AdmissionPolicy(self.spec(10.0), propagation_headroom=1.0)
        assert policy.entity_ttl(0.0) == pytest.approx(9.0)
        assert policy.entity_ttl(4.0) == pytest.approx(5.0)
        assert policy.entity_ttl(9.5) == 0.0
        assert policy.range_ttl() == pytest.approx(9.0)

    def test_unverified_reads_are_never_admitted(self):
        policy = AdmissionPolicy(self.spec(10.0))
        assert policy.entity_ttl(None) == 0.0

    def test_headroom_swallowing_the_whole_budget_disables_caching(self):
        policy = AdmissionPolicy(self.spec(1.0), propagation_headroom=1.0)
        assert not policy.cacheable()

    def test_default_headroom_scales_with_the_bound_but_is_capped(self):
        assert AdmissionPolicy(self.spec(10.0)).propagation_headroom == pytest.approx(1.0)
        assert AdmissionPolicy(self.spec(600.0)).propagation_headroom == pytest.approx(2.0)


# ------------------------------------------------------------ engine behaviour


class TestEngineIntegration:
    def test_cache_defaults_on_and_false_opts_out(self):
        engine = Scads(seed=0, autoscale=False)
        assert engine.cache is not None
        opted_out = Scads(seed=0, autoscale=False, cache=False)
        assert opted_out.cache is None
        assert opted_out.cache_hit_counts() == (0, 0)

    def test_repeated_get_hits_cache_and_is_much_faster(self):
        engine = make_engine()
        engine.put("profiles", {"user_id": "u1", "bio": "hi"})
        engine.settle(1.0)
        miss = engine.get("profiles", ("u1",))
        hit = engine.get("profiles", ("u1",))
        assert hit.row == miss.row
        assert hit.latency < miss.latency / 2
        assert engine.cache.store.stats.hits == 1

    def test_write_through_invalidation_on_put_and_delete(self):
        engine = make_engine()
        engine.put("profiles", {"user_id": "u1", "bio": "v1"})
        engine.settle(1.0)
        engine.get("profiles", ("u1",))
        assert engine.cache.store.peek(
            entity_token(entity_namespace("profiles"), ("u1",))) is not None
        engine.put("profiles", {"user_id": "u1", "bio": "v2"})
        assert engine.cache.store.peek(
            entity_token(entity_namespace("profiles"), ("u1",))) is None
        engine.settle(1.0)
        engine.get("profiles", ("u1",))
        engine.delete("profiles", ("u1",))
        assert engine.cache.store.peek(
            entity_token(entity_namespace("profiles"), ("u1",))) is None

    def test_cached_query_range_invalidated_by_index_maintenance(self):
        engine = make_engine()
        engine.register_query(
            "profile_of", "SELECT * FROM profiles WHERE user_id = <uid> LIMIT 5")
        engine.put("profiles", {"user_id": "u1", "bio": "v1"})
        engine.settle(1.0)
        first = engine.query("profile_of", {"uid": "u1"})
        cached = engine.query("profile_of", {"uid": "u1"})
        assert cached.rows == first.rows
        assert engine.cache.store.stats.hits >= 1
        engine.put("profiles", {"user_id": "u1", "bio": "v2"})
        engine.settle(1.0)  # applies index maintenance -> invalidates the scan
        after = engine.query("profile_of", {"uid": "u1"})
        assert after.rows[0]["bio"] == "v2"

    def test_entries_expire_at_the_derived_ttl(self):
        engine = make_engine(staleness_bound=BOUND)
        engine.put("profiles", {"user_id": "u1", "bio": "hi"})
        engine.settle(1.0)
        engine.get("profiles", ("u1",))
        token = entity_token(entity_namespace("profiles"), ("u1",))
        entry = engine.cache.store.peek(token)
        assert entry is not None
        budget = engine.cache.policy.servable_budget
        assert entry.expires_at - entry.inserted_at <= budget + 1e-9
        engine.run_for(budget + 0.1)
        assert engine.cache.store.get(token, engine.now) is None

    def test_read_your_writes_session_bypasses_stale_cache_entry(self):
        """Regression: a RYW session must not be served a cached value older
        than its own write, even when the entry is well inside its TTL."""
        engine = make_engine(read_your_writes=True)
        namespace = entity_namespace("profiles")
        engine.put("profiles", {"user_id": "u1", "bio": "old"}, session_id="w")
        engine.settle(1.0)
        engine.put("profiles", {"user_id": "u1", "bio": "new"}, session_id="w")
        # Forge the race the bypass exists for: a pre-write value readmitted
        # (e.g. by another client's replica read) after the invalidation.
        stale = VersionedValue(value={"user_id": "u1", "bio": "old"},
                               timestamp=0.0, version=1)
        engine.cache.store.put_entity(namespace, ("u1",), stale,
                                      engine.now, ttl=BOUND)
        # A session without guarantees is served the cached value — the
        # bypass below is per-session, not an invalidation.
        other = engine.get("profiles", ("u1",), session_id="other")
        assert other.row["bio"] == "old"
        outcome = engine.get("profiles", ("u1",), session_id="w")
        assert outcome.row["bio"] == "new"
        assert engine.cache.session_bypasses == 1
        # The bypassed read read through the cluster, refreshing the entry.
        refreshed = engine.cache.store.peek(entity_token(namespace, ("u1",)))
        assert refreshed is not None and refreshed.value.value["bio"] == "new"

    def test_monitor_measures_hit_rate_and_planner_discounts_demand(self):
        engine = make_engine()
        engine.put("profiles", {"user_id": "u1", "bio": "hi"})
        engine.settle(1.0)
        for _ in range(50):
            engine.get("profiles", ("u1",))
        observation = engine.monitor.close_window(engine.now + 30.0)
        assert observation.cache_hit_rate > 0.5
        slas = engine.slas
        busy = engine.planner.plan(forecast_rate=20_000.0, write_fraction=0.1,
                                   slas=slas, spec=engine.spec)
        absorbed = engine.planner.plan(forecast_rate=20_000.0, write_fraction=0.1,
                                       slas=slas, spec=engine.spec,
                                       cache_hit_rate=0.9)
        assert absorbed.target_nodes < busy.target_nodes
        assert absorbed.cache_absorbed_fraction == pytest.approx(0.9)
        assert "cache absorbing" in absorbed.reason


class TestStalenessEdgeCases:
    def test_replica_two_versions_behind_is_never_admitted(self):
        """A replica that missed two writes has unknowable true staleness
        (the intermediate version's commit time is gone from the primary);
        such reads serve but must not be cached."""
        engine = make_engine()
        namespace = entity_namespace("profiles")
        engine.put("profiles", {"user_id": "u1", "bio": "v1"})
        engine.settle(2.0)  # replicas converge on version 1
        group = engine.cluster.group_for_key(namespace, ("u1",))
        primary = engine.cluster.nodes[group.primary]
        # Advance the primary two versions without replicating, so replicas
        # stay at version 1 while the primary is at version 3.
        for version in (2, 3):
            primary.put(namespace, ("u1",), VersionedValue(
                value={"user_id": "u1", "bio": f"v{version}"},
                timestamp=engine.now, version=version), engine.now)
        saw_replica_read = False
        for _ in range(64):
            value, _, success, _, _, freshness = engine._consistent_read(
                namespace, ("u1",), None)
            assert success
            if value.version == 1:  # served by a lagging replica
                saw_replica_read = True
                assert freshness is None, \
                    "a >=2-version gap must be reported as unverified"
            else:
                assert value.version == 3 and freshness == pytest.approx(0.0)
        assert saw_replica_read
        # And the read path must therefore never have admitted version 1.
        entry = engine.cache.store.peek(entity_token(namespace, ("u1",)))
        assert entry is None or entry.value.version == 3

    def test_one_version_behind_carries_the_supersede_age(self):
        engine = make_engine()
        namespace = entity_namespace("profiles")
        engine.put("profiles", {"user_id": "u1", "bio": "v1"})
        engine.settle(2.0)
        group = engine.cluster.group_for_key(namespace, ("u1",))
        primary = engine.cluster.nodes[group.primary]
        primary.put(namespace, ("u1",), VersionedValue(
            value={"user_id": "u1", "bio": "v2"},
            timestamp=engine.now, version=2), engine.now)
        engine.run_for(3.0)  # version 1 has now been superseded for 3 seconds
        for _ in range(64):
            value, _, success, _, _, freshness = engine._consistent_read(
                namespace, ("u1",), None)
            assert success
            if value.version == 1:
                assert freshness == pytest.approx(3.0, abs=0.01)
                return
        pytest.fail("no replica read observed in 64 attempts")

    def test_range_cache_fills_read_the_primary(self):
        """Cached scans must come from the primary: apply-time invalidation
        has already fired for writes a lagging replica may still miss."""
        engine = make_engine()
        engine.register_query(
            "profile_of", "SELECT * FROM profiles WHERE user_id = <uid> LIMIT 5")
        engine.put("profiles", {"user_id": "u1", "bio": "v1"})
        engine.settle(1.0)
        seen = []
        original = engine.router.read_range

        def spy(key_range, limit=None, from_primary=False, reverse=False):
            seen.append(from_primary)
            return original(key_range, limit=limit, from_primary=from_primary,
                            reverse=reverse)

        engine.router.read_range = spy
        engine.query("profile_of", {"uid": "u1"})  # miss -> primary fill
        assert seen == [True]
        engine.query("profile_of", {"uid": "u1"})  # hit -> no router call
        assert seen == [True]


# ------------------------------------------------- the staleness-bound property


def _staleness_violations(ops, bound: float = BOUND) -> list:
    """Drive an engine through ``ops`` and return every bound violation.

    An external write history (per-key sequence numbers embedded in the row)
    is the oracle: a read returning sequence ``s`` while a later write with
    sequence ``s' > s`` has been committed for longer than the bound is a
    violation, no matter which tier served it.
    """
    engine = make_engine(staleness_bound=bound, seed=11)
    users = [f"u{i}" for i in range(4)]
    history = {u: [] for u in users}  # per key: [(seq, commit_time), ...]
    sequence = {u: 0 for u in users}
    violations = []
    for kind, index, delay in ops:
        user = users[index]
        if kind == "put":
            sequence[user] += 1
            outcome = engine.put("profiles", {
                "user_id": user, "bio": f"seq{sequence[user]:04d}",
            })
            if outcome.success:
                history[user].append((sequence[user], engine.now))
        else:
            outcome = engine.get("profiles", (user,))
            if outcome.success and outcome.row is not None:
                seen = int(outcome.row["bio"][3:])
                for seq, committed_at in history[user]:
                    if seq > seen and engine.now - committed_at > bound + 1e-6:
                        violations.append((user, seen, seq, engine.now - committed_at))
        engine.run_for(delay)
    return violations


@pytest.mark.property
@given(st.lists(
    st.tuples(
        st.sampled_from(["put", "get"]),
        st.integers(min_value=0, max_value=3),
        st.floats(min_value=0.0, max_value=3.0,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=5, max_size=40,
))
def test_no_cached_read_ever_exceeds_the_declared_bound(ops):
    assert _staleness_violations(ops) == []


class TestRangeContainment:
    """A narrower range scan served from a wider complete cached entry."""

    def make_store(self):
        store = StalenessBudgetCache(capacity=256)
        rows = [((f"u{i:02d}",), {"id": i}) for i in range(6)]
        store.put_range("ns", ("u00",), ("u06",), None, False, rows,
                        now=0.0, ttl=10.0)
        return store, rows

    def test_exact_token_still_hits_first(self):
        store, rows = self.make_store()
        served = store.get_range("ns", ("u00",), ("u06",), None, False, now=1.0)
        assert served == rows
        assert store.stats.hits == 1
        assert store.stats.containment_hits == 0

    def test_narrower_scan_served_from_wider_entry(self):
        store, rows = self.make_store()
        served = store.get_range("ns", ("u02",), ("u05",), None, False, now=1.0)
        assert served == rows[2:5]
        assert store.stats.hits == 1
        assert store.stats.containment_hits == 1
        assert store.stats.misses == 0

    def test_requested_limit_applied_to_derived_answer(self):
        store, rows = self.make_store()
        served = store.get_range("ns", ("u01",), ("u06",), 2, False, now=1.0)
        assert served == rows[1:3]

    def test_reverse_orientation_is_reconciled(self):
        store, rows = self.make_store()
        served = store.get_range("ns", ("u01",), ("u04",), 2, True, now=1.0)
        assert served == [rows[3], rows[2]]

    def test_first_admitted_covering_entry_serves_deterministically(self):
        """With several covering entries, the oldest-admitted one serves —
        insertion order, not hash order, so two invocations of the same
        seeded run cannot diverge on which entry gets the LRU refresh."""
        store, rows = self.make_store()
        store.put_range("ns", ("u00",), ("u05",), None, False, rows[:5],
                        now=0.0, ttl=10.0)
        served = store.get_range("ns", ("u01",), ("u04",), None, False, now=1.0)
        assert served == rows[1:4]
        # The wider, first-admitted entry served and took the LRU refresh.
        assert next(reversed(store._entries)) == (
            "range", "ns", ("u00",), ("u06",), None, False)

    def test_truncated_wide_entry_never_serves_by_containment(self):
        """An entry capped by its own limit has unknown coverage past the cut;
        serving a sub-range from it could fabricate a gap."""
        store = StalenessBudgetCache(capacity=256)
        rows = [((f"u{i:02d}",), {"id": i}) for i in range(4)]
        store.put_range("ns", ("u00",), ("u09",), 4, False, rows,
                        now=0.0, ttl=10.0)  # len(rows) == limit: truncated
        assert store.get_range("ns", ("u01",), ("u03",), None, False, 1.0) is None
        assert store.stats.misses == 1
        assert store.stats.containment_hits == 0

    def test_non_covering_and_expired_entries_miss(self):
        store, _ = self.make_store()
        # Requested range pokes past the cached end.
        assert store.get_range("ns", ("u04",), ("u99",), None, False, 1.0) is None
        # Unbounded request cannot be covered by a bounded entry.
        assert store.get_range("ns", None, None, None, False, 1.0) is None
        # After expiry nothing serves (and the entry is reclaimed).
        assert store.get_range("ns", ("u02",), ("u04",), None, False, 11.0) is None
        assert store.stats.ttl_expirations == 1
        assert len(store) == 0

    def test_engine_paginated_query_hits_by_containment(self):
        """One template, narrower page second: the narrow parameter binding
        must hit the wider binding's cached scan instead of missing on its
        exact-parameter key."""
        engine = make_engine()
        engine.register_entity(EntitySchema(
            "people", key_fields=[Field("city"), Field("pid")],
            value_fields=[Field("name")], max_per_partition=50))
        engine.register_query(
            "page",
            "SELECT * FROM people WHERE city = <c> "
            "AND name BETWEEN <lo> AND <hi> LIMIT 50")
        for i in range(6):
            engine.put("people", {"pid": f"p{i}", "city": "sf", "name": f"n{i}"})
        engine.settle(1.0)
        wide = engine.query("page", {"c": "sf", "lo": "n0", "hi": "n5"})
        assert len(wide.rows) == 6
        before = engine.cache.store.stats.containment_hits
        narrow = engine.query("page", {"c": "sf", "lo": "n1", "hi": "n3"})
        assert sorted(r["name"] for r in narrow.rows) == ["n1", "n2", "n3"]
        assert engine.cache.store.stats.containment_hits == before + 1

    def test_oldest_admission_wins_over_an_earlier_start(self):
        """The index walks entries by start, but the oldest-admitted covering
        entry still serves, as in admission-order scanning."""
        store, rows = self.make_store()
        store.put_range("ns", None, ("u06",), None, False, rows,
                        now=0.0, ttl=10.0)
        served = store.get_range("ns", ("u01",), ("u04",), None, False, now=1.0)
        assert served == rows[1:4]
        assert next(reversed(store._entries)) == (
            "range", "ns", ("u00",), ("u06",), None, False)

    def test_covering_entry_past_two_hundred_ranges_serves(self):
        """Every cached scan of a namespace is a containment candidate: a
        covering entry admitted after 200 other ranges still serves."""
        store = StalenessBudgetCache(capacity=4096)
        for i in range(200):
            store.put_range("ns", (f"a{i:03d}",), (f"a{i:03d}\x00",), None,
                            False, [((f"a{i:03d}",), {})], now=0.0, ttl=10.0)
        rows = [((f"z{i}",), {"id": i}) for i in range(9)]
        store.put_range("ns", ("z0",), ("z9",), None, False, rows,
                        now=0.0, ttl=10.0)
        served = store.get_range("ns", ("z1",), ("z5",), None, False, now=1.0)
        assert served == rows[1:5]
        assert store.stats.containment_hits == 1


# ------------------------------------------- range index vs a brute-force scan


class ScanReference(StalenessBudgetCache):
    """The store with its range index bypassed: containment and key
    invalidation scan every cached range entry, in admission order, with no
    cap.  The rules are the store's documented ones: only complete, live
    entries serve, the oldest-admitted covering entry wins, and expired
    covering entries are reclaimed."""

    def _ranges(self, namespace):
        return sorted((entry for entry in self._entries.values()
                       if entry.key_range is not None
                       and entry.namespace == namespace),
                      key=lambda entry: entry.seq)

    def _containment_lookup(self, namespace, start, end, limit, reverse, now):
        server, doomed = None, []
        for entry in self._ranges(namespace):
            low, high = entry.key_range.start, entry.key_range.end
            if not ((low is None or (start is not None and low <= start))
                    and (high is None or (end is not None and end <= high))):
                continue
            if entry.expired(now):
                doomed.append(entry.token)
            elif server is None and (entry.token[4] is None
                                     or len(entry.value) < entry.token[4]):
                server = entry
        for token in doomed:
            self._remove(token)
            self.stats.ttl_expirations += 1
        if server is None:
            return None
        rows = [(key, value) for key, value in server.value
                if (start is None or key >= start) and (end is None or key < end)]
        if server.token[5] != reverse:
            rows.reverse()
        self._entries.move_to_end(server.token)
        return rows if limit is None else rows[:limit]

    def invalidate_key(self, namespace, key):
        doomed = [entry.token for entry in self._ranges(namespace)
                  if entry.key_range.contains(key)]
        if entity_token(namespace, key) in self._entries:
            doomed.append(entity_token(namespace, key))
        for token in doomed:
            self._remove(token)
        self.stats.invalidations += len(doomed)
        return len(doomed)


_USERS = ["a", "b", "c"]
# Every key the differential test's scans can return: (user, item).
_UNIVERSE = [(user, item) for user in _USERS for item in range(3)]
_keys = st.tuples(st.sampled_from(_USERS), st.integers(0, 2))


# Range bounds: the app's per-user prefixes and BETWEEN-style item windows,
# plus arbitrary and unbounded ones, so disjoint, nested and overlapping
# entries all arise.
_prefix = st.sampled_from(_USERS).map(lambda u: ((u,), (u + "\x00",)))
_between = st.tuples(st.sampled_from(_USERS), st.integers(0, 2),
                     st.integers(0, 2)).map(
    lambda t: ((t[0], min(t[1], t[2])), (t[0], max(t[1], t[2]) + 1)))
_bound = st.one_of(st.none(), _keys)
_arbitrary = st.tuples(_bound, _bound).map(
    lambda b: b if None in b or b[0] <= b[1] else (b[1], b[0]))


def _scan(start, end, limit, reverse):
    rows = [(key, {"item": key[1]}) for key in _UNIVERSE
            if (start is None or key >= start) and (end is None or key < end)]
    if reverse:
        rows.reverse()
    return rows if limit is None else rows[:limit]


def _scan_params(bounds):
    limits = st.one_of(st.none(), st.none(), st.integers(1, 4))
    return st.tuples(st.sampled_from(["idx", "idx", "other"]), bounds,
                     limits, st.booleans())


# Lookups lean to the narrow shapes, so that containment serves often.
_lookup = st.tuples(st.just("get_range"),
                    _scan_params(st.one_of(_prefix, _between, _between, _arbitrary)))
_store_ops = st.lists(st.one_of(
    st.tuples(st.just("put_range"),
              _scan_params(st.one_of(_prefix, _between, _arbitrary)),
              st.sampled_from([1.0, 2.5, 6.0])),
    st.tuples(st.just("put_entity"), st.just("idx"), _keys, st.sampled_from([1.0, 6.0])),
    _lookup, _lookup,
    st.tuples(st.just("invalidate_key"), st.just("idx"), _keys),
    st.tuples(st.just("advance"), st.sampled_from([0.5, 1.0, 3.0])),
), min_size=10, max_size=80)


def _apply(store, op, now):
    """Run one differential-test step on ``store``; returns what it returned."""
    kind = op[0]
    if kind == "put_range":
        (namespace, (start, end), limit, reverse), ttl = op[1], op[2]
        rows = _scan(start, end, limit, reverse)
        return store.put_range(namespace, start, end, limit, reverse, rows,
                               now=now, ttl=ttl) is not None
    if kind == "put_entity":
        _, namespace, key, ttl = op
        return store.put_entity(namespace, key, {"item": key[1]},
                                now=now, ttl=ttl) is not None
    if kind == "get_range":
        namespace, (start, end), limit, reverse = op[1]
        return store.get_range(namespace, start, end, limit, reverse, now=now)
    if kind == "invalidate_key":
        return store.invalidate_key(op[1], op[2])
    return None


def _assert_index_consistent(store):
    """Each namespace's index holds exactly its live range entries, sorted by
    (start, admission), and every slot's reach is the furthest end so far."""
    for namespace, index in store._range_index.items():
        expected = sorted(
            (entry for entry in store._entries.values()
             if entry.key_range is not None and entry.namespace == namespace),
            key=lambda entry: (entry.key_range.start is not None,
                               entry.key_range.start or (), entry.seq))
        assert index._entries == expected
        furthest = []
        for entry in expected:
            end = entry.key_range.end
            if furthest and (furthest[-1] is None
                             or (end is not None and end < furthest[-1])):
                end = furthest[-1]
            furthest.append(end)
        assert index._reach == furthest
    assert all(entry.namespace in store._range_index
               for entry in store._entries.values() if entry.key_range is not None)


@pytest.mark.property
@settings(deadline=None)
@given(_store_ops)
def test_range_index_matches_a_brute_force_scan(ops):
    """The indexed store and the scanning reference serve the same rows and
    keep the same counters, drop counts and LRU order after every step."""
    indexed, reference = StalenessBudgetCache(capacity=16), ScanReference(capacity=16)
    now = 0.0
    for op in ops:
        if op[0] == "advance":
            now += op[1]
            continue
        assert _apply(indexed, op, now) == _apply(reference, op, now)
        assert indexed.stats == reference.stats
        assert list(indexed._entries) == list(reference._entries)
        assert indexed.cost_total == reference.cost_total
        _assert_index_consistent(indexed)


class TestMissPathLatencyLabel:
    """Blended windows train the latency model on cluster-served reads only."""

    def test_blended_window_still_trains_on_the_miss_path_label(self):
        engine = make_engine()
        engine.put("profiles", {"user_id": "u1", "bio": "hi"})
        engine.settle(1.0)
        engine.monitor.close_window(engine.now)  # baseline (duration-0 window)
        miss = engine.get("profiles", ("u1",))   # cluster read, fills cache
        for _ in range(50):
            engine.get("profiles", ("u1",))      # sub-ms front-tier hits
        targets_before = len(engine.latency_model._targets)
        observation = engine.monitor.close_window(engine.now + 30.0)
        assert observation.cache_hit_rate > \
            engine.monitor.CACHE_BLEND_TRAINING_CUTOFF
        # The clean label is exactly the one cluster-served read's latency...
        assert observation.cluster_read_percentile == pytest.approx(miss.latency)
        # ...and it is what the model trained on — not the blended percentile.
        assert len(engine.latency_model._targets) == targets_before + 1
        assert engine.latency_model._targets[-1] == pytest.approx(miss.latency)
        blended = observation.sla_reports["read"].observed_percentile_latency
        assert blended < miss.latency  # the blend the old skip was protecting

    def test_window_without_cluster_reads_keeps_the_skip(self):
        engine = make_engine()
        engine.put("profiles", {"user_id": "u1", "bio": "hi"})
        engine.settle(1.0)
        engine.monitor.close_window(engine.now)  # baseline (duration-0 window)
        engine.get("profiles", ("u1",))
        engine.monitor.close_window(engine.now + 30.0)  # drains the miss read
        for _ in range(40):
            engine.get("profiles", ("u1",))              # hits only
        targets_before = len(engine.latency_model._targets)
        observation = engine.monitor.close_window(engine.now + 60.0)
        assert observation.cache_hit_rate > \
            engine.monitor.CACHE_BLEND_TRAINING_CUTOFF
        assert observation.cluster_read_percentile is None
        assert len(engine.latency_model._targets) == targets_before

    def test_uncached_engine_skips_the_tracker_and_trains_unchanged(self):
        """Without a cache the miss-path tracker stays empty (nothing can
        blend, and nothing may grow unboundedly when no monitor drains it);
        training uses the tracker report exactly as before the PR."""
        engine = Scads(seed=0, autoscale=False, initial_groups=2, cache=False)
        engine.register_entity(EntitySchema(
            "profiles", key_fields=[Field("user_id")],
            value_fields=[Field("bio")]))
        engine.put("profiles", {"user_id": "u1", "bio": "hi"})
        engine.settle(1.0)
        engine.monitor.close_window(engine.now)  # baseline (duration-0 window)
        engine.get("profiles", ("u1",))
        assert len(engine._cluster_read_window) == 0
        targets_before = len(engine.latency_model._targets)
        observation = engine.monitor.close_window(engine.now + 30.0)
        assert observation.cache_hit_rate == 0.0
        assert observation.cluster_read_percentile is None
        # An unblended window trains on the tracker report, as before.
        assert len(engine.latency_model._targets) == targets_before + 1
        assert engine.latency_model._targets[-1] == pytest.approx(
            observation.sla_reports["read"].observed_percentile_latency)
