"""The cache tier facade the engine embeds (``Scads(cache=...)``).

:class:`CacheTier` bundles the store, the admission policy, and the
write-through invalidator, and owns the *latency model* of a cache hit: a hit
is served from the front tier's memory without touching the cluster, so it
samples a sub-millisecond log-normal service time from
:mod:`repro.sim.latency` instead of paying network hops plus node service
time.  The engine records that latency under the same read SLA as cluster
reads — the cache is part of the serving system, not an accounting trick.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.cache.invalidation import WriteThroughInvalidator
from repro.cache.policy import AdmissionPolicy
from repro.cache.store import CacheEntry, StalenessBudgetCache, entity_token
from repro.core.consistency.sessions import Session
from repro.core.consistency.spec import ConsistencySpec
from repro.sim.latency import LogNormalLatency
from repro.sim.simulator import Simulator
from repro.storage.records import Key


@dataclass(frozen=True)
class CacheConfig:
    """Knobs for the staleness-budget cache tier.

    Args:
        capacity: maximum rows held (LRU evicts past it).
        propagation_headroom: seconds subtracted from the staleness bound when
            deriving TTLs; None derives it from the bound (see
            :class:`~repro.cache.policy.AdmissionPolicy`).
        hit_latency_median / hit_latency_sigma: log-normal service time of a
            cache hit — a front-tier memory lookup, orders of magnitude below
            a routed cluster read.
        cache_ranges: also cache compiled-query range reads (entity gets are
            always eligible).
    """

    capacity: int = 4096
    propagation_headroom: Optional[float] = None
    hit_latency_median: float = 0.0005
    hit_latency_sigma: float = 0.3
    cache_ranges: bool = True

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if self.hit_latency_median <= 0:
            raise ValueError("hit_latency_median must be positive")


class CacheTier:
    """Read-through cache in front of the router, bound to one engine's spec.

    Entity reads are probed and filled a batch at a time (a query's whole
    dereference list at once): :meth:`lookup_entities` and
    :meth:`admit_entities` read the policy and the clock once per batch and
    keep every per-key effect in key order.  The one-key forms
    :meth:`lookup_entity` and :meth:`admit_entity` (``Scads.get``) are calls
    into the same code, so each cache rule has one implementation.
    """

    def __init__(self, config: CacheConfig, spec: ConsistencySpec,
                 simulator: Simulator) -> None:
        self.config = config
        self.store = StalenessBudgetCache(capacity=config.capacity)
        self.policy = AdmissionPolicy(
            spec, propagation_headroom=config.propagation_headroom
        )
        self.invalidator = WriteThroughInvalidator(self.store)
        self._sim = simulator
        self._hit_latency = LogNormalLatency(
            median=config.hit_latency_median, sigma=config.hit_latency_sigma
        )
        self._rng = simulator.random.get("cache:hit-latency")
        self.session_bypasses = 0

    # ------------------------------------------------------------------ serving

    def sample_hit_latency(self) -> float:
        """Service time of one cache hit (no cluster involvement)."""
        return self._hit_latency.sample(self._rng)

    def sample_hit_latencies(self, count: int) -> List[float]:
        """Service times of ``count`` cache hits in one draw: the same values,
        in the same order, as ``count`` :meth:`sample_hit_latency` calls."""
        return self._hit_latency.sample_many(self._rng, count).tolist()

    def lookup_entity(self, namespace: str, key: Key,
                      session: Optional[Session]) -> Optional[CacheEntry]:
        """The live cached entry for one entity get, or None on miss/bypass;
        a one-key :meth:`lookup_entities`."""
        return self.lookup_entities(namespace, (key,), session)[0]

    def lookup_entities(self, namespace: str, keys: Sequence[Key],
                        session: Optional[Session]) -> List[Optional[CacheEntry]]:
        """The live cached entry for each entity get, in key order, or None
        on miss/bypass.

        The policy and the clock are read once per batch; the store applies
        each key's lookup in order (hit/miss/expiry counts, LRU refresh, lazy
        reclaim), exactly as one call per key would.  A value the caller's
        session guarantees reject is a *bypass*: the entry stays cached for
        other sessions, but this read must go to the cluster (whose read path
        enforces the guarantee).
        """
        if not self.policy.cacheable():
            return [None] * len(keys)
        entries = self.store.get_many(
            [entity_token(namespace, key) for key in keys], self._sim.now)
        if self.policy.may_bypass(session):
            stats = self.store.stats
            for i, entry in enumerate(entries):
                if entry is None or self.policy.session_allows(
                        session, namespace, keys[i], entry.value):
                    continue
                self.session_bypasses += 1
                # The lookup was counted as a hit, but this read goes to the
                # cluster; reclassify so the hit-rate feature the provisioning
                # loop sees reflects cluster-absorbed reads only.
                stats.hits -= 1
                stats.misses += 1
                entries[i] = None
        return entries

    def admit_entity(self, namespace: str, key: Key, value: Any,
                     known_staleness: Optional[float]) -> Optional[CacheEntry]:
        """Read-through fill after one cluster read of known freshness; a
        one-read :meth:`admit_entities`."""
        return self.admit_entities(namespace, ((key, value, known_staleness),))[0]

    def admit_entities(
        self, namespace: str,
        reads: Sequence[Tuple[Key, Any, Optional[float]]],
    ) -> List[Optional[CacheEntry]]:
        """Read-through fill after cluster reads, one ``(key, value,
        known_staleness)`` each, admitted in order; returns each admitted
        entry, or None where the derived TTL grants no servable window
        (an unverified read, ``known_staleness=None``, never is admitted)."""
        if not self.policy.cacheable():
            return [None] * len(reads)
        now = self._sim.now
        ttl = self.policy.entity_ttl
        put = self.store.put_entity
        return [put(namespace, key, value, now, ttl(known_staleness))
                for key, value, known_staleness in reads]

    def lookup_range(self, namespace: str, start: Optional[Key],
                     end: Optional[Key], limit: Optional[int],
                     reverse: bool) -> Optional[List[Tuple[Key, Any]]]:
        """Cached rows for one bounded range read, or None on miss.

        Served under the exact scan parameters when possible, otherwise by
        *containment* from a wider complete cached scan (see
        :meth:`~repro.cache.store.StalenessBudgetCache.get_range`) — the
        narrower answer inherits the wider entry's TTL, which is at least as
        conservative as the one a fresh fill would get.  Candidates come from
        the store's per-namespace range index, so a miss costs one bisection
        plus a walk over the cached scans that reach the requested end — O(1)
        on disjoint per-user prefix scans, linear only behind an early scan
        with an unbounded end.
        """
        if not self.config.cache_ranges or not self.policy.cacheable():
            return None
        return self.store.get_range(namespace, start, end, limit, reverse,
                                    self._sim.now)

    def admits_ranges(self) -> bool:
        """Would :meth:`admit_range` accept a fill right now?

        The engine consults this *before* issuing the scan: rows destined for
        the cache must be read from the primary, because apply-time index
        invalidation has already fired for writes a lagging replica may still
        be missing — caching a replica's view could keep superseded rows
        alive for a full TTL with nothing left to evict them.
        """
        return self.config.cache_ranges and self.policy.cacheable()

    def admit_range(self, namespace: str, start: Optional[Key],
                    end: Optional[Key], limit: Optional[int], reverse: bool,
                    rows: List[Tuple[Key, Any]]) -> Optional[CacheEntry]:
        """Read-through fill of one compiled-query range read.

        The rows must come from a primary read (see :meth:`admits_ranges`);
        the TTL derivation in :meth:`AdmissionPolicy.range_ttl` relies on it.
        The store keeps ``rows`` itself, without a copy: the caller hands
        over a list nobody mutates afterwards.
        """
        if not self.admits_ranges():
            return None
        return self.store.put_range(
            namespace, start, end, limit, reverse, rows,
            self._sim.now, self.policy.range_ttl(),
        )

    # ------------------------------------------------------------- invalidation

    def note_entity_write(self, namespace: str, key: Key) -> None:
        self.invalidator.note_entity_write(namespace, key)

    def note_index_write(self, namespace: str, key: Key) -> None:
        self.invalidator.note_index_write(namespace, key)

    # ---------------------------------------------------------------- reporting

    def hit_counts(self) -> Tuple[int, int]:
        """Cumulative (hits, misses) — the provisioning monitor diffs these
        per window to compute the cache-hit-rate feature."""
        return self.store.stats.hits, self.store.stats.misses

    def hit_rate(self) -> float:
        return self.store.stats.hit_rate()
