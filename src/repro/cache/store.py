"""Capacity-bounded cache store with LRU and TTL eviction.

The store holds two kinds of entries in one LRU order:

* **entity entries** — one :class:`~repro.storage.records.VersionedValue`
  (or a negative result) under its ``(namespace, key)``;
* **range entries** — the materialised rows of one bounded contiguous range
  read (a compiled query's index scan), remembered together with the
  :class:`~repro.storage.records.KeyRange` they cover so a point write can
  invalidate exactly the cached scans whose range contains the written key.

Range entries are also held in a per-namespace :class:`RangeIndex`, sorted by
start, so the two range-path operations that run on every query and every
index write — serving a narrower scan from a wider cached one, and dropping
the cached scans a written key falls in — bisect to a start and walk back a
few slots instead of scanning every cached scan of the namespace.

Every entry carries an absolute expiry time derived by the admission policy
from the governing staleness bound (see :mod:`repro.cache.policy`); expired
entries are treated as misses and reclaimed lazily.  Capacity is measured in
*rows* (a range entry costs as many units as it holds rows) so a handful of
wide scans cannot silently dwarf thousands of entity entries.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.storage.records import Key, KeyRange

EntryToken = Tuple[Hashable, ...]


@dataclass
class CacheStats:
    """Counters the hit-rate feature and the benchmarks report from."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    ttl_expirations: int = 0
    lru_evictions: int = 0
    invalidations: int = 0
    # Range lookups served by *containment* — a narrower scan answered from a
    # wider cached entry (a subset of ``hits``).
    containment_hits: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class CacheEntry:
    """One cached result plus the metadata its freshness contract needs."""

    token: EntryToken
    namespace: str
    value: Any
    inserted_at: float
    expires_at: float
    key: Optional[Key] = None
    key_range: Optional[KeyRange] = None
    cost: int = 1
    # Admission order of a range entry: when several cached scans could
    # serve by containment, the lowest sequence number (the oldest) wins.
    seq: int = 0

    def expired(self, now: float) -> bool:
        return now >= self.expires_at

    def remaining_ttl(self, now: float) -> float:
        return max(self.expires_at - now, 0.0)


def entity_token(namespace: str, key: Key) -> EntryToken:
    """Stable store token for an entity entry."""
    return ("entity", namespace, key)


def range_token(namespace: str, start: Optional[Key], end: Optional[Key],
                limit: Optional[int], reverse: bool) -> EntryToken:
    """Stable store token for one bounded range read's parameters."""
    return ("range", namespace, start, end, limit, reverse)


def _slot_key(start: Optional[Key], seq: float) -> tuple:
    """Sort key of a :class:`RangeIndex` slot: unbounded starts first, then
    by start, ties by admission sequence (so every slot key is unique)."""
    return (start is not None, () if start is None else start, seq)


def _later_end(a: Optional[Key], b: Optional[Key]) -> Optional[Key]:
    """The further of two range ends (None is +inf)."""
    if a is None or b is None:
        return None
    return a if a >= b else b


def _reaches(end: Optional[Key], bound: Optional[Key], strict: bool) -> bool:
    """Does a range ending at ``end`` extend to ``bound`` — ``end >= bound``,
    or ``end > bound`` when ``strict``?  None is +inf on both sides."""
    if end is None:
        return True
    if bound is None:
        return False
    return end > bound if strict else end >= bound


class RangeIndex:
    """The range entries of one namespace, sorted by start.

    Slot ``i`` keeps its entry and its *reach*: the furthest end of any entry
    in slots ``0..i`` (None = +inf).  Reach never decreases from slot to
    slot, so a walk back from the last slot starting at or before a point can
    stop at the first slot whose reach falls short of the end it needs: no
    entry further back extends that far.  Insert and remove update reach
    forward only until it stops changing.

    On the disjoint per-user prefix ranges the app issues, each slot's reach
    is its own end, so a lookup or an invalidation is one O(log n) bisection
    plus O(1) slots.  The one worst case is an early entry with an unbounded
    end: it raises every later reach to +inf and the walk becomes linear in
    the slots before the point — no worse than a scan of the namespace.
    """

    __slots__ = ("_keys", "_entries", "_reach")

    def __init__(self) -> None:
        self._keys: List[tuple] = []
        self._entries: List[CacheEntry] = []
        self._reach: List[Optional[Key]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, entry: CacheEntry) -> None:
        key = _slot_key(entry.key_range.start, entry.seq)
        pos = bisect_right(self._keys, key)
        end = entry.key_range.end
        reach = end if pos == 0 else _later_end(self._reach[pos - 1], end)
        self._keys.insert(pos, key)
        self._entries.insert(pos, entry)
        self._reach.insert(pos, reach)
        reaches = self._reach
        for i in range(pos + 1, len(reaches)):
            if _reaches(reaches[i], end, strict=False):
                break
            reaches[i] = end

    def discard(self, entry: CacheEntry) -> None:
        pos = bisect_left(self._keys, _slot_key(entry.key_range.start, entry.seq))
        del self._keys[pos]
        del self._entries[pos]
        del self._reach[pos]
        # From the first unchanged reach on, every later one depends only on
        # slots the removal did not touch.
        entries, reaches = self._entries, self._reach
        for i in range(pos, len(entries)):
            end = entries[i].key_range.end
            reach = end if i == 0 else _later_end(reaches[i - 1], end)
            if reach == reaches[i]:
                break
            reaches[i] = reach

    def covering(self, start: Optional[Key], end: Optional[Key]) -> List[CacheEntry]:
        """Every entry whose range contains all of ``[start, end)``."""
        return self._walk(start, end, strict=False)

    def containing(self, key: Key) -> List[CacheEntry]:
        """Every entry whose range contains ``key``."""
        return self._walk(key, key, strict=True)

    def _walk(self, point: Optional[Key], bound: Optional[Key],
              strict: bool) -> List[CacheEntry]:
        """Entries starting at or before ``point`` whose end reaches ``bound``."""
        entries, reaches = self._entries, self._reach
        found = []
        i = bisect_right(self._keys, _slot_key(point, math.inf)) - 1
        while i >= 0 and _reaches(reaches[i], bound, strict):
            entry = entries[i]
            if _reaches(entry.key_range.end, bound, strict):
                found.append(entry)
            i -= 1
        return found


class StalenessBudgetCache:
    """An LRU + TTL cache over entity and range-read results.

    Range entries are additionally indexed per namespace by a
    :class:`RangeIndex`, which serves both containment lookups and key
    invalidation with one bisection and a short backward walk.

    Args:
        capacity: maximum total cost (rows) held; least-recently-used entries
            are evicted past it.  Entity entries cost 1, range entries cost
            ``max(1, len(rows))``.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[EntryToken, CacheEntry]" = OrderedDict()
        self._range_index: Dict[str, RangeIndex] = {}
        # Admission sequence numbers, not hash order, decide which covering
        # entry serves: set iteration order varies with the interpreter's
        # hash seed, which would let two invocations of the same seeded run
        # serve (and LRU-refresh) different entries.
        self._range_admissions = itertools.count()
        self._cost_total = 0
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def cost_total(self) -> int:
        """Current total cost (rows) of everything held."""
        return self._cost_total

    # ------------------------------------------------------------------ lookups

    def get(self, token: EntryToken, now: float) -> Optional[CacheEntry]:
        """Return the live entry under ``token``, or None (counted as a miss);
        a one-token :meth:`get_many`."""
        return self.get_many((token,), now)[0]

    def get_many(self, tokens: Sequence[EntryToken],
                 now: float) -> List[Optional[CacheEntry]]:
        """The live entry under each token, in order, or None for a miss.

        Each token is one lookup, applied in order exactly as consecutive
        :meth:`get` calls would be: a hit refreshes the entry's LRU position;
        an expired entry is reclaimed and reported as a miss (so a repeated
        token after it misses too).
        """
        entries = self._entries
        found: List[Optional[CacheEntry]] = []
        hits = 0
        for token in tokens:
            entry = entries.get(token)
            if entry is not None:
                if entry.expired(now):
                    self._remove(token)
                    self.stats.ttl_expirations += 1
                    entry = None
                else:
                    entries.move_to_end(token)
                    hits += 1
            found.append(entry)
        self.stats.hits += hits
        self.stats.misses += len(found) - hits
        return found

    def peek(self, token: EntryToken) -> Optional[CacheEntry]:
        """The entry under ``token`` regardless of expiry, without counting
        a lookup or touching LRU order (tests and introspection)."""
        return self._entries.get(token)

    def get_range(self, namespace: str, start: Optional[Key], end: Optional[Key],
                  limit: Optional[int], reverse: bool, now: float) -> Optional[list]:
        """Rows for one bounded range read, exact-token or by containment.

        The exact parameter token is tried first (the common repeated-query
        case).  On an exact miss, a *wider* cached entry whose range contains
        the requested one can serve it — the paginated-query pattern, where a
        ``limit 20`` scan should hit on the rows a ``limit 50`` scan of the
        same prefix already fetched — provided the wider entry is **complete**
        (it was not truncated by its own limit, so its rows are the full
        contents of its range; a truncated entry's coverage ends at an unknown
        key and serving from it could fabricate a gap).  The derived answer
        filters the wider entry's rows to the requested bounds, reorients if
        the scan directions differ, and applies the requested limit.

        One hit or one miss is counted per call; a containment serve also
        refreshes the serving entry's LRU position and counts in
        ``stats.containment_hits``.  When several cached entries could serve,
        the oldest-admitted one wins (lowest admission sequence number —
        deterministic across interpreter invocations, unlike set order).
        Candidates come from the namespace's :class:`RangeIndex`, so a miss
        costs a bisection plus a walk over the entries that reach the
        requested end; expired covering entries the walk meets are reclaimed.
        Behind an early entry with an unbounded end every slot reaches, and
        the walk is linear — no worse than scanning the namespace.
        """
        entry = self._entries.get(range_token(namespace, start, end, limit, reverse))
        if entry is not None:
            if entry.expired(now):
                self._remove(entry.token)
                self.stats.ttl_expirations += 1
            else:
                self._entries.move_to_end(entry.token)
                self.stats.hits += 1
                return list(entry.value)
        served = self._containment_lookup(namespace, start, end, limit, reverse, now)
        if served is not None:
            self.stats.hits += 1
            self.stats.containment_hits += 1
            return served
        self.stats.misses += 1
        return None

    def _containment_lookup(self, namespace: str, start: Optional[Key],
                            end: Optional[Key], limit: Optional[int],
                            reverse: bool, now: float) -> Optional[list]:
        index = self._range_index.get(namespace)
        if index is None:
            return None
        server: Optional[CacheEntry] = None
        doomed = []
        for entry in index.covering(start, end):
            if entry.expired(now):
                doomed.append(entry.token)
                continue
            entry_limit = entry.token[4]
            if entry_limit is not None and len(entry.value) >= entry_limit:
                continue  # truncated by its own limit: coverage unknown
            if server is None or entry.seq < server.seq:
                server = entry
        for token in doomed:
            self._remove(token)
            self.stats.ttl_expirations += 1
        if server is None:
            return None
        rows = [(key, value) for key, value in server.value
                if (start is None or key >= start)
                and (end is None or key < end)]
        if bool(server.token[5]) != reverse:
            rows.reverse()
        if limit is not None:
            rows = rows[:limit]
        self._entries.move_to_end(server.token)
        return rows

    # --------------------------------------------------------------- admission

    def put_entity(self, namespace: str, key: Key, value: Any,
                   now: float, ttl: float) -> Optional[CacheEntry]:
        """Admit one entity read result; returns the entry, or None when the
        derived TTL grants no servable window."""
        if ttl <= 0:
            return None
        entry = CacheEntry(
            token=entity_token(namespace, key),
            namespace=namespace,
            value=value,
            inserted_at=now,
            expires_at=now + ttl,
            key=key,
            cost=1,
        )
        self._insert(entry)
        return entry

    def put_range(self, namespace: str, start: Optional[Key], end: Optional[Key],
                  limit: Optional[int], reverse: bool, rows: Any,
                  now: float, ttl: float) -> Optional[CacheEntry]:
        """Admit one bounded range read's rows under its exact parameters."""
        if ttl <= 0:
            return None
        cost = max(1, len(rows))
        if cost > self.capacity:
            return None  # a scan wider than the whole cache is not admissible
        entry = CacheEntry(
            token=range_token(namespace, start, end, limit, reverse),
            namespace=namespace,
            value=rows,
            inserted_at=now,
            expires_at=now + ttl,
            key_range=KeyRange(namespace=namespace, start=start, end=end),
            cost=cost,
            seq=next(self._range_admissions),
        )
        self._insert(entry)
        return entry

    def _insert(self, entry: CacheEntry) -> None:
        if entry.token in self._entries:
            self._remove(entry.token)
        self._entries[entry.token] = entry
        self._cost_total += entry.cost
        if entry.key_range is not None:
            index = self._range_index.get(entry.namespace)
            if index is None:
                index = self._range_index[entry.namespace] = RangeIndex()
            index.add(entry)
        self.stats.insertions += 1
        while self._cost_total > self.capacity and self._entries:
            victim_token = next(iter(self._entries))
            if victim_token == entry.token and len(self._entries) == 1:
                break  # never evict the sole, just-inserted entry
            self._remove(victim_token)
            self.stats.lru_evictions += 1

    # ------------------------------------------------------------- invalidation

    def invalidate_key(self, namespace: str, key: Key) -> int:
        """Drop the entity entry for ``key`` and every cached range read in
        the same namespace whose range contains ``key``.

        This is the write-through hook: called for the written key on entity
        writes, and for the written *index* key when the asynchronous updater
        applies index maintenance (so cached query scans covering the changed
        index region are dropped too).  Returns the number of entries dropped.
        """
        dropped = 0
        token = entity_token(namespace, key)
        if token in self._entries:
            self._remove(token)
            dropped += 1
        index = self._range_index.get(namespace)
        if index is not None:
            for entry in index.containing(key):
                self._remove(entry.token)
                dropped += 1
        self.stats.invalidations += dropped
        return dropped

    def invalidate_namespace(self, namespace: str) -> int:
        """Drop every entry (entity and range) in one namespace."""
        doomed = [token for token, entry in self._entries.items()
                  if entry.namespace == namespace]
        for token in doomed:
            self._remove(token)
        self.stats.invalidations += len(doomed)
        return len(doomed)

    def clear(self) -> None:
        """Drop everything (stats are preserved)."""
        self._entries.clear()
        self._range_index.clear()
        self._cost_total = 0

    # ----------------------------------------------------------------- internal

    def _remove(self, token: EntryToken) -> None:
        entry = self._entries.pop(token, None)
        if entry is None:
            return
        self._cost_total -= entry.cost
        if entry.key_range is not None:
            index = self._range_index[entry.namespace]
            index.discard(entry)
            if not index:
                del self._range_index[entry.namespace]
