"""Execution of compiled query plans.

A plan executes as exactly one bounded contiguous range read of its index
(Section 3.1's guarantee) followed by at most ``limit``/``result_bound``
pointer dereferences of the final entity.  The executor is storage-agnostic:
it is handed storage callables by the engine, so the same code runs against
the consistency-aware read path, the quorum baseline, or a plain dict in
tests.  Dereferences go down as one batch when a batched entity callable is
given (the engine always gives one), and one call per index entry otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.query.plans import PrefixComponent, QueryPlan
from repro.storage.records import Key, key_part_successor, prefix_range

# (namespace, start, end, limit, reverse) -> (list of (key, value_dict), latency)
RangeReadFn = Callable[[str, Optional[Key], Optional[Key], Optional[int], bool],
                       Tuple[List[Tuple[Key, Dict[str, Any]]], float]]
# (entity_name, key) -> (row dict or None, latency)
EntityGetFn = Callable[[str, Key], Tuple[Optional[Dict[str, Any]], float]]
# (entity_name, keys) -> {key: (row dict or None, latency)} — batched variant,
# called once per query with every entry's final key in index order
# (duplicates included); the engine serves the batch with one cache probe and
# one multiget per replica group for the misses.
EntityGetManyFn = Callable[[str, List[Key]],
                           Dict[Key, Tuple[Optional[Dict[str, Any]], float]]]


class ExecutionError(RuntimeError):
    """Raised when a plan cannot be executed (e.g. missing parameter)."""


@dataclass
class QueryResult:
    """The rows a query returned plus what it cost to produce them."""

    rows: List[Dict[str, Any]]
    latency: float
    index_entries_read: int
    dereferences: int

    def __len__(self) -> int:
        return len(self.rows)


class QueryExecutor:
    """Executes :class:`QueryPlan` objects against pluggable storage callables.

    A dereferencing plan needs ``entity_get_many`` (preferred: one call per
    query) or ``entity_get`` (one call per index entry); executing one with
    neither raises :class:`ExecutionError`.
    """

    def __init__(self, range_read: RangeReadFn,
                 entity_get: Optional[EntityGetFn] = None,
                 entity_get_many: Optional[EntityGetManyFn] = None) -> None:
        self._range_read = range_read
        self._entity_get = entity_get
        self._entity_get_many = entity_get_many

    # ----------------------------------------------------------------- execute

    def execute(self, plan: QueryPlan, params: Dict[str, Any]) -> QueryResult:
        """Run a plan with the given parameter bindings."""
        if plan.dereference and self._entity_get_many is None and self._entity_get is None:
            raise ExecutionError(
                f"query {plan.query_name!r} dereferences {plan.final_entity!r} "
                "but the executor was given no entity read callable")
        prefix = self._bind_prefix(plan, params)
        start, end = self._range_keys(plan, prefix, params)
        entries, range_latency = self._range_read(
            plan.namespace, start, end, plan.limit, plan.descending
        )
        if plan.limit is not None:
            entries = entries[: plan.limit]
        # Dereferences of different index entries hit independent replica
        # groups; model them as parallel fetches (the slowest one counts).
        dereference_latency = 0.0
        if plan.dereference:
            length = plan.final_key_length
            rows: List[Dict[str, Any]] = []
            for row, latency in self._dereference(
                    plan.final_entity, [key[-length:] for key, _ in entries]):
                if latency > dereference_latency:
                    dereference_latency = latency
                if row is not None:
                    rows.append(row)
        else:
            rows = [dict(value) if isinstance(value, dict) else {}
                    for _, value in entries]
        columns = plan.selected_columns
        if columns:
            rows = [{column: row.get(column) for column in columns} for row in rows]
        return QueryResult(
            rows=rows,
            latency=range_latency + dereference_latency,
            index_entries_read=len(entries),
            dereferences=len(entries) if plan.dereference else 0,
        )

    def _dereference(self, entity: str,
                     keys: List[Key]) -> List[Tuple[Optional[Dict[str, Any]], float]]:
        """``(row, latency)`` for each final key, in index order."""
        if not keys:
            return []
        if self._entity_get_many is not None:
            # The whole bounded list goes down in one call, letting the
            # storage layer collapse it into one cache probe and per-group
            # multigets instead of one request per entry.
            fetched = self._entity_get_many(entity, keys)
            return [fetched[key] for key in keys]
        return [self._entity_get(entity, key) for key in keys]

    # ------------------------------------------------------------------ binding

    @staticmethod
    def _bind_component(component: PrefixComponent, params: Dict[str, Any]) -> Any:
        if component.kind == "literal":
            return component.value
        if component.value not in params:
            raise ExecutionError(f"missing query parameter {component.value!r}")
        return params[component.value]

    def _bind_prefix(self, plan: QueryPlan, params: Dict[str, Any]) -> Key:
        return tuple(self._bind_component(component, params) for component in plan.prefix)

    def _range_keys(
        self,
        plan: QueryPlan,
        prefix: Key,
        params: Dict[str, Any],
    ) -> Tuple[Optional[Key], Optional[Key]]:
        """Start/end keys for the single contiguous index scan.

        Strict bounds are encoded directly into the key range: a ``>`` low
        bound starts the range at the successor of the bound value, and a
        ``<`` high bound ends it exactly at the bound value (exclusive), so no
        post-filtering is ever needed.
        """
        base = prefix_range(plan.namespace, prefix)
        bound = plan.range_bound
        if bound is None:
            return base.start, base.end
        start: Optional[Key] = base.start
        end: Optional[Key] = base.end
        if bound.low is not None:
            low_value = self._bind_component(bound.low, params)
            if bound.op == ">":
                start = prefix + (key_part_successor(low_value),)
            else:  # '>=' or the low side of BETWEEN (inclusive)
                start = prefix + (low_value,)
        if bound.high is not None:
            high_value = self._bind_component(bound.high, params)
            if bound.op == "<":
                end = prefix + (high_value,)
            else:  # '<=' or the high side of BETWEEN (inclusive)
                end = prefix + (key_part_successor(high_value),)
        return start, end
