"""Parameterized plan cache for prepared statements.

The front-door session tier (ROADMAP item 2) sends the same handful of
statement shapes thousands of times with different parameters.  Real
engines parse and optimize such a statement once and re-execute the
cached physical plan per binding; this module reproduces that, keyed
like the :class:`~repro.query.scan_cache.ScanCache` on

    (statement text, parameter type signature, stats version)

* **statement text** — the SQL template with ``?`` placeholders is the
  fingerprint; two textually identical statements share one entry.
* **parameter type signature** — the tuple of bound Python types.  A
  binding of different types can flip comparison semantics (and which
  index is sargable), so it plans separately — the classic bind-peek
  cache split.
* **stats version** — the tuple of per-table :class:`StatsCache`
  epochs the plan was costed against.  Physically the epoch tuple is
  *validated at lookup* rather than hashed into the key: a hit must
  skip the parse step, and the referenced tables are only known after
  parsing.  Semantically it is the same fence — an entry is served
  only while every referenced table's statistics epoch is unchanged,
  so DDL-free writes that drift a table past its stats slack replan
  automatically (the epoch moves with the refresh).

Plans are built by **bind peeking**: the first execution's parameters
are bound into the WHERE clause and the bound query is planned (the
optimizer needs concrete values for selectivity).  The entry keeps the
*template* per-table predicates alongside the plan; a hit rebinds them
with the new parameters and grafts them onto the cached ScanPlans —
parse and optimization are skipped entirely.  Like real bind-peeked
plans, the cached access path may be suboptimal for wildly different
bindings; it is never incorrect (predicates are always rebound).

Engine write/merge paths invalidate eagerly through
:meth:`PlanCache.invalidate` (same contract as the scan cache): DDL
(``_register_adapter``) and sync/merge clear affected entries
immediately rather than waiting for the epoch fence to strand them.
Counts are exported as attributes and through the obs registry
(``plan_cache.hits`` / ``.misses`` / ``.evictions`` /
``.invalidations``, plus the ``plan_cache.entries`` gauge).
"""

from __future__ import annotations

import operator
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from ..common.predicate import (
    And,
    Between,
    Comparison,
    Param,
    Predicate,
    bind_predicate,
    collect_params,
    key_equality,
)
from ..obs.registry import get_registry
from .optimizer import PhysicalPlan, ScanPlan

DEFAULT_CAPACITY = 128

#: statement text + parameter type signature.
PlanKey = tuple


def param_signature(params: Sequence[Any]) -> tuple[str, ...]:
    """The type fingerprint a binding plans under."""
    return tuple([type(p).__name__ for p in params])


def _slot(value: Any) -> Callable[[Sequence[Any]], Any]:
    """``value`` as a function of the params: a ``Param``'s slot, or
    the literal it already is."""
    if type(value) is Param:
        return operator.itemgetter(value.index)
    return lambda params: value


#: The fields of a conjunct shape that may hold a ``Param`` directly.
_VALUE_FIELDS = {Comparison: ("value",), Between: ("low", "high")}


def _param_slots(conjunct: Predicate) -> tuple[tuple[str, int], ...] | None:
    """``(field, param index)`` for each field of ``conjunct`` holding a
    ``Param``; None when a Param sits deeper (under OR / NOT / IN)."""
    names = _VALUE_FIELDS.get(type(conjunct))
    if names is None:
        return None
    return tuple(
        (name, value.index)
        for name in names
        if type(value := getattr(conjunct, name)) is Param
    )


def compile_binder(template: Predicate) -> Callable[[Sequence[Any]], Predicate]:
    """A closure rebinding ``template`` without walking it per call.

    The generic :func:`bind_predicate` visitor re-dispatches on node
    type for every execution; on the plan-cache hit path that walk *is*
    the per-call cost.  Here the walk happens once, at store time: each
    AND-ed conjunct becomes its template node plus the fields its Params
    fill.  A call clones each such node with the call's values in those
    fields (the template's comparison operator was validated when it
    was built, so nothing is left to check); odd shapes (Params under
    OR/NOT/IN) fall back to the visitor.
    """
    if not collect_params(template):
        return lambda params: template
    wrapped = isinstance(template, And)
    steps = [
        (conjunct, _param_slots(conjunct) if collect_params(conjunct) else ())
        for conjunct in (template.children if wrapped else (template,))
    ]

    def bind(params: Sequence[Any]) -> Predicate:
        bound = []
        for node, slots in steps:
            if slots:
                clone = object.__new__(type(node))
                state = clone.__dict__
                state.update(node.__dict__)
                for name, index in slots:
                    state[name] = params[index]
                node = clone
            elif slots is None:
                node = bind_predicate(node, params)
            bound.append(node)
        # Preserve the And wrapper even for one conjunct: the bound
        # predicate is part of downstream scan-cache keys, so it must be
        # structurally identical to what cold planning builds.
        return And(bound) if wrapped else bound[0]

    return bind


def compile_key_binder(
    template: Predicate, key_columns: Sequence[str]
) -> Callable[[Sequence[Any]], Any]:
    """The primary key ``template`` pins, as a function of the params:
    per key column a ``Param`` slot or a literal, resolved once so a hit
    derives no key from its bound predicate."""
    pinned = key_equality(template, key_columns)
    if len(key_columns) == 1:
        return _slot(pinned)
    if all(type(value) is Param for value in pinned):
        # Every key column is a parameter: one C-level gather.
        return operator.itemgetter(*[value.index for value in pinned])
    slots = [_slot(value) for value in pinned]
    return lambda params: tuple([get(params) for get in slots])


def _rebound(node: Any, **changes: Any) -> Any:
    """``dataclasses.replace(node, **changes)`` for the hit path.

    Every field of ``node`` carries over, so a field added to
    ``ScanPlan`` / ``JoinStep`` / ``PhysicalPlan`` cannot be dropped when
    a cached plan is rebound.  ``replace`` itself re-validates and
    re-runs ``__init__`` at 1.1 us per node — 3 us on a 16 us cached
    point statement — so the instance is cloned directly; none of the
    three classes has a ``__post_init__`` to skip.
    """
    clone = object.__new__(type(node))
    clone.__dict__.update(node.__dict__, **changes)
    return clone


@dataclass
class CachedPlan:
    """One prepared statement's plan plus what rebinding needs."""

    plan: PhysicalPlan
    #: Per-table template predicate (Params in value slots), the same
    #: structural split the planner pushed into each ScanPlan.
    template_predicates: dict[str, Predicate]
    param_count: int
    #: Tables the statement references, in plan order.
    tables: tuple[str, ...]
    #: Per-table stats epochs the plan was costed against.
    stats_token: tuple[int, ...]

    def __post_init__(self) -> None:
        # Compile each scan's rebinding once: bind() then runs only the
        # per-conjunct clones (no visitor walk on the hit path), and a
        # scan the planner made a point lookup gets its key the same way.
        self._scan_binders = {
            scan.table: (
                compile_binder(self.template_predicates[scan.table]),
                compile_key_binder(
                    self.template_predicates[scan.table], scan.key_columns
                )
                if scan.key_columns
                else None,
            )
            for scan in [self.plan.base, *(s.scan for s in self.plan.joins)]
        }

    def bind(self, params: Sequence[Any]) -> PhysicalPlan:
        """The cached plan with ``params`` grafted into every scan."""
        if self.param_count == 0:
            return self.plan
        plan = self.plan
        joins = [
            _rebound(step, scan=self._bind_scan(step.scan, params))
            for step in plan.joins
        ]
        return _rebound(plan, base=self._bind_scan(plan.base, params), joins=joins)

    def _bind_scan(self, scan: ScanPlan, params: Sequence[Any]) -> ScanPlan:
        binder, key_binder = self._scan_binders[scan.table]
        return _rebound(
            scan,
            predicate=binder(params),
            point_key=key_binder(params) if key_binder is not None else None,
        )


class PlanCache:
    """LRU cache of bind-peeked physical plans, stats-epoch fenced."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        labels: Mapping[str, str] | None = None,
    ):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self._capacity = capacity
        self._entries: OrderedDict[PlanKey, CachedPlan] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        #: Misses caused specifically by a stats-epoch mismatch (the
        #: entry existed but its statistics moved) — the replan rate.
        self.stale_misses = 0
        labels = dict(labels or {})
        reg = get_registry()
        self._hit_counter = reg.counter("plan_cache.hits", **labels)
        self._miss_counter = reg.counter("plan_cache.misses", **labels)
        self._eviction_counter = reg.counter("plan_cache.evictions", **labels)
        self._invalidation_counter = reg.counter(
            "plan_cache.invalidations", **labels
        )
        self._entries_gauge = reg.gauge("plan_cache.entries", **labels)

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------- access

    def lookup(
        self,
        statement: str,
        signature: tuple[str, ...],
        epoch_of: Callable[[str], int | None],
    ) -> CachedPlan | None:
        """The cached entry, or None; validates the stats fence.

        ``epoch_of`` maps a table name to its adapter's current
        statistics epoch (None when the adapter has no epoch protocol —
        stored tokens are always ints, so None never matches).  An
        entry whose recorded token no longer matches is dropped (its
        plan was costed against statistics that have since been
        replaced) and counts a stale miss.
        """
        key = (statement, signature)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            self._miss_counter.inc()
            return None
        current = tuple(map(epoch_of, entry.tables))
        if current != entry.stats_token:
            del self._entries[key]
            self.misses += 1
            self.stale_misses += 1
            self._miss_counter.inc()
            self._entries_gauge.set(len(self._entries))
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        self._hit_counter.inc()
        return entry

    def store(
        self,
        statement: str,
        signature: tuple[str, ...],
        entry: CachedPlan,
    ) -> None:
        key = (statement, signature)
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            self._eviction_counter.inc()
        self._entries_gauge.set(len(self._entries))

    # ------------------------------------------------------------- invalidation

    def invalidate(self, table: str | None = None) -> int:
        """Drop plans referencing ``table`` (or all); returns count.

        Correctness never depends on this being called — the stats-epoch
        fence in :meth:`lookup` already refuses entries whose statistics
        moved — but engine DDL and sync/merge paths call it so plans
        against replaced catalogs/images drop immediately.
        """
        if table is None:
            dropped = len(self._entries)
            self._entries.clear()
        else:
            stale = [
                key
                for key, entry in self._entries.items()
                if table in entry.tables
            ]
            dropped = len(stale)
            for key in stale:
                del self._entries[key]
        if dropped:
            self.invalidations += dropped
            self._invalidation_counter.inc(dropped)
            self._entries_gauge.set(len(self._entries))
        return dropped

    # ------------------------------------------------------------- stats

    @property
    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stale_misses": self.stale_misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "entries": len(self._entries),
        }
