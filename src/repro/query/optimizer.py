"""Cost-based planning: hybrid row/column access paths + join ordering.

Implements the "hybrid row/column scan" query-optimization technique of
Table 2: for every table in a query the planner prices a row scan, an
index lookup (when a usable index exists), and a column scan against
the engine's cost model and statistics, then picks the cheapest — so an
SPJ query can combine "a row-based index scan and a complete
column-based scan" exactly as §2.2(4) describes.  Join order is chosen
greedily by estimated cardinality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..common.cost import CostModel
from ..common.errors import PlanningError
from ..common.predicate import (
    ALWAYS_TRUE,
    And,
    Comparison,
    Predicate,
    TruePredicate,
    key_equality,
)
from .access import AccessPath, Catalog, TableAccess
from .ast import Aggregate, Arith, ColumnRef, Expr, Query


@dataclass
class PathChoice:
    """One candidate access path with its estimated cost."""

    path: AccessPath
    cost_us: float
    estimated_rows: int


@dataclass
class ScanPlan:
    table: str
    path: AccessPath
    #: What the scan materializes: the columns the query reads after
    #: the scan, or the first primary-key column when it names none.
    needed: list[str]
    predicate: Predicate
    estimated_rows: int
    cost_us: float
    candidates: list[PathChoice] = field(default_factory=list)
    #: An INDEX_LOOKUP whose predicate pins every primary-key column by
    #: equality is one ``point_lookup``: those columns, and the key they
    #: pin (scalar for a one-column key).  Empty on every other scan —
    #: an INDEX_LOOKUP without them probes a secondary index.
    key_columns: tuple[str, ...] = ()
    point_key: Any = None


@dataclass
class JoinStep:
    scan: ScanPlan
    #: ``(left, right)`` equality pairs joined as one key: ``left`` is
    #: bound in the rows accumulated so far, ``right`` in scan's table.
    keys: tuple[tuple[str, str], ...]


@dataclass
class PhysicalPlan:
    query: Query
    base: ScanPlan
    joins: list[JoinStep]
    estimated_cost_us: float
    #: Equi-join conditions that close a cycle (a table attached through
    #: one partner also equals a column of another joined table); applied
    #: as post-join equality filters.  Several conditions between one
    #: table pair (TPC-C's (w_id, d_id, o_id)) are not residual: they
    #: are the components of that step's composite ``JoinStep.keys``.
    residual_equalities: list[tuple[str, str]] = field(default_factory=list)
    #: Columns an ``Arith`` in SELECT / HAVING / ORDER BY computes on,
    #: which the executor must decode out of code space first.
    arith_columns: frozenset[str] = frozenset()
    #: The query groups or aggregates, so the executor aggregates
    #: instead of projecting.  Fixed here, once per plan.
    aggregated: bool = False

    def explain(self) -> str:
        lines = [
            f"scan {self.base.table} via {self.base.path.value} "
            f"(~{self.base.estimated_rows} rows, {self.base.cost_us:.0f}us)"
        ]
        for step in self.joins:
            left, right = (", ".join(cols) for cols in zip(*step.keys))
            if len(step.keys) > 1:
                left, right = f"({left})", f"({right})"
            lines.append(
                f"  hash join {left} = {right} with "
                f"{step.scan.table} via {step.scan.path.value} "
                f"(~{step.scan.estimated_rows} rows, {step.scan.cost_us:.0f}us)"
            )
        for left, right in self.residual_equalities:
            lines.append(f"  residual filter {left} = {right}")
        lines.append(f"estimated total: {self.estimated_cost_us:.0f}us")
        return "\n".join(lines)


def split_conjuncts(predicate: Predicate) -> list[Predicate]:
    """Flatten top-level ANDs into a conjunct list."""
    if isinstance(predicate, TruePredicate):
        return []
    if isinstance(predicate, And):
        out: list[Predicate] = []
        for child in predicate.children:
            out.extend(split_conjuncts(child))
        return out
    return [predicate]


def arith_columns(query: Query) -> frozenset[str]:
    """Columns referenced inside an ``Arith`` of SELECT / HAVING /
    ORDER BY.  Compressed execution keeps plain references encoded —
    joins, GROUP BY, DISTINCT, MIN/MAX and result emit are code-aware —
    but arithmetic computes on values."""
    names: set[str] = set()

    def visit(expr: Expr, inside: bool) -> None:
        if isinstance(expr, Arith):
            visit(expr.left, True)
            visit(expr.right, True)
        elif isinstance(expr, Aggregate) and expr.arg is not None:
            visit(expr.arg, False)
        elif isinstance(expr, ColumnRef) and inside:
            names.add(expr.name)

    for clause in (*query.select, *query.having, *query.order_by):
        visit(clause.expr, False)
    return frozenset(names)


def conjoin(conjuncts: list[Predicate]) -> Predicate:
    if not conjuncts:
        return ALWAYS_TRUE
    if len(conjuncts) == 1:
        return conjuncts[0]
    return And(conjuncts)


class Planner:
    """Builds physical plans against a catalog of TableAccess adapters."""

    def __init__(
        self,
        catalog: Catalog,
        cost: CostModel | None = None,
        force_path: AccessPath | None = None,
    ):
        self._catalog = catalog
        self._cost = cost or CostModel()
        #: When set, every scan uses this path (for ablation benches and
        #: for engines that only have one side, e.g. pure column scan).
        self.force_path = force_path

    # ------------------------------------------------------------- resolution

    def _adapter(self, table: str) -> TableAccess:
        try:
            return self._catalog[table]
        except KeyError:
            raise PlanningError(f"unknown table {table!r}") from None

    def _owner_of(self, column: str, tables: list[str]) -> str:
        owners = [
            t for t in tables if self._adapter(t).schema().has_column(column)
        ]
        if not owners:
            raise PlanningError(f"column {column!r} not found in {tables}")
        if len(owners) > 1:
            raise PlanningError(
                f"column {column!r} is ambiguous across {owners}"
            )
        return owners[0]

    def _predicates_by_table(self, query: Query) -> dict[str, list[Predicate]]:
        by_table: dict[str, list[Predicate]] = {t: [] for t in query.tables}
        for conjunct in split_conjuncts(query.where):
            cols = conjunct.referenced_columns()
            owners = {self._owner_of(c, query.tables) for c in cols}
            if len(owners) == 1:
                by_table[owners.pop()].append(conjunct)
            elif len(owners) == 0:
                continue  # constant-true style conjunct
            else:
                raise PlanningError(
                    "non-join predicates spanning tables are not supported: "
                    f"{conjunct!r}"
                )
        return by_table

    def scan_predicates(self, query: Query) -> dict[str, Predicate]:
        """Per-table conjunction of the single-table WHERE conjuncts.

        The exact split :meth:`plan` pushes into each ScanPlan.  The
        split is structural (value-independent), so calling this on a
        parameter *template* yields template predicates that bind 1:1
        against the ScanPlans of a plan built from any binding of the
        same statement — the plan cache's rebinding contract.
        """
        return {
            table: conjoin(conjuncts)
            for table, conjuncts in self._predicates_by_table(query).items()
        }

    # ------------------------------------------------------------- costing

    def price_paths(
        self,
        table: str,
        columns_needed: list[str],
        predicate: Predicate,
    ) -> list[PathChoice]:
        """Price every available path for this (table, predicate)."""
        adapter = self._adapter(table)
        stats = adapter.stats()
        cost = self._cost
        n = max(stats.row_count, 1)
        selectivity = stats.selectivity(predicate)
        matching = max(1, int(round(n * selectivity)))
        needed = set(columns_needed) | predicate.referenced_columns()
        n_cols = max(len(needed), 1)
        available = adapter.available_paths()
        choices: list[PathChoice] = []
        if AccessPath.ROW_SCAN in available:
            choices.append(
                PathChoice(
                    AccessPath.ROW_SCAN,
                    cost_us=n * cost.row_scan_per_row_us,
                    estimated_rows=matching,
                )
            )
        if AccessPath.INDEX_LOOKUP in available and (
            key_equality(predicate, adapter.schema().primary_key) is not None
            or self._indexed_equality(adapter, predicate)
        ):
            choices.append(
                PathChoice(
                    AccessPath.INDEX_LOOKUP,
                    cost_us=cost.index_lookup_us
                    + matching * (cost.index_scan_per_row_us + cost.row_point_read_us),
                    estimated_rows=matching,
                )
            )
        if AccessPath.COLUMN_SCAN in available:
            scan_us = n * n_cols * cost.column_scan_per_value_us
            # Zone-map pruning makes the column side cheaper than its
            # nominal per-value price; adapters bound the predicate
            # against their segment zone maps and report the fraction
            # of rows in prunable segments.
            pruned = min(max(float(adapter.scan_pruning_hint(predicate)), 0.0), 1.0)
            if pruned > 0.0:
                scan_us = max(scan_us * (1.0 - pruned), cost.zone_map_check_us)
            # Compressed execution discount: columns the adapter can
            # hand off as dictionary codes skip the per-row materialize
            # at the scan boundary (they pay the cheaper code gather;
            # decode is deferred to result emit on far fewer rows).
            materialize_us = cost.column_materialize_per_row_us
            frac = min(max(float(adapter.code_space_hint(columns_needed)), 0.0), 1.0)
            if frac > 0.0:
                materialize_us = (
                    materialize_us * (1.0 - frac)
                    + frac * cost.code_gather_per_value_us
                )
            choices.append(
                PathChoice(
                    AccessPath.COLUMN_SCAN,
                    cost_us=scan_us + matching * materialize_us,
                    estimated_rows=matching,
                )
            )
        if not choices:
            raise PlanningError(f"table {table!r} exposes no access path")
        return sorted(choices, key=lambda c: c.cost_us)

    @staticmethod
    def _indexed_equality(adapter: TableAccess, predicate: Predicate) -> bool:
        """Is there an equality conjunct on a secondary-indexed column?
        (One on part of the primary key names no probe: the key index
        is only reachable with the whole key.)"""
        indexed = adapter.indexed_columns()
        return bool(indexed) and any(
            isinstance(conjunct, Comparison)
            and conjunct.op == "="
            and conjunct.column in indexed
            for conjunct in split_conjuncts(predicate)
        )

    def _plan_scan(
        self,
        table: str,
        columns_needed: list[str],
        predicate: Predicate,
    ) -> ScanPlan:
        choices = self.price_paths(table, columns_needed, predicate)
        if self.force_path is not None:
            forced = [c for c in choices if c.path is self.force_path]
            if not forced:
                raise PlanningError(
                    f"path {self.force_path.value} unavailable for {table!r}"
                )
            best = forced[0]
        else:
            best = choices[0]
        primary_key = self._adapter(table).schema().primary_key
        point_key = None
        if best.path is AccessPath.INDEX_LOOKUP:
            point_key = key_equality(predicate, primary_key)
        return ScanPlan(
            table=table,
            path=best.path,
            needed=sorted(set(columns_needed)) or [primary_key[0]],
            predicate=predicate,
            estimated_rows=best.estimated_rows,
            cost_us=best.cost_us,
            candidates=choices,
            key_columns=primary_key if point_key is not None else (),
            point_key=point_key,
        )

    # ------------------------------------------------------------- planning

    def plan(self, query: Query) -> PhysicalPlan:
        for table in query.tables:
            self._adapter(table)  # validate early
        by_table = self._predicates_by_table(query)
        referenced = query.referenced_columns()
        referenced.discard("*")
        # ORDER BY may reference output aliases, which no table owns.
        aliases = {item.alias for item in query.select if item.alias is not None}
        for column in referenced - aliases:
            self._owner_of(column, query.tables)  # raises on unknown/ambiguous
        # Columns each table must produce: *post-scan* referenced
        # columns it owns.  WHERE-only columns are deliberately absent —
        # adapters apply the scan predicate themselves, so a column that
        # appears only in WHERE never needs to be materialized into the
        # batch (late materialization across the scan boundary).
        post_scan: set[str] = set(query.group_by)
        for item in query.select:
            post_scan |= item.expr.referenced_columns()
        for join in query.joins:
            post_scan.add(join.left_column)
            post_scan.add(join.right_column)
        for having in query.having:
            post_scan |= having.expr.referenced_columns()
        for order in query.order_by:
            post_scan |= order.expr.referenced_columns()
        post_scan.discard("*")
        cols_by_table: dict[str, list[str]] = {}
        for table in query.tables:
            schema = self._adapter(table).schema()
            if any(item.expr.display() == "*" for item in query.select):
                cols = schema.column_names
            else:
                cols = sorted(c for c in post_scan if schema.has_column(c))
            cols_by_table[table] = cols
        scans = {
            table: self._plan_scan(
                table, cols_by_table[table], conjoin(by_table[table])
            )
            for table in query.tables
        }
        return self._order_joins(query, scans)

    def _order_joins(
        self, query: Query, scans: dict[str, ScanPlan]
    ) -> PhysicalPlan:
        """Greedy join ordering: start at the most selective scan, then
        repeatedly attach the cheapest join-connected table (a single
        table is its own base and attaches nothing)."""
        edges: list[tuple[str, str, str, str]] = []  # (t1, c1, t2, c2)
        for join in query.joins:
            t1 = self._owner_of(join.left_column, query.tables)
            t2 = self._owner_of(join.right_column, query.tables)
            if t1 == t2:
                raise PlanningError(
                    f"self-join condition {join} is not supported"
                )
            edges.append((t1, join.left_column, t2, join.right_column))
        base_table = min(query.tables, key=lambda t: scans[t].estimated_rows)
        joined = {base_table}
        steps: list[JoinStep] = []
        used_edges: set[int] = set()
        total_cost = scans[base_table].cost_us
        remaining = set(query.tables) - joined
        while remaining:
            candidates = []  # (rows, table to attach, joined partner)
            for t1, _c1, t2, _c2 in edges:
                if t1 in joined and t2 in remaining:
                    candidates.append((scans[t2].estimated_rows, t2, t1))
                elif t2 in joined and t1 in remaining:
                    candidates.append((scans[t1].estimated_rows, t1, t2))
            if not candidates:
                raise PlanningError(
                    f"tables {sorted(remaining)} are not join-connected"
                )
            _rows, table, partner = min(candidates, key=lambda c: c[:2])
            # Every edge between the partner and this table is one
            # component of the step's key: a composite key joins whole.
            keys = []
            for i, (t1, c1, t2, c2) in enumerate(edges):
                if {t1, t2} == {partner, table}:
                    keys.append((c1, c2) if t1 == partner else (c2, c1))
                    used_edges.add(i)
            steps.append(JoinStep(scans[table], tuple(keys)))
            total_cost += scans[table].cost_us
            total_cost += (
                scans[table].estimated_rows * self._cost.hash_build_per_row_us
            )
            joined.add(table)
            remaining.discard(table)
        # An edge left over closes a cycle: its table was attached through
        # another partner, so it runs as a post-join equality filter.
        residual = [
            (edges[i][1], edges[i][3])
            for i in range(len(edges))
            if i not in used_edges
        ]
        return PhysicalPlan(
            query,
            scans[base_table],
            steps,
            total_cost,
            residual_equalities=residual,
            arith_columns=arith_columns(query),
            aggregated=bool(query.group_by) or query.has_aggregates(),
        )
