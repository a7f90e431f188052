"""The vectorized query executor.

Operates on dict-of-NumPy-arrays batches: scans produce them (through
whichever access path the plan chose), equi-joins combine them, and
grouped aggregation reduces them with ``reduceat`` kernels — the
"aggregations over compressed data and SIMD instructions" style of
columnar AP execution the survey describes, expressed in NumPy.

One execution mode: the join is a sort/searchsorted merge over
factorized key codes, projection is columnar with late materialization
(tuples are built only at the result boundary), DISTINCT is
``np.unique`` over packed key codes, and multi-key ORDER BY is
``np.lexsort`` with a top-k ``argpartition`` fast path when LIMIT is
present.  Integer keys whose range is dense (``max - min + 1 <= 4 n +
16``, the rule the join's direct-address table uses) are coded without
sorting: a value's code is the count of distinct values below it, read
off a presence table over the range; a unique dense build side is that
table.  Sparse ranges (the ``NULL_INT`` sentinel), bools and floats go
through ``np.unique``, strings through one sorted dictionary pass.
Column scans that can serve dictionary codes stay encoded past the
scan boundary (joins, GROUP BY and DISTINCT run on codes;
materialization is deferred to result emit).  Each operator has one
body for every input the schema admits: a NULL sort key (``None`` in an
object column, NaN in a float column, like the INT64 sentinel) orders
below every value, and grouped output runs the same ORDER BY / LIMIT /
emit tail as a projection.  The differential tests compare every
operator against the brute-force evaluator in ``tests/oracle``
(including NULL and empty inputs).

Scans can additionally be served from an MVCC-aware
:class:`~repro.query.scan_cache.ScanCache` keyed on
(table, path, columns, predicate, snapshot/version token), which skips
the TP→AP re-materialization entirely when a batch for the same
snapshot is already resident.  Index lookups are not scans: they go
straight to the adapter with the key the planner derived.
"""

from __future__ import annotations

import operator as _operator
from typing import Any

import numpy as np

from ..common.cost import CostModel
from ..common.errors import QueryError
from ..common.types import rows_to_columns
from ..obs.registry import get_registry
from ..storage.code_batch import align_build_codes, is_code_column
from .access import AccessPath, Catalog
from .ast import (
    Aggregate,
    Arith,
    ColumnRef,
    Expr,
    Literal,
    Query,
    QueryResult,
    SelectItem,
)
from .optimizer import PhysicalPlan, ScanPlan
from .scan_cache import ScanCache

Batch = dict

_HAVING_OPS = {
    "=": _operator.eq, "!=": _operator.ne, "<": _operator.lt,
    "<=": _operator.le, ">": _operator.gt, ">=": _operator.ge,
}
_ARITH_OPS = {
    "+": _operator.add, "-": _operator.sub, "*": _operator.mul,
    "/": _operator.truediv,
}

#: Packed group/distinct codes are compacted before they can exceed
#: this bound, so multiplying in another key never overflows int64.
_PACK_LIMIT = 2**62


class Executor:
    """Interprets physical plans against a catalog."""

    def __init__(
        self,
        catalog: Catalog,
        cost: CostModel | None = None,
        scan_cache: ScanCache | None = None,
    ):
        self._catalog = catalog
        self._cost = cost or CostModel()
        self._scan_cache = scan_cache
        reg = get_registry()
        self._code_join_counter = reg.counter("exec.code_space_joins")
        self._code_group_counter = reg.counter("exec.code_space_groups")
        self._code_distinct_counter = reg.counter("exec.code_space_distincts")
        self._join_rows_out = reg.counter("exec.join_rows_out")
        self._residual_rows_in = reg.counter("exec.residual_rows_in")

    # ------------------------------------------------------------- entry

    def execute(self, plan: PhysicalPlan) -> QueryResult:
        start = self._cost.now_us()
        batch = self._run_scan(plan.base)
        for step in plan.joins:
            right = self._run_scan(step.scan)
            batch = self._hash_join(batch, right, step.keys)
        for col_a, col_b in plan.residual_equalities:
            if col_a not in batch or col_b not in batch:
                raise QueryError(
                    f"residual join columns {col_a!r}/{col_b!r} not in scope"
                )
            n = _batch_len(batch)
            self._cost.charge_rows(self._cost.residual_filter_per_row_us, n)
            self._residual_rows_in.inc(n)
            side_a, side_b = batch[col_a], batch[col_b]
            if is_code_column(side_a):
                side_a = side_a.decode()
            if is_code_column(side_b):
                side_b = side_b.decode()
            mask = side_a == side_b
            batch = {name: arr[mask] for name, arr in batch.items()}
        query = plan.query
        # Arithmetic computes on values: what it reads leaves code space
        # here (an operator-internal decode, outside the simulated cost
        # model like the join's one-sided key decode).
        for name in plan.arith_columns:
            if is_code_column(batch.get(name)):
                batch = {**batch, name: batch[name].decode()}
        if plan.aggregated:
            columns, arrays = self._aggregate(query, batch)
        else:
            columns, arrays = self._project(query, batch)
        return QueryResult(
            columns=columns,
            rows=self._order_limit_emit(query, columns, arrays),
            sim_elapsed_us=self._cost.now_us() - start,
        )

    # ------------------------------------------------------------- scans

    def _run_scan(self, scan: ScanPlan) -> Batch:
        adapter = self._catalog[scan.table]
        cache = self._scan_cache
        cache_key = None
        # The cache holds scans.  An index probe costs the rows it
        # returns: there is nothing to save by keeping them.
        if cache is not None and scan.path is not AccessPath.INDEX_LOOKUP:
            token = adapter.cache_token(scan.path)
            if token is not None:
                try:
                    cache_key = (
                        scan.table, scan.path, tuple(scan.needed), scan.predicate, token
                    )
                    hit = cache.get(cache_key)
                except TypeError:  # unhashable predicate/token: skip caching
                    cache_key = None
                else:
                    if hit is not None:  # a private mapping, see get()
                        self._cost.charge(self._cost.cache_probe_us)
                        adapter.note_cached_scan(scan.needed, scan.predicate)
                        return hit
        batch = self._scan_adapter(adapter, scan)
        if cache_key is not None:
            cache.put(cache_key, batch)  # copies the mapping
        return batch

    def _scan_adapter(self, adapter, scan: ScanPlan) -> Batch:
        # Only the plan's output columns: adapters apply the predicate
        # themselves, so WHERE-only columns are filtered in place (in
        # code space where the codec allows) and never materialized.
        predicate = scan.predicate
        if scan.path is AccessPath.COLUMN_SCAN:
            return adapter.scan_columns(scan.needed, predicate)
        schema = adapter.schema()
        if scan.path is AccessPath.ROW_SCAN:
            rows = adapter.scan_rows(predicate)
        elif scan.key_columns:
            # The key names the row; the rest of the predicate (and a
            # second, contradicting equality on a key column) still has
            # to accept it.
            row = adapter.point_lookup(scan.point_key)
            rows = [row] if row is not None and predicate.matches(row, schema) else []
        else:
            rows = adapter.index_lookup_rows(predicate)
        self._cost.charge_rows(self._cost.column_materialize_per_row_us, len(rows))
        return rows_to_columns(schema, rows, scan.needed)

    # ------------------------------------------------------------- join

    def _hash_join(
        self, left: Batch, right: Batch, keys: tuple[tuple[str, str], ...]
    ) -> Batch:
        """Equi-join on every ``(left, right)`` column pair in ``keys`` at
        once: a composite key is one hash key, built and probed once."""
        n_left, n_right = _batch_len(left), _batch_len(right)
        build_is_right = n_right <= n_left  # the smaller side is built
        build, probe = (right, left) if build_is_right else (left, right)
        parts: list[tuple[np.ndarray, np.ndarray]] = []
        code_space = False
        for left_col, right_col in keys:
            if left_col not in left and left_col in right:
                # The planner orders joins by table, not by side.
                left_col, right_col = right_col, left_col
            if left_col not in left or right_col not in right:
                raise QueryError(
                    f"join columns {left_col!r}/{right_col!r} not in scope"
                )
            build_col, probe_col = (
                (right_col, left_col) if build_is_right else (left_col, right_col)
            )
            build_values, probe_values = build[build_col], probe[probe_col]
            if is_code_column(probe_values) and is_code_column(build_values):
                # Code-space component: remap the build side's codes into
                # the probe side's dictionary and join on the integer
                # codes.  The remap is charged here, before the probe.
                probe_values, build_values, n_remapped = align_build_codes(
                    probe_values, build_values
                )
                if n_remapped:
                    self._cost.charge_rows(
                        self._cost.code_remap_per_value_us, n_remapped
                    )
                code_space = True
            else:
                # One-sided encoding: the component joins on values; the
                # encoded side is decoded in place (operator-internal).
                if is_code_column(probe_values):
                    probe_values = probe_values.decode()
                if is_code_column(build_values):
                    build_values = build_values.decode()
            parts.append((probe_values, build_values))
        if code_space:
            self._code_join_counter.inc()
        self._cost.charge_rows(
            self._cost.hash_build_per_row_us, min(n_left, n_right)
        )
        self._cost.charge_rows(
            self._cost.hash_probe_per_row_us, max(n_left, n_right)
        )
        probe_key, build_key = parts[0] if len(parts) == 1 else _co_factorize(parts)
        probe_positions, build_positions = _equi_join_positions(probe_key, build_key)
        self._join_rows_out.inc(len(probe_positions))
        out: Batch = {}
        for name, arr in probe.items():
            out[name] = arr[probe_positions]
        for name, arr in build.items():
            if name not in out:
                out[name] = arr[build_positions]
        return out

    # ------------------------------------------------------------- aggregate

    def _aggregate(
        self, query: Query, batch: Batch
    ) -> tuple[list[str], list[np.ndarray]]:
        """One array per select item over the groups that pass HAVING; a
        NULL result (an empty input's aggregate, ``x / 0``) is ``None``."""
        n = _batch_len(batch)
        aggregates = _collect_aggregates(query.select)
        self._cost.charge(self._cost.agg_per_value_us * n * max(len(aggregates), 1))
        # HAVING needs every referenced aggregate computed, even ones
        # not in the select list.
        seen = {agg.display() for agg in aggregates}
        for having in query.having:
            for agg in _collect_aggregates([SelectItem(having.expr)]):
                if agg.display() not in seen:
                    seen.add(agg.display())
                    aggregates.append(agg)
        if query.group_by and any(
            is_code_column(batch.get(col)) for col in query.group_by
        ):
            self._code_group_counter.inc()
        if query.group_by:
            order, starts, group_reps = self._group(batch, query.group_by)
        else:
            order = np.arange(n)
            starts = (
                np.array([0], dtype=np.int64) if n else np.array([], dtype=np.int64)
            )
            group_reps = {}
        if query.group_by or n:
            n_groups = len(starts)
            counts = _segment_counts(starts, n)
            agg_values = {
                agg.display(): _reduce_aggregate(agg, batch, order, starts, counts)
                for agg in aggregates
            }
        else:
            # A global aggregate over an empty input is still one row.
            n_groups = 1
            agg_values = {
                agg.display(): np.array([agg.compute(np.array([]), 0)], dtype=object)
                for agg in aggregates
            }
        keep = np.ones(n_groups, dtype=bool)
        for having in query.having:
            vals, valid = _eval_group_vector(
                having.expr, n_groups, agg_values, group_reps
            )
            # A NULL fails the condition.
            if valid.any():
                with np.errstate(invalid="ignore"):
                    valid[valid] = _HAVING_OPS[having.op](vals[valid], having.value)
            keep &= valid
        survivors = None if keep.all() else np.flatnonzero(keep)
        arrays = []
        for item in query.select:
            vals, valid = _eval_group_vector(item.expr, n_groups, agg_values, group_reps)
            if not valid.all():
                vals = vals.astype(object)
                vals[~valid] = None
            arrays.append(vals if survivors is None else vals[survivors])
        return [item.output_name for item in query.select], arrays

    def _group(
        self, batch: Batch, group_by: list[str]
    ) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
        """Factorize group columns; returns (sort order, group starts,
        per-column representative values in group order)."""
        n = _batch_len(batch)
        for col in group_by:
            if col not in batch:
                raise QueryError(f"GROUP BY column {col!r} not in scope")
        combined = _pack_codes([batch[col] for col in group_by], nan_distinct=False)
        if n:
            # Stable integer argsort is radix-based: pass count scales
            # with dtype width, so narrow the (non-negative) codes.
            peak = int(combined.max())
            if peak < 2**15:
                combined = combined.astype(np.int16)
            elif peak < 2**31:
                combined = combined.astype(np.int32)
        order = np.argsort(combined, kind="stable")
        sorted_codes = combined[order]
        if n == 0:
            starts = np.array([], dtype=np.int64)
        else:
            change = np.empty(n, dtype=bool)
            change[0] = True
            np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=change[1:])
            starts = np.flatnonzero(change)
        reps = {col: batch[col][order[starts]] for col in group_by}
        return order, starts, reps

    # ------------------------------------------------------------- project

    def _projection_arrays(
        self, query: Query, batch: Batch
    ) -> tuple[list[str], list[np.ndarray]]:
        columns: list[str] = []
        arrays: list[np.ndarray] = []
        for item in query.select:
            if isinstance(item.expr, ColumnRef) and item.expr.name == "*":
                for name in sorted(batch):
                    columns.append(name)
                    arrays.append(batch[name])
                continue
            columns.append(item.output_name)
            value = item.expr.evaluate(batch)
            arrays.append(value if is_code_column(value) else np.asarray(value))
        return columns, arrays

    def _project(
        self, query: Query, batch: Batch
    ) -> tuple[list[str], list[np.ndarray]]:
        """Columnar late materialization: DISTINCT runs over arrays, and
        tuples are built only at the result boundary.

        With encoded projection columns the materialization charge moves
        *after* DISTINCT: dedup runs on packed dictionary codes, and only
        surviving rows pay the decode (late materialization past the scan
        boundary)."""
        n = _batch_len(batch)
        columns, arrays = self._projection_arrays(query, batch)
        late = any(is_code_column(arr) for arr in arrays)
        if not late:
            self._cost.charge_rows(self._cost.column_materialize_per_row_us, n)
        if query.distinct:
            self._cost.charge_rows(self._cost.distinct_per_row_us, n)
            keep = _distinct_first_occurrence(arrays)
            arrays = [arr[keep] for arr in arrays]
            if late:
                self._code_distinct_counter.inc()
        if late:
            # Result emit: only post-DISTINCT survivors pay the
            # materialization charge.  The physical gather is deferred
            # further still — ORDER BY sorts directly on dictionary
            # codes (the sorted dictionary makes code order value
            # order), so after LIMIT only the emitted rows are decoded.
            n_emit = len(arrays[0]) if arrays else 0
            self._cost.charge_rows(
                self._cost.column_materialize_per_row_us, n_emit
            )
        return columns, arrays

    # ------------------------------------------------------------- order/limit

    def _order_limit_emit(
        self, query: Query, columns: list[str], arrays: list[np.ndarray]
    ) -> list[tuple]:
        """ORDER BY / LIMIT over the output arrays, then the result rows
        (dictionary codes are decoded only for the rows emitted)."""
        if query.order_by:
            n_sort = len(arrays[0]) if arrays else 0
            self._cost.charge_rows(self._cost.sort_per_row_us, n_sort)
            sel = _order_selection(query, columns, arrays)
            arrays = [arr[sel] for arr in arrays]
        elif query.limit is not None:
            arrays = [arr[: query.limit] for arr in arrays]
        return _arrays_to_rows(
            [arr.decode() if is_code_column(arr) else arr for arr in arrays]
        )


# ----------------------------------------------------------------- helpers


def _batch_len(batch: Batch) -> int:
    for arr in batch.values():
        return len(arr)
    return 0


def _arrays_to_rows(arrays: list[np.ndarray]) -> list[tuple]:
    """The result boundary: one C-level ``tolist`` per column, then zip."""
    if not arrays:
        return []
    return list(zip(*[arr.tolist() for arr in arrays]))


def _is_none_mask(arr: np.ndarray) -> np.ndarray:
    return np.frompyfunc(lambda v: v is None, 1, 1)(arr).astype(bool)


def _factorize(
    arr: np.ndarray, nan_distinct: bool, ordered: bool = True
) -> tuple[np.ndarray, int]:
    """Order-preserving integer codes for one column.

    Returns ``(codes, cardinality)`` with ``0 <= code < cardinality``.
    NULL handling mirrors the scalar reference semantics: ``None`` cells
    (object columns) all share one code (None == None), while float NaN
    either gets one distinct code per element (``nan_distinct=True`` —
    NaN never equals NaN, the dict/set behaviour) or one shared code
    (``nan_distinct=False`` — ``np.unique`` grouping behaviour).

    ``ordered=False`` permits codes in first-occurrence order instead of
    value order, which lets object columns use a hash-based encoder
    (~2x faster than sorting 100k Python strings) — only GROUP BY needs
    value-ordered codes, for its sorted group output.
    """
    if is_code_column(arr):
        # Already factorized: dictionary codes are value-ordered (sorted
        # dictionary) and NULL/NaN-free, so they are exact under every
        # nan_distinct/ordered combination.  Sparse codes (values absent
        # from this batch) only waste packing range, never correctness.
        return np.asarray(arr.codes, dtype=np.int64), max(len(arr.dictionary), 1)
    arr = np.asarray(arr)
    n = len(arr)
    if arr.dtype == object:
        if not ordered:
            # Hash-based: equal codes <=> equal values (dict semantics,
            # so None == None too), first-occurrence numbering.
            table: dict[Any, int] = {}
            codes = np.empty(n, dtype=np.int64)
            get = table.get
            for i, v in enumerate(arr.tolist()):
                c = get(v)
                if c is None:
                    c = table[v] = len(table)
                codes[i] = c
            return codes, max(len(table), 1)
        # One pass over the cells: ``None`` is code 0, the sorted
        # non-NULL values 1..k (``np.unique``'s order, shifted by one).
        cells = arr.tolist()
        values = set(cells)
        values.discard(None)
        code_of = {v: i for i, v in enumerate(sorted(values), 1)}
        code_of[None] = 0
        codes = np.fromiter(map(code_of.__getitem__, cells), dtype=np.int64, count=n)
        return codes, len(values) + 1
    if arr.dtype.kind == "f":
        nan_mask = np.isnan(arr)
        if nan_mask.any():
            codes = np.zeros(n, dtype=np.int64)
            finite = ~nan_mask
            base = 0
            if finite.any():
                _, inv = np.unique(arr[finite], return_inverse=True)
                codes[finite] = np.asarray(inv, dtype=np.int64)
                base = int(inv.max()) + 1
            if nan_distinct:
                n_nan = int(nan_mask.sum())
                codes[nan_mask] = base + np.arange(n_nan, dtype=np.int64)
                return codes, base + n_nan
            codes[nan_mask] = base
            return codes, base + 1
    codes, count = _unique_codes(arr)
    return codes, max(count, 1)


def _dense(span: int, n: int) -> bool:
    """Is a key range of ``span`` values small enough, for ``n`` keys,
    to index a table by value?  (The ``NULL_INT`` sentinel makes any
    range that holds it sparse.)"""
    return span <= 4 * n + 16


def _unique_codes(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """``np.unique(arr, return_inverse=True)``'s inverse, as int64, and
    its distinct count.

    An integer array over a dense range is ranked by counting instead of
    sorting: mark each value present in a table over ``[min, max]``, and
    a value's code is the number of present values below it.  Offsets
    from the minimum are taken in int64 — in a narrow dtype's own
    arithmetic they would wrap past its positive range.  Sparse ranges,
    bools and floats sort.
    """
    n = len(arr)
    if n and arr.dtype.kind in "iu":
        lo = arr.min()
        span = int(arr.max()) - int(lo) + 1
        if _dense(span, n):
            if arr.dtype.kind == "u":
                offsets = (arr - lo).astype(np.int64)
            else:
                offsets = arr.astype(np.int64) - int(lo)
            present = np.zeros(span, dtype=bool)
            present[offsets] = True
            rank = np.cumsum(present) - 1
            return rank[offsets], int(rank[-1]) + 1
    uniques, inv = np.unique(arr, return_inverse=True)
    return np.asarray(inv, dtype=np.int64), len(uniques)


def _pack_codes(
    columns: list[np.ndarray], nan_distinct: bool, ordered: bool = True
) -> np.ndarray:
    """Pack multi-column keys into one int64 code per row.

    Guards against int64 overflow with many/high-cardinality keys: the
    running pack is re-factorized (compacted to ``< n`` distinct codes)
    whenever multiplying in the next column's cardinality could exceed
    the packing range, so arbitrarily many GROUP BY / DISTINCT keys are
    safe.  Codes stay lexicographically ordered across columns.  Only a
    batch of ~2**31 rows could still overflow after compaction; that is
    a ``QueryError``.
    """
    if not columns:
        return np.zeros(0, dtype=np.int64)
    n = len(columns[0])
    combined = np.zeros(n, dtype=np.int64)
    bound = 1  # exclusive upper bound on combined values (python int: exact)
    for arr in columns:
        codes, card = _factorize(arr, nan_distinct, ordered=ordered)
        if bound * card > _PACK_LIMIT:
            combined, bound = _unique_codes(combined)
            bound = max(bound, 1)
            if bound * card > _PACK_LIMIT:
                raise QueryError("key space too large to pack")
        combined = combined * card + codes
        bound *= card
    return combined


def _distinct_first_occurrence(arrays: list[np.ndarray]) -> np.ndarray:
    """Row positions to keep for DISTINCT, preserving first-occurrence
    order (the scalar set-based semantics)."""
    codes = _pack_codes(arrays, nan_distinct=True, ordered=False)
    _, first = np.unique(codes, return_index=True)
    return np.sort(first)


# ----------------------------------------------------------------- join kernels


def _equi_join_positions(
    probe_values: np.ndarray, build_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All equality matches as (probe positions, build positions).

    Probe-major output with build matches in ascending build position —
    the same order the scalar dict join produces.  A one-row build side
    is one compare per probe row; a unique integer build side over a
    dense key range is a direct-address table; any other build side is
    argsorted and probed by searchsorted.  No per-row Python loop in
    any case.
    """
    empty = np.array([], dtype=np.int64)
    n_build = len(build_values)
    n_probe = len(probe_values)
    if n_build == 0 or n_probe == 0:
        return empty, empty
    probe_codes, build_codes = None, None
    if probe_values.dtype != object and build_values.dtype != object:
        # Raw numeric keys order and compare directly — factorization
        # is only needed for object columns and for NaN's never-matches
        # semantics (NaNs sort adjacent, so they would falsely match).
        has_nan = (
            probe_values.dtype.kind == "f" and bool(np.isnan(probe_values).any())
        ) or (build_values.dtype.kind == "f" and bool(np.isnan(build_values).any()))
        if not has_nan:
            probe_codes, build_codes = probe_values, build_values
    if probe_codes is None:
        probe_codes, build_codes = _co_factorize([(probe_values, build_values)])
    if n_build == 1:
        # A point lookup joined to a scan: one compare per probe row.
        match = np.flatnonzero(probe_codes == build_codes[0])
        return match, np.zeros(len(match), dtype=np.int64)
    if build_codes.dtype.kind in "iub" and probe_codes.dtype.kind in "iub":
        low = int(build_codes.min())
        span = int(build_codes.max()) - low + 1
        if _dense(span, n_build + n_probe):
            slots = build_codes.astype(np.int64) - low
            if np.bincount(slots).max() == 1:
                # PK-style join over a modest key range: at most one
                # match per probe, found by direct addressing — no sort,
                # no binary search, no run expansion.
                table = np.full(span, -1, dtype=np.int64)
                table[slots] = np.arange(n_build, dtype=np.int64)
                slot = probe_codes.astype(np.int64) - low
                in_range = (slot >= 0) & (slot < span)
                hit = table[np.where(in_range, slot, 0)]
                match = in_range & (hit >= 0)
                return np.flatnonzero(match), hit[match]
    order = np.argsort(build_codes, kind="stable")
    sorted_codes = build_codes[order]
    build_unique = n_build == 1 or bool(
        (sorted_codes[1:] != sorted_codes[:-1]).all()
    )
    if build_unique:
        # At most one match per probe, so the probe-major output needs
        # no run expansion.
        pos = np.minimum(
            np.searchsorted(sorted_codes, probe_codes, side="left"), n_build - 1
        )
        match = sorted_codes[pos] == probe_codes
        return np.flatnonzero(match), order[pos[match]]
    lo = np.searchsorted(sorted_codes, probe_codes, side="left")
    hi = np.searchsorted(sorted_codes, probe_codes, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return empty, empty
    probe_idx = np.repeat(np.arange(n_probe, dtype=np.int64), counts)
    run_starts = np.repeat(lo, counts)
    out_starts = np.cumsum(counts) - counts
    within = np.arange(total, dtype=np.int64) - np.repeat(out_starts, counts)
    build_idx = order[run_starts + within]
    return probe_idx, build_idx


def _co_factorize(
    parts: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Shared integer codes across the two sides of a join key, one
    ``(a, b)`` pair per key component: rows equal in every component (by
    the scalar join's dict semantics) get equal codes.  ``None`` matches
    ``None``; float NaN (encoded NULL) matches nothing, itself included.
    Components are packed into one int64 under ``_pack_codes``'s
    overflow guard, so a composite key is a single key to the kernel."""
    columns = []
    for a, b in parts:
        a = np.asarray(a)
        b = np.asarray(b)
        if a.dtype == object or b.dtype == object:
            a, b = a.astype(object), b.astype(object)
        columns.append(np.concatenate([a, b]))
    codes = _pack_codes(columns, nan_distinct=True, ordered=False)
    n_a = len(parts[0][0])
    return codes[:n_a], codes[n_a:]


# ----------------------------------------------------------------- order kernels


def _resolve_order_array(
    expr: Expr, columns: list[str], arrays: list[np.ndarray]
) -> np.ndarray:
    display = expr.display()
    if display in columns:
        return arrays[columns.index(display)]
    if isinstance(expr, ColumnRef) and expr.name in columns:
        return arrays[columns.index(expr.name)]
    raise QueryError(f"ORDER BY expression {display!r} is not in the output")


def _order_code_array(arr: np.ndarray) -> np.ndarray:
    """A sortable (and safely negatable) key array for lexsort.

    A NULL key (``None`` or NaN in an object column, NaN in a float
    column) gets the lowest code, so it sorts first under ASC and last
    under DESC, like the INT64 ``NULL_INT`` sentinel; NULLs tie.
    """
    if is_code_column(arr):
        # Sorted NULL-free dictionary: code order IS value order, and
        # codes are non-negative ints below the dictionary size, so they
        # are the sort key as they stand (DESC negation cannot overflow).
        return np.asarray(arr.codes, dtype=np.int64)
    arr = np.asarray(arr)
    if arr.dtype == object or (arr.dtype.kind == "f" and np.isnan(arr).any()):
        rest = ~np.frompyfunc(lambda v: v is None or v != v, 1, 1)(arr).astype(bool)
        codes = np.zeros(len(arr), dtype=np.int64)
        if rest.any():
            _, inv = np.unique(arr[rest], return_inverse=True)
            codes[rest] = np.asarray(inv, dtype=np.int64) + 1
        return codes
    if arr.dtype.kind == "f":
        return arr
    if arr.dtype.kind == "b":
        return arr.astype(np.int64)
    # Integer keys: factorized codes avoid overflow when negated for DESC.
    return _unique_codes(arr)[0]


def _order_selection(
    query: Query, columns: list[str], arrays: list[np.ndarray]
) -> np.ndarray:
    """Row positions implementing ORDER BY (+LIMIT), stable like the
    scalar reference's repeated stable sorts."""
    keys = []
    for item in query.order_by:
        code = _order_code_array(_resolve_order_array(item.expr, columns, arrays))
        keys.append(code if item.ascending else -code)
    n = len(keys[0])
    limit = query.limit
    if limit is not None and limit <= 0:
        return np.array([], dtype=np.int64)
    if limit is not None and limit < n and len(keys) == 1:
        # Top-k fast path: partition, then stable-sort only the rows at
        # or above the k-th key value (ties kept in input order, so the
        # result is byte-identical to a full stable sort + slice).
        key = keys[0]
        kth = np.partition(key, limit - 1)[limit - 1]
        candidates = np.flatnonzero(key <= kth)
        order = np.argsort(key[candidates], kind="stable")
        return candidates[order][:limit]
    # np.lexsort is stable and sorts by its LAST key first.
    sel = np.lexsort(tuple(reversed(keys)))
    if limit is not None:
        sel = sel[:limit]
    return sel


# ----------------------------------------------------------------- aggregation


def _collect_aggregates(select: list[SelectItem]) -> list[Aggregate]:
    found: dict[str, Aggregate] = {}

    def visit(expr: Expr) -> None:
        if isinstance(expr, Aggregate):
            found.setdefault(expr.display(), expr)
        elif isinstance(expr, Arith):
            visit(expr.left)
            visit(expr.right)

    for item in select:
        visit(item.expr)
    return list(found.values())


def _segment_counts(starts: np.ndarray, n: int) -> np.ndarray:
    if len(starts) == 0:
        return np.array([], dtype=np.int64)
    ends = np.append(starts[1:], n)
    return ends - starts


def _reduce_aggregate(
    agg: Aggregate,
    batch: Batch,
    order: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    from .ast import AggFunc

    if len(starts) == 0:
        return np.array([])
    if agg.func is AggFunc.COUNT and agg.arg is None:
        return counts.copy()
    assert agg.arg is not None
    values = agg.arg.evaluate(batch)
    if is_code_column(values):
        if agg.func is AggFunc.MIN or agg.func is AggFunc.MAX:
            # Compressed MIN/MAX: codes order like values, so reduce the
            # codes and decode one winner per group.
            codes = np.asarray(values.codes)[order]
            if agg.func is AggFunc.MIN:
                return values.dictionary[np.minimum.reduceat(codes, starts)]
            return values.dictionary[np.maximum.reduceat(codes, starts)]
        # SUM/AVG/COUNT need the values; operator-internal decode.
        values = values.decode()
    values = np.asarray(values)[order]
    if agg.func is AggFunc.COUNT:
        return counts.copy()
    if agg.func is AggFunc.AVG:
        totals = np.add.reduceat(values.astype(np.float64), starts)
        return totals / counts
    # SUM/MIN/MAX preserve the column dtype: integer aggregates stay
    # integers (bool sums count as int64); only AVG is inherently float.
    if agg.func is AggFunc.SUM:
        if values.dtype == np.bool_:
            values = values.astype(np.int64)
        elif values.dtype == object:
            values = values.astype(np.float64)
        return np.add.reduceat(values, starts)
    if agg.func is AggFunc.MIN:
        return np.minimum.reduceat(values, starts)
    return np.maximum.reduceat(values, starts)


def _eval_group_vector(
    expr: Expr,
    n_groups: int,
    agg_values: dict[str, np.ndarray],
    group_reps: dict[str, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a select item or HAVING expression over all groups.

    Returns (values, valid): ``valid`` is False where the result is NULL
    (``None`` — an aggregate over empty input, arithmetic over a NULL, a
    division by zero); the values at invalid positions are undefined.
    """
    if isinstance(expr, Aggregate):
        values = agg_values[expr.display()]
    elif isinstance(expr, ColumnRef):
        if expr.name not in group_reps:
            raise QueryError(
                f"column {expr.name!r} must appear in GROUP BY or an aggregate"
            )
        values = group_reps[expr.name]
        if is_code_column(values):
            values = values.decode()
    elif isinstance(expr, Literal):
        values = np.full(n_groups, expr.value)
    elif isinstance(expr, Arith):
        lhs, valid = _eval_group_vector(expr.left, n_groups, agg_values, group_reps)
        rhs, rvalid = _eval_group_vector(expr.right, n_groups, agg_values, group_reps)
        valid &= rvalid
        if expr.op == "/":
            valid &= np.asarray(rhs != 0, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            result = _ARITH_OPS[expr.op](lhs[valid], rhs[valid])
        values = np.empty(n_groups, dtype=result.dtype)
        values[valid] = result
        return values, valid
    else:
        raise QueryError(f"cannot evaluate {expr!r} in an aggregate context")
    if values.dtype == object:
        return values, ~_is_none_mask(values)
    return values, np.ones(n_groups, dtype=bool)
