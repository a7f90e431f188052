"""Row-at-a-time reference evaluator for the ``Query`` AST.

Tables are ``{name: (schema, rows)}`` with rows as plain tuples in scan
order.  Evaluation follows the system's documented value domain: WHERE
runs on raw rows through ``Predicate.matches`` (NULL compares false),
then cells cross the scan boundary through ``encode_cell`` — a NULL
float is NaN (equal to nothing, itself included), a NULL string stays
``None`` (equal to ``None``).  Everything after that is nested loops,
dicts, sets and ``sorted``.
"""

from __future__ import annotations

import math
import operator

from repro.common.errors import QueryError
from repro.common.types import encode_cell
from repro.query.ast import AggFunc, Aggregate, Arith, ColumnRef, Literal, Query
from repro.query.parser import parse

_NAN_GROUP = object()  # GROUP BY puts every NaN key in one group
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


class _Scope:
    """Column positions of a (joined) row; also serves as the ``schema``
    argument of ``Predicate.matches``."""

    def __init__(self):
        self.names: list[str] = []

    def index_of(self, name: str) -> int:
        if name not in self.names:
            raise QueryError(f"column {name!r} not in scope")
        return self.names.index(name)


def filter_rows(predicate, schema, rows) -> list[tuple]:
    """Single-table WHERE, row mode."""
    return [row for row in rows if predicate.matches(row, schema)]


def evaluate(query: Query, tables) -> tuple[list[str], list[tuple]]:
    """``(column names, rows)`` of ``query`` over ``tables``."""
    scope = _Scope()
    joined: list[tuple] = [((), ())]  # (raw row, encoded row) pairs
    pending = list(query.joins)
    for name in query.tables:  # nested-loop join, FROM order outermost
        schema, rows = tables[name]
        dtypes = [col.dtype for col in schema.columns]
        rows = [
            (tuple(row), tuple(encode_cell(v, dt) for v, dt in zip(row, dtypes)))
            for row in rows
        ]
        scope.names += [col.name for col in schema.columns]
        ready = [
            j for j in pending
            if j.left_column in scope.names and j.right_column in scope.names
        ]
        pending = [j for j in pending if j not in ready]
        pairs = [
            (scope.index_of(j.left_column), scope.index_of(j.right_column))
            for j in ready
        ]
        grown = []
        for left, left_cells in joined:
            for right, right_cells in rows:
                cells = left_cells + right_cells
                if all(cells[a] == cells[b] for a, b in pairs):
                    grown.append((left + right, cells))
        joined = grown
    rows = [cells for raw, cells in joined if query.where.matches(raw, scope)]
    if query.group_by or query.has_aggregates():
        columns, out = _aggregate(query, scope, rows)
    else:
        columns, out = _project(query, scope, rows)
    # Stable sorts applied last-key-first implement multi-key ORDER BY.
    for item in reversed(query.order_by):
        idx = _order_index(item.expr, columns)
        out = sorted(out, key=lambda r, i=idx: r[i], reverse=not item.ascending)
    if query.limit is not None:
        out = out[: query.limit]
    return columns, out


def _project(query, scope, rows):
    outputs: list[tuple] = []  # (column name, expression)
    for item in query.select:
        if isinstance(item.expr, ColumnRef) and item.expr.name == "*":
            outputs += [(name, ColumnRef(name)) for name in sorted(scope.names)]
        else:
            outputs.append((item.output_name, item.expr))
    columns = [name for name, _ in outputs]
    out = [tuple(_row_value(e, row, scope) for _, e in outputs) for row in rows]
    if query.distinct:
        seen: set = set()
        unique = []
        for row in out:
            # First occurrence wins; a NaN cell never equals another.
            key = tuple(object() if v != v else v for v in row)
            if key not in seen:
                seen.add(key)
                unique.append(row)
        out = unique
    return columns, out


def _aggregate(query, scope, rows):
    key_idx = [scope.index_of(name) for name in query.group_by]
    groups: dict[tuple, list[tuple]] = {}
    for row in rows:
        key = tuple(_NAN_GROUP if row[i] != row[i] else row[i] for i in key_idx)
        groups.setdefault(key, []).append(row)
    if not query.group_by and not groups:
        groups[()] = []  # a global aggregate over nothing is still one row
    out = []
    for members in groups.values():
        if all(
            h.test(_group_value(h.expr, members, scope, query.group_by))
            for h in query.having
        ):
            out.append(tuple(
                _group_value(item.expr, members, scope, query.group_by)
                for item in query.select
            ))
    return [item.output_name for item in query.select], out


def _row_value(expr, row, scope):
    """Scalar expression over one row (IEEE division, like the arrays)."""
    if isinstance(expr, ColumnRef):
        return row[scope.index_of(expr.name)]
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Arith):
        a = _row_value(expr.left, row, scope)
        b = _row_value(expr.right, row, scope)
        if expr.op in _ARITH:
            return _ARITH[expr.op](a, b)
        if b != 0:
            return a / b
        return math.nan if a == 0 or a != a else math.copysign(math.inf, a)
    raise QueryError(f"cannot evaluate {expr!r} per row")


def _group_value(expr, members, scope, group_by):
    """Expression over one group (NULL-propagating; x / 0 is NULL)."""
    if isinstance(expr, Aggregate):
        if expr.func is AggFunc.COUNT:
            return len(members)
        values = [_row_value(expr.arg, row, scope) for row in members]
        if not values or any(v != v for v in values):
            # Empty input reduces to NULL; a NULL float poisons the group.
            return math.nan if values else None
        if expr.func is AggFunc.SUM:
            return sum(values)
        if expr.func is AggFunc.AVG:
            return sum(float(v) for v in values) / len(values)
        return min(values) if expr.func is AggFunc.MIN else max(values)
    if isinstance(expr, ColumnRef):
        if expr.name not in group_by:
            raise QueryError(
                f"column {expr.name!r} must appear in GROUP BY or an aggregate"
            )
        return members[0][scope.index_of(expr.name)]
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Arith):
        a = _group_value(expr.left, members, scope, group_by)
        b = _group_value(expr.right, members, scope, group_by)
        if a is None or b is None or (expr.op == "/" and b == 0):
            return None
        return _ARITH.get(expr.op, operator.truediv)(a, b)
    raise QueryError(f"cannot evaluate {expr!r} per group")


def _order_index(expr, columns) -> int:
    """ORDER BY names an output column, by alias/display or by name."""
    display = expr.display()
    if display in columns:
        return columns.index(display)
    if isinstance(expr, ColumnRef) and expr.name in columns:
        return columns.index(expr.name)
    raise QueryError(f"ORDER BY expression {display!r} is not in the output")


# ----------------------------------------------------------------- comparison


def _same(a, b) -> bool:
    """Equal values of the same Python type; float sums may differ in
    the last bits (summation order), NaN equals NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return (a != a and b != b) or math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    return a == b


def _canon(row: tuple) -> tuple:
    return tuple((0, 0) if v is None else (1, 0) if v != v else (2, v) for v in row)


def _assert_rows(got, want, what: str) -> None:
    assert len(got) == len(want), f"{what}: {len(got)} rows, oracle has {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        assert len(g) == len(w) and all(_same(a, b) for a, b in zip(g, w)), (
            f"{what}: row {i} is {g!r}, oracle has {w!r}"
        )


def assert_matches(result, query: Query | str, tables, ordered: bool = False) -> None:
    """``result`` (a ``QueryResult``) equals the oracle's answer: column
    names, row values and Python value types.  Row order is checked on
    the ORDER BY keys; pass ``ordered=True`` where scan order is defined
    (single-table inputs listed in scan order) to compare the exact
    sequence."""
    if isinstance(query, str):
        query = parse(query)
    columns, want = evaluate(query, tables)
    assert result.columns == columns, f"{result.columns} != oracle {columns}"
    got, what = list(result.rows), repr(query)
    if query.order_by:
        idx = [_order_index(item.expr, columns) for item in query.order_by]
        _assert_rows(
            [tuple(r[i] for i in idx) for r in got],
            [tuple(r[i] for i in idx) for r in want],
            f"ORDER BY keys of {what}",
        )
    if not ordered:
        got, want = sorted(got, key=_canon), sorted(want, key=_canon)
    _assert_rows(got, want, what)
