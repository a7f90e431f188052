"""Property test: randomized queries agree across access paths and with
the brute-force oracle (``tests/oracle``).

This is the testbed's strongest end-to-end guarantee: for arbitrary
generated predicates/aggregations, the row path, the column path, and
plain Python produce identical answers.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.common import (
    And,
    Between,
    Column,
    Comparison,
    CostModel,
    DataType,
    InList,
    Not,
    Or,
    Schema,
)
from repro.query import AccessPath, DualStoreTableAccess, Executor, Planner
from repro.query.ast import AggFunc, Aggregate, ColumnRef, Query, SelectItem
from repro.storage.column_store import ColumnStore
from repro.storage.row_store import MVCCRowStore

from ..oracle import assert_matches, filter_rows

SCHEMA = Schema(
    "t",
    [
        Column("id", DataType.INT64),
        Column("a", DataType.INT64),
        Column("b", DataType.FLOAT64),
        Column("s", DataType.STRING),
    ],
    ["id"],
)

ROWS = [
    (i, (i * 7) % 23, float((i * 13) % 50) / 2.0, f"s{i % 4}")
    for i in range(400)
]


def build_catalog():
    cost = CostModel()
    store = MVCCRowStore(SCHEMA, cost)
    for row in ROWS:
        store.install_insert(row, commit_ts=1)
    col = ColumnStore(SCHEMA, cost)
    col.append_rows(ROWS, commit_ts=1)
    return {"t": DualStoreTableAccess(store, col, cost)}, cost


CATALOG, COST = build_catalog()
TABLES = {"t": (SCHEMA, ROWS)}

# --------------------------------------------------------- predicate strategy

comparisons = st.one_of(
    st.tuples(st.just("a"), st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
              st.integers(0, 25)).map(lambda t: Comparison(*t)),
    st.tuples(st.just("b"), st.sampled_from(["<", ">="]),
              st.floats(0, 25, allow_nan=False)).map(lambda t: Comparison(*t)),
    st.tuples(st.integers(0, 22), st.integers(0, 22)).map(
        lambda t: Between("a", min(t), max(t))
    ),
    st.lists(st.sampled_from(["s0", "s1", "s2", "s3"]), min_size=1, max_size=3).map(
        lambda vs: InList("s", vs)
    ),
)

predicates = st.recursive(
    comparisons,
    lambda children: st.one_of(
        st.lists(children, min_size=2, max_size=3).map(And),
        st.lists(children, min_size=2, max_size=3).map(Or),
        children.map(Not),
    ),
    max_leaves=5,
)


@settings(max_examples=80, deadline=None)
@given(pred=predicates)
def test_paths_agree_on_filtered_count(pred):
    query = Query(
        tables=["t"],
        select=[SelectItem(Aggregate(AggFunc.COUNT, None), alias="n")],
        where=pred,
    )
    results = []
    for path in (AccessPath.ROW_SCAN, AccessPath.COLUMN_SCAN):
        planner = Planner(CATALOG, COST, force_path=path)
        results.append(Executor(CATALOG, COST).execute(planner.plan(query)).scalar())
    expect = len(filter_rows(pred, SCHEMA, ROWS))
    assert results[0] == expect
    assert results[1] == expect


@settings(max_examples=60, deadline=None)
@given(pred=predicates, agg=st.sampled_from(list(AggFunc)))
def test_aggregates_match_brute_force(pred, agg):
    arg = None if agg is AggFunc.COUNT else ColumnRef("b")
    query = Query(
        tables=["t"],
        select=[SelectItem(Aggregate(agg, arg), alias="x")],
        where=pred,
    )
    planner = Planner(CATALOG, COST)
    result = Executor(CATALOG, COST).execute(planner.plan(query))
    assert_matches(result, query, TABLES)


@settings(max_examples=40, deadline=None)
@given(pred=predicates)
def test_group_by_matches_brute_force(pred):
    query = Query(
        tables=["t"],
        select=[
            SelectItem(ColumnRef("s")),
            SelectItem(Aggregate(AggFunc.SUM, ColumnRef("b")), alias="total"),
        ],
        where=pred,
        group_by=["s"],
    )
    planner = Planner(CATALOG, COST)
    result = Executor(CATALOG, COST).execute(planner.plan(query))
    assert_matches(result, query, TABLES)
