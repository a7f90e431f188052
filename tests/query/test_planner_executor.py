"""Planner + executor: access paths, joins, aggregation, ordering.

Every executor result is validated against the brute-force oracle
(``tests/oracle``) evaluating the same query over the same rows.
"""

import random

import pytest

from repro.common import (
    Column,
    Comparison,
    CostModel,
    DataType,
    PlanningError,
    Schema,
)
from repro.bench import TpccLoader, TpccScale
from repro.engines import make_engine
from repro.query import AccessPath, DualStoreTableAccess, Executor, Planner, parse
from repro.storage.column_store import ColumnStore
from repro.storage.row_store import MVCCRowStore

from ..oracle import assert_matches


def build_catalog(seed=4, n_orders=300, n_customers=25):
    rng = random.Random(seed)
    cost = CostModel()
    orders = Schema(
        "orders",
        [
            Column("o_id", DataType.INT64),
            Column("o_c_id", DataType.INT64),
            Column("o_amount", DataType.FLOAT64),
            Column("o_region", DataType.STRING),
        ],
        ["o_id"],
    )
    customers = Schema(
        "customer",
        [
            Column("c_id", DataType.INT64),
            Column("c_tier", DataType.INT64),
            Column("c_name", DataType.STRING),
        ],
        ["c_id"],
    )
    order_rows = [
        (
            i,
            rng.randrange(n_customers),
            round(rng.uniform(1, 100), 2),
            rng.choice(["e", "w"]),
        )
        for i in range(n_orders)
    ]
    customer_rows = [(i, i % 3, f"c{i}") for i in range(n_customers)]
    catalog = {}
    data = {}
    for schema, rows in ((orders, order_rows), (customers, customer_rows)):
        store = MVCCRowStore(schema, cost)
        for row in rows:
            store.install_insert(row, commit_ts=1)
        col = ColumnStore(schema, cost)
        col.append_rows(rows, commit_ts=1)
        catalog[schema.table_name] = DualStoreTableAccess(store, col, cost)
        data[schema.table_name] = (schema, rows)
    return catalog, cost, data


@pytest.fixture(scope="module")
def env():
    catalog, cost, data = build_catalog()
    return catalog, Planner(catalog, cost), Executor(catalog, cost), data


class TestAccessPathChoice:
    def test_point_query_uses_index(self, env):
        _catalog, planner, _ex, _data = env
        plan = planner.plan(parse("SELECT o_amount FROM orders WHERE o_id = 5"))
        assert plan.base.path is AccessPath.INDEX_LOOKUP

    def test_aggregate_scan_uses_columns(self, env):
        _catalog, planner, _ex, _data = env
        plan = planner.plan(parse("SELECT SUM(o_amount) FROM orders"))
        assert plan.base.path is AccessPath.COLUMN_SCAN

    def test_candidates_priced(self, env):
        _catalog, planner, _ex, _data = env
        plan = planner.plan(parse("SELECT SUM(o_amount) FROM orders"))
        names = {c.path for c in plan.base.candidates}
        assert AccessPath.ROW_SCAN in names
        assert AccessPath.COLUMN_SCAN in names

    def test_forced_path_respected(self, env):
        catalog, _planner, _ex, _data = env
        cost = CostModel()
        forced = Planner(catalog, cost, force_path=AccessPath.ROW_SCAN)
        plan = forced.plan(parse("SELECT SUM(o_amount) FROM orders"))
        assert plan.base.path is AccessPath.ROW_SCAN

    def test_unknown_table_rejected(self, env):
        _catalog, planner, _ex, _data = env
        with pytest.raises(PlanningError):
            planner.plan(parse("SELECT x FROM missing"))

    def test_unknown_column_rejected(self, env):
        _catalog, planner, _ex, _data = env
        with pytest.raises(PlanningError):
            planner.plan(parse("SELECT nope FROM orders"))

    def test_explain_mentions_path(self, env):
        _catalog, planner, _ex, _data = env
        text = planner.plan(parse("SELECT SUM(o_amount) FROM orders")).explain()
        assert "column_scan" in text


class TestExecutionCorrectness:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT SUM(o_amount), COUNT(*) FROM orders WHERE o_region = 'e'",
            "SELECT o_region, COUNT(*) AS n, SUM(o_amount) AS s "
            "FROM orders GROUP BY o_region ORDER BY o_region",
            "SELECT AVG(o_amount), MIN(o_amount), MAX(o_amount) FROM orders",
            "SELECT SUM(o_amount) / COUNT(*) AS mean FROM orders",
            "SELECT SUM(o_amount * 2 + 1) FROM orders",
            "SELECT c_tier, SUM(o_amount) AS s FROM orders "
            "JOIN customer ON o_c_id = c_id GROUP BY c_tier ORDER BY c_tier",
            "SELECT COUNT(*) FROM orders JOIN customer ON o_c_id = c_id "
            "WHERE o_region = 'w' AND c_tier = 1",
            "SELECT o_id, o_amount FROM orders WHERE o_amount > 90 "
            "ORDER BY o_amount DESC LIMIT 5",
            "SELECT o_region, o_id FROM orders WHERE o_id < 20 "
            "ORDER BY o_region ASC, o_id DESC",
        ],
        ids=[
            "filtered_aggregate", "group_by", "avg_min_max",
            "aggregate_arithmetic", "expression_in_aggregate", "join_group",
            "join_with_filters_both_sides", "projection_order_limit",
            "multi_key_order",
        ],
    )
    def test_matches_oracle(self, env, sql):
        _c, planner, ex, data = env
        assert_matches(ex.execute(planner.plan(parse(sql))), sql, data)

    def test_row_and_column_paths_agree(self, env):
        catalog, _planner, _ex, _data = env
        cost = CostModel()
        sql = (
            "SELECT o_region, COUNT(*) AS n FROM orders "
            "WHERE o_amount BETWEEN 20 AND 70 GROUP BY o_region ORDER BY o_region"
        )
        results = []
        for path in (AccessPath.ROW_SCAN, AccessPath.COLUMN_SCAN):
            planner = Planner(catalog, cost, force_path=path)
            results.append(Executor(catalog, cost).execute(planner.plan(parse(sql))).rows)
        assert results[0] == results[1]

    def test_global_aggregate_on_empty_match(self, env):
        _c, planner, ex, _d = env
        result = ex.execute(
            planner.plan(parse("SELECT COUNT(*), SUM(o_amount) FROM orders WHERE o_id = -1"))
        )
        assert result.rows[0][0] == 0

    def test_scalar_helper(self, env):
        _c, planner, ex, data = env
        result = ex.execute(planner.plan(parse("SELECT COUNT(*) FROM orders")))
        assert result.scalar() == len(data["orders"][1])

    def test_star_projection(self, env):
        _c, planner, ex, data = env
        result = ex.execute(
            planner.plan(parse("SELECT * FROM customer WHERE c_id = 3"))
        )
        assert len(result.rows) == 1
        assert set(result.columns) >= {"c_id", "c_tier", "c_name"}


class TestResidualJoins:
    def test_composite_join_residual_equality(self):
        cost = CostModel()
        left = Schema(
            "l",
            [Column("l_a", DataType.INT64), Column("l_b", DataType.INT64),
             Column("l_v", DataType.FLOAT64)],
            ["l_a", "l_b"],
        )
        right = Schema(
            "r",
            [Column("r_a", DataType.INT64), Column("r_b", DataType.INT64),
             Column("r_v", DataType.FLOAT64)],
            ["r_a", "r_b"],
        )
        rng = random.Random(1)
        l_rows = [(a, b, float(a * 10 + b)) for a in range(4) for b in range(4)]
        r_rows = [(a, b, float(rng.randrange(100))) for a in range(4) for b in range(4)]
        catalog = {}
        for schema, rows in ((left, l_rows), (right, r_rows)):
            store = MVCCRowStore(schema, cost)
            for row in rows:
                store.install_insert(row, commit_ts=1)
            catalog[schema.table_name] = DualStoreTableAccess(store, None, cost)
        planner = Planner(catalog, cost)
        ex = Executor(catalog, cost)
        result = ex.execute(
            planner.plan(
                parse("SELECT COUNT(*) FROM l, r WHERE l_a = r_a AND l_b = r_b")
            )
        )
        # Exactly one match per composite key pair.
        assert result.scalar() == 16


class TestIndexPathIsNamed:
    """INDEX_LOOKUP is offered only when the plan can name its probe:
    the whole primary key pinned, or an equality on a secondary-indexed
    column.  An equality on part of the key used to be priced as an
    index lookup of the estimated matches and executed as a full row
    scan."""

    SQL = "SELECT ol_number, ol_amount FROM order_line WHERE ol_o_id = 7"

    @pytest.mark.parametrize("cat", ["a", "c", "d"])
    def test_partial_key_equality_is_planned_as_what_it_runs(self, cat):
        engine = make_engine(cat)
        TpccLoader(
            TpccScale(warehouses=1, districts=4, customers=100, initial_orders=100)
        ).load(engine)
        engine.force_sync()
        plan = engine.planner.plan(parse(self.SQL))
        assert plan.base.path is not AccessPath.INDEX_LOOKUP
        assert AccessPath.INDEX_LOOKUP not in {c.path for c in plan.base.candidates}
        result = engine.run_plan(plan)
        assert result.sim_elapsed_us <= 2 * plan.estimated_cost_us
        with engine.session() as s:
            rows = s.scan("order_line")
        schema = engine.catalog["order_line"].schema()
        assert_matches(result, self.SQL, {"order_line": (schema, rows)})

    def test_an_unservable_index_plan_raises_at_plan_time(self, env):
        catalog, _planner, _ex, _data = env
        forced = Planner(catalog, CostModel(), force_path=AccessPath.INDEX_LOOKUP)
        with pytest.raises(PlanningError):
            forced.plan(parse("SELECT o_id FROM orders WHERE o_amount > 50"))
        with pytest.raises(PlanningError):  # o_c_id carries no index here
            forced.plan(parse("SELECT o_id FROM orders WHERE o_c_id = 3"))
        plan = forced.plan(parse("SELECT o_amount FROM orders WHERE o_id = 5"))
        assert plan.base.key_columns == ("o_id",) and plan.base.point_key == 5

    def test_secondary_index_equality_is_still_an_index_plan(self):
        catalog, cost, data = build_catalog()
        catalog["orders"].row_store.create_index("o_c_id")
        sql = "SELECT o_id, o_amount FROM orders WHERE o_c_id = 3"
        plan = Planner(catalog, cost, force_path=AccessPath.INDEX_LOOKUP).plan(
            parse(sql)
        )
        assert plan.base.path is AccessPath.INDEX_LOOKUP
        assert plan.base.key_columns == () and plan.base.point_key is None
        assert_matches(Executor(catalog, cost).execute(plan), sql, data)
