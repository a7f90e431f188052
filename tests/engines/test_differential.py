"""Differential test: prepared-statement plan-cache hits vs cold planning.

Two identically-built engines run the same statement stream — one
through :meth:`execute_prepared` (plan cache on the hot path), one
through :meth:`query` (parse + optimize every call).  Because planning
charges no simulated time and both engines see the same operation
sequence, every execution must be *byte-identical*: same rows, same
Python value types, same columns, and the same ``sim_elapsed_us`` —
a cached plan may never change what a query returns or what it costs
in simulated time.

Three properties per architecture (Figure 1 panels a–d):

* repeated and re-bound executions served from the plan cache match
  cold planning exactly (``benchmarks/test_perf_frontdoor.py`` leans
  on this file for exactness; the bench itself tolerates bind-peek
  drift in aggregates);
* sync/merge — the engine write path — eagerly invalidates cached
  plans, and post-invalidation executions see the new data;
* stats-bumping writes move the per-table :class:`StatsCache` epoch,
  which fences stale entries at lookup (counted in ``stale_misses``)
  without ever serving a wrong result.
"""

import pytest

from repro.common import Column, DataType, Schema
from repro.engines import make_engine
from repro.query.stats_cache import StatsCache

ALL = ["a", "b", "c", "d"]

N_ORDERS = 60
N_CUSTOMERS = 7


def build(cat, **kwargs):
    if cat == "b":
        kwargs.setdefault("seed", 5)
    engine = make_engine(cat, **kwargs)
    engine.create_table(
        Schema(
            "orders",
            [
                Column("o_id", DataType.INT64),
                Column("o_cust", DataType.INT64),
                Column("o_amount", DataType.FLOAT64),
                Column("o_region", DataType.STRING),
            ],
            ["o_id"],
        )
    )
    engine.create_table(
        Schema(
            "customer",
            [
                Column("c_id", DataType.INT64),
                Column("c_name", DataType.STRING),
                Column("c_tier", DataType.INT64),
            ],
            ["c_id"],
        )
    )
    engine.load_rows(
        "orders",
        [
            (i, i % N_CUSTOMERS, float(i % 13) + 0.25, ["e", "w"][i % 2])
            for i in range(N_ORDERS)
        ],
        batch=20,
    )
    engine.load_rows(
        "customer",
        [(i, f"cust{i}", i % 3) for i in range(N_CUSTOMERS)],
        batch=20,
    )
    engine.sync()
    return engine


def order_row(i):
    return (i, i % N_CUSTOMERS, float(i % 13) + 0.25, ["e", "w"][i % 2])


#: (name, sql, bindings) — the third binding repeats the first, so the
#: prepared engine serves it from a warm plan *and* scan cache.
STATEMENTS = [
    (
        "point_read",
        "SELECT o_cust, o_amount FROM orders WHERE o_id = ?",
        [(7,), (41,), (7,)],
    ),
    (
        "range_aggregate",
        "SELECT o_region, COUNT(*) AS n, SUM(o_amount) AS total FROM orders "
        "WHERE o_amount BETWEEN ? AND ? GROUP BY o_region ORDER BY o_region",
        [(2.0, 9.0), (3.0, 10.0), (2.0, 9.0)],
    ),
    (
        "point_join",
        "SELECT c_name, c_tier, o_amount FROM orders "
        "JOIN customer ON o_cust = c_id WHERE o_id = ?",
        [(7,), (41,), (7,)],
    ),
    (
        # Two equalities between one table pair: one JoinStep with a
        # composite key, which a plan-cache hit must carry through
        # rebinding (dropping a component returns extra rows).
        "composite_key_join",
        "SELECT c_name, o_id, o_amount FROM orders "
        "JOIN customer ON o_cust = c_id WHERE o_cust = c_tier AND o_amount > ?",
        [(2.0,), (5.0,), (2.0,)],
    ),
]


def assert_byte_identical(prepared, cold):
    """Same columns, same rows, same value *types* (an int result that
    became a float would compare equal but is not byte-identical)."""
    assert prepared.columns == cold.columns
    assert prepared.rows == cold.rows
    assert [
        tuple(type(v) for v in row) for row in prepared.rows
    ] == [tuple(type(v) for v in row) for row in cold.rows]


@pytest.mark.parametrize("cat", ALL)
def test_plan_cache_hits_match_cold_exactly(cat):
    prep, cold = build(cat), build(cat)
    for _name, sql, bindings in STATEMENTS:
        hits_before = prep.plan_cache.hits
        for params in bindings:
            r_prep = prep.execute_prepared(sql, params)
            r_cold = cold.query(sql, params=params)
            assert_byte_identical(r_prep, r_cold)
            assert r_prep.sim_elapsed_us == r_cold.sim_elapsed_us
        # First binding planned cold (miss); the rest hit and rebind.
        assert prep.plan_cache.hits - hits_before == len(bindings) - 1
    # The cold engine's query() path never touches the plan cache.
    assert cold.plan_cache.hits == 0
    assert cold.plan_cache.misses == 0


@pytest.mark.parametrize("cat", ALL)
def test_sync_invalidates_cached_plans(cat):
    """The engine write/merge path drops cached plans eagerly, and the
    replanned execution sees the post-sync data."""
    # Engine c's propagation is threshold-gated; lower it so a 30-row
    # batch is enough for sync() to actually move data.
    kwargs = {"propagation_threshold": 8} if cat == "c" else {}
    prep, cold = build(cat, **kwargs), build(cat, **kwargs)
    sql = (
        "SELECT o_region, COUNT(*) AS n FROM orders "
        "WHERE o_amount > ? GROUP BY o_region ORDER BY o_region"
    )
    assert_byte_identical(
        prep.execute_prepared(sql, (0.0,)), cold.query(sql, params=(0.0,))
    )
    assert len(prep.plan_cache) == 1

    for engine in (prep, cold):
        for i in range(200, 230):
            engine.insert("orders", order_row(i))
        assert engine.sync() > 0

    assert prep.plan_cache.invalidations >= 1
    assert len(prep.plan_cache) == 0

    r_prep = prep.execute_prepared(sql, (0.0,))
    r_cold = cold.query(sql, params=(0.0,))
    assert_byte_identical(r_prep, r_cold)
    assert r_prep.sim_elapsed_us == r_cold.sim_elapsed_us
    assert sum(row[1] for row in r_prep.rows) == N_ORDERS + 30


@pytest.mark.parametrize("cat", ALL)
def test_stats_bumping_writes_fence_stale_plans(cat):
    """Writes that move a table's statistics epoch make the cached plan
    unservable (a stale miss replans) — never a wrong answer."""
    prep, cold = build(cat), build(cat)
    # Zero slack: every version-counter move refreshes stats and bumps
    # the epoch, so a single insert is a stats-bumping write.
    for engine in (prep, cold):
        adapter = engine.catalog["orders"]
        adapter._stats = StatsCache(
            adapter._compute_stats, min_slack=0, slack_fraction=0.0
        )

    sql = "SELECT o_cust, o_amount FROM orders WHERE o_id = ?"
    prep.execute_prepared(sql, (7,))
    prep.execute_prepared(sql, (7,))
    assert prep.plan_cache.hits == 1
    cold.query(sql, params=(7,))
    cold.query(sql, params=(7,))

    for engine in (prep, cold):
        engine.insert("orders", (900, 1, 4.25, "e"))

    stale_before = prep.plan_cache.stale_misses
    r_prep = prep.execute_prepared(sql, (900,))
    r_cold = cold.query(sql, params=(900,))
    assert prep.plan_cache.stale_misses == stale_before + 1
    assert_byte_identical(r_prep, r_cold)

    # After the architecture's own sync the new row is visible on the
    # prepared path too (engine b's replicas lag until they apply).
    for engine in (prep, cold):
        engine.sync()
    r_prep = prep.execute_prepared(sql, (900,))
    assert r_prep.rows == [(1, 4.25)]
    assert_byte_identical(r_prep, cold.query(sql, params=(900,)))
