"""Differential tests: the executor kernels vs the brute-force oracle.

The executor's kernels (searchsorted equi-join, np.unique DISTINCT,
np.lexsort ORDER BY, reduceat aggregation, mask-based HAVING) are
compared against ``tests/oracle`` — a row-at-a-time evaluator over
plain lists — on rows, column names and Python value types, including
NULL, duplicate-key, and empty-input behaviour.  Also covered:
aggregate dtype preservation, group-code overflow, and the cost
charges for DISTINCT / residual filtering.  The key-coding kernels
(``_factorize``, ``_order_code_array``) are checked against
``np.unique(..., return_inverse=True)`` on every integer dtype, on both
sides of the dense-span bound.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import Column, CostModel, DataType, Schema
from repro.common.types import NULL_INT
from repro.obs import get_registry
from repro.query import DualStoreTableAccess, Executor, Planner, parse
from repro.query.ast import (
    Aggregate,
    AggFunc,
    Arith,
    ColumnRef,
    HavingCondition,
    Query,
    SelectItem,
)
from repro.query.executor import (
    _equi_join_positions,
    _factorize,
    _order_code_array,
    _pack_codes,
)
from repro.common.predicate import ALWAYS_TRUE
from repro.query.access import AccessPath
from repro.storage import ColumnStore
from repro.storage.code_batch import is_code_column
from repro.storage.row_store import MVCCRowStore

from ..oracle import assert_matches, dict_join_positions


def build_catalog(seed=11, n_orders=400, n_customers=30):
    """orders ⋈ customer (⋈ tier) with NULLs sprinkled into nullable
    columns."""
    rng = random.Random(seed)
    orders = Schema(
        "orders",
        [
            Column("o_id", DataType.INT64),
            Column("o_c_id", DataType.INT64),
            Column("o_amount", DataType.FLOAT64, nullable=True),
            Column("o_region", DataType.STRING, nullable=True),
            Column("o_qty", DataType.INT64),
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
            None if rng.random() < 0.08 else round(rng.uniform(1, 100), 2),
            None if rng.random() < 0.08 else rng.choice(["e", "w", "n", "s"]),
            rng.randrange(1, 20),
        )
        for i in range(n_orders)
    ]
    customer_rows = [(i, i % 4, f"c{i % 7}") for i in range(n_customers)]
    tiers = Schema(
        "tier",
        [Column("t_id", DataType.INT64), Column("t_qty", DataType.INT64)],
        ["t_id"],
    )
    tier_rows = [(i, 3 * i + 1) for i in range(4)]
    cost = CostModel()
    catalog = {}
    tables = {}
    for schema, rows in (
        (orders, order_rows), (customers, customer_rows), (tiers, tier_rows)
    ):
        tables[schema.table_name] = (schema, rows)
        store = MVCCRowStore(schema, cost)
        for row in rows:
            store.install_insert(row, commit_ts=1)
        # Row-store-only access: the seed's dictionary encoding cannot
        # seal object segments containing None, and these tests target
        # the executor kernels, not storage codecs.  scan_columns falls
        # back to rows_to_columns over the MVCC snapshot.
        catalog[schema.table_name] = DualStoreTableAccess(store, None, cost)
    return catalog, cost, tables


@pytest.fixture(scope="module")
def env():
    catalog, cost, tables = build_catalog()
    return catalog, Planner(catalog, cost), cost, tables


def check(env, query, ordered=None):
    """Execute ``query`` (SQL or AST) and compare with the oracle.
    Single-table scans come back in key order — the order the oracle's
    tables are listed in — so without GROUP BY the exact row sequence
    is compared; joins and groups compare as multisets plus the
    ORDER BY keys.  Returns the result."""
    catalog, planner, _cost, tables = env
    logical = parse(query) if isinstance(query, str) else query
    if ordered is None:
        ordered = len(logical.tables) == 1 and not logical.group_by
    result = Executor(catalog, CostModel()).execute(planner.plan(logical))
    assert_matches(result, logical, tables, ordered=ordered)
    return result


class TestJoinKernel:
    def test_join_differential(self, env):
        check(
            env,
            "SELECT o_id, c_name FROM orders JOIN customer ON o_c_id = c_id",
        )

    def test_join_duplicate_keys_both_sides(self):
        """Many-to-many matches must replicate exactly like the oracle's
        dict join."""
        rng = random.Random(3)
        for trial in range(20):
            probe = np.array([rng.randrange(6) for _ in range(rng.randrange(0, 40))])
            build = np.array([rng.randrange(6) for _ in range(rng.randrange(0, 40))])
            p_vec, b_vec = _equi_join_positions(probe, build)
            p_ref, b_ref = dict_join_positions(probe.tolist(), build.tolist())
            assert p_vec.tolist() == p_ref, f"trial {trial}"
            assert b_vec.tolist() == b_ref, f"trial {trial}"

    def test_join_empty_sides(self):
        empty = np.array([], dtype=np.int64)
        some = np.array([1, 2, 2, 3])
        for probe, build in ((empty, some), (some, empty), (empty, empty)):
            p_vec, b_vec = _equi_join_positions(probe, build)
            p_ref, b_ref = dict_join_positions(probe.tolist(), build.tolist())
            assert p_vec.tolist() == p_ref == []
            assert b_vec.tolist() == b_ref == []

    def test_join_none_matches_none(self):
        """Object-column join: None == None, like the dict-based build."""
        probe = np.array([None, "a", "b", None], dtype=object)
        build = np.array(["a", None, "c"], dtype=object)
        p_vec, b_vec = _equi_join_positions(probe, build)
        p_ref, b_ref = dict_join_positions(probe.tolist(), build.tolist())
        assert p_vec.tolist() == p_ref
        assert b_vec.tolist() == b_ref
        assert 0 in p_vec.tolist()  # None did match None

    def test_join_nan_never_matches(self):
        """Float NaN (encoded NULL) joins nothing — itself included."""
        nan = float("nan")
        probe = np.array([nan, 1.0, 2.0])
        build = np.array([nan, 2.0, nan])
        p_vec, b_vec = _equi_join_positions(probe, build)
        p_ref, b_ref = dict_join_positions(probe.tolist(), build.tolist())
        assert p_vec.tolist() == p_ref == [2]
        assert b_vec.tolist() == b_ref == [1]

    @pytest.mark.parametrize(
        "probe, build",
        [
            pytest.param([3, 7, 3, 1, 3], [3], id="int-duplicate-probes"),
            pytest.param([-5, 4, -5, -6], [-5], id="negative-key"),
            pytest.param([0, 1, 2], [9], id="all-miss"),
            pytest.param([], [4], id="empty-probe"),
            pytest.param([2**40, 1, 2**40], [2**40], id="sparse-span"),
            pytest.param([1.5, math.nan, 1.5], [1.5], id="nan-in-probe"),
            pytest.param([math.nan, 1.0], [math.nan], id="nan-build"),
            pytest.param([math.nan, math.nan], [math.nan], id="nan-both"),
            pytest.param([None, "a", None, "b"], [None], id="none-build"),
            pytest.param([None, "a", "a"], ["a"], id="string-build"),
            pytest.param(["x", None], ["y"], id="object-all-miss"),
        ],
    )
    def test_one_row_build_side(self, probe, build):
        """A point lookup joined to a scan builds one row: every probe
        equal to it matches, probe order kept, build position 0."""
        dtype = object if any(v is None or isinstance(v, str) for v in probe + build) else None
        probe_arr = np.array(probe, dtype=dtype)
        build_arr = np.array(build, dtype=dtype)
        # Then the sides swapped: a one-row probe against a longer build.
        for p_arr, b_arr in ((probe_arr, build_arr), (build_arr, probe_arr)):
            p_vec, b_vec = _equi_join_positions(p_arr, b_arr)
            p_ref, b_ref = dict_join_positions(p_arr.tolist(), b_arr.tolist())
            assert p_vec.tolist() == p_ref
            assert b_vec.tolist() == b_ref

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        dtype=st.sampled_from([np.int32, np.int64, np.float64, object]),
    )
    def test_one_row_build_equals_the_dict_join(self, data, dtype):
        if dtype is object:
            keys = st.one_of(st.none(), st.sampled_from(["a", "b", "c"]))
        elif dtype is np.float64:
            keys = st.one_of(st.just(math.nan), st.integers(-3, 3).map(float))
        else:
            keys = st.integers(-3, 3)
        build = np.array([data.draw(keys)], dtype=dtype)
        probe = np.array(data.draw(st.lists(keys, max_size=30)), dtype=dtype)
        p_vec, b_vec = _equi_join_positions(probe, build)
        p_ref, b_ref = dict_join_positions(probe.tolist(), build.tolist())
        assert p_vec.tolist() == p_ref
        assert b_vec.tolist() == b_ref

    def test_join_with_filter_and_projection(self, env):
        check(
            env,
            "SELECT o_id, o_amount, c_tier FROM orders JOIN customer "
            "ON o_c_id = c_id WHERE o_qty > 10",
        )

    def test_join_empty_probe_via_predicate(self, env):
        vec = check(
            env,
            "SELECT o_id, c_name FROM orders JOIN customer "
            "ON o_c_id = c_id WHERE o_qty > 1000",
        )
        assert vec.rows == []


class TestDistinctKernel:
    def test_distinct_differential(self, env):
        check(env, "SELECT DISTINCT o_region FROM orders")

    def test_distinct_multi_column(self, env):
        check(env, "SELECT DISTINCT o_region, o_qty FROM orders")

    def test_distinct_preserves_first_occurrence_order(self, env):
        # exact order, not just same set
        check(env, "SELECT DISTINCT o_qty FROM orders", ordered=True)

    def test_distinct_with_nulls(self, env):
        """None (string NULL) dedups; NaN (float NULL) never equals NaN,
        so NaN rows all survive."""
        vec = check(env, "SELECT DISTINCT o_region FROM orders")
        assert (None,) in vec.rows
        vec_f = check(env, "SELECT DISTINCT o_amount FROM orders")
        n_nan = sum(1 for (v,) in vec_f.rows if isinstance(v, float) and math.isnan(v))
        assert n_nan > 1  # NaNs kept distinct, like a set of fresh floats

    def test_distinct_empty_input(self, env):
        vec = check(
            env, "SELECT DISTINCT o_region FROM orders WHERE o_qty > 1000"
        )
        assert vec.rows == []


class TestOrderLimitKernel:
    def test_multi_key_mixed_direction(self, env):
        check(
            env, "SELECT o_qty, o_id FROM orders ORDER BY o_qty DESC, o_id ASC"
        )

    def test_order_stability_differential(self, env):
        """Ties on the sort key must keep input order (stable), exactly
        like the oracle's repeated stable sorts."""
        check(env, "SELECT o_qty, o_id FROM orders ORDER BY o_qty", ordered=True)

    def test_top_k_fast_path(self, env):
        """LIMIT < n with one key takes argpartition; results must equal
        the full stable sort's prefix, ties included."""
        for limit in (1, 7, 50):
            vec = check(
                env, f"SELECT o_qty, o_id FROM orders ORDER BY o_qty LIMIT {limit}"
            )
            assert len(vec.rows) == limit

    def test_top_k_descending(self, env):
        check(env, "SELECT o_qty, o_id FROM orders ORDER BY o_qty DESC LIMIT 10")

    def test_order_by_string_column(self, env):
        check(
            env,
            "SELECT c_name, c_id FROM customer ORDER BY c_name, c_id",
        )

    def test_order_by_float_with_nulls_falls_back(self, env):
        """NaN (NULL) float keys no longer fall back to a row-at-a-time
        sort: the one body orders them below every value, first under
        ASC and last under DESC, on the top-k and the lexsort path."""
        for order in ("o_amount", "o_amount DESC"):
            for limit in (" LIMIT 30", ""):
                check(env, f"SELECT o_amount FROM orders ORDER BY {order}{limit}")
        rows = check(env, "SELECT o_amount FROM orders ORDER BY o_amount DESC").rows
        assert math.isnan(rows[-1][0]) and not math.isnan(rows[0][0])

    def test_order_by_dictionary_codes(self):
        """A dictionary-coded sort key arrives as a CodeColumn and sorts
        on its codes: ASC and DESC, ties kept in scan order, LIMIT's
        top-k path, multi-key — over two segments whose dictionaries
        differ, so the codes were remapped into a merged dictionary."""
        schema = Schema(
            "t",
            [
                Column("id", DataType.INT64),
                Column("tag", DataType.STRING),
                Column("grp", DataType.STRING),
            ],
            ["id"],
        )
        rows = [(i, f"t{(i * 7) % 5 + 3 * (i >= 40)}", "ab"[i % 2]) for i in range(80)]
        cost = CostModel()
        row_store, column_store = MVCCRowStore(schema, cost), ColumnStore(schema, cost)
        for row in rows:
            row_store.install_insert(row, commit_ts=1)
        column_store.append_rows(rows[:40], commit_ts=1)
        column_store.append_rows(rows[40:], commit_ts=1)
        catalog = {"t": DualStoreTableAccess(row_store, column_store, cost)}
        batch = catalog["t"].scan_columns(["tag", "grp"], ALWAYS_TRUE)
        assert is_code_column(batch["tag"]) and is_code_column(batch["grp"])
        planner = Planner(catalog, cost, force_path=AccessPath.COLUMN_SCAN)
        for order in ("tag", "tag DESC", "grp DESC, tag", "tag DESC, id DESC"):
            for limit in ("", " LIMIT 7"):
                sql = f"SELECT tag, grp, id FROM t ORDER BY {order}{limit}"
                result = Executor(catalog, CostModel()).execute(
                    planner.plan(parse(sql))
                )
                assert_matches(result, sql, {"t": (schema, rows)}, ordered=True)

    def test_limit_without_order(self, env):
        check(env, "SELECT o_id FROM orders LIMIT 5")

    def test_randomized_differential(self, env):
        rng = random.Random(7)
        directions = ["ASC", "DESC"]
        for _ in range(10):
            keys = rng.sample(["o_qty", "o_id", "o_c_id", "o_region"], rng.randrange(1, 3))
            order = ", ".join(f"{k} {rng.choice(directions)}" for k in keys)
            limit = rng.choice(["", f" LIMIT {rng.randrange(1, 60)}"])
            q = f"SELECT o_id, o_qty, o_c_id, o_region FROM orders ORDER BY {order}{limit}"
            check(env, q)


class TestAggregateKernels:
    def test_group_aggregate_differential(self, env):
        check(
            env,
            "SELECT o_region, COUNT(*), SUM(o_qty), MIN(o_qty), MAX(o_qty) "
            "FROM orders GROUP BY o_region",
        )

    def test_sum_min_max_preserve_int_dtype(self, env):
        vec = check(
            env,
            "SELECT SUM(o_qty), MIN(o_qty), MAX(o_qty), COUNT(*) "
            "FROM orders GROUP BY o_region",
        )
        for row in vec.rows:
            for value in row:
                assert isinstance(value, int) and not isinstance(value, bool), row

    def test_avg_stays_float(self, env):
        vec = check(env, "SELECT AVG(o_qty) FROM orders")
        assert isinstance(vec.rows[0][0], float)

    def test_global_aggregate_empty_input(self, env):
        vec = check(
            env, "SELECT COUNT(*), SUM(o_qty) FROM orders WHERE o_qty > 1000"
        )
        assert vec.rows == [(0, None)]

    def test_having_differential(self, env):
        check(
            env,
            "SELECT o_region, SUM(o_qty) FROM orders GROUP BY o_region "
            "HAVING SUM(o_qty) > 400",
        )

    def test_having_division_by_zero_rejects_group(self, env):
        """A group whose HAVING expression divides by zero computes None
        row-at-a-time and must be filtered identically by the mask."""
        query = Query(
            tables=["orders"],
            select=[
                SelectItem(ColumnRef("o_region")),
                SelectItem(Aggregate(AggFunc.SUM, ColumnRef("o_qty"))),
            ],
            where=ALWAYS_TRUE,
            group_by=["o_region"],
            having=[
                HavingCondition(
                    Arith(
                        "/",
                        Aggregate(AggFunc.SUM, ColumnRef("o_qty")),
                        Arith(
                            "-",
                            Aggregate(AggFunc.COUNT, None),
                            Aggregate(AggFunc.COUNT, None),
                        ),
                    ),
                    ">",
                    0,
                )
            ],
        )
        assert check(env, query).rows == []  # every group divides by zero


class TestGroupCodeOverflow:
    def test_pack_codes_many_high_cardinality_keys(self):
        """8 keys × ~300 distinct values ≈ 6.6e19 > 2**62: the packed
        arithmetic must compact instead of silently overflowing."""
        rng = np.random.default_rng(5)
        n = 2000
        columns = [rng.integers(0, 300, size=n) for _ in range(8)]
        codes = _pack_codes(columns, nan_distinct=False)
        tuples = list(zip(*[c.tolist() for c in columns]))
        by_tuple = {}
        for code, tup in zip(codes.tolist(), tuples):
            by_tuple.setdefault(tup, set()).add(code)
        # same tuple -> same code
        assert all(len(s) == 1 for s in by_tuple.values())
        # different tuple -> different code
        assert len({s.pop() for s in by_tuple.values()}) == len(by_tuple)

    def test_group_by_many_columns_end_to_end(self, env):
        check(
            env,
            "SELECT o_region, o_qty, o_c_id, COUNT(*) FROM orders "
            "GROUP BY o_region, o_qty, o_c_id",
        )


INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
KERNELS = settings(max_examples=150, deadline=None)


@st.composite
def int_keys(draw):
    """An integer key column: dense (span within ``4 n + 16``), just past
    that bound, pinned at the dtype's min or max, or spread over the
    whole dtype; int64 columns may carry the ``NULL_INT`` sentinel."""
    dtype = np.dtype(draw(st.sampled_from(INT_DTYPES)))
    info = np.iinfo(dtype)
    n = draw(st.integers(0, 40))
    bound = 4 * n + 16
    shape = draw(st.sampled_from(["dense", "past_bound", "at_min", "at_max", "whole"]))
    if shape == "past_bound":
        width = draw(st.integers(bound + 1, 3 * bound))
    else:
        width = draw(st.integers(1, bound))
    width = min(width, int(info.max) - int(info.min) + 1)
    if shape == "whole":
        lo, hi = int(info.min), int(info.max)
    elif shape == "at_max":
        lo, hi = int(info.max) - width + 1, int(info.max)
    elif shape == "at_min":
        lo, hi = int(info.min), int(info.min) + width - 1
    else:
        lo = draw(st.integers(int(info.min), int(info.max) - width + 1))
        hi = lo + width - 1
    values = draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))
    if n and shape in ("dense", "at_min", "at_max"):
        # Both ends of the range present: the span is exactly ``width``.
        values[0], values[-1] = lo, hi
    if dtype == np.int64 and n and draw(st.booleans()):
        values[draw(st.integers(0, n - 1))] = NULL_INT
    return np.array(values, dtype=dtype)


def unique_inverse(arr):
    uniques, inverse = np.unique(arr, return_inverse=True)
    return np.asarray(inverse, dtype=np.int64), len(uniques)


class TestKeyCodes:
    """Integer key codes equal ``np.unique``'s inverse and count, however
    they are computed; value order, ties and cardinality included."""

    @KERNELS
    @given(arr=int_keys(), nan_distinct=st.booleans(), ordered=st.booleans())
    def test_factorize_integers_equals_unique_inverse(self, arr, nan_distinct, ordered):
        inverse, count = unique_inverse(arr)
        codes, card = _factorize(arr, nan_distinct, ordered=ordered)
        assert codes.dtype == np.int64
        np.testing.assert_array_equal(codes, inverse)
        assert card == max(count, 1)

    @KERNELS
    @given(arr=int_keys())
    def test_order_codes_of_integers_equal_unique_inverse(self, arr):
        inverse, _ = unique_inverse(arr)
        codes = _order_code_array(arr)
        assert codes.dtype == np.int64
        np.testing.assert_array_equal(codes, inverse)

    @pytest.mark.parametrize("dtype", [np.int16, np.uint16])
    def test_narrow_dtype_with_a_span_past_its_positive_range(self, dtype):
        """40 000 distinct keys in an int16 column span more than
        32 767: offsets from the minimum must not wrap in the column's
        own dtype."""
        info = np.iinfo(dtype)
        arr = np.arange(int(info.min), int(info.min) + 40_000, dtype=np.int64)
        arr = np.random.default_rng(3).permutation(arr).astype(dtype)
        inverse, count = unique_inverse(arr)
        codes, card = _factorize(arr, nan_distinct=False)
        np.testing.assert_array_equal(codes, inverse)
        assert card == count == 40_000
        np.testing.assert_array_equal(_order_code_array(arr), inverse)

    @KERNELS
    @given(values=st.lists(st.one_of(st.none(), st.text(max_size=3)), max_size=30))
    def test_ordered_factorize_of_strings_and_none(self, values):
        """``None`` takes code 0; the strings follow in value order."""
        arr = np.array(values + [""], dtype=object)[:-1]
        codes, card = _factorize(arr, nan_distinct=True, ordered=True)
        expected = np.zeros(len(values), dtype=np.int64)
        rest = np.array([v is not None for v in values], dtype=bool)
        count = 0
        if rest.any():
            inverse, count = unique_inverse(arr[rest])
            expected[rest] = inverse + 1
        assert codes.dtype == np.int64
        np.testing.assert_array_equal(codes, expected)
        assert card == count + 1

    @KERNELS
    @given(
        data=st.data(),
        dtype=st.sampled_from([np.int32, np.int64]),
        unique_build=st.booleans(),
        reach=st.sampled_from([5, 60, 2**40]),
    )
    def test_join_positions_equal_the_dict_join(self, data, dtype, unique_build, reach):
        """Unique (PK-shaped) and duplicate builds, negative keys, and
        probes that fall outside the build's span on either side."""
        reach = min(reach, int(np.iinfo(dtype).max) // 2)
        keys = st.integers(-reach, reach)
        build = data.draw(st.lists(keys, max_size=40, unique=unique_build))
        probe = data.draw(st.lists(st.integers(-2 * reach, 2 * reach) | keys, max_size=40))
        build_arr, probe_arr = np.array(build, dtype=dtype), np.array(probe, dtype=dtype)
        got_probe, got_build = _equi_join_positions(probe_arr, build_arr)
        want_probe, want_build = dict_join_positions(probe, build)
        assert got_probe.tolist() == want_probe
        assert got_build.tolist() == want_build


class TestCostCharges:
    def test_distinct_is_charged(self, env):
        catalog, planner, _, _tables = env
        plan = planner.plan(parse("SELECT DISTINCT o_region FROM orders"))
        plain = planner.plan(parse("SELECT o_region FROM orders"))
        cost_d = CostModel()
        Executor(catalog, cost_d).execute(plan)
        cost_p = CostModel()
        Executor(catalog, cost_p).execute(plain)
        assert cost_d.now_us() > cost_p.now_us()

    def test_residual_equality_is_charged(self, env):
        """An edge that closes a cycle — orders attaches through customer
        and also equals a column of tier — is a residual equality, which
        charges per filtered row."""
        catalog, planner, _, _tables = env
        cycle = parse(
            "SELECT o_id FROM orders JOIN customer ON o_c_id = c_id "
            "JOIN tier ON c_tier = t_id WHERE t_qty = o_qty"
        )
        plan_residual = planner.plan(cycle)
        assert [step.keys for step in plan_residual.joins] == [
            (("t_id", "c_tier"),), (("c_id", "o_c_id"),)
        ]
        assert plan_residual.residual_equalities == [("t_qty", "o_qty")]
        assert "residual filter t_qty = o_qty" in plan_residual.explain()
        residual_rows_in = get_registry().counter("exec.residual_rows_in")
        before = residual_rows_in.value
        check(env, cycle)
        assert residual_rows_in.value - before == 400  # every order has a customer
        # Same plan, same path: the only difference is the residual charge.
        charged = CostModel()
        free = CostModel(residual_filter_per_row_us=0.0)
        Executor(catalog, charged).execute(plan_residual)
        Executor(catalog, free).execute(plan_residual)
        assert charged.now_us() > free.now_us()

    def test_multi_edge_join_has_no_residual(self, env):
        """Two edges between one table pair are one step's composite key:
        nothing is left to filter after the join, and nothing is charged
        for it."""
        catalog, planner, _, _tables = env
        query = parse(
            "SELECT o_id FROM orders JOIN customer ON o_c_id = c_id "
            "WHERE o_qty = c_tier"
        )
        plan = planner.plan(query)
        assert [step.keys for step in plan.joins] == [
            (("c_id", "o_c_id"), ("c_tier", "o_qty"))
        ]
        assert plan.residual_equalities == []
        assert "hash join (c_id, c_tier) = (o_c_id, o_qty)" in plan.explain()
        assert "residual" not in plan.explain()
        reg = get_registry()
        before = {
            name: reg.counter(name).value
            for name in ("exec.join_rows_out", "exec.residual_rows_in")
        }
        result = check(env, query)
        # The join emits exactly the result's rows: nothing was
        # manufactured on one component and filtered back on the other.
        assert reg.counter("exec.join_rows_out").value - before[
            "exec.join_rows_out"
        ] == len(result.rows)
        assert reg.counter("exec.residual_rows_in").value == before[
            "exec.residual_rows_in"
        ]
        charged = CostModel()
        free = CostModel(residual_filter_per_row_us=0.0)
        Executor(catalog, charged).execute(plan)
        Executor(catalog, free).execute(plan)
        assert charged.now_us() == free.now_us()


class TestProjectionMaterialization:
    def test_star_projection(self, env):
        check(env, "SELECT * FROM customer")

    def test_arithmetic_projection(self, env):
        check(env, "SELECT o_id, o_qty * 2 FROM orders WHERE o_qty < 5")

    def test_python_scalars_at_boundary(self, env):
        """Late materialization must still hand back Python scalars."""
        vec = check(env, "SELECT o_id, o_amount, o_region FROM orders LIMIT 20")
        for o_id, amount, region in vec.rows:
            assert isinstance(o_id, int)
            assert amount is None or isinstance(amount, float) or math.isnan(amount)
            assert region is None or isinstance(region, str)
