"""Differential tests: composite-key equi-joins vs the brute-force oracle.

``Executor._hash_join`` joins on a tuple of ``(left, right)`` column
pairs as one key.  The generated battery drives it directly with 2–4
key components over int, float-with-NaN, string (with and without
``None``) and ``NULL_INT``-sentinel columns, each component
dictionary-encoded (a ``CodeColumn``) on both, one or neither side,
and compares the matched row pairs with ``tests/oracle``'s nested-loop
join: NaN matches nothing, ``None`` matches ``None``, the sentinel
matches itself.  The CH-benCHmark queries that join TPC-C's
``(w_id, d_id, id)`` keys then run on all four engines against the
oracle over the rows the OLTP side holds.
"""

import random

import numpy as np
import pytest

from repro.bench.chbenchmark import get_query
from repro.bench.tpcc import TpccLoader, TpccScale, TpccWorkload, tpcc_schemas
from repro.common import Column, CostModel, DataType, Schema
from repro.common.predicate import ALWAYS_TRUE
from repro.common.types import NULL_INT, rows_to_columns
from repro.engines import make_engine
from repro.query import Executor, parse
from repro.query import executor as executor_module
from repro.query.ast import ColumnRef, JoinCondition, Query, SelectItem
from repro.storage.code_batch import CodeColumn

from ..oracle import assert_matches, evaluate

#: kind -> (dtype, nullable, value domain); ``None`` in a domain is a NULL.
KINDS = {
    "int": (DataType.INT64, False, [1, 2, 3, 4]),
    "null_int": (DataType.INT64, True, [1, 2, None]),
    "float_nan": (DataType.FLOAT64, True, [0.5, 1.5, None]),
    "str": (DataType.STRING, False, ["a", "b", "c"]),
    "str_null": (DataType.STRING, True, ["a", "b", None]),
}
#: Kinds whose arrays hold no NaN/None and so can be dictionary-encoded.
ENCODABLE = {"int", "null_int", "str"}


def side_schema(prefix, kinds):
    columns = [Column(f"{prefix}_id", DataType.INT64)] + [
        Column(f"{prefix}_k{i}", KINDS[kind][0], nullable=KINDS[kind][1])
        for i, kind in enumerate(kinds)
    ]
    return Schema(prefix, columns, [f"{prefix}_id"])


def side_rows(rng, n, kinds, narrow):
    """``narrow`` draws every component from one value: all duplicates."""
    return [
        (i, *(rng.choice(KINDS[kind][2][:1] if narrow else KINDS[kind][2])
              for kind in kinds))
        for i in range(n)
    ]


def encode(arr):
    dictionary, codes = np.unique(arr, return_inverse=True)
    return CodeColumn(codes.astype(np.int32), dictionary)


def side_batch(schema, rows, kinds, coded):
    batch = dict(rows_to_columns(schema, rows))
    for i, kind in enumerate(kinds):
        name = f"{schema.table_name}_k{i}"
        if coded[i] and kind in ENCODABLE:
            batch[name] = encode(batch[name])
    return batch


def join_query(n_keys, flipped=()):
    """SELECT l_id, r_id over every key pair; component ``i`` is written
    right-side-first when ``i`` is in ``flipped``."""
    joins = [
        JoinCondition(f"r_k{i}", f"l_k{i}") if i in flipped
        else JoinCondition(f"l_k{i}", f"r_k{i}")
        for i in range(n_keys)
    ]
    return Query(
        select=[SelectItem(ColumnRef("l_id")), SelectItem(ColumnRef("r_id"))],
        tables=["l", "r"],
        joins=joins,
        where=ALWAYS_TRUE,
    )


def run_case(kinds, left_rows, right_rows, left_coded, right_coded, flipped=()):
    """``_hash_join`` over the two sides == the oracle's nested loop."""
    left_schema, right_schema = side_schema("l", kinds), side_schema("r", kinds)
    query = join_query(len(kinds), flipped)
    cost = CostModel()
    out = Executor({}, cost)._hash_join(
        side_batch(left_schema, left_rows, kinds, left_coded),
        side_batch(right_schema, right_rows, kinds, right_coded),
        tuple((j.left_column, j.right_column) for j in query.joins),
    )
    got = sorted(zip(out["l_id"].tolist(), out["r_id"].tolist()))
    _columns, want = evaluate(
        query, {"l": (left_schema, left_rows), "r": (right_schema, right_rows)}
    )
    assert got == sorted(want), (kinds, left_coded, right_coded)
    # Every output column is gathered to the matched length.
    assert {len(arr) for arr in out.values()} == {len(got)}
    return cost


def generated_case(seed):
    rng = random.Random(seed)
    kinds = [rng.choice(list(KINDS)) for _ in range(rng.randint(2, 4))]
    sizes = [0, 1, 7, 40]
    n_left, n_right = rng.choice(sizes), rng.choice(sizes)
    narrow = rng.random() < 0.15
    return (
        kinds,
        side_rows(rng, n_left, kinds, narrow),
        side_rows(rng, n_right, kinds, narrow),
        [rng.random() < 0.5 for _ in kinds],
        [rng.random() < 0.5 for _ in kinds],
        {i for i in range(len(kinds)) if rng.random() < 0.3},
    )


class TestCompositeJoinBattery:
    @pytest.mark.parametrize("seed", range(120))
    def test_generated(self, seed):
        run_case(*generated_case(seed))

    @pytest.mark.parametrize("seed", range(40))
    def test_generated_under_compaction(self, seed, monkeypatch):
        """Four components of cardinality 4 (5 where a dictionary lacks a
        value) under a pack limit of 200: the fourth multiply would pass
        it, so the running pack is re-factorized to the at most 39
        distinct rows and the key still packs — no row-at-a-time join."""
        monkeypatch.setattr(executor_module, "_PACK_LIMIT", 200)
        monkeypatch.setattr(
            executor_module, "_equi_join_positions_scalar", pytest.fail
        )
        rng = random.Random(seed)
        kinds = ["int"] * 4
        run_case(
            kinds,
            side_rows(rng, 30, kinds, False),
            side_rows(rng, 9, kinds, False),
            [rng.random() < 0.5 for _ in kinds],
            [rng.random() < 0.5 for _ in kinds],
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_unpackable_key_space_joins_row_at_a_time(self, seed, monkeypatch):
        """When even the compacted pack cannot take another component the
        join falls back to the dict join over key tuples."""
        monkeypatch.setattr(executor_module, "_PACK_LIMIT", 1)
        scalar_joins = []
        scalar = executor_module._equi_join_positions_scalar
        monkeypatch.setattr(
            executor_module,
            "_equi_join_positions_scalar",
            lambda *sides: scalar_joins.append(sides) or scalar(*sides),
        )
        kinds, _left, _right, *rest = generated_case(seed)
        rng = random.Random(seed)
        run_case(
            kinds,
            side_rows(rng, 25, kinds, False),
            side_rows(rng, 12, kinds, False),
            *rest,
        )
        assert len(scalar_joins) == 1

    @pytest.mark.parametrize("kinds", [
        ["int", "int"],
        ["str", "int", "str"],
        ["float_nan", "int"],
        ["str_null", "null_int", "int", "str"],
    ])
    @pytest.mark.parametrize("coded", [(True, True), (True, False),
                                       (False, True), (False, False)])
    def test_each_encoding_arm_and_both_build_sides(self, kinds, coded):
        """CodeColumn on both / left / right / neither side, with the
        smaller (build) side on the left and then on the right."""
        rng = random.Random(len(kinds))
        big = side_rows(rng, 60, kinds, False)
        small = side_rows(rng, 6, kinds, False)
        left_coded = [coded[0]] * len(kinds)
        right_coded = [coded[1]] * len(kinds)
        run_case(kinds, big, small, left_coded, right_coded)
        run_case(kinds, small, big, left_coded, right_coded)

    def test_different_dictionaries_remap_and_absent_values_never_match(self):
        """Build values missing from the probe dictionary align to -1; a
        -1 in one component must not match through the packed key."""
        kinds = ["int", "str"]
        left = [(0, 1, "a"), (1, 2, "b"), (2, 3, "a"), (3, 1, "a")]
        right = [(0, 1, "a"), (1, 9, "b"), (2, 3, "z"), (3, 2, "b")]
        cost = run_case(kinds, left, right, [True, True], [True, True])
        model = CostModel()
        assert cost.now_us() == pytest.approx(
            2 * 4 * model.code_remap_per_value_us
            + 4 * model.hash_build_per_row_us
            + 4 * model.hash_probe_per_row_us
        )

    @pytest.mark.parametrize("n_keys", [1, 2, 4])
    def test_a_composite_key_is_one_hash(self, n_keys):
        """Build and probe are charged once per row whatever the number
        of key components."""
        kinds = ["int"] * n_keys
        rng = random.Random(2)
        left = side_rows(rng, 50, kinds, False)
        right = side_rows(rng, 8, kinds, False)
        cost = run_case(kinds, left, right, [False] * n_keys, [False] * n_keys)
        model = CostModel()
        assert cost.now_us() == pytest.approx(
            8 * model.hash_build_per_row_us + 50 * model.hash_probe_per_row_us
        )

    def test_empty_sides(self):
        kinds = ["int", "float_nan", "str"]
        rows = side_rows(random.Random(1), 5, kinds, False)
        for left, right in (([], rows), (rows, []), ([], [])):
            run_case(kinds, left, right, [True] * 3, [False] * 3)

    def test_all_duplicates_is_a_cross_product(self):
        kinds = ["int", "str"]
        left = [(i, 7, "x") for i in range(9)]
        right = [(i, 7, "x") for i in range(5)]
        run_case(kinds, left, right, [True, False], [True, True])

    def test_null_semantics_per_component(self):
        """NaN never matches (itself included), None matches None, the
        NULL_INT sentinel matches itself — component by component."""
        kinds = ["float_nan", "str_null", "null_int"]
        left = [(0, None, None, None), (1, 1.5, None, None), (2, 1.5, "a", 2)]
        right = [(0, None, None, None), (1, 1.5, None, None), (2, 1.5, "a", 2)]
        schema = side_schema("l", kinds)
        arrays = rows_to_columns(schema, left)
        assert np.isnan(arrays["l_k0"][0]) and arrays["l_k2"][0] == NULL_INT
        run_case(kinds, left, right, [False] * 3, [False] * 3)

    def test_cardinality_product_crossing_the_real_pack_limit(self):
        """Four components of ~10^5 distinct values each: the product
        (10^20) crosses 2**62, so the pack compacts; checked against a
        dict join (the nested loop would take 2.5e9 comparisons)."""
        n = 50_000
        rng = np.random.default_rng(3)
        left = {f"l_k{i}": rng.permutation(2 * n)[:n] for i in range(4)}
        right = {f"r_k{i}": left[f"l_k{i}"][::-1].copy() for i in range(4)}
        right["r_k3"][::2] += 1  # half the rows differ in the last component
        left["l_id"] = np.arange(n)
        right["r_id"] = np.arange(n)
        assert len(np.union1d(left["l_k0"], right["r_k0"])) ** 4 > 2**62
        out = Executor({}, CostModel())._hash_join(
            left, right, tuple((f"l_k{i}", f"r_k{i}") for i in range(4))
        )
        table = {
            key: i
            for i, key in enumerate(zip(*[right[f"r_k{i}"].tolist() for i in range(4)]))
        }
        want = [
            (i, table[key])
            for i, key in enumerate(zip(*[left[f"l_k{i}"].tolist() for i in range(4)]))
            if key in table
        ]
        assert len(want) == n // 2
        assert sorted(zip(out["l_id"].tolist(), out["r_id"].tolist())) == want


# ------------------------------------------------------------------- CH queries

SCALE = TpccScale(
    warehouses=2, districts=2, customers=6, items=12, initial_orders=6,
    suppliers=4, nations=3, regions=2,
)
COMPOSITE_KEY_QUERIES = ["Q3", "Q5", "Q7", "Q12", "Q18"]


def ch_queries():
    """The queries without their LIMIT: Q3's cut falls inside a run of
    equal revenues, where which rows survive is not defined."""
    queries = [parse(get_query(query_id).sql) for query_id in COMPOSITE_KEY_QUERIES]
    for query in queries:
        query.limit = None
    return queries


def oltp_rows(engine):
    """Every table's committed rows, read through an OLTP session."""
    with engine.session() as session:
        return {
            schema.table_name: (schema, session.scan(schema.table_name))
            for schema in tpcc_schemas()
        }


@pytest.mark.parametrize("cat", ["a", "b", "c", "d"])
def test_ch_composite_key_queries_match_oracle(cat):
    kwargs = {"seed": 5} if cat == "b" else {}
    engine = make_engine(cat, **kwargs)
    TpccLoader(SCALE, seed=3).load(engine)
    engine.force_sync()
    TpccWorkload(engine, SCALE, seed=4).run_many(25)
    if cat == "b":
        engine.force_sync()  # (b) reads its learner: fresh once drained
    tables = oltp_rows(engine)
    for query in ch_queries():  # fresh: the delta is patched in
        assert_matches(engine.query(query), query, tables)
    engine.force_sync()
    engine.read_fresh = False  # isolated: the column image alone
    for query in ch_queries():
        assert_matches(engine.query(query), query, tables)
