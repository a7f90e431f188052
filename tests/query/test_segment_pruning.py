"""Segment-skipping scans: zone maps + code-space predicates.

The contract under test is *exactness*: whatever combination of
pruning, code-space evaluation, and codecs a scan uses, it must return
byte-identical results to the full-decode reference scan in
``tests/oracle/scan.py`` — including NULL sentinels, NaN, cross-dtype
literals, and absent dictionary values.
"""

import numpy as np
import pytest

from repro.common import Column, CostModel, DataType, Schema
from repro.common.predicate import (
    ALWAYS_TRUE,
    Between,
    Comparison,
    InList,
    Not,
)
from repro.common.types import NULL_INT
from repro.engines import make_engine
from repro.storage import ColumnStore, ZoneMap, build_zone_map
from repro.storage.compression import (
    DictionaryEncoding,
    PlainEncoding,
    RunLengthEncoding,
)

from ..oracle import assert_matches, reference_scan


def schema():
    return Schema(
        "t",
        [
            Column("id", DataType.INT64),
            Column("value", DataType.FLOAT64),
            Column("tag", DataType.STRING),
        ],
        ["id"],
    )


def build_store(n_segments=5, seg_rows=40):
    """Segments with disjoint id ranges (ideal pruning layout)."""
    store = ColumnStore(schema(), CostModel())
    for s in range(n_segments):
        base = s * seg_rows
        rows = [
            (base + i, float(base + i) / 2.0, f"tag{(base + i) % 4}")
            for i in range(seg_rows)
        ]
        store.append_rows(rows, commit_ts=s + 1)
    return store


def assert_scans_equal(store, predicate, columns=None, with_keys=True):
    """Optimized scan == ``tests/oracle`` full-decode scan, byte for byte."""
    got = store.scan(columns, predicate, with_keys=with_keys)
    arrays, keys = reference_scan(store, columns, predicate, with_keys)
    assert set(got.arrays) == set(arrays)
    for name in arrays:
        a, b = got.arrays[name], arrays[name]
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert got.keys == keys
    return got


# ----------------------------------------------------------------- zone maps


class TestZoneMaps:
    def test_built_on_append(self):
        store = build_store(2, 10)
        seg = store.segments[0]
        zone = seg.zone_maps["id"]
        assert (zone.min, zone.max) == (0, 9)
        lo, hi = zone  # historical tuple-unpack shape
        assert (lo, hi) == (0, 9)
        assert zone.null_count == 0
        assert zone.distinct_hint is None or zone.distinct_hint >= 1

    def test_int_nulls_keep_raw_sentinel_extrema(self):
        # predicate.mask compares the raw NULL_INT sentinel, so the zone
        # min must include it — otherwise `id < 0` would wrongly prune.
        store = ColumnStore(schema(), CostModel())
        store.append_rows([(1, 1.0, "a"), (NULL_INT, 2.0, "b")], commit_ts=1)
        zone = store.segments[0].zone_maps["id"]
        assert zone.min == NULL_INT
        assert zone.null_count == 1
        assert_scans_equal(store, Comparison("id", "<", 0))

    def test_float_zone_excludes_nan(self):
        arr = np.array([1.0, np.nan, 3.0])
        zone = build_zone_map(arr, PlainEncoding(data=arr))
        assert (zone.min, zone.max) == (1.0, 3.0)
        assert zone.null_count == 1

    def test_all_nan_float_zone_unbounded(self):
        arr = np.array([np.nan, np.nan])
        zone = build_zone_map(arr, PlainEncoding(data=arr))
        assert zone.min is None and zone.null_count == 2

    def test_dictionary_endpoints_for_objects(self):
        arr = np.array(["b", "a", "c", "a"], dtype=object)
        zone = build_zone_map(arr, DictionaryEncoding.encode(arr))
        assert (zone.min, zone.max) == ("a", "c")
        assert zone.distinct_hint == 3

    def test_empty_array_has_no_zone(self):
        arr = np.array([], dtype=np.int64)
        assert build_zone_map(arr, PlainEncoding(data=arr)) is None

    def test_zone_map_iter_is_min_max(self):
        assert tuple(ZoneMap(3, 9)) == (3, 9)


class TestPruning:
    def test_selective_scan_prunes_segments(self):
        store = build_store(5, 40)
        pred = Between("id", 10, 19)  # entirely inside segment 0
        got = assert_scans_equal(store, pred)
        assert got.segments_pruned == 4
        assert got.segments_scanned == 1

    def test_pruned_scan_is_cheaper(self):
        store = build_store(5, 40)
        pred = Between("id", 10, 19)
        c0 = store._cost.now_us()
        store.scan(predicate=pred, with_keys=False)
        pruned_cost = store._cost.now_us() - c0
        c0 = store._cost.now_us()
        store.scan(with_keys=False)  # ALWAYS_TRUE: nothing to prune
        full_cost = store._cost.now_us() - c0
        assert pruned_cost < full_cost / 2

    def test_all_null_segment_pruned_for_bounded_predicate(self):
        store = ColumnStore(schema(), CostModel())
        store.append_rows([(NULL_INT, 1.0, "a")], commit_ts=1)
        store.append_rows([(5, 3.0, "c")], commit_ts=2)
        pred = Comparison("id", ">", 0)
        got = assert_scans_equal(store, pred)
        assert got.segments_pruned == 1

    def test_or_predicates_never_prune_wrongly(self):
        store = build_store(4, 25)
        pred = Comparison("id", "<", 5) | Comparison("id", ">", 90)
        assert_scans_equal(store, pred)

    def test_deleted_rows_stay_deleted_after_pruning(self):
        store = build_store(3, 20)
        store.delete_batch([0, 1, 25])
        got = assert_scans_equal(store, Comparison("id", "<", 30))
        assert 0 not in (got.keys or [])

    def test_table_range_and_pruned_fraction(self):
        store = build_store(5, 40)
        assert store.table_range("id") == (0, 199)
        assert store.table_range("nope") is None
        assert store.pruned_row_fraction(Between("id", 0, 39)) == pytest.approx(0.8)
        assert store.pruned_row_fraction(ALWAYS_TRUE) == 0.0
        assert store.pruned_row_fraction(Comparison("id", ">", 10_000)) == 1.0

    def test_compact_rebuilds_zone_index(self):
        store = build_store(3, 20)
        store.delete_batch(list(range(40, 60)))  # drop the top segment
        store.compact()
        assert store.table_range("id") == (0, 39)
        assert_scans_equal(store, Between("id", 10, 19))

    def test_mutation_counter_bumps_on_every_write_path(self):
        store = build_store(1, 10)
        seen = store.mutations
        for op in (
            lambda: store.append_rows([(500, 1.0, "x")], commit_ts=9),
            lambda: store.delete_keys([500]),
            lambda: store.delete_batch([0]),
            lambda: store.compact(),
        ):
            op()
            assert store.mutations > seen
            seen = store.mutations


# ----------------------------------------------------------------- code space


class TestCodeSpacePredicates:
    def dict_store(self):
        store = ColumnStore(schema(), CostModel(), forced_encoding="dictionary")
        rows = [(i, float(i % 7), f"tag{i % 5}") for i in range(100)]
        store.append_rows(rows, commit_ts=1)
        return store

    @pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
    def test_string_comparisons(self, op):
        store = self.dict_store()
        got = assert_scans_equal(store, Comparison("tag", op, "tag2"))
        assert got.code_space_filters >= 1

    def test_absent_value_equality(self):
        store = self.dict_store()
        got = assert_scans_equal(store, Comparison("tag", "=", "missing"))
        assert len(got) == 0

    def test_absent_value_between_boundaries(self):
        store = self.dict_store()
        # Bounds that fall between dictionary entries.
        assert_scans_equal(store, Between("tag", "tag05", "tag35"))

    def test_in_list_with_absent_and_present(self):
        store = self.dict_store()
        pred = InList("tag", ["tag1", "tag3", "zzz"])
        got = assert_scans_equal(store, pred)
        assert got.code_space_filters >= 1

    def test_in_list_cross_dtype_coercion(self):
        # np.isin casts 1.5 -> 1 on int columns; the code-space rewrite
        # must reproduce that cast, not fix it.
        store = ColumnStore(schema(), CostModel(), forced_encoding="dictionary")
        store.append_rows([(i, 0.0, "x") for i in range(10)], commit_ts=1)
        assert_scans_equal(store, InList("id", [1.5, 3.0]))

    def test_nan_literal_falls_back(self):
        store = self.dict_store()
        got = assert_scans_equal(store, Comparison("value", "=", float("nan")))
        assert len(got) == 0

    def test_nan_in_dictionary_falls_back(self):
        store = ColumnStore(schema(), CostModel(), forced_encoding="dictionary")
        store.append_rows(
            [(1, float("nan"), "a"), (2, 5.0, "b"), (3, 7.0, "c")], commit_ts=1
        )
        enc = store.segments[0].encodings["value"]
        assert isinstance(enc, DictionaryEncoding) and not enc.code_space_safe()
        assert_scans_equal(store, Comparison("value", ">", 4.0))

    def test_rle_run_space(self):
        store = ColumnStore(schema(), CostModel(), forced_encoding="rle")
        rows = [(i, float(i // 25), "x") for i in range(100)]  # long runs
        store.append_rows(rows, commit_ts=1)
        assert isinstance(store.segments[0].encodings["value"], RunLengthEncoding)
        got = assert_scans_equal(store, Comparison("value", ">=", 2.0))
        assert len(got) == 50

    def test_not_and_nested_boolean_trees(self):
        store = self.dict_store()
        pred = Not(Comparison("tag", "=", "tag0")) & (
            Between("id", 10, 60) | Comparison("tag", "=", "tag4")
        )
        assert_scans_equal(store, pred)


# ----------------------------------------------------------------- regression


class TestKeyMaterialization:
    def test_with_keys_false_never_allocates_keys(self):
        store = build_store(3, 20)
        result = store.scan(predicate=Between("id", 5, 10), with_keys=False)
        assert result.keys is None
        assert len(result) == 6  # falls back to array length

    def test_all_segments_pruned_with_keys_false(self):
        # Regression: pruning everything must still yield keys=None (not
        # an empty allocated list) and correctly-dtyped empty arrays.
        store = build_store(3, 20)
        result = store.scan(predicate=Comparison("id", ">", 10_000), with_keys=False)
        assert result.keys is None
        assert result.segments_pruned == 3
        assert result.segments_scanned == 0
        assert len(result) == 0
        assert result.arrays["id"].dtype == np.int64
        assert result.arrays["tag"].dtype == object

    def test_all_segments_pruned_with_keys_true(self):
        store = build_store(3, 20)
        result = store.scan(predicate=Comparison("id", ">", 10_000))
        assert result.keys == []


# ----------------------------------------------------------------- engines


ENGINE_SQL = [
    "SELECT o_region, COUNT(*), SUM(o_amount) FROM orders "
    "WHERE o_id < 20 GROUP BY o_region",
    "SELECT o_id, o_amount FROM orders WHERE o_amount > 9.0 ORDER BY o_id",
    "SELECT COUNT(*) FROM orders WHERE o_region = 'east'",
    "SELECT SUM(o_amount) FROM orders WHERE o_id > 100000",
]


def order_schema():
    return Schema(
        "orders",
        [
            Column("o_id", DataType.INT64),
            Column("o_cust", DataType.INT64),
            Column("o_amount", DataType.FLOAT64),
            Column("o_region", DataType.STRING),
        ],
        ["o_id"],
    )


@pytest.mark.parametrize("cat", ["a", "b", "c", "d"])
def test_engine_differential_pruned_vs_reference(cat):
    """All four engines' pruned / code-space scans answer to the oracle."""
    kwargs = {"seed": 5} if cat == "b" else {}
    engine = make_engine(cat, **kwargs)
    engine.create_table(order_schema())
    rows = [
        (i, i % 7, float(i % 13) + 0.25, ["east", "west"][i % 2])
        for i in range(120)
    ]
    engine.bulk_load("orders", rows)
    engine.force_sync()
    tables = {"orders": (order_schema(), rows)}
    for sql in ENGINE_SQL:
        assert_matches(engine.query(sql), sql, tables)
