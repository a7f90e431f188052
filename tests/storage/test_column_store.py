"""Column store: segments, zone maps, deletes, upserts, compaction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common import (
    ALWAYS_TRUE,
    Between,
    Column,
    Comparison,
    CostModel,
    DataType,
    Schema,
    StorageError,
)
from repro.common.types import rows_to_columns
from repro.storage.column_store import ColumnStore

from ..oracle import TableModel, store_state


def make_schema():
    return Schema(
        "t",
        [
            Column("id", DataType.INT64),
            Column("v", DataType.FLOAT64),
            Column("s", DataType.STRING),
        ],
        ["id"],
    )


def rows(n, start=0):
    return [(i, float(i), f"s{i % 3}") for i in range(start, start + n)]


class TestAppendScan:
    def test_append_and_scan_all(self):
        store = ColumnStore(make_schema())
        store.append_rows(rows(10), commit_ts=1)
        result = store.scan(["v"])
        assert len(result) == 10
        assert result.arrays["v"].sum() == sum(float(i) for i in range(10))

    def test_scan_predicate(self):
        store = ColumnStore(make_schema())
        store.append_rows(rows(20), commit_ts=1)
        result = store.scan(["id"], Comparison("v", "<", 5.0))
        assert sorted(result.arrays["id"].tolist()) == [0, 1, 2, 3, 4]

    def test_scan_predicate_column_not_projected(self):
        store = ColumnStore(make_schema())
        store.append_rows(rows(10), commit_ts=1)
        result = store.scan(["s"], Comparison("id", "=", 4))
        assert result.arrays["s"].tolist() == ["s1"]

    def test_empty_append_rejected(self):
        with pytest.raises(StorageError):
            ColumnStore(make_schema()).append_rows([], commit_ts=1)

    @pytest.mark.parametrize("entry", ["append_rows", "append_batch"])
    def test_in_batch_duplicate_key_rejected(self, entry):
        """Two rows under one key in a single batch would both stay live
        while the pk directory addresses only the last: refused before
        anything changes, free of simulated charge."""
        cost = CostModel()
        store = ColumnStore(make_schema(), cost)
        store.append_rows(rows(2, start=10), commit_ts=1)
        state = store_state(store)  # (reading the state charges a scan)
        before = (store.mutations, cost.now_us())
        batch = [(1, 1.0, "a"), (1, 2.0, "b"), (2, 3.0, "c")]
        with pytest.raises(StorageError):
            if entry == "append_rows":
                store.append_rows(batch, commit_ts=2)
            else:
                store.append_batch(
                    rows_to_columns(store.schema, batch), [1, 1, 2], commit_ts=2
                )
        assert (store.mutations, cost.now_us()) == before
        assert store_state(store) == state

    def test_multiple_segments(self):
        store = ColumnStore(make_schema())
        store.append_rows(rows(5), commit_ts=1)
        store.append_rows(rows(5, start=5), commit_ts=2)
        assert store.segment_count() == 2
        assert len(store) == 10
        assert len(store.scan(["id"])) == 10

    def test_scan_empty_store(self):
        store = ColumnStore(make_schema())
        result = store.scan(["id"])
        assert len(result) == 0
        assert result.arrays["id"].dtype == np.int64


class TestZoneMaps:
    def test_pruning_skips_segments(self):
        store = ColumnStore(make_schema())
        store.append_rows(rows(100), commit_ts=1)           # ids 0..99
        store.append_rows(rows(100, start=1000), commit_ts=2)  # ids 1000..1099
        result = store.scan(["id"], Between("id", 1050, 1060))
        assert result.segments_pruned == 1
        assert result.segments_scanned == 1
        assert len(result) == 11

    def test_pruning_never_loses_rows(self):
        store = ColumnStore(make_schema())
        for chunk in range(5):
            store.append_rows(rows(20, start=chunk * 100), commit_ts=chunk + 1)
        result = store.scan(["id"], Comparison("id", ">=", 250))
        brute = [r[0] for chunk in range(5) for r in rows(20, start=chunk * 100) if r[0] >= 250]
        assert sorted(result.arrays["id"].tolist()) == sorted(brute)


class TestDeleteUpsert:
    def test_delete_hides_rows(self):
        store = ColumnStore(make_schema())
        store.append_rows(rows(10), commit_ts=1)
        assert store.delete_keys([3, 5, 99]) == 2
        assert len(store) == 8
        got = store.scan(["id"]).arrays["id"].tolist()
        assert 3 not in got and 5 not in got

    def test_upsert_replaces_old_version(self):
        store = ColumnStore(make_schema())
        store.append_rows(rows(5), commit_ts=1)
        store.append_rows([(2, 99.0, "new")], commit_ts=2)
        result = store.scan(["v"], Comparison("id", "=", 2))
        assert result.arrays["v"].tolist() == [99.0]
        assert len(store) == 5

    def test_get_row(self):
        store = ColumnStore(make_schema())
        store.append_rows(rows(5), commit_ts=1)
        assert store.get_row(3) == (3, 3.0, "s0")
        assert store.get_row(77) is None

    def test_get_row_after_delete(self):
        store = ColumnStore(make_schema())
        store.append_rows(rows(5), commit_ts=1)
        store.delete_keys([3])
        assert store.get_row(3) is None

    def test_all_rows_round_trip(self):
        store = ColumnStore(make_schema())
        data = rows(25)
        store.append_rows(data, commit_ts=1)
        assert sorted(store.all_rows()) == sorted(data)


class TestCompaction:
    def test_compact_drops_dead_space(self):
        store = ColumnStore(make_schema())
        store.append_rows(rows(50), commit_ts=1)
        store.delete_keys(list(range(0, 50, 2)))
        assert store.dead_fraction() == pytest.approx(0.5)
        before = sorted(store.all_rows())
        store.compact()
        assert store.dead_fraction() == 0.0
        assert store.segment_count() == 1
        assert sorted(store.all_rows()) == before

    def test_compact_preserves_sync_ts(self):
        store = ColumnStore(make_schema())
        store.append_rows(rows(5), commit_ts=42)
        store.compact()
        assert store.max_commit_ts() == 42

    def test_compact_empty(self):
        store = ColumnStore(make_schema())
        store.append_rows(rows(3), commit_ts=1)
        store.delete_keys([0, 1, 2])
        store.compact()
        assert len(store) == 0


class TestCosts:
    def test_scan_charges_time(self):
        cost = CostModel()
        store = ColumnStore(make_schema(), cost)
        store.append_rows(rows(100), commit_ts=1)
        before = cost.now_us()
        store.scan(["v"])
        assert cost.now_us() > before

    def test_forced_encoding(self):
        store = ColumnStore(make_schema(), forced_encoding="plain")
        store.append_rows(rows(10), commit_ts=1)
        seg = store.segments[0]
        assert all(enc.name == "plain" for enc in seg.encodings.values())

    def test_nullable_columns_round_trip(self):
        schema = Schema(
            "t",
            [Column("id", DataType.INT64), Column("d", DataType.INT64, nullable=True)],
            ["id"],
        )
        store = ColumnStore(schema)
        store.append_rows([(1, None), (2, 7)], commit_ts=1)
        assert store.get_row(1) == (1, None)
        assert sorted(store.all_rows()) == [(1, None), (2, 7)]


@settings(max_examples=40, deadline=None)
@given(
    batches=st.lists(
        st.lists(st.integers(0, 50), min_size=1, max_size=20), min_size=1, max_size=5
    ),
    deletions=st.lists(st.integers(0, 50), max_size=20),
)
def test_upsert_delete_matches_dict_model(batches, deletions):
    """Append (upsert) batches then deletes behave like a dict."""
    store = ColumnStore(make_schema())
    model: dict[int, tuple] = {}
    ts = 0
    for batch in batches:
        ts += 1
        unique = {}
        for key in batch:
            unique[key] = (key, float(ts), f"s{key % 3}")
        store.append_rows(list(unique.values()), commit_ts=ts)
        model.update(unique)
    for key in deletions:
        store.delete_keys([key])
        model.pop(key, None)
    assert sorted(store.all_rows()) == sorted(model.values())
    assert len(store) == len(model)


def pivot(schema, data):
    from repro.common.types import rows_to_columns

    return rows_to_columns(schema, data), [schema.key_of(r) for r in data]


class TestAppendBatch:
    def test_matches_append_rows(self):
        schema = make_schema()
        data = rows(25)
        scalar = ColumnStore(schema)
        scalar.append_rows(data, commit_ts=1)
        batched = ColumnStore(make_schema())
        arrays, keys = pivot(schema, data)
        batched.append_batch(arrays, keys, commit_ts=1)
        assert sorted(batched.all_rows()) == sorted(scalar.all_rows())
        assert batched.max_commit_ts() == scalar.max_commit_ts()
        a = batched.scan(["v"], Comparison("id", "<", 5))
        b = scalar.scan(["v"], Comparison("id", "<", 5))
        assert a.arrays["v"].tolist() == b.arrays["v"].tolist()

    def test_empty_batch_rejected(self):
        schema = make_schema()
        store = ColumnStore(schema)
        with pytest.raises(StorageError):
            store.append_batch({c.name: np.array([]) for c in schema.columns}, [], 1)

    def test_upserts_stale_keys(self):
        schema = make_schema()
        store = ColumnStore(schema)
        store.append_rows(rows(10), commit_ts=1)
        fresh = [(i, float(i) * 10, "new") for i in range(5)]
        arrays, keys = pivot(schema, fresh)
        store.append_batch(arrays, keys, commit_ts=2)
        assert len(store) == 10
        got = dict((r[0], r[1]) for r in store.all_rows())
        assert got[3] == 30.0 and got[7] == 7.0

    def test_single_mutation_bump(self):
        schema = make_schema()
        store = ColumnStore(schema)
        store.append_rows(rows(4), commit_ts=1)
        before = store.mutations
        arrays, keys = pivot(schema, rows(4))  # all stale upserts
        store.append_batch(arrays, keys, commit_ts=2)
        assert store.mutations == before + 1

    def test_length_mismatch_rejected(self):
        schema = make_schema()
        store = ColumnStore(schema)
        arrays, keys = pivot(schema, rows(3))
        arrays["v"] = arrays["v"][:2]
        with pytest.raises(StorageError):
            store.append_batch(arrays, keys, commit_ts=1)

    def test_zone_maps_built(self):
        schema = make_schema()
        store = ColumnStore(schema)
        arrays, keys = pivot(schema, rows(50))
        segment = store.append_batch(arrays, keys, commit_ts=1)
        lo, hi = segment.zone_maps["id"]
        assert (lo, hi) == (0, 49)
        result = store.scan(["id"], Between("id", 10, 12))
        assert sorted(result.arrays["id"].tolist()) == [10, 11, 12]


class TestDeleteBatch:
    def test_matches_delete_keys(self):
        data = rows(20)
        doomed = [1, 5, 5, 19, 999]  # dup + miss are tolerated
        scalar = ColumnStore(make_schema())
        scalar.append_rows(data, commit_ts=1)
        scalar.delete_keys(doomed)
        batched = ColumnStore(make_schema())
        batched.append_rows(data, commit_ts=1)
        removed = batched.delete_batch(doomed)
        assert removed == 3
        assert sorted(batched.all_rows()) == sorted(scalar.all_rows())

    def test_compact_matches_model(self):
        data = rows(30)
        model = TableModel(data, ts=2)
        for key in (0, 7, 22):
            model.apply("delete", key, None, 2)
        store = ColumnStore(make_schema())
        store.append_rows(data[:15], commit_ts=1)
        store.append_rows(data[15:], commit_ts=2)
        store.delete_batch([0, 7, 22])
        store.compact()
        assert store_state(store) == model.state()
        assert len(store.segments) == 1


# ------------------------------------------------------------ point reads
#
# ``get_row`` rebuilds a row from whichever codec each column sealed
# with: it must hand back the appended row itself — NULL sentinels
# (``NULL_INT``, NaN) as None and every cell a builtin, never a NumPy
# scalar — through upserts, deletes and compaction.

NULLABLE = Schema(
    "t",
    [
        Column("id", DataType.INT64),
        Column("g", DataType.INT64),
        Column("n", DataType.INT64, nullable=True),
        Column("x", DataType.FLOAT64),
        Column("f", DataType.FLOAT64, nullable=True),
        Column("s", DataType.STRING, nullable=True),
    ],
    ["id"],
)
_POINT_KEYS = 40
_point_row = st.tuples(
    st.sampled_from([3, 3, 3, 9]),                    # runs: RLE has work
    st.sampled_from([None, 0, 1, 2**40, -3]),
    st.sampled_from([0.25, 0.25, -1.5, 1e300]),
    st.sampled_from([None, 0.5, -2.0, 7.25]),
    st.sampled_from([None, "", "a", "bb"]),
)
_point_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("append"),
            st.dictionaries(st.integers(0, _POINT_KEYS - 1), _point_row, min_size=1, max_size=25),
        ),
        st.tuples(st.just("delete"), st.lists(st.integers(0, _POINT_KEYS), max_size=8)),
        st.tuples(st.just("compact")),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(codec=st.sampled_from([None, "plain", "dictionary", "rle", "bitpack"]), ops=_point_ops)
def test_get_row_returns_the_appended_row_with_builtin_cells(codec, ops):
    store = ColumnStore(NULLABLE, forced_encoding=codec)
    model: dict[int, tuple] = {}
    for ts, op in enumerate(ops, start=1):
        if op[0] == "append":
            batch = [(key, *rest) for key, rest in op[1].items()]
            store.append_rows(batch, commit_ts=ts)
            model.update((row[0], row) for row in batch)
        elif op[0] == "delete":
            store.delete_keys(op[1])
            for key in op[1]:
                model.pop(key, None)
        else:
            store.compact()
        for key in range(-1, _POINT_KEYS + 1):
            got, want = store.get_row(key), model.get(key)
            assert got == want, (codec, key)
            if want is not None:
                assert list(map(type, got)) == list(map(type, want)), (codec, key)
