"""Scan snapshots and engine column scans against the oracle.

A scan snapshots the segment list, so a predicate that appends mid-scan
never sees its own writes; and all four engines' column scans — also
after an insert + delete + sync — answer to ``tests/oracle``.  The file
and test names predate the scan pool's removal and stay so that test
ids are stable.
"""

import pytest

from repro.common import Column, CostModel, DataType, Schema
from repro.common.predicate import Predicate
from repro.engines import make_engine
from repro.storage import ColumnStore

from ..oracle import assert_matches


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


def build_store(n_segments=8, seg_rows=50):
    store = ColumnStore(schema(), CostModel())
    for s in range(n_segments):
        base = s * seg_rows
        rows = [
            (base + i, float((base + i) % 11), f"tag{(base + i) % 3}")
            for i in range(seg_rows)
        ]
        store.append_rows(rows, commit_ts=s + 1)
    return store


class _WritingPredicate(Predicate):
    """Adversarial predicate: appends rows to the store mid-scan.

    Its mask is a plain range filter, but evaluating it mutates the
    store — a writer landing between two segments of one scan.  The
    scan's segment-list snapshot must make the in-flight scan blind to
    the new segment.
    """

    def __init__(self, store, low, high):
        self._store = store
        self._next_id = [10_000]
        self.low = low
        self.high = high

    def referenced_columns(self):
        return {"id"}

    def matches(self, row, schema):
        idx = schema.index_of("id")
        return self.low <= row[idx] <= self.high

    def mask(self, arrays):
        nid = self._next_id[0]
        self._next_id[0] += 1
        self._store.append_rows(
            [(nid, 0.0, "fresh")], commit_ts=99
        )  # mutate mid-scan
        arr = arrays["id"]
        return (arr >= self.low) & (arr <= self.high)


class TestMidScanWrites:
    def test_scan_snapshot_ignores_mid_scan_appends(self):
        store = build_store(4, 25)
        pred = _WritingPredicate(store, 0, 10_000_000)
        before = store.segment_count()
        result = store.scan(predicate=pred)
        assert store.segment_count() > before  # the writes landed...
        assert len(result) == 100  # ...but the scan never saw them
        assert all(k < 10_000 for k in result.keys)


# ----------------------------------------------------------------- engines


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


ENGINE_SQL = [
    "SELECT o_region, COUNT(*), SUM(o_amount) FROM orders "
    "WHERE o_id < 60 GROUP BY o_region",
    "SELECT o_id, o_amount FROM orders WHERE o_amount > 6.0 ORDER BY o_id",
    "SELECT COUNT(*) FROM orders WHERE o_region = 'west'",
]


@pytest.mark.parametrize("cat", ["a", "b", "c", "d"])
def test_engine_differential_serial_vs_parallel_vs_oracle(cat):
    """All four engines' QueryResult rows equal the oracle's."""
    kwargs = {"seed": 5} if cat == "b" else {}
    engine = make_engine(cat, **kwargs)
    engine.create_table(order_schema())
    rows = [
        (i, i % 5, float(i % 9) + 0.5, ["east", "west"][i % 2])
        for i in range(150)
    ]
    engine.bulk_load("orders", rows)
    engine.force_sync()
    tables = {"orders": (order_schema(), rows)}
    for sql in ENGINE_SQL:
        assert_matches(engine.query(sql), sql, tables)


@pytest.mark.parametrize("cat", ["a", "b", "c", "d"])
def test_engine_parallel_scan_after_writes(cat):
    """MVCC freshness: an insert and a delete are visible to the column
    scan after a sync, and the result equals the oracle's."""
    kwargs = {"seed": 5} if cat == "b" else {}
    engine = make_engine(cat, **kwargs)
    engine.create_table(order_schema())
    rows = [(i, 1, float(i), "east") for i in range(80)]
    engine.bulk_load("orders", rows)
    engine.force_sync()
    engine.insert("orders", (900, 2, 42.0, "west"))
    engine.delete("orders", 3)
    engine.force_sync()
    sql = "SELECT COUNT(*), SUM(o_amount) FROM orders WHERE o_id >= 0"
    after = [r for r in rows if r[0] != 3] + [(900, 2, 42.0, "west")]
    result = engine.query(sql)
    assert result.rows[0][0] == 80
    assert_matches(result, sql, {"orders": (order_schema(), after)})
