"""Deterministic segment-parallel scans.

The pool's contract: a parallel scan is *byte-identical* to the serial
one — same arrays, same keys, same simulated cost — because results
merge in submission (segment-id) order and segment tasks accumulate
their charges off the shared clock.  These tests also drive the nasty
cases: MVCC snapshots, mid-scan writes through an adversarial
predicate, and all four engines under a shared pool.
"""

import threading
import time

import numpy as np
import pytest

from repro.common import Column, CostModel, DataType, Schema
from repro.common.predicate import Between, Comparison, Predicate
from repro.engines import make_engine
from repro.parallel import (
    OrderedSegmentPool,
    get_default_pool,
    scan_parallel,
    set_default_pool,
)
from repro.storage import ColumnStore, scan_mode

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


# ----------------------------------------------------------------- the pool


class TestOrderedSegmentPool:
    def test_results_preserve_submission_order(self):
        # Early items sleep longest, so completion order is reversed —
        # the merge must still return submission order.
        with OrderedSegmentPool(workers=4) as pool:
            out = pool.map_ordered(
                lambda ms: (time.sleep(ms / 1000.0), ms)[1], [30, 20, 10, 0]
            )
        assert out == [30, 20, 10, 0]

    def test_single_item_runs_inline(self):
        pool = OrderedSegmentPool(workers=4)
        main = threading.get_ident()
        threads = pool.map_ordered(lambda _x: threading.get_ident(), [1])
        assert threads == [main]
        assert pool._executor is None  # never spun up
        pool.close()

    def test_one_worker_runs_inline(self):
        pool = OrderedSegmentPool(workers=1)
        main = threading.get_ident()
        assert pool.map_ordered(lambda _x: threading.get_ident(), [1, 2, 3]) == [
            main
        ] * 3
        pool.close()

    def test_counts_tasks(self):
        with OrderedSegmentPool(workers=2) as pool:
            pool.map_ordered(lambda x: x, range(5))
            pool.map_ordered(lambda x: x, range(3))
            assert pool.tasks_run == 8

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            OrderedSegmentPool(workers=0)

    def test_scan_parallel_installs_and_restores(self):
        assert get_default_pool() is None
        with scan_parallel(workers=2) as pool:
            assert get_default_pool() is pool
            with scan_parallel(workers=3) as inner:
                assert get_default_pool() is inner
            assert get_default_pool() is pool
        assert get_default_pool() is None

    def test_set_default_pool_returns_previous(self):
        pool = OrderedSegmentPool(workers=2)
        assert set_default_pool(pool) is None
        assert set_default_pool(None) is pool
        pool.close()


# ----------------------------------------------------------------- store scans


def assert_results_identical(a, b):
    assert set(a.arrays) == set(b.arrays)
    for name in a.arrays:
        assert a.arrays[name].dtype == b.arrays[name].dtype
        np.testing.assert_array_equal(a.arrays[name], b.arrays[name])
    assert a.keys == b.keys
    assert a.segments_scanned == b.segments_scanned
    assert a.segments_pruned == b.segments_pruned


class TestParallelStoreScans:
    PREDICATES = [
        Between("id", 60, 260),
        Comparison("value", ">", 5.0),
        Comparison("tag", "=", "tag1") & Comparison("id", "<", 300),
    ]

    @pytest.mark.parametrize("idx", range(len(PREDICATES)))
    def test_parallel_equals_serial_bytes_and_cost(self, idx):
        pred = self.PREDICATES[idx]
        store = build_store()
        c0 = store._cost.now_us()
        serial = store.scan(predicate=pred, parallel=False)
        serial_cost = store._cost.now_us() - c0
        with scan_parallel(workers=4):
            c0 = store._cost.now_us()
            parallel = store.scan(predicate=pred)
            parallel_cost = store._cost.now_us() - c0
        assert_results_identical(serial, parallel)
        assert serial_cost == parallel_cost  # simulated-cost parity

    def test_parallel_without_pool_is_serial(self):
        store = build_store()
        assert get_default_pool() is None
        result = store.scan(predicate=Between("id", 0, 99))  # parallel default on
        assert len(result) == 100

    def test_pool_actually_used(self):
        store = build_store()
        with scan_parallel(workers=4) as pool:
            store.scan(predicate=Comparison("value", ">=", 0.0))
            assert pool.tasks_run >= 2

    def test_with_keys_false_parallel(self):
        store = build_store()
        with scan_parallel(workers=4):
            result = store.scan(predicate=Between("id", 60, 260), with_keys=False)
        assert result.keys is None
        ref = store.scan(predicate=Between("id", 60, 260), with_keys=False,
                         parallel=False)
        np.testing.assert_array_equal(result.arrays["id"], ref.arrays["id"])


class _WritingPredicate(Predicate):
    """Adversarial predicate: appends rows to the store mid-scan.

    Its mask is a plain range filter, but evaluating it mutates the
    store — modeling a concurrent writer landing between segment tasks.
    The scan's segment-list snapshot must make the in-flight scan blind
    to the new segment.
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
        # One worker: deterministic interleaving of scan and writes.
        with scan_parallel(workers=1):
            result = store.scan(predicate=pred)
        assert store.segment_count() > before  # the writes landed...
        assert len(result) == 100  # ...but the scan never saw them
        assert all(k < 10_000 for k in result.keys)

    def test_serial_and_parallel_agree_under_mid_scan_writes(self):
        results = []
        for workers in (None, 1):  # None: no pool (serial path)
            store = build_store(4, 25)
            pred = _WritingPredicate(store, 30, 70)
            if workers is None:
                results.append(store.scan(predicate=pred, parallel=False))
            else:
                with scan_parallel(workers=workers):
                    results.append(store.scan(predicate=pred))
        assert_results_identical(results[0], results[1])


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
    """All four engines: serial and parallel scans must produce
    identical QueryResult rows, equal to the oracle's."""
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
        serial = engine.query(sql)
        with scan_parallel(workers=4):
            parallel = engine.query(sql)
        assert serial.rows == parallel.rows, sql
        assert_matches(serial, sql, tables)


@pytest.mark.parametrize("cat", ["a", "b", "c", "d"])
def test_engine_parallel_scan_after_writes(cat):
    """MVCC freshness: writes between scans are visible to both modes
    identically."""
    kwargs = {"seed": 5} if cat == "b" else {}
    engine = make_engine(cat, **kwargs)
    engine.create_table(order_schema())
    engine.bulk_load(
        "orders",
        [(i, 1, float(i), "east") for i in range(80)],
    )
    engine.force_sync()
    engine.insert("orders", (900, 2, 42.0, "west"))
    engine.delete("orders", 3)
    engine.force_sync()
    sql = "SELECT COUNT(*), SUM(o_amount) FROM orders WHERE o_id >= 0"
    serial = engine.query(sql).rows
    with scan_parallel(workers=4):
        parallel = engine.query(sql).rows
    assert serial == parallel
