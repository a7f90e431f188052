"""Differential tests: compressed (code-space) execution vs the oracle.

The executor keeps dictionary-encoded columns as
:class:`~repro.storage.code_batch.CodeColumn` past the scan boundary —
equi-joins, GROUP BY, and DISTINCT run on the codes, and decoding is
deferred to result emit.  ``tests/oracle`` evaluates the same queries
row-at-a-time over plain lists.  These tests prove the contract:

* results (rows, column names *and* Python value types) equal the
  oracle's, for every engine architecture and every operator mix;
* the code-space operators actually engage (counters move) rather than
  silently falling back to decode;
* MVCC still holds: snapshots pin what a scan sees even when a
  predicate writes to the store mid-query.
"""

import numpy as np
import pytest

from repro.common import Column, CostModel, DataType, Schema
from repro.common.predicate import Between
from repro.engines import make_engine
from repro.obs import get_registry
from repro.query import DualStoreTableAccess, Executor, Planner, parse
from repro.query.access import AccessPath
from repro.storage import ColumnStore
from repro.storage.code_batch import CodeColumn
from repro.storage.row_store import MVCCRowStore

from ..oracle import assert_matches

REGIONS = ["east", "north", "south", "west"]
PRIORITIES = ["high", "low", "mid"]


def orders_schema():
    return Schema(
        "orders",
        [
            Column("o_id", DataType.INT64),
            Column("o_cust", DataType.INT64),
            Column("o_region", DataType.STRING),
            Column("o_priority", DataType.STRING),
            Column("o_amount", DataType.FLOAT64),
        ],
        ["o_id"],
    )


def regions_schema():
    return Schema(
        "regions",
        [
            Column("r_id", DataType.INT64),
            Column("r_name", DataType.STRING),
            Column("r_zone", DataType.STRING),
        ],
        ["r_id"],
    )


def order_rows(n=400):
    return [
        (
            i,
            i % 23,
            REGIONS[i % len(REGIONS)],
            PRIORITIES[(i // 2) % len(PRIORITIES)],
            float(i % 97) + 0.25,
        )
        for i in range(n)
    ]


def region_rows():
    """One row per (region, branch office): region names repeat, so the
    name column clears the codec's cardinality bar and dictionary-
    encodes — the join stays in code space on both sides."""
    return [
        (i, REGIONS[i % len(REGIONS)],
         "amer" if REGIONS[i % len(REGIONS)] in ("east", "west") else "apac")
        for i in range(32)
    ]


#: The operator battery: code-space joins, GROUP BY, DISTINCT, HAVING,
#: code-space predicates, late materialization under ORDER BY/LIMIT,
#: and float SUM/AVG.
SQL = [
    "SELECT o_region, COUNT(*) FROM orders GROUP BY o_region",
    "SELECT o_region, o_priority, COUNT(*), SUM(o_cust) FROM orders "
    "GROUP BY o_region, o_priority ORDER BY o_region, o_priority",
    "SELECT o_priority, MIN(o_region), MAX(o_region) FROM orders "
    "GROUP BY o_priority",
    "SELECT o_region, SUM(o_amount), AVG(o_amount) FROM orders "
    "GROUP BY o_region ORDER BY o_region",
    "SELECT o_region, COUNT(*) FROM orders GROUP BY o_region "
    "HAVING COUNT(*) > 10",
    "SELECT DISTINCT o_region FROM orders",
    "SELECT DISTINCT o_region, o_priority FROM orders "
    "ORDER BY o_region, o_priority",
    "SELECT o_id, o_region FROM orders WHERE o_region = 'west' "
    "ORDER BY o_id LIMIT 9",
    "SELECT o_id, o_priority FROM orders WHERE o_id < 50 ORDER BY o_id",
    "SELECT o_id, r_zone FROM orders JOIN regions ON o_region = r_name "
    "ORDER BY o_id LIMIT 11",
    "SELECT r_zone, COUNT(*), SUM(o_cust) FROM orders "
    "JOIN regions ON o_region = r_name GROUP BY r_zone",
    "SELECT DISTINCT r_zone, o_priority FROM orders "
    "JOIN regions ON o_region = r_name",
]


def oracle_tables(orders):
    return {
        "orders": (orders_schema(), orders),
        "regions": (regions_schema(), region_rows()),
    }


def build_reference_catalog(n=400):
    """Dual-store tables whose string columns dictionary-encode."""
    cost = CostModel()
    catalog = {}
    for schema, rows in (
        (orders_schema(), order_rows(n)),
        (regions_schema(), region_rows()),
    ):
        row_store = MVCCRowStore(schema, cost)
        column_store = ColumnStore(schema, cost)
        for row in rows:
            row_store.install_insert(row, commit_ts=1)
        # Several sealed segments so dictionaries merge across them.
        for start in range(0, len(rows), 100):
            column_store.append_rows(rows[start:start + 100], commit_ts=1)
        catalog[schema.table_name] = DualStoreTableAccess(
            row_store, column_store, cost
        )
    return catalog, cost


@pytest.fixture()
def env():
    catalog, cost = build_reference_catalog()
    return catalog, Planner(catalog, cost), cost


# ------------------------------------------------------- reference catalog


class TestCompressedVsOracle:
    @pytest.mark.parametrize("idx", range(len(SQL)))
    def test_rows_and_types_identical(self, env, idx):
        catalog, planner, _cost = env
        plan = planner.plan(parse(SQL[idx]))
        result = Executor(catalog, CostModel()).execute(plan)
        assert_matches(result, SQL[idx], oracle_tables(order_rows()))

    @pytest.mark.parametrize("idx", range(len(SQL)))
    def test_identical_under_forced_column_scans(self, env, idx):
        """Force COLUMN_SCAN everywhere so even the tiny dimension table
        arrives encoded — the both-sides-CodeColumn join shape."""
        catalog, _planner, cost = env
        planner = Planner(catalog, cost, force_path=AccessPath.COLUMN_SCAN)
        plan = planner.plan(parse(SQL[idx]))
        result = Executor(catalog, CostModel()).execute(plan)
        assert_matches(result, SQL[idx], oracle_tables(order_rows()))

    def test_code_space_operators_engage(self, env):
        """The compressed run must hit the code-space kernels — a silent
        decode fallback would pass the differential tests trivially.
        COLUMN_SCAN is forced so the dimension side arrives encoded."""
        catalog, _planner, cost = env
        planner = Planner(catalog, cost, force_path=AccessPath.COLUMN_SCAN)
        reg = get_registry()
        before = {
            name: reg.counter_total(name)
            for name in (
                "exec.code_space_joins",
                "exec.code_space_groups",
                "exec.code_space_distincts",
            )
        }
        executor = Executor(catalog, CostModel())
        for sql in SQL:
            executor.execute(planner.plan(parse(sql)))
        for name, was in before.items():
            assert reg.counter_total(name) > was, name

    def test_encoded_scan_returns_code_columns(self, env):
        catalog, _planner, _cost = env
        from repro.common.predicate import ALWAYS_TRUE

        batch = catalog["orders"].scan_columns(
            ["o_region", "o_amount"], ALWAYS_TRUE
        )
        assert isinstance(batch["o_region"], CodeColumn)
        assert not isinstance(batch["o_amount"], CodeColumn)
        np.testing.assert_array_equal(
            batch["o_region"].decode(),
            catalog["orders"].column_store.scan(["o_region"]).arrays["o_region"],
        )

    def test_code_space_hint_fraction(self, env):
        catalog, _planner, _cost = env
        adapter = catalog["orders"]
        assert adapter.code_space_hint(["o_region", "o_priority"]) == 1.0
        assert adapter.code_space_hint(["o_amount"]) == 0.0
        assert 0.0 < adapter.code_space_hint(["o_region", "o_amount"]) < 1.0


# ----------------------------------------------------------------- engines


@pytest.mark.parametrize("cat", ["a", "b", "c", "d"])
class TestEngineDifferential:
    def _engine(self, cat):
        kwargs = {"seed": 5} if cat == "b" else {}
        engine = make_engine(cat, **kwargs)
        engine.create_table(orders_schema())
        engine.create_table(regions_schema())
        engine.bulk_load("orders", order_rows(300))
        engine.bulk_load("regions", region_rows())
        engine.force_sync()
        return engine

    def test_compressed_matches_oracle(self, cat):
        engine = self._engine(cat)
        tables = oracle_tables(order_rows(300))
        for sql in SQL:
            assert_matches(engine.query(sql), sql, tables)

    def test_freshness_after_writes(self, cat):
        """MVCC freshness: writes are visible with and without a sync
        in between."""
        engine = self._engine(cat)
        sql = (
            "SELECT o_region, COUNT(*), SUM(o_cust) FROM orders "
            "GROUP BY o_region ORDER BY o_region"
        )
        engine.insert("orders", (9_000, 3, "west", "high", 1.5))
        engine.insert("orders", (9_001, 4, "east", "low", 2.5))
        engine.delete("orders", 7)
        fresh = [r for r in order_rows(300) if r[0] != 7]
        fresh += [(9_000, 3, "west", "high", 1.5), (9_001, 4, "east", "low", 2.5)]
        # (b)'s learner replica lags until replication drains — the
        # architecture's freshness trade-off: before the sync it still
        # serves the pre-write image.
        before_sync = order_rows(300) if cat == "b" else fresh
        for rows in (before_sync, fresh):
            assert_matches(engine.query(sql), sql, oracle_tables(rows))
            engine.force_sync()


# ------------------------------------------------------------------- MVCC


class _WritingPredicate(Between):
    """Adversarial range predicate whose evaluation appends rows to the
    store — a concurrent writer landing mid-scan.  The scan's snapshot
    discipline must keep the in-flight query blind to the new rows."""

    def __init__(self, store, column, low, high):
        super().__init__(column, low, high)
        self._store = store
        self._next_id = [50_000]

    def mask(self, arrays):
        nid = self._next_id[0]
        self._next_id[0] += 1
        self._store.append_rows(
            [(nid, 1, "east", "mid", 0.5)], commit_ts=99
        )
        return super().mask(arrays)


class TestMidScanWrites:
    def _store(self):
        store = ColumnStore(orders_schema(), CostModel())
        rows = order_rows(200)
        for start in range(0, len(rows), 50):
            store.append_rows(rows[start:start + 50], commit_ts=1)
        return store

    def test_encoded_scan_snapshot_ignores_mid_scan_appends(self):
        store = self._store()
        pred = _WritingPredicate(store, "o_id", 0, 10_000)
        before = store.segment_count()
        result = store.scan(
            ["o_id", "o_region"], pred, with_keys=False, encode=True
        )
        assert store.segment_count() > before  # the writes landed...
        assert len(result) == 200              # ...unseen by the scan
        assert isinstance(result.arrays["o_region"], CodeColumn)
        assert max(result.arrays["o_id"].tolist()) < 50_000
