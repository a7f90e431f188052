"""Crash recovery at engine level: replay the WAL, compare states."""

import pytest

from repro.bench import TpccLoader, TpccScale, TpccWorkload, tpcc_schemas
from repro.engines import ColumnDeltaEngine, DiskRowIMCSEngine, RowIMCSEngine

SCALE = TpccScale(
    warehouses=1, districts=2, customers=10, items=25, initial_orders=6, suppliers=5
)

CHECK_SQL = [
    "SELECT COUNT(*) FROM order_line",
    "SELECT SUM(w_ytd) FROM warehouse",
    "SELECT SUM(c_balance) FROM customer",
    "SELECT SUM(s_ytd) FROM stock",
]


def churn(engine, n=60):
    TpccLoader(scale=SCALE, seed=5).load(engine)
    TpccWorkload(engine, SCALE, seed=9).run_many(n)


def checkpoints(engine):
    return [engine.query(sql).rows[0][0] for sql in CHECK_SQL]


class TestRowImcsRecovery:
    def test_wal_replay_reproduces_snapshot(self):
        engine = RowIMCSEngine()
        churn(engine)
        # The live engine includes commits still in the group-commit
        # tail, so this replays the full log: it checks that logging is
        # complete, not crash durability.
        recovered = RowIMCSEngine.recover(
            engine.wal, tpcc_schemas(), include_unforced=True
        )
        now = engine.clock.now()
        for t in engine.catalog:
            assert sorted(recovered.store(t).snapshot_rows(now)) == sorted(
                engine.store(t).snapshot_rows(now)
            )
        assert checkpoints(recovered) == pytest.approx(checkpoints(engine))

    def test_recovered_store_counts(self):
        engine = RowIMCSEngine()
        churn(engine)
        # Clean shutdown: flush the group-commit tail so the full state
        # is durable before replay.
        engine.wal.force()
        recovered = RowIMCSEngine.recover(engine.wal, tpcc_schemas())
        now = engine.clock.now()
        for t in engine.catalog:
            assert len(recovered.store(t).snapshot_rows(now)) == len(
                engine.store(t).snapshot_rows(now)
            )


class TestHanaRecovery:
    def test_recover_matches_live_engine(self):
        live = ColumnDeltaEngine()
        churn(live)
        live.wal.force()  # clean shutdown: make the tail durable
        expected = checkpoints(live)
        recovered = ColumnDeltaEngine.recover(live.wal, tpcc_schemas())
        assert checkpoints(recovered) == pytest.approx(expected)

    def test_losers_not_replayed(self):
        live = ColumnDeltaEngine()
        TpccLoader(scale=SCALE, seed=5).load(live)
        s = live.session()
        s.insert("item", (9_999, 1, "ghost", 1.0, "x"))
        s.abort()
        recovered = ColumnDeltaEngine.recover(live.wal, tpcc_schemas())
        with recovered.session() as check:
            assert check.read("item", 9_999) is None
            check.abort()


class TestHeatwaveRecovery:
    def test_recover_matches_live_engine(self):
        live = DiskRowIMCSEngine()
        churn(live)
        live.force_sync()
        live.wal.force()  # clean shutdown: make the tail durable
        expected = checkpoints(live)
        recovered = DiskRowIMCSEngine.recover(live.wal, tpcc_schemas())
        assert checkpoints(recovered) == pytest.approx(expected)

    def test_recovery_continues_serving(self):
        live = DiskRowIMCSEngine()
        churn(live, n=30)
        live.wal.force()
        recovered = DiskRowIMCSEngine.recover(live.wal, tpcc_schemas())
        # The recovered engine accepts new transactions immediately.
        TpccWorkload(recovered, SCALE, seed=77).run_many(10)
        assert recovered.commits > 0
