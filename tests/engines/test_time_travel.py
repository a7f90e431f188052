"""Time-travel (AS OF) analytics on the MVCC architecture."""

import pytest

from repro.engines import RowIMCSEngine
from repro.common import Column, DataType, Schema


def setup_engine():
    engine = RowIMCSEngine()
    engine.create_table(
        Schema(
            "acct",
            [Column("id", DataType.INT64), Column("bal", DataType.FLOAT64)],
            ["id"],
        )
    )
    marks = {}
    for i in range(5):
        engine.insert("acct", (i, 100.0))
    marks["loaded"] = engine.clock.now()
    with engine.session() as s:
        s.update("acct", (0, 40.0))
        s.update("acct", (1, 160.0))
    marks["transfer"] = engine.clock.now()
    engine.delete("acct", 4)
    marks["deleted"] = engine.clock.now()
    return engine, marks


class TestTimeTravel:
    def test_past_sum_reflects_old_balances(self):
        engine, marks = setup_engine()
        past = engine.time_travel_query("SELECT SUM(bal) FROM acct", marks["loaded"])
        assert past.scalar() == pytest.approx(500.0)
        now = engine.query("SELECT SUM(bal) FROM acct")
        assert now.scalar() == pytest.approx(400.0)

    def test_deleted_row_visible_in_the_past(self):
        engine, marks = setup_engine()
        past = engine.time_travel_query("SELECT COUNT(*) FROM acct", marks["transfer"])
        assert past.scalar() == 5
        assert engine.query("SELECT COUNT(*) FROM acct").scalar() == 4

    def test_point_read_as_of(self):
        engine, marks = setup_engine()
        past = engine.time_travel_query(
            "SELECT bal FROM acct WHERE id = 0", marks["loaded"]
        )
        assert past.rows == [(100.0,)]

    def test_override_is_restored_after_query(self):
        engine, marks = setup_engine()
        engine.time_travel_query("SELECT COUNT(*) FROM acct", marks["loaded"])
        assert engine.read_snapshot_ts() == engine.clock.now()

    def test_vacuum_limits_history(self):
        engine, marks = setup_engine()
        engine.vacuum()
        past = engine.time_travel_query("SELECT SUM(bal) FROM acct", marks["loaded"])
        # Old versions reclaimed: the historical answer is gone (only
        # current versions remain) — exactly undo-retention semantics.
        assert past.scalar() != pytest.approx(500.0)
