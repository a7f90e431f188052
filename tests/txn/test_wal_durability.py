"""The WAL durability contract under group commit.

A commit sitting in the unforced group-commit tail is visible on the
live instance but is NOT durable: crash recovery must drop it unless
the caller explicitly opts into replaying the unforced tail (e.g. to
verify logging completeness against a live engine).
"""

import pytest

from repro.common import Column, DataType, Schema
from repro.engines import RowIMCSEngine
from repro.txn.wal import WalKind, WriteAheadLog


def make_schema():
    return Schema(
        "acct",
        [Column("id", DataType.INT64), Column("bal", DataType.FLOAT64)],
        ["id"],
    )


def make_engine(group_commit_size: int) -> RowIMCSEngine:
    engine = RowIMCSEngine(group_commit_size=group_commit_size)
    engine.create_table(make_schema())
    return engine


def recovered_keys(engine: RowIMCSEngine, **kwargs) -> set:
    """Keys of the engine rebuilt from ``engine``'s log."""
    recovered = RowIMCSEngine.recover(engine.wal, [make_schema()], **kwargs)
    return {r[0] for r in recovered.store("acct").snapshot_rows(engine.clock.now())}


class TestDurableLsn:
    def test_force_advances_durable_lsn_to_tail(self):
        wal = WriteAheadLog(group_commit_size=8)
        wal.append(1, WalKind.BEGIN)
        wal.append(1, WalKind.INSERT, "acct", 1, (1, 1.0), 1)
        wal.append(1, WalKind.COMMIT, commit_ts=1)
        assert wal.durable_lsn == 0
        assert wal.unforced_commits() == 1
        wal.force()
        assert wal.durable_lsn == wal.tail_lsn()
        assert wal.unforced_commits() == 0

    def test_group_commit_auto_forces_at_batch_size(self):
        wal = WriteAheadLog(group_commit_size=2)
        wal.append(1, WalKind.COMMIT, commit_ts=1)
        assert wal.fsyncs == 0
        wal.append(2, WalKind.COMMIT, commit_ts=2)
        assert wal.fsyncs == 1
        assert wal.durable_lsn == wal.tail_lsn()

    def test_abort_does_not_count_toward_the_batch(self):
        """An aborted txn installs nothing, so it must not burn a
        group-commit slot (or trigger someone else's fsync early)."""
        wal = WriteAheadLog(group_commit_size=2)
        wal.append(1, WalKind.COMMIT, commit_ts=1)
        wal.append(2, WalKind.ABORT)
        wal.append(3, WalKind.ABORT)
        assert wal.fsyncs == 0
        assert wal.unforced_commits() == 1
        wal.append(4, WalKind.COMMIT, commit_ts=2)
        assert wal.fsyncs == 1

    def test_force_with_empty_batch_is_free(self):
        wal = WriteAheadLog()
        wal.append(1, WalKind.COMMIT, commit_ts=1)  # size 1: auto-forced
        fsyncs = wal.fsyncs
        wal.force()
        assert wal.fsyncs == fsyncs

    def test_records_view_is_immutable(self):
        wal = WriteAheadLog()
        wal.append(1, WalKind.BEGIN)
        view = wal.records
        assert isinstance(view, tuple)
        with pytest.raises((TypeError, AttributeError)):
            view.append("smuggled")

    def test_durable_txn_ids_excludes_unforced_tail(self):
        wal = WriteAheadLog(group_commit_size=2)
        wal.append(1, WalKind.COMMIT, commit_ts=1)
        wal.append(2, WalKind.COMMIT, commit_ts=2)  # forces: 1, 2 durable
        wal.append(3, WalKind.COMMIT, commit_ts=3)  # unforced tail
        assert wal.committed_txn_ids() == {1, 2, 3}
        assert wal.durable_txn_ids() == {1, 2}


class TestCrashRecovery:
    def test_unforced_commits_are_not_replayed_by_default(self):
        engine = make_engine(group_commit_size=4)
        for i in range(6):
            engine.insert("acct", (i, float(i)))
        # 4 commits filled one batch (durable); 2 sit unforced.
        assert engine.wal.unforced_commits() == 2
        assert recovered_keys(engine) == {0, 1, 2, 3}

    def test_include_unforced_replays_the_tail(self):
        engine = make_engine(group_commit_size=4)
        for i in range(6):
            engine.insert("acct", (i, float(i)))
        assert len(recovered_keys(engine, include_unforced=True)) == 6

    def test_clean_shutdown_loses_nothing(self):
        engine = make_engine(group_commit_size=4)
        for i in range(6):
            engine.insert("acct", (i, float(i)))
        engine.wal.force()  # clean shutdown flushes the tail
        assert len(recovered_keys(engine)) == 6

    def test_aborted_txn_never_recovered_even_with_unforced(self):
        engine = make_engine(group_commit_size=4)
        engine.insert("acct", (1, 1.0))
        txn = engine.session()
        txn.insert("acct", (2, 2.0))
        txn.abort()
        assert recovered_keys(engine, include_unforced=True) == {1}
