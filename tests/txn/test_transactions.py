"""Snapshot isolation semantics, conflicts, WAL, recovery."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import (
    Column,
    DataType,
    DuplicateKeyError,
    KeyNotFoundError,
    Schema,
    TransactionError,
    WriteConflictError,
)
from repro.txn import (
    TransactionManager,
    TxnStatus,
    WalKind,
    recover,
    verify_recovery,
)

from ..conftest import populate, simple_schema


class TestBasicLifecycle:
    def test_insert_commit_read(self, txn_manager):
        t1 = txn_manager.begin()
        t1.insert("t", (1, 1.0, "a"))
        ts = txn_manager.commit(t1)
        t2 = txn_manager.begin()
        assert t2.read("t", 1) == (1, 1.0, "a")
        assert t2.begin_ts >= ts

    def test_abort_discards_writes(self, txn_manager):
        t1 = txn_manager.begin()
        t1.insert("t", (1, 1.0, "a"))
        txn_manager.abort(t1)
        t2 = txn_manager.begin()
        assert t2.read("t", 1) is None

    def test_use_after_commit_rejected(self, txn_manager):
        t1 = txn_manager.begin()
        txn_manager.commit(t1)
        with pytest.raises(TransactionError):
            t1.insert("t", (1, 1.0, "a"))

    def test_read_your_own_writes(self, txn_manager):
        t1 = txn_manager.begin()
        t1.insert("t", (1, 1.0, "a"))
        assert t1.read("t", 1) == (1, 1.0, "a")
        t1.update("t", (1, 2.0, "b"))
        assert t1.read("t", 1) == (1, 2.0, "b")
        t1.delete("t", 1)
        assert t1.read("t", 1) is None

    def test_duplicate_insert_within_txn(self, txn_manager):
        t1 = txn_manager.begin()
        t1.insert("t", (1, 1.0, "a"))
        with pytest.raises(DuplicateKeyError):
            t1.insert("t", (1, 2.0, "b"))

    def test_update_missing_rejected(self, txn_manager):
        t1 = txn_manager.begin()
        with pytest.raises(KeyNotFoundError):
            t1.update("t", (9, 1.0, "x"))

    def test_unknown_table(self, txn_manager):
        t1 = txn_manager.begin()
        with pytest.raises(KeyNotFoundError):
            t1.read("missing", 1)


class TestSnapshotIsolation:
    def test_no_dirty_reads(self, txn_manager):
        populate(txn_manager, "t", 3)
        writer = txn_manager.begin()
        writer.update("t", (1, 99.0, "dirty"))
        reader = txn_manager.begin()
        assert reader.read("t", 1) == (1, 2.0, "tag1")

    def test_repeatable_reads(self, txn_manager):
        populate(txn_manager, "t", 3)
        reader = txn_manager.begin()
        first = reader.read("t", 1)
        writer = txn_manager.begin()
        writer.update("t", (1, 99.0, "x"))
        txn_manager.commit(writer)
        assert reader.read("t", 1) == first

    def test_snapshot_scan_stable(self, txn_manager):
        populate(txn_manager, "t", 5)
        reader = txn_manager.begin()
        before = len(reader.scan("t"))
        writer = txn_manager.begin()
        writer.insert("t", (100, 1.0, "new"))
        txn_manager.commit(writer)
        assert len(reader.scan("t")) == before

    def test_first_committer_wins(self, txn_manager):
        populate(txn_manager, "t", 3)
        t1 = txn_manager.begin()
        t2 = txn_manager.begin()
        t1.update("t", (1, 10.0, "t1"))
        t2.update("t", (1, 20.0, "t2"))
        txn_manager.commit(t1)
        with pytest.raises(WriteConflictError):
            txn_manager.commit(t2)
        assert t2.status is TxnStatus.ABORTED
        assert txn_manager.conflicts == 1

    def test_disjoint_writes_both_commit(self, txn_manager):
        populate(txn_manager, "t", 3)
        t1 = txn_manager.begin()
        t2 = txn_manager.begin()
        t1.update("t", (1, 10.0, "t1"))
        t2.update("t", (2, 20.0, "t2"))
        txn_manager.commit(t1)
        txn_manager.commit(t2)
        t3 = txn_manager.begin()
        assert t3.read("t", 1)[1] == 10.0
        assert t3.read("t", 2)[1] == 20.0

    def test_write_skew_is_allowed_under_si(self, txn_manager):
        """SI (not serializable): disjoint-write skew commits."""
        populate(txn_manager, "t", 2)
        t1 = txn_manager.begin()
        t2 = txn_manager.begin()
        # Each reads the other's row, writes its own: allowed under SI.
        t1.read("t", 1)
        t2.read("t", 0)
        t1.update("t", (0, -1.0, "skew"))
        t2.update("t", (1, -1.0, "skew"))
        txn_manager.commit(t1)
        txn_manager.commit(t2)  # no exception

    def test_insert_then_delete_is_noop(self, txn_manager):
        t1 = txn_manager.begin()
        t1.insert("t", (50, 1.0, "temp"))
        t1.delete("t", 50)
        txn_manager.commit(t1)
        t2 = txn_manager.begin()
        assert t2.read("t", 50) is None
        assert txn_manager.store("t").version_count() == 0

    def test_delete_then_insert_is_update(self, txn_manager):
        populate(txn_manager, "t", 1)
        t1 = txn_manager.begin()
        t1.delete("t", 0)
        t1.insert("t", (0, 42.0, "re"))
        txn_manager.commit(t1)
        t2 = txn_manager.begin()
        assert t2.read("t", 0) == (0, 42.0, "re")

    def test_insert_delete_insert_is_insert(self, txn_manager):
        t1 = txn_manager.begin()
        t1.insert("t", (50, 1.0, "a"))
        t1.delete("t", 50)
        t1.insert("t", (50, 2.0, "b"))
        txn_manager.commit(t1)
        t2 = txn_manager.begin()
        assert t2.read("t", 50) == (50, 2.0, "b")
        assert txn_manager.store("t").version_count() == 1

    def test_scan_merges_own_writes(self, txn_manager):
        populate(txn_manager, "t", 3)
        t1 = txn_manager.begin()
        t1.insert("t", (10, 5.0, "mine"))
        t1.delete("t", 0)
        rows = t1.scan("t")
        keys = sorted(r[0] for r in rows)
        assert keys == [1, 2, 10]


class TestRunHelper:
    def test_run_retries_on_conflict(self, txn_manager):
        populate(txn_manager, "t", 1)
        attempts = []

        def work(txn):
            attempts.append(1)
            row = txn.read("t", 0)
            if len(attempts) == 1:
                # Interleave a conflicting commit on first attempt.
                other = txn_manager.begin()
                other.update("t", (0, 77.0, "other"))
                txn_manager.commit(other)
            txn.update("t", (0, row[1] + 1.0, "mine"))

        txn_manager.run(work)
        assert len(attempts) == 2
        check = txn_manager.begin()
        assert check.read("t", 0)[1] == 78.0


class TestWalAndRecovery:
    def test_wal_records_committed_work(self, txn_manager):
        populate(txn_manager, "t", 2)
        kinds = [r.kind for r in txn_manager.wal.records]
        assert WalKind.BEGIN in kinds
        assert WalKind.COMMIT in kinds
        assert kinds.count(WalKind.INSERT) == 2

    def test_recovery_round_trip(self, txn_manager):
        populate(txn_manager, "t", 10)
        t = txn_manager.begin()
        t.update("t", (3, -3.0, "upd"))
        t.delete("t", 7)
        txn_manager.commit(t)
        assert verify_recovery(
            txn_manager.wal, {"t": txn_manager.store("t")}, txn_manager.clock.now()
        )

    def test_recovery_ignores_losers(self, txn_manager):
        populate(txn_manager, "t", 2)
        loser = txn_manager.begin()
        loser.insert("t", (99, 9.0, "loser"))
        txn_manager.abort(loser)
        stores = recover(txn_manager.wal, {"t": simple_schema()})
        assert stores["t"].read(99, txn_manager.clock.now()) is None
        assert stores["t"].read(0, txn_manager.clock.now()) is not None

    def test_group_commit_batches_fsyncs(self):
        from repro.txn import WriteAheadLog
        from repro.common import CostModel

        cost = CostModel()
        manager = TransactionManager(
            cost=cost, wal=WriteAheadLog(cost=cost, group_commit_size=4)
        )
        manager.create_table(simple_schema())
        for i in range(8):
            manager.autocommit_insert("t", (i, 1.0, "x"))
        assert manager.wal.fsyncs == 2

    def test_vacuum_all(self, txn_manager):
        populate(txn_manager, "t", 1)
        for i in range(5):
            t = txn_manager.begin()
            t.update("t", (0, float(i), "v"))
            txn_manager.commit(t)
        reclaimed = txn_manager.vacuum_all()
        assert reclaimed == 5


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["insert", "update", "delete"]), st.integers(0, 8)),
        max_size=40,
    )
)
def test_serial_txns_match_dict_model(ops):
    """A serial stream of single-op transactions equals a dict model."""
    manager = TransactionManager()
    manager.create_table(simple_schema())
    model: dict[int, tuple] = {}
    for op, key in ops:
        txn = manager.begin()
        row = (key, float(key), "x")
        try:
            if op == "insert":
                txn.insert("t", row)
                model_op = ("set", key, row)
            elif op == "update":
                txn.update("t", row)
                model_op = ("set", key, row)
            else:
                txn.delete("t", key)
                model_op = ("del", key, None)
            manager.commit(txn)
        except (DuplicateKeyError, KeyNotFoundError):
            manager.abort(txn)
            continue
        if model_op[0] == "set":
            model[key] = row
        else:
            model.pop(key, None)
    final = manager.begin()
    got = {r[0]: r for r in final.scan("t")}
    assert got == model
