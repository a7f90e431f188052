"""Snapshot isolation semantics, conflicts, WAL, recovery — engine (a)'s
sessions, the MVCC + logging technique of Table 2."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import (
    DuplicateKeyAborted,
    DuplicateKeyError,
    KeyNotFoundError,
    TransactionError,
    WriteConflictError,
)
from repro.engines import RowIMCSEngine
from repro.obs import get_registry
from repro.txn import WalKind, coalesce_writes

from ..conftest import populate, simple_schema


def snapshot(engine: RowIMCSEngine, table: str = "t") -> list[tuple]:
    return sorted(engine.store(table).snapshot_rows(engine.clock.now()))


class TestBasicLifecycle:
    def test_insert_commit_read(self, mvcc_engine):
        t1 = mvcc_engine.session()
        t1.insert("t", (1, 1.0, "a"))
        ts = t1.commit()
        t2 = mvcc_engine.session()
        assert t2.read("t", 1) == (1, 1.0, "a")
        assert t2.read_ts >= ts

    def test_abort_discards_writes(self, mvcc_engine):
        t1 = mvcc_engine.session()
        t1.insert("t", (1, 1.0, "a"))
        t1.abort()
        t2 = mvcc_engine.session()
        assert t2.read("t", 1) is None

    def test_use_after_commit_rejected(self, mvcc_engine):
        t1 = mvcc_engine.session()
        t1.commit()
        with pytest.raises(TransactionError):
            t1.insert("t", (1, 1.0, "a"))

    def test_read_your_own_writes(self, mvcc_engine):
        t1 = mvcc_engine.session()
        t1.insert("t", (1, 1.0, "a"))
        assert t1.read("t", 1) == (1, 1.0, "a")
        t1.update("t", (1, 2.0, "b"))
        assert t1.read("t", 1) == (1, 2.0, "b")
        t1.delete("t", 1)
        assert t1.read("t", 1) is None

    def test_duplicate_insert_within_txn(self, mvcc_engine):
        t1 = mvcc_engine.session()
        t1.insert("t", (1, 1.0, "a"))
        with pytest.raises(DuplicateKeyError):
            t1.insert("t", (1, 2.0, "b"))

    def test_update_missing_rejected(self, mvcc_engine):
        t1 = mvcc_engine.session()
        with pytest.raises(KeyNotFoundError):
            t1.update("t", (9, 1.0, "x"))

    def test_unknown_table(self, mvcc_engine):
        t1 = mvcc_engine.session()
        with pytest.raises(KeyNotFoundError):
            t1.read("missing", 1)


class TestSnapshotIsolation:
    def test_no_dirty_reads(self, mvcc_engine):
        populate(mvcc_engine, "t", 3)
        writer = mvcc_engine.session()
        writer.update("t", (1, 99.0, "dirty"))
        reader = mvcc_engine.session()
        assert reader.read("t", 1) == (1, 2.0, "tag1")

    def test_repeatable_reads(self, mvcc_engine):
        populate(mvcc_engine, "t", 3)
        reader = mvcc_engine.session()
        first = reader.read("t", 1)
        writer = mvcc_engine.session()
        writer.update("t", (1, 99.0, "x"))
        writer.commit()
        assert reader.read("t", 1) == first

    def test_snapshot_scan_stable(self, mvcc_engine):
        populate(mvcc_engine, "t", 5)
        reader = mvcc_engine.session()
        before = len(reader.scan("t"))
        writer = mvcc_engine.session()
        writer.insert("t", (100, 1.0, "new"))
        writer.commit()
        assert len(reader.scan("t")) == before

    def test_first_committer_wins(self, mvcc_engine):
        populate(mvcc_engine, "t", 3)
        conflicts = get_registry().counter("txn.conflicts", engine=mvcc_engine.info.name)
        before = conflicts.value
        t1 = mvcc_engine.session()
        t2 = mvcc_engine.session()
        t1.update("t", (1, 10.0, "t1"))
        t2.update("t", (1, 20.0, "t2"))
        t1.commit()
        with pytest.raises(WriteConflictError):
            t2.commit()
        assert t2.finished
        assert conflicts.value == before + 1
        assert mvcc_engine.wal.records[-1].kind is WalKind.ABORT
        assert snapshot(mvcc_engine)[1] == (1, 10.0, "t1")

    def test_disjoint_writes_both_commit(self, mvcc_engine):
        populate(mvcc_engine, "t", 3)
        t1 = mvcc_engine.session()
        t2 = mvcc_engine.session()
        t1.update("t", (1, 10.0, "t1"))
        t2.update("t", (2, 20.0, "t2"))
        t1.commit()
        t2.commit()
        t3 = mvcc_engine.session()
        assert t3.read("t", 1)[1] == 10.0
        assert t3.read("t", 2)[1] == 20.0

    def test_write_skew_is_allowed_under_si(self, mvcc_engine):
        """SI (not serializable): disjoint-write skew commits."""
        populate(mvcc_engine, "t", 2)
        t1 = mvcc_engine.session()
        t2 = mvcc_engine.session()
        # Each reads the other's row, writes its own: allowed under SI.
        t1.read("t", 1)
        t2.read("t", 0)
        t1.update("t", (0, -1.0, "skew"))
        t2.update("t", (1, -1.0, "skew"))
        t1.commit()
        t2.commit()  # no exception

    def test_insert_then_delete_is_noop(self, mvcc_engine):
        t1 = mvcc_engine.session()
        t1.insert("t", (50, 1.0, "temp"))
        t1.delete("t", 50)
        t1.commit()
        t2 = mvcc_engine.session()
        assert t2.read("t", 50) is None
        assert mvcc_engine.store("t").version_count() == 0

    def test_delete_then_insert_is_update(self, mvcc_engine):
        populate(mvcc_engine, "t", 1)
        t1 = mvcc_engine.session()
        t1.delete("t", 0)
        t1.insert("t", (0, 42.0, "re"))
        t1.commit()
        t2 = mvcc_engine.session()
        assert t2.read("t", 0) == (0, 42.0, "re")
        assert mvcc_engine.wal.records[-2].kind is WalKind.UPDATE

    def test_insert_delete_insert_is_insert(self, mvcc_engine):
        t1 = mvcc_engine.session()
        t1.insert("t", (50, 1.0, "a"))
        t1.delete("t", 50)
        t1.insert("t", (50, 2.0, "b"))
        t1.commit()
        t2 = mvcc_engine.session()
        assert t2.read("t", 50) == (50, 2.0, "b")
        assert mvcc_engine.store("t").version_count() == 1

    def test_scan_merges_own_writes(self, mvcc_engine):
        populate(mvcc_engine, "t", 3)
        t1 = mvcc_engine.session()
        t1.insert("t", (10, 5.0, "mine"))
        t1.delete("t", 0)
        rows = t1.scan("t")
        keys = sorted(r[0] for r in rows)
        assert keys == [1, 2, 10]


class TestRunHelper:
    def test_run_retries_on_conflict(self, mvcc_engine):
        """A client retry loop: a commit refused by first-committer-wins
        is re-run from a fresh snapshot, which sees the winner."""
        populate(mvcc_engine, "t", 1)
        attempts = []

        def work(txn):
            attempts.append(1)
            row = txn.read("t", 0)
            if len(attempts) == 1:
                # Interleave a conflicting commit on first attempt.
                mvcc_engine.update("t", (0, 77.0, "other"))
            txn.update("t", (0, row[1] + 1.0, "mine"))

        for _attempt in range(4):
            txn = mvcc_engine.session()
            work(txn)
            try:
                txn.commit()
                break
            except WriteConflictError:
                continue
        assert len(attempts) == 2
        check = mvcc_engine.session()
        assert check.read("t", 0)[1] == 78.0


class TestWalAndRecovery:
    def test_wal_records_committed_work(self, mvcc_engine):
        populate(mvcc_engine, "t", 2)
        kinds = [r.kind for r in mvcc_engine.wal.records]
        assert WalKind.BEGIN in kinds
        assert WalKind.COMMIT in kinds
        assert kinds.count(WalKind.INSERT) == 2

    def test_recovery_round_trip(self, mvcc_engine):
        populate(mvcc_engine, "t", 10)
        t = mvcc_engine.session()
        t.update("t", (3, -3.0, "upd"))
        t.delete("t", 7)
        t.commit()
        recovered = RowIMCSEngine.recover(
            mvcc_engine.wal, [simple_schema()], include_unforced=True
        )
        assert snapshot(recovered) == snapshot(mvcc_engine)
        assert recovered.clock.now() == mvcc_engine.clock.now()

    def test_recovery_ignores_losers(self, mvcc_engine):
        populate(mvcc_engine, "t", 2)
        loser = mvcc_engine.session()
        loser.insert("t", (99, 9.0, "loser"))
        loser.abort()
        recovered = RowIMCSEngine.recover(
            mvcc_engine.wal, [simple_schema()], include_unforced=True
        )
        now = mvcc_engine.clock.now()
        assert recovered.store("t").read(99, now) is None
        assert recovered.store("t").read(0, now) is not None

    def test_group_commit_batches_fsyncs(self):
        engine = RowIMCSEngine(group_commit_size=4)
        engine.create_table(simple_schema())
        for i in range(8):
            engine.insert("t", (i, 1.0, "x"))
        assert engine.wal.fsyncs == 2

    def test_vacuum_all(self, mvcc_engine):
        populate(mvcc_engine, "t", 1)
        for i in range(5):
            t = mvcc_engine.session()
            t.update("t", (0, float(i), "v"))
            t.commit()
        reclaimed = mvcc_engine.vacuum()
        assert reclaimed == 5

    def test_vacuum_keeps_what_an_open_session_sees(self, mvcc_engine):
        populate(mvcc_engine, "t", 1)
        reader = mvcc_engine.session()
        for i in range(3):
            mvcc_engine.update("t", (0, float(i), "v"))
        assert mvcc_engine.vacuum() == 0
        assert reader.read("t", 0) == (0, 0.0, "tag0")
        reader.abort()
        assert mvcc_engine.vacuum() == 3


@pytest.mark.parametrize(
    "staged, net",
    [
        ([("insert", 1, "a"), ("update", 1, "b")], [("insert", 1, "b")]),
        ([("insert", 1, "a"), ("delete", 1, None)], []),
        ([("delete", 1, None), ("insert", 1, "a")], [("update", 1, "a")]),
        (
            [("insert", 1, "a"), ("delete", 1, None), ("insert", 1, "b")],
            [("insert", 1, "b")],
        ),
        ([("update", 1, "a"), ("delete", 1, None)], [("delete", 1, None)]),
        (
            [("update", 2, "x"), ("delete", 1, None), ("insert", 1, "a"), ("update", 2, "y")],
            [("update", 2, "y"), ("update", 1, "a")],
        ),
    ],
)
def test_coalesce_writes(staged, net):
    """One effective write per key, at its first staged position."""
    tagged = [(kind, "t", key, row) for kind, key, row in staged]
    assert coalesce_writes(tagged) == [(kind, "t", key, row) for kind, key, row in net]


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["insert", "update", "delete"]), st.integers(0, 8)),
        max_size=40,
    )
)
def test_serial_txns_match_dict_model(ops):
    """A serial stream of single-op transactions equals a dict model:
    an update or delete of an absent key is refused when staged, an
    insert of a present key at commit."""
    engine = RowIMCSEngine()
    engine.create_table(simple_schema())
    model: dict[int, tuple] = {}
    for op, key in ops:
        txn = engine.session()
        row = (key, float(key), "x")
        if op == "insert":
            txn.insert("t", row)
            if key in model:
                with pytest.raises(DuplicateKeyAborted):
                    txn.commit()
                continue
        elif key not in model:
            with pytest.raises(KeyNotFoundError):
                getattr(txn, op)("t", row if op == "update" else key)
            txn.abort()
            continue
        elif op == "update":
            txn.update("t", row)
        else:
            txn.delete("t", key)
        txn.commit()
        if op == "delete":
            del model[key]
        else:
            model[key] = row
    final = engine.session()
    got = {r[0]: r for r in final.scan("t")}
    assert got == model
