"""Runtime sanitizer tests: clean executions pass, injected bugs fire.

The injection tests are the sanitizers' own regression suite — each one
deliberately breaks an invariant (a visibility check that ignores the
snapshot, a duplicated delivery) and asserts the checker catches it.
"""

import pytest

from repro.common import Column, CostModel, DataType, Schema
from repro.analysis.sanitizer import (
    HappensBeforeChecker,
    SanitizerViolation,
    SnapshotIsolationChecker,
    VectorClock,
    happens_before,
    snapshot_isolation,
)
from repro.distributed.network import SimNetwork
from repro.engines import RowIMCSEngine

from ..distributed import run_until_quiet


def make_engine() -> RowIMCSEngine:
    engine = RowIMCSEngine()
    engine.create_table(
        Schema(
            "t",
            [Column("id", DataType.INT64), Column("v", DataType.INT64)],
            ["id"],
        )
    )
    return engine


class TestVectorClock:
    def test_tick_and_merge(self):
        a, b = VectorClock(), VectorClock()
        a.tick("a")
        a.tick("a")
        b.tick("b")
        b.merge(a)
        assert b.get("a") == 2 and b.get("b") == 1
        b.merge(VectorClock({"a": 1}))  # older info never regresses
        assert b.get("a") == 2

    def test_copy_is_independent(self):
        a = VectorClock({"a": 1})
        c = a.copy()
        c.tick("a")
        assert a.get("a") == 1 and c.get("a") == 2


class TestSnapshotIsolationChecker:
    def test_clean_workload_has_no_violations(self):
        engine = make_engine()
        with snapshot_isolation(engine) as checker:
            for i in range(8):
                engine.insert("t", (i, i * 10))
            engine.update("t", (3, -1))
            engine.delete("t", 5)
            txn = engine.session()
            assert txn.read("t", 3) == (3, -1)
            assert txn.read("t", 5) is None
            assert len(txn.scan("t")) == 7
            txn.abort()
        assert checker.violations == []
        assert checker.reads_checked > 0

    def test_old_snapshot_still_sees_old_version(self):
        engine = make_engine()
        with snapshot_isolation(engine) as checker:
            engine.insert("t", (1, 10))
            txn_old = engine.session()
            engine.update("t", (1, 20))
            assert txn_old.read("t", 1) == (1, 10)  # snapshot pinned
            txn_old.abort()
        assert checker.violations == []

    def test_broken_read_path_is_detected(self):
        engine = make_engine()
        store = engine.store("t")
        # Deliberately broken visibility: always return the newest
        # version, ignoring the snapshot timestamp.
        store.read = lambda key, snapshot_ts: (
            store._chains[key][-1].row if store._chains.get(key) else None
        )
        SnapshotIsolationChecker().attach(engine)
        txn_old = engine.session()  # snapshot predates the insert below
        engine.insert("t", (42, 1))
        with pytest.raises(SanitizerViolation, match="si-read"):
            txn_old.read("t", 42)

    def test_broken_scan_path_is_detected(self):
        engine = make_engine()
        store = engine.store("t")
        orig_scan = store.scan
        # Broken scan: evaluates at the newest timestamp it has seen,
        # not the caller's snapshot.
        store.scan = lambda snapshot_ts, predicate=None, **kw: orig_scan(
            engine.clock.now(), *([predicate] if predicate else []), **kw
        )
        SnapshotIsolationChecker().attach(engine)
        txn_old = engine.session()
        engine.insert("t", (7, 70))
        with pytest.raises(SanitizerViolation, match="si-scan"):
            txn_old.scan("t")

    def test_commit_install_check_fires_on_lost_install(self):
        engine = make_engine()
        store = engine.store("t")
        checker = SnapshotIsolationChecker().attach(engine)
        engine.insert("t", (1, 10))
        # Lost write: the commit's install does nothing.
        store.install_validated_update = lambda key, row, commit_ts: None
        with pytest.raises(SanitizerViolation, match="commit-install"):
            engine.update("t", (1, 20))
        assert checker.violations

    def test_tables_created_after_attach_are_wrapped(self):
        engine = make_engine()
        checker = SnapshotIsolationChecker().attach(engine)
        engine.create_table(
            Schema("u", [Column("id", DataType.INT64)], ["id"])
        )
        engine.insert("u", (1,))
        txn = engine.session()
        assert txn.read("u", 1) == (1,)
        txn.abort()
        assert checker.reads_checked > 0

    def test_detach_restores_store_methods(self):
        engine = make_engine()
        store = engine.store("t")
        checker = SnapshotIsolationChecker().attach(engine)
        assert "read" in store.__dict__  # wrapper shadows the class method
        checker.detach()
        for name in ("read", "scan"):
            assert name not in store.__dict__
        for name in ("_commit_writes", "create_table"):
            assert name not in engine.__dict__

    def test_non_strict_mode_collects_instead_of_raising(self):
        engine = make_engine()
        store = engine.store("t")
        store.read = lambda key, snapshot_ts: (
            store._chains[key][-1].row if store._chains.get(key) else None
        )
        checker = SnapshotIsolationChecker(strict=False).attach(engine)
        txn_old = engine.session()
        engine.insert("t", (9, 9))
        txn_old.read("t", 9)  # no raise
        assert [v.kind for v in checker.violations] == ["si-read"]


def make_network():
    net = SimNetwork(CostModel())
    inbox: list[tuple[str, str, object]] = []
    net.register("a", lambda src, msg: inbox.append(("a", src, msg)))
    net.register("b", lambda src, msg: inbox.append(("b", src, msg)))
    return net, inbox


class TestHappensBeforeChecker:
    def test_clean_traffic_has_no_violations(self):
        net, inbox = make_network()
        with happens_before(net) as checker:
            for i in range(10):
                net.send("a", "b", ("ping", i))
                net.send("b", "a", ("pong", i))
            run_until_quiet(net)
        assert checker.violations == []
        assert checker.deliveries_checked == len(inbox) == 20

    def test_drops_do_not_false_positive(self):
        net, inbox = make_network()
        with happens_before(net) as checker:
            net.send("a", "b", ("m", 0))
            run_until_quiet(net)
            net.partition("a", "b")
            net.send("a", "b", ("m", 1))  # dropped at delivery time
            run_until_quiet(net)
            net.heal("a", "b")
            net.send("a", "b", ("m", 2))  # gap in link seq is fine
            run_until_quiet(net)
        assert checker.violations == []
        assert [m[2] for m in inbox] == [("m", 0), ("m", 2)]

    def test_duplicate_delivery_is_detected(self):
        net, _inbox = make_network()
        checker = HappensBeforeChecker().attach(net)
        message = ("dup", 1)
        net.send("a", "b", message)
        run_until_quiet(net)
        with pytest.raises(SanitizerViolation, match="phantom-delivery"):
            net._handlers["b"]("a", message)  # replayed delivery
        assert checker.violations

    def test_unsent_message_is_detected(self):
        net, _inbox = make_network()
        HappensBeforeChecker().attach(net)
        with pytest.raises(SanitizerViolation, match="phantom-delivery"):
            net._handlers["a"]("b", ("fabricated", 0))

    def test_nodes_registered_after_attach_are_wrapped(self):
        net, _inbox = make_network()
        checker = HappensBeforeChecker().attach(net)
        seen = []
        net.register("c", lambda src, msg: seen.append(msg))
        net.send("a", "c", ("hello", 1))
        run_until_quiet(net)
        assert seen == [("hello", 1)]
        assert checker.deliveries_checked == 1

    def test_detach_restores_send_and_handlers(self):
        net, _inbox = make_network()
        checker = HappensBeforeChecker().attach(net)
        assert "send" in net.__dict__  # wrapper shadows the class method
        checker.detach()
        assert "send" not in net.__dict__
        assert "register" not in net.__dict__
        for handler in net._handlers.values():
            assert getattr(handler, "_hb_original", None) is None
