"""Integration tests: the four architectures behave identically at the
API level, with architecture-specific data paths underneath."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import (
    Column,
    Comparison,
    DataType,
    DuplicateKeyError,
    KeyNotFoundError,
    Schema,
    TransactionAborted,
)
from repro.engines import (
    ColumnDeltaEngine,
    DiskRowIMCSEngine,
    DistributedReplicaEngine,
    RowIMCSEngine,
    make_engine,
)
from repro.obs import get_registry
from repro.query import AccessPath
from repro.txn import WalKind


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


def build(cat, n=100, **kwargs):
    if cat == "b":
        kwargs.setdefault("seed", 5)
        n = min(n, 60)
    engine = make_engine(cat, **kwargs)
    engine.create_table(order_schema())
    rows = [(i, i % 7, float(i % 13) + 0.25, ["e", "w"][i % 2]) for i in range(n)]
    engine.load_rows("orders", rows, batch=25)
    return engine, rows


ALL = ["a", "b", "c", "d"]


@pytest.mark.parametrize("cat", ALL)
class TestUniformApi:
    def test_session_crud(self, cat):
        engine, _rows = build(cat, n=30)
        with engine.session() as s:
            s.insert("orders", (1000, 1, 9.99, "e"))
        with engine.session() as s:
            assert s.read("orders", 1000) == (1000, 1, 9.99, "e")
            s.update("orders", (1000, 1, 5.0, "w"))
        with engine.session() as s:
            assert s.read("orders", 1000)[2] == 5.0
            s.delete("orders", 1000)
        with engine.session() as s:
            assert s.read("orders", 1000) is None

    def test_abort_discards(self, cat):
        engine, _ = build(cat, n=10)
        s = engine.session()
        s.insert("orders", (500, 1, 1.0, "e"))
        s.abort()
        with engine.session() as check:
            assert check.read("orders", 500) is None

    def test_exception_in_context_aborts(self, cat):
        engine, _ = build(cat, n=10)
        with pytest.raises(RuntimeError):
            with engine.session() as s:
                s.insert("orders", (501, 1, 1.0, "e"))
                raise RuntimeError("boom")
        with engine.session() as check:
            assert check.read("orders", 501) is None

    def test_duplicate_insert_rejected(self, cat):
        engine, _ = build(cat, n=10)
        with pytest.raises(DuplicateKeyError):
            with engine.session() as s:
                s.insert("orders", (0, 1, 1.0, "e"))

    def test_update_missing_rejected(self, cat):
        engine, _ = build(cat, n=5)
        with pytest.raises(KeyNotFoundError):
            with engine.session() as s:
                s.update("orders", (777, 1, 1.0, "e"))

    def test_session_scan_with_predicate(self, cat):
        engine, rows = build(cat, n=20)
        with engine.session() as s:
            got = s.scan("orders", Comparison("o_region", "=", "e"))
            s.abort()
        assert sorted(r[0] for r in got) == [r[0] for r in rows if r[3] == "e"]

    def test_query_after_sync_sees_everything(self, cat):
        engine, rows = build(cat)
        engine.force_sync()
        result = engine.query("SELECT COUNT(*), SUM(o_amount) FROM orders")
        assert result.rows[0][0] == len(rows)
        assert result.rows[0][1] == pytest.approx(sum(r[2] for r in rows))

    def test_group_query(self, cat):
        engine, rows = build(cat)
        engine.force_sync()
        result = engine.query(
            "SELECT o_region, COUNT(*) FROM orders GROUP BY o_region ORDER BY o_region"
        )
        brute = {}
        for r in rows:
            brute[r[3]] = brute.get(r[3], 0) + 1
        assert dict(result.rows) == brute

    def test_point_query_uses_index_path(self, cat):
        # Needs enough rows that a full column scan costs more than one
        # B+-tree probe; on tiny tables the column scan legitimately wins.
        engine, _ = build(cat, n=60 if cat == "b" else 400)
        engine.force_sync()
        from repro.query.parser import parse

        plan = engine.planner.plan(
            parse("SELECT o_amount FROM orders WHERE o_id = 3")
        )
        if cat == "b":  # 60 rows: either path is defensible
            assert plan.base.path in (AccessPath.INDEX_LOOKUP, AccessPath.COLUMN_SCAN)
        else:
            assert plan.base.path is AccessPath.INDEX_LOOKUP

    def test_memory_report_nonzero(self, cat):
        engine, _ = build(cat, n=30)
        engine.force_sync()
        report = engine.memory_report()
        assert engine.memory_bytes() > 0
        assert all(v >= 0 for v in report.values())

    def test_freshness_recovers_after_sync(self, cat):
        engine, _ = build(cat, n=30)
        engine.force_sync()
        with engine.session() as s:
            s.update("orders", (3, 1, 77.0, "e"))
        engine.force_sync()
        assert engine.image_freshness_lag() <= 1


@pytest.mark.parametrize("lost", ["insert", "update", "delete"])
@pytest.mark.parametrize("cat", ALL)
def test_failed_commit_is_atomic(cat, lost):
    """Two sessions stage writes to one key; the second to commit has
    lost (its insert's key now exists, its update's or delete's is gone)
    and aborts whole: nothing of it becomes visible, it is finished, and
    what the log replays to is what the live engine holds."""
    engine, _rows = build(cat, n=30)
    winner, loser = engine.session(), engine.session()
    loser.insert("orders", (600, 1, 1.0, "e"))  # installs first if anything does
    if lost == "insert":
        loser.insert("orders", (500, 2, 2.0, "w"))
        winner.insert("orders", (500, 1, 9.0, "e"))
    elif lost == "update":
        loser.update("orders", (5, 2, 2.0, "w"))
        winner.delete("orders", 5)
    else:
        loser.delete("orders", 5)
        winner.delete("orders", 5)
    winner.commit()

    def committed(eng):
        with eng.session() as s:
            return sorted(s.scan("orders"))

    expected = committed(engine)
    with pytest.raises(TransactionAborted):
        loser.commit()
    assert loser.finished
    assert committed(engine) == expected
    if cat in "cd":
        recovered = type(engine).recover(
            engine.wal, [order_schema()], include_unforced=True
        )
        assert committed(recovered) == expected


@pytest.mark.parametrize("cat", ALL)
def test_lost_commit_counts_one_abort(cat):
    """``engine.tp_aborts`` means the same on four engines: a commit
    refused with TransactionAborted is one abort (and no commit), and a
    client's own rollback is one ``engine.tp_rollbacks`` and no abort."""
    engine, _rows = build(cat, n=10)
    winner, loser = engine.session(), engine.session()
    loser.insert("orders", (500, 2, 2.0, "w"))
    winner.insert("orders", (500, 1, 9.0, "e"))
    winner.commit()
    registry = get_registry()
    counters = [
        registry.counter(name, engine=engine.info.name)
        for name in ("engine.tp_aborts", "engine.tp_commits", "engine.tp_rollbacks")
    ]

    def counts():
        return [c.value for c in counters]

    before = counts()
    with pytest.raises(TransactionAborted):
        loser.commit()
    assert loser.finished
    assert counts() == [before[0] + 1, before[1], before[2]]
    reader = engine.session()
    reader.read("orders", 3)
    reader.abort()
    assert counts() == [before[0] + 1, before[1], before[2] + 1]


@pytest.mark.parametrize("cat", ALL)
def test_insert_of_a_committed_key_is_refused_at_commit(cat):
    """An insert is checked when staged only against the transaction's
    own writes.  An insert of a committed key stages, and ``commit()``
    raises ``DuplicateKeyError``: nothing is installed, the redo log
    gains no BEGIN and no INSERT (only the ABORT marker every refused
    commit leaves), and ``engine.tp_aborts`` counts exactly one."""
    engine, rows = build(cat, n=10)
    registry = get_registry()
    counters = [
        registry.counter(name, engine=engine.info.name)
        for name in ("engine.tp_aborts", "engine.tp_commits", "engine.tp_rollbacks")
    ]
    before = [c.value for c in counters]
    wal = getattr(engine, "wal", None)
    logged = len(wal) if wal is not None else 0
    s = engine.session()
    s.insert("orders", (10, 1, 1.0, "e"))  # a fresh key
    s.insert("orders", (3, 9, 9.0, "w"))  # a committed key: staged
    assert s.read("orders", 3) == (3, 9, 9.0, "w")
    with pytest.raises(DuplicateKeyError):
        s.insert("orders", (10, 2, 2.0, "w"))  # its own write: refused now
    with pytest.raises(DuplicateKeyError):
        s.commit()
    assert s.finished
    assert [c.value for c in counters] == [before[0] + 1, before[1], before[2]]
    if wal is not None:
        assert [r.kind for r in wal.records[logged:]] == [WalKind.ABORT]
    with engine.session() as check:
        assert sorted(check.scan("orders")) == sorted(rows)


class TestFreshSemantics:
    """Fresh engines (a, d) see uncommitted-to-column data at query time."""

    @pytest.mark.parametrize("cat", ["a", "d"])
    def test_update_visible_without_sync(self, cat):
        engine, _ = build(cat, n=30)
        engine.force_sync()
        with engine.session() as s:
            s.update("orders", (3, 1, 777.0, "e"))
        result = engine.query("SELECT o_amount FROM orders WHERE o_id = 3")
        assert result.rows[0][0] == 777.0
        # Even a forced column scan is patched fresh.
        result = engine.query(
            "SELECT SUM(o_amount) FROM orders WHERE o_id = 3",
            force_path=AccessPath.COLUMN_SCAN,
        )
        assert result.rows[0][0] == pytest.approx(777.0)

    @pytest.mark.parametrize("cat", ["a", "d"])
    def test_isolated_mode_serves_stale(self, cat):
        engine, _ = build(cat, n=30)
        engine.force_sync()
        with engine.session() as s:
            s.update("orders", (3, 1, 777.0, "e"))
        engine.read_fresh = False
        result = engine.query(
            "SELECT SUM(o_amount) FROM orders WHERE o_id = 3",
            force_path=AccessPath.COLUMN_SCAN,
        )
        assert result.rows[0][0] != pytest.approx(777.0)
        assert engine.freshness_lag() > 0


class TestArchitectureSpecific:
    def test_a_smu_tracks_staleness(self):
        engine, _ = build("a", n=40)
        engine.force_sync()
        imcu = engine.imcu("orders")
        assert imcu.staleness() == 0.0
        with engine.session() as s:
            s.update("orders", (1, 1, 1.0, "e"))
        assert imcu.staleness() > 0.0
        engine.force_sync()
        assert imcu.staleness() == 0.0

    def test_a_secondary_index_is_planned(self):
        """The adapter tells the planner which columns are indexed, so an
        equality on one plans (and runs) as an index lookup."""
        engine = make_engine("a")
        engine.create_table(
            Schema("t", [Column("id", DataType.INT64), Column("v", DataType.INT64)], ["id"])
        )
        engine.bulk_load("t", [(i, i % 100) for i in range(200)])
        sql = "SELECT id FROM t WHERE v = 3"
        assert "column_scan" in engine.explain(sql)
        engine.store("t").create_index("v")
        assert "index_lookup" in engine.explain(sql)
        assert sorted(engine.query(sql).rows) == [(3,), (103,)]

    def test_b_isolation_nodes_disjoint(self):
        engine, _ = build("b", n=30)
        assert set(engine.tp_nodes()).isdisjoint(engine.ap_nodes())

    def test_b_freshness_lag_before_sync(self):
        engine, _ = build("b", n=40)
        assert engine.freshness_lag() > 0
        engine.sync()
        assert engine.freshness_lag() == 0

    def test_b_freshness_lag_counts_what_the_learner_has_not_applied(self):
        engine, _ = build("b", n=40)
        engine.sync()
        assert engine.freshness_lag() == 0
        cluster = engine.cluster
        for sid in cluster._live_sids():
            cluster.network.crash(f"r{sid}.learner")
        with engine.session() as s:
            s.insert("orders", (1000, 1, 1.0, "e"))
        assert engine.freshness_lag() > 0

    def test_c_fallback_on_unloaded_columns(self):
        engine = make_engine("c", column_budget_bytes=1)  # nothing fits
        engine.create_table(order_schema())
        engine.load_rows("orders", [(i, 1, 1.0, "e") for i in range(20)])
        result = engine.query("SELECT SUM(o_amount) FROM orders")
        assert result.rows[0][0] == pytest.approx(20.0)
        assert engine.fallbacks > 0
        assert engine.pushdowns == 0

    def test_c_pushdown_when_loaded(self):
        engine, _ = build("c", n=40)
        engine.force_sync()
        engine.query("SELECT SUM(o_amount) FROM orders")
        assert engine.pushdowns > 0

    def test_c_change_propagation_threshold(self):
        engine = make_engine("c", propagation_threshold=10)
        engine.create_table(order_schema())
        engine.load_rows("orders", [(i, 1, 1.0, "e") for i in range(5)], batch=5)
        assert engine.sync() == 0  # below threshold
        engine.load_rows("orders", [(i, 1, 1.0, "e") for i in range(5, 20)], batch=15)
        assert engine.sync() > 0

    def test_d_layers_migrate(self):
        engine = ColumnDeltaEngine(l1_threshold=8, l2_threshold=10**9)
        engine.create_table(order_schema())
        engine.load_rows("orders", [(i, 1, 1.0, "e") for i in range(30)], batch=10)
        table = engine.table("orders")
        assert len(table.l1) == 30
        engine.sync()
        assert len(table.l1) == 0
        assert len(table.l2) == 30
        moved = engine.force_sync()
        assert len(table.main) == 30
        assert len(table.l2) == 0
        assert moved >= 30

    def test_d_key_in_at_most_one_columnar_layer(self):
        engine = ColumnDeltaEngine(l1_threshold=4)
        engine.create_table(order_schema())
        engine.load_rows("orders", [(i, 1, 1.0, "e") for i in range(10)], batch=5)
        engine.force_sync()
        with engine.session() as s:
            s.update("orders", (3, 1, 9.0, "w"))
        engine.force_sync()
        table = engine.table("orders")
        in_l2 = table.l2.contains_key(3)
        in_main = table.main.contains_key(3)
        assert in_l2 != in_main  # exactly one

    def test_b_scales_makespan_down(self):
        """More storage nodes -> smaller bottleneck busy time."""
        results = {}
        for nodes in (2, 4):
            engine = make_engine("b", n_storage_nodes=nodes, n_regions=4, seed=9)
            engine.create_table(order_schema())
            engine.load_rows("orders", [(i, 1, 1.0, "e") for i in range(40)], batch=4)
            results[nodes] = engine.ledger.makespan_us(engine.tp_nodes())
        assert results[4] < results[2]


class TestColumnSelectorChoice:
    def test_learned_selector_accepted(self):
        engine = make_engine("c", column_budget_bytes=2_000, column_selector="learned")
        engine.create_table(order_schema())
        engine.load_rows("orders", [(i, 1, 1.0, "e") for i in range(30)])
        engine.query("SELECT SUM(o_amount) FROM orders")
        loaded = engine.reselect_columns()
        assert isinstance(loaded, dict)

    def test_unknown_selector_rejected(self):
        with pytest.raises(ValueError):
            make_engine("c", column_selector="oracle")


def _lag_from_every_smu(engine, read_fresh):
    """(a)'s freshness lag as each IMCU's SMU gives it: 0 while queries
    patch, else from the oldest populate ts among units with pending
    changes."""
    if read_fresh:
        return 0
    newest = engine.clock.now()
    return max(
        (
            newest - engine.imcu(table).smu.populate_ts
            for table in ("orders", "extra")
            if engine.imcu(table).smu.stale_keys or engine.imcu(table).smu.new_keys
        ),
        default=0,
    )


_LAG_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["write", "write", "write", "bulk", "sync", "force", "flip"]),
        st.sampled_from(["orders", "extra"]),
        st.integers(0, 11),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(steps=_LAG_STEPS)
def test_a_freshness_lag_is_the_formula_over_every_smu(steps):
    engine = RowIMCSEngine(repopulate_staleness=0.3)
    engine.create_table(order_schema())
    engine.create_table(Schema("extra", order_schema().columns, ["o_id"]))
    next_bulk = 100
    for op, table, key in steps:
        if op == "write":
            row = (key, key % 3, float(key), "e")
            with engine.session() as s:
                if s.read(table, key) is None:
                    s.insert(table, row)
                elif key % 2:
                    s.delete(table, key)
                else:
                    s.update(table, row)
        elif op == "bulk":
            rows = [(k, 0, 0.5, "w") for k in range(next_bulk, next_bulk + key % 3)]
            engine.bulk_load(table, rows)
            next_bulk += 3
        elif op == "sync":
            engine.sync()
        elif op == "force":
            engine.force_sync()
        else:
            engine.read_fresh = not engine.read_fresh
        assert engine.freshness_lag() == _lag_from_every_smu(engine, engine.read_fresh)
        assert engine.image_freshness_lag() == _lag_from_every_smu(engine, False)
