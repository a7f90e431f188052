"""Snapshot-scan cache: MVCC correctness, token completeness, counters.

The cache may only ever serve a batch that byte-matches what a fresh
scan at the same snapshot would produce.  One mechanism enforces that:
every adapter folds its snapshot timestamp and mutation counters into
the cache key, so a write (or a different reader snapshot) misses
without anyone telling the cache.  ``invalidate()`` only frees memory
when a sync replaces a columnar image; the token-completeness battery
at the end of this file runs with it patched out.
"""

import pytest

from repro.common import Column, CostModel, DataType, Schema
from repro.engines import make_engine
from repro.obs import get_registry
from repro.query import (
    AccessPath,
    DualStoreTableAccess,
    Executor,
    Planner,
    ScanCache,
    parse,
)
from repro.storage.row_store import MVCCRowStore

from ..oracle import TableModel, assert_matches


@pytest.fixture(autouse=True)
def _fresh_obs():
    get_registry().reset()
    yield


def simple_schema():
    return Schema(
        "t",
        [
            Column("id", DataType.INT64),
            Column("v", DataType.FLOAT64),
            Column("tag", DataType.STRING),
        ],
        ["id"],
    )


class TestScanCacheUnit:
    def test_hit_miss_counters(self):
        cache = ScanCache()
        key = ("t", "ROW_SCAN", ("id",), None, (1,))
        assert cache.get(key) is None
        cache.put(key, {"id": [1, 2]})
        assert cache.get(key) == {"id": [1, 2]}
        assert cache.hits == 1
        assert cache.misses == 1

    def test_eviction_lru_order(self):
        cache = ScanCache(capacity=2)
        cache.put(("t", 1), {"a": 1})
        cache.put(("t", 2), {"a": 2})
        cache.get(("t", 1))  # touch 1 so 2 becomes LRU
        cache.put(("t", 3), {"a": 3})
        assert cache.get(("t", 2)) is None  # evicted
        assert cache.get(("t", 1)) is not None
        assert cache.evictions == 1

    def test_invalidate_all(self):
        cache = ScanCache()
        cache.put(("a", 1), {})
        cache.put(("b", 1), {})
        assert cache.invalidate() == 2
        assert len(cache) == 0

    def test_put_copies_batch_identity(self):
        """The cache stores its own dict so caller mutation of the
        mapping (not the arrays) cannot corrupt entries."""
        cache = ScanCache()
        batch = {"id": [1]}
        cache.put(("t", 1), batch)
        batch["rogue"] = True
        assert "rogue" not in cache.get(("t", 1))

    def test_obs_counters(self):
        reg = get_registry()
        cache = ScanCache(capacity=1, labels={"engine": "test"})
        cache.get(("t", 1))
        cache.put(("t", 1), {})
        cache.get(("t", 1))
        cache.put(("t", 2), {})  # evicts
        cache.invalidate()
        assert reg.counter_total("scan_cache.hits") == 1
        assert reg.counter_total("scan_cache.misses") == 1
        assert reg.counter_total("scan_cache.evictions") == 1
        assert reg.counter_total("scan_cache.invalidations") == 1

    def test_stats_property(self):
        cache = ScanCache()
        cache.get(("t", 1))
        stats = cache.stats
        assert stats["misses"] == 1
        assert stats["entries"] == 0


def build_snapshot_env(snapshot_holder):
    """Row store with rows installed at ts=1 and ts=5; reader snapshot
    is whatever ``snapshot_holder['ts']`` currently says."""
    schema = simple_schema()
    cost = CostModel()
    store = MVCCRowStore(schema, cost)
    for i in range(10):
        store.install_insert((i, float(i), f"tag{i % 3}"), commit_ts=1)
    for i in range(10, 15):
        store.install_insert((i, float(i), "late"), commit_ts=5)
    access = DualStoreTableAccess(
        store, None, cost, snapshot_ts_fn=lambda: snapshot_holder["ts"]
    )
    catalog = {"t": access}
    cache = ScanCache()
    executor = Executor(catalog, cost, scan_cache=cache)
    planner = Planner(catalog, cost)
    return store, executor, planner, cache


class TestSnapshotCorrectness:
    def test_no_sharing_across_snapshots(self):
        holder = {"ts": 3}
        _store, executor, planner, cache = build_snapshot_env(holder)
        plan = planner.plan(parse("SELECT id FROM t"))

        old = executor.execute(plan)
        assert len(old.rows) == 10  # ts=5 rows invisible at snapshot 3
        assert cache.misses == 1

        holder["ts"] = 10
        fresh = executor.execute(plan)
        assert len(fresh.rows) == 15  # different snapshot ⇒ miss, not a stale hit
        assert cache.misses == 2 and cache.hits == 0

        holder["ts"] = 3
        again = executor.execute(plan)
        assert len(again.rows) == 10  # back to the old snapshot: cached entry hits
        assert cache.hits == 1
        assert again.rows == old.rows

    def test_token_fences_unannounced_writes(self):
        """Even with NO explicit invalidation, a write changes the
        adapter's version token and the stale entry cannot be served."""
        holder = {"ts": 100}
        store, executor, planner, cache = build_snapshot_env(holder)
        plan = planner.plan(parse("SELECT id FROM t"))
        first = executor.execute(plan)
        assert len(first.rows) == 15
        # Write directly into the store — bypassing every engine hook.
        store.install_insert((99, 9.9, "sneak"), commit_ts=50)
        second = executor.execute(plan)
        assert len(second.rows) == 16
        assert cache.hits == 0 and cache.misses == 2

    def test_repeated_scan_hits(self):
        holder = {"ts": 100}
        _store, executor, planner, cache = build_snapshot_env(holder)
        plan = planner.plan(parse("SELECT v FROM t WHERE id < 5"))
        a = executor.execute(plan)
        b = executor.execute(plan)
        assert a.rows == b.rows
        assert cache.hits == 1 and cache.misses == 1

    def test_different_columns_different_entries(self):
        holder = {"ts": 100}
        _store, executor, planner, cache = build_snapshot_env(holder)
        executor.execute(planner.plan(parse("SELECT id FROM t")))
        executor.execute(planner.plan(parse("SELECT v FROM t")))
        assert cache.misses == 2 and cache.hits == 0

    def test_cache_probe_charged(self):
        """Hits are not free: each probe charges cache_probe_us."""
        holder = {"ts": 100}
        schema_cost = CostModel()
        store = MVCCRowStore(simple_schema(), schema_cost)
        store.install_insert((1, 1.0, "a"), commit_ts=1)
        access = DualStoreTableAccess(
            store, None, schema_cost, snapshot_ts_fn=lambda: holder["ts"]
        )
        cost = CostModel()
        executor = Executor({"t": access}, cost, scan_cache=ScanCache())
        plan = Planner({"t": access}, cost).plan(parse("SELECT id FROM t"))
        executor.execute(plan)
        before = cost.now_us()
        executor.execute(plan)
        assert cost.now_us() - before >= cost.cache_probe_us


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


def build_engine(cat, n=40):
    kwargs = {"seed": 5} if cat == "b" else {}
    engine = make_engine(cat, **kwargs)
    engine.create_table(order_schema())
    rows = [(i, i % 7, float(i % 13) + 0.25, ["e", "w"][i % 2]) for i in range(n)]
    engine.load_rows("orders", rows, batch=20)
    return engine


@pytest.mark.parametrize("cat", ["a", "b", "c", "d"])
class TestEngineInvalidation:
    SQL = "SELECT o_region, COUNT(*) FROM orders GROUP BY o_region"

    def test_repeat_query_hits_then_write_invalidates(self, cat):
        engine = build_engine(cat)
        engine.force_sync()
        first = engine.query(self.SQL)
        engine.query(self.SQL)
        assert engine.scan_cache.hits >= 1

        engine.insert("orders", (1000, 1, 2.5, "e"))
        engine.force_sync()
        after = engine.query(self.SQL)
        counts = dict(after.rows)
        assert counts["e"] == dict(first.rows)["e"] + 1  # new row visible
        assert engine.scan_cache.invalidations >= 1

    def test_delete_visible_after_invalidation(self, cat):
        engine = build_engine(cat)
        engine.force_sync()
        before = engine.query(self.SQL)
        engine.delete("orders", 0)  # row 0 is region "e"
        engine.force_sync()
        after = engine.query(self.SQL)
        assert dict(after.rows)["e"] == dict(before.rows)["e"] - 1

    def test_force_sync_invalidates_everything(self, cat):
        engine = build_engine(cat)
        engine.force_sync()
        engine.query(self.SQL)
        assert len(engine.scan_cache) >= 0  # may or may not cache (path-dependent)
        engine.force_sync()
        assert len(engine.scan_cache) == 0


@pytest.mark.parametrize("cat", ["a", "b", "c", "d"])
class TestCoalescedInvalidation:
    """Sync invalidates once per batch — and not at all for a no-op
    batch, since the version tokens fencing every entry did not move.
    The warm cache therefore keeps serving hits across idle syncs,
    which is the hit-rate win this test pins down."""

    SQL = "SELECT o_region, COUNT(*) FROM orders GROUP BY o_region"

    def test_noop_sync_keeps_cache_warm(self, cat):
        engine = build_engine(cat)
        engine.force_sync()
        engine.query(self.SQL)
        invalidations_before = engine.scan_cache.invalidations
        hits = 0
        for _ in range(5):
            assert engine.sync() == 0  # nothing pending
            before = engine.scan_cache.hits
            engine.query(self.SQL)
            hits += engine.scan_cache.hits - before
        # Every post-sync query hit; per-row (or per-call) invalidation
        # would have forced 5 rebuild misses.
        assert hits == 5
        assert engine.scan_cache.invalidations == invalidations_before

    def test_batched_sync_still_invalidates(self, cat):
        engine = build_engine(cat)
        engine.force_sync()
        first = engine.query(self.SQL)
        engine.insert("orders", (2000, 1, 2.5, "w"))
        engine.force_sync()
        after = engine.query(self.SQL)
        assert dict(after.rows)["w"] == dict(first.rows)["w"] + 1


# ------------------------------------------------------- token completeness

RANGE_SQL = "SELECT o_id, o_amount FROM orders WHERE o_amount > 3"
POINT_SQL = "SELECT o_id, o_amount FROM orders WHERE o_id = 3"
STATEMENTS = [
    (RANGE_SQL, AccessPath.COLUMN_SCAN),
    (RANGE_SQL, AccessPath.ROW_SCAN),
    (POINT_SQL, AccessPath.INDEX_LOOKUP),
]
INITIAL_ROWS = [
    (i, i % 7, float(i % 13) + 0.25, ["e", "w"][i % 2]) for i in range(40)
]
#: One committed session each; every one changes RANGE_SQL's answer and
#: the update and the delete change POINT_SQL's.
WRITES = {
    "insert": ("insert", 1000, (1000, 1, 9.5, "e")),
    "update": ("update", 3, (3, 3, 11.5, "w")),
    "delete": ("delete", 3, None),
}


class TokenBattery:
    """An engine with a warm scan cache beside the oracle's two views of
    it: ``live`` (every committed row) and ``image`` (the rows as of the
    last sync — all that an isolated-mode column scan may see, and all
    that engine (b)'s column path sees until a delta file seals)."""

    def __init__(self, cat, **kwargs):
        if cat == "b":
            kwargs.setdefault("seed", 5)
        self.cat = cat
        self.engine = make_engine(cat, **kwargs)
        self.engine.create_table(order_schema())
        self.engine.load_rows("orders", INITIAL_ROWS, batch=20)
        self.engine.force_sync()  # setup only; no case syncs by force
        self.live = TableModel(INITIAL_ROWS)
        self.image = self.live.rows()
        #: (sql, path, read_fresh) -> the last answer checked.
        self.answers = {}
        self.check()
        # The entries a write must fence off are really there.
        for sql, path in STATEMENTS:
            if path is not AccessPath.INDEX_LOOKUP:
                assert self.run(sql, path)[1], f"{path} was not served from the cache"

    def run(self, sql, path):
        cache = self.engine.scan_cache
        hits, probes = cache.hits, cache.hits + cache.misses
        result = self.engine.query(sql, force_path=path)
        if path is AccessPath.INDEX_LOOKUP:
            # An index probe is not a scan: it never asks the cache.
            assert cache.hits + cache.misses == probes
        return result, cache.hits > hits

    def write(self, kind, key, row):
        with self.engine.session() as s:
            if kind == "insert":
                s.insert("orders", row)
            elif kind == "update":
                s.update("orders", row)
            else:
                s.delete("orders", key)
        self.live.apply(kind, key, row, 0)

    def bulk_load(self, n):
        fresh = [(2000 + i, 2, 20.5 + i, "w") for i in range(n)]
        self.engine.bulk_load("orders", fresh)
        for row in fresh:
            self.live.apply("insert", row[0], row, 0)

    def sync(self):
        moved = self.engine.sync()
        if moved:
            self.image = self.live.rows()
        return moved

    def visible(self, path):
        stale = self.cat == "b" or not self.engine.read_fresh
        if path is AccessPath.COLUMN_SCAN and stale:
            return self.image
        return self.live.rows()

    def check(self):
        """Every statement equals the oracle over the rows its path may
        see, and one whose answer moved since it was last checked in
        this freshness mode was not served from the cache."""
        for sql, path in STATEMENTS:
            result, hit = self.run(sql, path)
            assert_matches(
                result, sql, {"orders": (order_schema(), self.visible(path))}
            )
            asked = (sql, path, self.engine.read_fresh)
            before = self.answers.get(asked)
            self.answers[asked] = sorted(result.rows)
            if before not in (None, self.answers[asked]):
                assert not hit, f"{path} answered a changed table from the cache"


@pytest.fixture
def tokens_only(monkeypatch):
    """``invalidate`` does nothing here, with or without arguments: the
    version tokens alone must fence every write these cases make."""
    monkeypatch.setattr(ScanCache, "invalidate", lambda self, *args, **kwargs: 0)


@pytest.mark.usefixtures("tokens_only")
@pytest.mark.parametrize("cat", ["a", "b", "c", "d"])
class TestTokenCompleteness:
    """Warm one COLUMN_SCAN and one ROW_SCAN entry beside an
    INDEX_LOOKUP statement (which the cache never serves), mutate
    through a path that never force-syncs, run them again."""

    @pytest.mark.parametrize("kind", list(WRITES))
    def test_session_commit(self, cat, kind):
        battery = TokenBattery(cat)
        before = dict(battery.answers)
        battery.write(*WRITES[kind])
        battery.check()
        assert battery.answers != before

    def test_bulk_load(self, cat):
        battery = TokenBattery(cat)
        battery.bulk_load(5)
        battery.check()

    def test_threshold_sync_that_moves_nothing(self, cat):
        battery = TokenBattery(cat)
        battery.write(*WRITES["update"])
        assert battery.sync() == 0 or cat == "b"  # (b) ships whatever is pending
        battery.check()
        assert battery.sync() == 0
        battery.check()

    def test_threshold_sync_that_moves_rows(self, cat):
        """(a) repopulates, (c) propagates, (d) merges L1, (b) ships —
        and the drop-all in ``HTAPEngine.sync`` is patched out too."""
        eager = {
            "a": {"repopulate_staleness": 0.0},
            "b": {},
            "c": {"propagation_threshold": 1},
            "d": {"l1_threshold": 1},
        }[cat]
        battery = TokenBattery(cat, **eager)
        for kind in ("insert", "update"):
            battery.write(*WRITES[kind])
            battery.check()
            assert battery.sync() > 0
            battery.check()

    def test_read_fresh_toggle(self, cat):
        """An isolated-mode column scan reads the image alone: a fresh
        entry must not answer it, nor the other way round.  Both writes
        are inserts — what an isolated scan on (a) owes after a write to
        a *populated* key is the gap pinned below."""
        battery = TokenBattery(cat)
        battery.write(*WRITES["insert"])
        battery.check()
        for fresh in (False, True, False):
            battery.engine.read_fresh = fresh
            battery.check()
        battery.write("insert", 1001, (1001, 2, 12.5, "w"))
        battery.check()
        battery.engine.read_fresh = True
        battery.check()


@pytest.mark.usefixtures("tokens_only")
class TestTokenCompletenessPerEngine:
    def test_c_reselect_columns_there_and_back(self):
        """Loaded set A -> B -> A with a write in between: the second A
        image is a new ColumnStore whose counters restart, so only the
        primary's write version tells it from the first."""
        battery = TokenBattery("c", column_budget_bytes=700)  # two columns
        engine = battery.engine
        loaded_a, loaded_b = {"o_id", "o_amount"}, {"o_cust", "o_region"}

        def steer(columns, weight):
            for _ in range(weight):
                engine.tracker.record_query("orders", columns)
            assert engine.reselect_columns()["orders"] == columns

        steer(loaded_a, 10)
        pushed = engine.pushdowns
        battery.check()
        assert engine.pushdowns > pushed  # RANGE_SQL is served by the IMCS
        battery.check()
        steer(loaded_b, 1_000)
        battery.check()
        battery.write(*WRITES["update"])
        steer(loaded_a, 100_000)
        battery.check()
        battery.write(*WRITES["delete"])
        battery.check()

    def test_a_time_travel_query(self):
        battery = TokenBattery("a")
        engine = battery.engine
        then, old_rows = engine.clock.now(), battery.live.rows()

        def as_of_then():
            hits = engine.scan_cache.hits
            result = engine.time_travel_query(RANGE_SQL, as_of=then)
            assert_matches(result, RANGE_SQL, {"orders": (order_schema(), old_rows)})
            return engine.scan_cache.hits > hits

        as_of_then()
        assert as_of_then()  # historical snapshots are cached too
        for kind in ("insert", "update", "delete"):
            battery.write(*WRITES[kind])
            as_of_then()
            battery.check()
        result = engine.time_travel_query(RANGE_SQL, as_of=engine.clock.now())
        assert_matches(
            result, RANGE_SQL, {"orders": (order_schema(), battery.live.rows())}
        )

    def test_a_isolated_scan_after_a_write_to_a_populated_key(self):
        """In isolated mode the unpatched IMCU scan drops a key the SMU
        marked stale; the token counts those keys, so an entry cached
        before the update is not served after it."""
        battery = TokenBattery("a")
        engine = battery.engine
        engine.read_fresh = False
        battery.run(RANGE_SQL, AccessPath.COLUMN_SCAN)
        battery.write(*WRITES["update"])
        cached, _hit = battery.run(RANGE_SQL, AccessPath.COLUMN_SCAN)
        plan = Planner(
            engine.catalog, engine.cost, force_path=AccessPath.COLUMN_SCAN
        ).plan(parse(RANGE_SQL))
        uncached = Executor(engine.catalog, engine.cost).execute(plan)
        assert sorted(cached.rows) == sorted(uncached.rows)

    def test_b_drain_replication(self):
        """A load the size of one delta file: whatever the column path
        answered (and cached) while the learner lagged, once replication
        drains the file is sealed and the scan owes every row."""
        battery = TokenBattery("b")
        log = battery.engine.cluster.columnar.delta_logs["orders"]
        battery.bulk_load(log._seal_threshold)
        battery.run(RANGE_SQL, AccessPath.COLUMN_SCAN)
        battery.engine.cluster.drain_replication()
        assert log.sealed_entries() == log._seal_threshold
        assert not log.unsealed_entries()
        battery.image = battery.live.rows()
        battery.check()

    def test_b_a_file_that_lands_changes_the_token(self):
        """A sealed file ships in the background: with no commit and no
        drain in between, its landing alone must change the token, so a
        column scan cached while it was in flight is not served after."""
        battery = TokenBattery("b")
        cluster = battery.engine.cluster
        log = cluster.columnar.delta_logs["orders"]
        access = battery.engine.catalog["orders"]
        battery.bulk_load(log._seal_threshold)
        while not log.files:  # the learner's batch seals the file
            cluster.advance(50.0)
        commits = cluster.commits
        in_flight, _hit = battery.run(RANGE_SQL, AccessPath.COLUMN_SCAN)
        assert_matches(
            in_flight, RANGE_SQL, {"orders": (order_schema(), battery.image)}
        )
        token = access.cache_token()
        cluster.advance(2 * log.ship_latency_us)  # page writes, then shipping
        assert not log.in_flight()
        assert cluster.commits == commits
        assert access.cache_token() != token
        battery.image = battery.live.rows()
        battery.check()
