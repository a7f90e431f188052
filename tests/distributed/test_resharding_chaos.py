"""Resharding under faults, run under the runtime sanitizers.

The scale-out bench proves resharding keeps throughput; this file
proves it keeps *correctness* when the machinery itself is attacked:
the source shard's Raft leader is killed in the middle of a split, and
a router dies mid-retry (its replacement must converge from a stale
snapshot).  Every scenario runs under the happens-before checker on the
message bus, and the MVCC visibility scenario under the
snapshot-isolation checker; final state is verified against a
single-shard differential reference cluster fed the identical operation
sequence.
"""

from repro.analysis.sanitizer import happens_before, snapshot_isolation
from repro.common import Column, DataType, RoutingError, Schema, WriteConflictError
from repro.distributed import (
    DistributedCluster,
    ReshardPhase,
    ShardSplit,
    WriteKind,
    WriteOp,
)
from repro.engines import RowIMCSEngine


def make_cluster(n_regions=None, seed=23):
    schema = Schema(
        "acct",
        [Column("id", DataType.INT64), Column("bal", DataType.FLOAT64)],
        ["id"],
    )
    cluster = DistributedCluster(
        n_storage_nodes=3, n_regions=n_regions, seed=seed
    )
    cluster.create_table(schema)
    return cluster


def run_differential(ops):
    """Replay ``ops`` on a single-shard cluster — the trivially correct
    reference (one Raft group, no routing, no resharding)."""
    ref = make_cluster(n_regions=1)
    for kind, row in ops:
        if kind == "insert":
            ref.insert("acct", row)
        else:
            ref.update("acct", row)
    return {r[0]: r for r in ref.row_scan("acct")}


def assert_matches_reference(cluster, ops):
    expected = run_differential(ops)
    actual = {r[0]: r for r in cluster.row_scan("acct")}
    assert actual == expected
    # Point reads agree too (routed path, not just scatter-gather).
    for key, row in expected.items():
        assert cluster.read("acct", key) == row


class TestSplitUnderLeaderCrash:
    def test_source_leader_killed_mid_split(self):
        cluster = make_cluster()
        ops = []
        with happens_before(cluster.network) as checker:
            for i in range(40):
                cluster.insert("acct", (i, float(i)))
                ops.append(("insert", (i, float(i))))
            split = ShardSplit(cluster, 0)
            nxt = 40
            while not split.done:
                phase = split.step()
                if phase is ReshardPhase.INSTALL:
                    # Kill the source shard's leader right after the
                    # snapshot shipped: catch-up and flip must ride the
                    # re-elected leader.
                    leader = cluster._groups[0].elect_leader()
                    cluster.network.crash(leader.node_id)
                    cluster.advance(30_000)  # let the shard re-elect
                # Traffic keeps flowing between phases.
                for _ in range(2):
                    cluster.insert("acct", (nxt, float(nxt)))
                    ops.append(("insert", (nxt, float(nxt))))
                    nxt += 1
            assert split.done
            assert cluster.metadata.epoch == 1
            # A couple of updates through the post-split map.
            for key in (0, nxt - 1):
                cluster.update("acct", (key, 999.0))
                ops.append(("update", (key, 999.0)))
            assert_matches_reference(cluster, ops)
        assert checker.violations == []
        assert checker.deliveries_checked > 0

    def test_columnar_replica_consistent_after_crashed_split(self):
        cluster = make_cluster()
        with happens_before(cluster.network) as checker:
            for i in range(30):
                cluster.insert("acct", (i, float(i)))
            split = ShardSplit(cluster, 1)
            nxt = 30
            while not split.done:
                phase = split.step()
                if phase is ReshardPhase.CATCH_UP:
                    leader = cluster._groups[1].elect_leader()
                    cluster.network.crash(leader.node_id)
                    cluster.advance(30_000)
                cluster.insert("acct", (nxt, float(nxt)))
                nxt += 1
            cluster.sync()
            result = cluster.analytic_scan("acct", ["id"])
            assert sorted(result.arrays["id"].tolist()) == list(range(nxt))
        assert checker.violations == []


class TestRouterDeathMidRetry:
    def test_replacement_router_converges_from_stale_snapshot(self):
        cluster = make_cluster()
        for i in range(30):
            cluster.insert("acct", (i, float(i)))
        # Two client routers cache the pre-split map.
        dying = cluster.make_router("dying")
        dying.max_retries = 0  # dies on its first stale rejection
        replacement = cluster.make_router("replacement")
        ShardSplit(cluster, 0).run()
        assert cluster.metadata.epoch == 1

        # Find a key the dying router now routes to the wrong shard.
        stale_key = next(
            k
            for k in range(200)
            if dying.shard_for("acct", k).shard_id
            != cluster.region_of("acct", k)
        )
        died = False
        try:
            cluster.read("acct", stale_key, router=dying)
        except RoutingError:
            died = True  # the router died mid-retry (retries exhausted)
        assert died
        assert dying.stats["retries_exhausted"] == 1
        # The failed read had no effect; the replacement router picks up
        # the same key, retries through the stale-epoch protocol, and
        # converges to the new epoch.
        assert cluster.read("acct", stale_key, router=replacement) == (
            stale_key,
            float(stale_key),
        )
        assert replacement.stats["stale_retries"] >= 1
        assert replacement.cached_epoch == 1
        # Writes through the replacement land exactly once.
        cluster.execute_transaction(
            [WriteOp(WriteKind.UPDATE, "acct", stale_key, (stale_key, 123.0))],
            router=replacement,
        )
        assert cluster.read("acct", stale_key) == (stale_key, 123.0)

    def test_dying_write_router_leaves_no_partial_effects(self):
        cluster = make_cluster()
        ops = []
        for i in range(30):
            cluster.insert("acct", (i, float(i)))
            ops.append(("insert", (i, float(i))))
        dying = cluster.make_router("dying_writer")
        dying.max_retries = 0
        ShardSplit(cluster, 0).run()
        stale_key = next(
            k
            for k in range(200)
            if dying.shard_for("acct", k).shard_id
            != cluster.region_of("acct", k)
        )
        assert stale_key < 30  # it's a loaded key, so an update is valid
        try:
            cluster.execute_transaction(
                [WriteOp(WriteKind.UPDATE, "acct", stale_key, (stale_key, -1.0))],
                router=dying,
            )
            applied = True
        except RoutingError:
            applied = False
        # Ownership is validated before anything is proposed: the write
        # either landed exactly once or not at all.
        if applied:
            ops.append(("update", (stale_key, -1.0)))
        assert_matches_reference(cluster, ops)


class TestMvccVisibilityDuringSplit:
    def test_snapshot_isolation_holds_while_cluster_splits(self):
        """The MVCC path stays visibly correct while a cluster split
        runs interleaved with it (the sanitizers watch both worlds)."""
        cluster = make_cluster()
        engine = RowIMCSEngine()
        engine.create_table(
            Schema(
                "acct",
                [Column("id", DataType.INT64), Column("bal", DataType.FLOAT64)],
                ["id"],
            )
        )
        with happens_before(cluster.network) as hb, snapshot_isolation(engine) as si:
            for i in range(20):
                cluster.insert("acct", (i, float(i)))
            split = ShardSplit(cluster, 0)
            for i in range(10):
                engine.insert("acct", (i, 100.0))
            conflicts = 0
            round_i = 0
            while not split.done:
                split.step()
                # One conflicting MVCC round between each split phase.
                t1 = engine.session()
                t2 = engine.session()
                key = round_i % 10
                row = t1.read("acct", key)
                t1.update("acct", (key, row[1] + 1.0))
                row2 = t2.read("acct", key)
                t2.update("acct", (key, row2[1] - 1.0))
                t1.commit()
                try:
                    t2.commit()
                except WriteConflictError:
                    conflicts += 1
                round_i += 1
                # Cluster traffic too, so the split has a live tail.
                cluster.insert("acct", (20 + round_i, 1.0))
            assert conflicts == round_i  # first-committer-wins every round
            assert cluster.metadata.epoch == 1
        assert hb.violations == []
        assert si.violations == []
        assert si.reads_checked > 0
