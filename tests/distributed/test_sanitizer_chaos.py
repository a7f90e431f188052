"""Tier-1 chaos scenarios re-run under the runtime sanitizers.

The fault-injection suite already proves the cluster survives crashes
and partitions; this file re-runs the same shapes with the
happens-before checker on the message bus and the snapshot-isolation
checker on the MVCC path, proving the *mechanisms* stay causally and
visibly correct while faults are injected — not just that the final
state looks right.  CI runs this file as its "chaos under sanitizer"
step.
"""

from repro.analysis.sanitizer import happens_before, snapshot_isolation
from repro.common import Column, DataType, Schema, WriteConflictError
from repro.distributed import DistributedCluster
from repro.engines import RowIMCSEngine


def make_cluster(**kwargs):
    schema = Schema(
        "acct",
        [Column("id", DataType.INT64), Column("bal", DataType.FLOAT64)],
        ["id"],
    )
    cluster = DistributedCluster(n_storage_nodes=3, seed=17, **kwargs)
    cluster.create_table(schema)
    return cluster


class TestChaosUnderHappensBefore:
    def test_leader_crash_mid_workload_stays_causal(self):
        cluster = make_cluster()
        # Attach before the lazy _build(): the checker wraps register(),
        # so every Raft node handler is covered from its first message.
        with happens_before(cluster.network) as checker:
            for i in range(5):
                cluster.insert("acct", (i, float(i)))
            leader = cluster._groups[0].elect_leader()
            cluster.network.crash(leader.node_id)
            cluster.advance(30_000)  # re-election under the checker
            for i in range(5, 12):
                cluster.insert("acct", (i, float(i)))
            assert cluster.commits == 12
            for i in range(12):
                assert cluster.read("acct", i) == (i, float(i))
        assert checker.violations == []
        assert checker.deliveries_checked > 0

    def test_partition_heal_and_sync_stays_causal(self):
        cluster = make_cluster()
        with happens_before(cluster.network) as checker:
            for i in range(10):
                cluster.insert("acct", (i, float(i)))
            # Isolate the learners: analytics go stale, OLTP continues.
            for node_id in list(cluster.network.node_ids()):
                if node_id.endswith(".learner"):
                    cluster.network.crash(node_id)
            for i in range(10, 20):
                cluster.insert("acct", (i, float(i)))
            cluster.network.restart_all()
            cluster.sync()
            assert cluster.commits == 20
            assert len(cluster.analytic_scan("acct", ["id"])) == 20
        assert checker.violations == []
        assert checker.deliveries_checked > 0


class TestChaosUnderSnapshotIsolation:
    def test_conflict_heavy_workload_stays_visible(self):
        engine = RowIMCSEngine()
        engine.create_table(
            Schema(
                "acct",
                [Column("id", DataType.INT64), Column("bal", DataType.FLOAT64)],
                ["id"],
            )
        )
        with snapshot_isolation(engine) as checker:
            for i in range(10):
                engine.insert("acct", (i, 100.0))
            # Interleaved writers forcing first-committer-wins aborts.
            conflicts = 0
            for round_i in range(20):
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
                # Old snapshots opened before the commits stay pinned.
                engine.vacuum()
            assert conflicts == 20  # every t2 loses first-committer-wins
            total = sum(r[1] for r in engine.session().scan("acct"))
            assert total == 100.0 * 10 + 20  # only the +1 writers landed
        assert checker.violations == []
        assert checker.reads_checked > 0
