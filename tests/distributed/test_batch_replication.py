"""Batched Raft apply and the cluster bulk-load command.

The learner-side replication path now ships whole committed runs to a
single batch apply callback; these tests pin (1) Raft-level batch
proposal/apply correctness against the scalar path, (2) the columnar
replica holding exactly what ``tests/oracle``'s dict table model holds
after the same committed writes, and (3) the ``("bulk", ...)`` command
landing on both row regions and the learner-fed replica.
"""

import pytest

from repro.common import (
    ALWAYS_TRUE,
    Column,
    CostModel,
    DataType,
    KeyNotFoundError,
    Schema,
)
from repro.distributed import RaftGroup, SimNetwork
from repro.distributed.cluster import DistributedCluster, WriteKind, WriteOp

from ..oracle import TableModel


def make_schema():
    return Schema(
        "t",
        [Column("id", DataType.INT64), Column("v", DataType.FLOAT64)],
        ["id"],
    )


class TestRaftBatchApply:
    def _group(self, apply_fns=None, apply_batch_fns=None):
        cost = CostModel()
        net = SimNetwork(cost)
        group = RaftGroup(
            "g",
            ["v0", "v1", "v2"],
            ["l0"],
            net,
            cost,
            apply_fns=apply_fns,
            apply_batch_fns=apply_batch_fns,
            seed=7,
        )
        group.elect_leader()
        return group

    def test_batch_apply_sees_whole_committed_run(self):
        batches = []
        group = self._group(
            apply_batch_fns={
                "l0": lambda start, cmds: batches.append((start, list(cmds)))
            }
        )
        last = group.propose_batch_and_wait(["a", "b", "c"])
        assert last == group.leader().commit_index
        group.advance(50_000)  # heartbeats carry commit_index to l0
        applied = [c for _start, cmds in batches for c in cmds]
        assert applied == ["a", "b", "c"]
        starts = [start for start, _ in batches]
        assert starts == sorted(starts)

    def test_batch_and_scalar_apply_identical_sequences(self):
        scalar_seen, batch_seen = [], []
        scalar = self._group(
            apply_fns={"l0": lambda _i, cmd: scalar_seen.append(cmd)}
        )
        batched = self._group(
            apply_batch_fns={
                "l0": lambda _start, cmds: batch_seen.extend(cmds)
            }
        )
        for i in range(5):
            scalar.propose_and_wait(("cmd", i))
        batched.propose_batch_and_wait([("cmd", i) for i in range(5)])
        # Let follower/learner heartbeats land the commit index.
        for group in (scalar, batched):
            group.advance(50_000)
        assert batch_seen == scalar_seen == [("cmd", i) for i in range(5)]

    def test_voters_still_apply_scalar_during_batch(self):
        voter_applied = []
        group = self._group(
            apply_fns={
                "v0": lambda _i, cmd: voter_applied.append(cmd),
                "v1": lambda _i, cmd: voter_applied.append(cmd),
                "v2": lambda _i, cmd: voter_applied.append(cmd),
            }
        )
        group.propose_batch_and_wait(["x", "y"])
        group.advance(50_000)
        leader = group.leader().node_id
        mine = [c for c in voter_applied]
        # Every voter (leader included) applied both commands in order.
        assert mine.count("x") == 3 and mine.count("y") == 3
        assert leader in {"v0", "v1", "v2"}


def build_cluster():
    cluster = DistributedCluster(
        n_storage_nodes=3,
        replication=3,
        n_analytic_nodes=1,
        seed=3,
    )
    cluster.create_table(make_schema())
    return cluster


MIXED_OPS = (
    [("insert", i, (i, float(i))) for i in range(30)]
    + [("update", i, (i, float(i) * 10)) for i in range(0, 30, 3)]
    + [("delete", i, None) for i in range(0, 30, 5)]
)


def mixed_workload(cluster):
    kinds = {
        "insert": WriteKind.INSERT,
        "update": WriteKind.UPDATE,
        "delete": WriteKind.DELETE,
    }
    for kind, key, row in MIXED_OPS:
        cluster.execute_transaction([WriteOp(kinds[kind], "t", key, row)])
    cluster.drain_replication()
    cluster.sync()


class TestColumnarReplica:
    def test_matches_model(self):
        model = TableModel().apply_all(
            (kind, key, row, ts) for ts, (kind, key, row) in enumerate(MIXED_OPS, 1)
        )
        cluster = build_cluster()
        mixed_workload(cluster)
        result = cluster.analytic_scan("t", None, ALWAYS_TRUE)
        got = sorted(
            zip(result.arrays["id"].tolist(), result.arrays["v"].tolist())
        )
        assert got == model.rows()
        assert len(cluster.columnar.column_stores["t"]) == len(model)
        # Drained and merged: the learner is at the OLTP horizon.
        assert cluster.columnar.applied_ts == cluster.clock.now()
        assert cluster.freshness_lag_ts() == 0


class TestClusterBulkLoad:
    def test_rows_visible_on_row_and_column_paths(self):
        cluster = build_cluster()
        rows = [(i, float(i)) for i in range(40)]
        ts = cluster.bulk_load("t", rows)
        assert ts > 0
        assert cluster.read("t", 17) == (17, 17.0)
        cluster.drain_replication()
        cluster.sync()
        result = cluster.analytic_scan("t", ["id"], ALWAYS_TRUE)
        assert sorted(result.arrays["id"].tolist()) == list(range(40))

    def test_matches_transactional_load(self):
        rows = [(i, float(i)) for i in range(25)]
        bulk = build_cluster()
        bulk.bulk_load("t", rows)
        txn = build_cluster()
        for row in rows:
            txn.execute_transaction(
                [WriteOp(WriteKind.INSERT, "t", row[0], row)]
            )
        for cluster in (bulk, txn):
            cluster.drain_replication()
            cluster.sync()
        a = bulk.analytic_scan("t", None, ALWAYS_TRUE)
        b = txn.analytic_scan("t", None, ALWAYS_TRUE)
        assert sorted(a.arrays["id"].tolist()) == sorted(b.arrays["id"].tolist())
        assert sorted(a.arrays["v"].tolist()) == sorted(b.arrays["v"].tolist())

    def test_unknown_table_rejected(self):
        cluster = build_cluster()
        with pytest.raises(KeyNotFoundError):
            cluster.bulk_load("nope", [(1, 1.0)])

    def test_empty_load_is_noop(self):
        cluster = build_cluster()
        before = cluster.commits
        cluster.bulk_load("t", [])
        assert cluster.commits == before


def test_an_idle_replica_merge_observes_nothing():
    """``merge_deltas`` with no sealed file is not a merge: the batch
    and latency histograms of the technique it runs record the merges
    that happened, one per table that had files, and no zeroes."""
    from repro.distributed.replica import ColumnarReplica
    from repro.obs import MetricsRegistry, set_registry

    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        replica = ColumnarReplica({"t": make_schema(), "u": make_schema()}, CostModel())
        batch = registry.histogram("sync.batch_rows", technique="log_merge")
        latency = registry.histogram("sync.merge_latency_us", technique="log_merge")
        for _ in range(3):
            assert replica.merge_deltas() == 0
        assert (batch.count, latency.count) == (0, 0)
        ops = [WriteOp(WriteKind.INSERT, "t", k, (k, 1.0)) for k in range(3)]
        replica.learner_apply_batch(0, 0, [("commit1p", 1, ops, 1)])
        assert replica.merge_deltas() == 3
        assert (batch.count, latency.count) == (1, 1)
        assert batch.summary()["max"] == 3
    finally:
        set_registry(previous)
