"""Classic 2PC (the test oracle) and the full distributed cluster."""

import pytest

from repro.common import (
    Column,
    Comparison,
    CostModel,
    DataType,
    Schema,
    TransactionAborted,
    TwoPhaseCommitError,
)
from repro.distributed import (
    DistributedCluster,
    TxnOutcome,
    Vote,
    WriteKind,
    WriteOp,
)
from ..oracle.two_phase import TwoPhaseCoordinator


class FakeParticipant:
    def __init__(self, vote=Vote.YES):
        self.vote = vote
        self.log = []

    def prepare(self, txn_id, payload):
        self.log.append(("prepare", txn_id, payload))
        return self.vote

    def commit(self, txn_id):
        self.log.append(("commit", txn_id))

    def abort(self, txn_id):
        self.log.append(("abort", txn_id))


class TestTwoPhaseCommit:
    def test_all_yes_commits(self):
        coord = TwoPhaseCoordinator()
        a, b = FakeParticipant(), FakeParticipant()
        result = coord.execute({"a": 1, "b": 2}, {"a": a, "b": b})
        assert result.outcome is TxnOutcome.COMMITTED
        assert ("commit", result.txn_id) in a.log
        assert ("commit", result.txn_id) in b.log
        assert result.rtts == 4

    def test_one_no_aborts_everyone(self):
        coord = TwoPhaseCoordinator()
        a, b = FakeParticipant(), FakeParticipant(vote=Vote.NO)
        result = coord.execute({"a": 1, "b": 2}, {"a": a, "b": b})
        assert result.outcome is TxnOutcome.ABORTED
        assert ("abort", result.txn_id) in a.log
        assert ("commit", result.txn_id) not in a.log

    def test_single_participant_skips_prepare_round(self):
        coord = TwoPhaseCoordinator()
        a = FakeParticipant()
        result = coord.execute({"a": 1}, {"a": a})
        assert result.outcome is TxnOutcome.COMMITTED
        assert result.rtts == 1

    def test_empty_transaction_rejected(self):
        with pytest.raises(TwoPhaseCommitError):
            TwoPhaseCoordinator().execute({}, {})

    def test_unknown_participant_rejected(self):
        with pytest.raises(TwoPhaseCommitError):
            TwoPhaseCoordinator().execute({"z": 1}, {"a": FakeParticipant()})

    def test_network_cost_charged(self):
        cost = CostModel()
        coord = TwoPhaseCoordinator(cost=cost)
        coord.execute(
            {"a": 1, "b": 2}, {"a": FakeParticipant(), "b": FakeParticipant()}
        )
        assert cost.now_us() >= 4 * cost.network_rtt_us


def make_cluster(**kwargs):
    schema = Schema(
        "acct",
        [Column("id", DataType.INT64), Column("bal", DataType.FLOAT64)],
        ["id"],
    )
    cluster = DistributedCluster(n_storage_nodes=3, seed=3, **kwargs)
    cluster.create_table(schema)
    return cluster


class TestCluster:
    def test_insert_and_read(self):
        cluster = make_cluster()
        for i in range(20):
            cluster.insert("acct", (i, 100.0))
        assert cluster.read("acct", 7) == (7, 100.0)
        assert cluster.read("acct", 99) is None
        assert cluster.commits == 20

    def test_cross_region_transaction_atomic(self):
        cluster = make_cluster()
        cluster.insert("acct", (1, 100.0))
        cluster.insert("acct", (2, 100.0))
        cluster.execute_transaction([
            WriteOp(WriteKind.UPDATE, "acct", 1, (1, 50.0)),
            WriteOp(WriteKind.UPDATE, "acct", 2, (2, 150.0)),
        ])
        assert cluster.read("acct", 1) == (1, 50.0)
        assert cluster.read("acct", 2) == (2, 150.0)

    def test_validation_failure_aborts_atomically(self):
        cluster = make_cluster()
        cluster.insert("acct", (1, 100.0))
        with pytest.raises(TransactionAborted):
            cluster.execute_transaction([
                WriteOp(WriteKind.UPDATE, "acct", 1, (1, 0.0)),
                WriteOp(WriteKind.UPDATE, "acct", 999, (999, 0.0)),  # missing
            ])
        # The valid half must not have applied.
        assert cluster.read("acct", 1) == (1, 100.0)
        assert cluster.aborts == 1

    def test_duplicate_insert_aborts(self):
        cluster = make_cluster()
        cluster.insert("acct", (1, 1.0))
        with pytest.raises(TransactionAborted):
            cluster.insert("acct", (1, 2.0))

    def test_row_scan_scatter_gather(self):
        cluster = make_cluster()
        for i in range(30):
            cluster.insert("acct", (i, float(i)))
        rows = cluster.row_scan("acct", Comparison("bal", ">=", 25.0))
        assert sorted(r[0] for r in rows) == [25, 26, 27, 28, 29]

    def test_learner_feeds_columnar_replica(self):
        cluster = make_cluster()
        for i in range(25):
            cluster.insert("acct", (i, float(i)))
        assert cluster.freshness_lag_ts() > 0
        merged = cluster.sync()
        assert merged == 25
        assert cluster.freshness_lag_ts() == 0
        result = cluster.analytic_scan("acct", ["bal"], Comparison("bal", "<", 5.0))
        assert len(result) == 5

    def test_analytic_scan_sees_sealed_unmerged_deltas(self):
        cluster = make_cluster()
        for i in range(10):
            cluster.insert("acct", (i, float(i)))
        cluster.drain_replication()
        for log in cluster.columnar.delta_logs.values():
            log.seal()
        assert len(cluster.analytic_scan("acct", ["id"])) == 0  # shipping
        cluster.drain_replication()  # the sealed files land
        result = cluster.analytic_scan("acct", ["id"])
        assert len(result) == 10
        assert cluster.columnar.column_stores["acct"].segment_count() == 0

    def test_stale_read_without_delta(self):
        cluster = make_cluster()
        for i in range(10):
            cluster.insert("acct", (i, float(i)))
        result = cluster.analytic_scan("acct", ["id"], read_delta=False)
        assert len(result) == 0  # nothing merged yet

    def test_update_visible_after_sync(self):
        cluster = make_cluster()
        cluster.insert("acct", (1, 1.0))
        cluster.sync()
        cluster.update("acct", (1, 42.0))
        cluster.sync()
        result = cluster.analytic_scan("acct", ["bal"], Comparison("id", "=", 1))
        assert result.arrays["bal"].tolist() == [42.0]

    def test_delete_visible_after_sync(self):
        cluster = make_cluster()
        cluster.insert("acct", (1, 1.0))
        cluster.insert("acct", (2, 2.0))
        cluster.sync()
        cluster.delete("acct", 1)
        cluster.sync()
        result = cluster.analytic_scan("acct", ["id"])
        assert result.arrays["id"].tolist() == [2]

    def test_busy_ledger_spreads_over_nodes(self):
        cluster = make_cluster()
        for i in range(30):
            cluster.insert("acct", (i, 1.0))
        busy = cluster.ledger.snapshot()
        tp_nodes = [n for n in busy if n.startswith("n")]
        assert len(tp_nodes) == 3
        assert cluster.ledger.makespan_us() < cluster.ledger.total_us()
