"""The optimized commit paths: placement, 1PC, piggybacked 2PC.

Three layers of coverage.  Unit: the placement policy's co-location
algebra and the piggyback coordinator over fake participants.
Differential: identical operation sequences on a production cluster and
on one committing through classic 2PC (``tests/oracle/two_phase``) must
produce identical row state, identical learner-fed columnar state, and
identical abort behavior — the optimization is invisible except in cost.  Chaos: leader
kills with commit rounds in flight, and a mid-workload ShardSplit with
both new commit paths live, all under the runtime sanitizers with an
exactly-once audit against a single-shard reference cluster.
"""

import pytest

from repro.analysis.sanitizer import happens_before, snapshot_isolation
from repro.common import (
    Column,
    DataType,
    RoutingError,
    Schema,
    StorageError,
    TransactionAborted,
    TwoPhaseCommitError,
    WriteConflictError,
)
from repro.distributed import (
    DistributedCluster,
    PiggybackCoordinator,
    PlacementPolicy,
    ShardSplit,
    TxnOutcome,
    Vote,
    WriteKind,
    WriteOp,
    hash_point,
)
from repro.engines import RowIMCSEngine
from ..oracle.two_phase import attach_two_phase
from . import depose_leader

ACCT = Schema(
    "acct",
    [Column("id", DataType.INT64), Column("bal", DataType.FLOAT64)],
    ["id"],
)
HIST = Schema(
    "hist",
    [
        Column("w", DataType.INT64),
        Column("c", DataType.INT64),
        Column("seq", DataType.INT64),
        Column("amt", DataType.FLOAT64),
    ],
    ["w", "c", "seq"],
)


def make_cluster(n_regions=None, seed=11, placed=False):
    cluster = DistributedCluster(n_storage_nodes=3, n_regions=n_regions, seed=seed)
    cluster.create_table(ACCT)
    cluster.create_table(HIST)
    if placed:
        cluster.declare_placement("hist", group="cust", prefix_len=2)
    return cluster


def two_shard_keys(cluster):
    """Two loaded acct keys owned by different shards."""
    k1 = 0
    s1 = cluster.region_of("acct", k1)
    k2 = next(k for k in range(1, 500) if cluster.region_of("acct", k) != s1)
    return k1, k2


# ---------------------------------------------------------------- placement


class TestPlacementPolicy:
    def test_same_prefix_same_point(self):
        policy = PlacementPolicy()
        policy.declare("hist", "cust", 2)
        policy.declare("cust", "cust", 2)
        p1 = policy.point_of("hist", (3, 7, 0))
        p2 = policy.point_of("hist", (3, 7, 999))
        p3 = policy.point_of("cust", (3, 7))
        assert p1 == p2 == p3  # co-located across rows *and* tables
        assert policy.point_of("hist", (3, 8, 0)) != p1

    def test_unruled_table_falls_back_to_hash_point(self):
        policy = PlacementPolicy()
        assert policy.point_of("acct", 42) == hash_point("acct", 42)

    def test_short_key_rejected(self):
        policy = PlacementPolicy()
        policy.declare("hist", "cust", 2)
        with pytest.raises(RoutingError):
            policy.point_of("hist", (3,))

    def test_conflicting_redeclare_rejected(self):
        policy = PlacementPolicy()
        policy.declare("hist", "cust", 2)
        policy.declare("hist", "cust", 2)  # idempotent is fine
        with pytest.raises(StorageError):
            policy.declare("hist", "cust", 3)
        with pytest.raises(StorageError):
            policy.declare("hist", "order", 2)

    def test_bad_declarations_rejected(self):
        policy = PlacementPolicy()
        with pytest.raises(StorageError):
            policy.declare("hist", "cust", 0)
        with pytest.raises(StorageError):
            policy.declare("hist", "", 2)

    def test_cluster_co_locates_and_rejects_late_ddl(self):
        cluster = make_cluster(placed=True)
        sids = {
            cluster.region_of("hist", (5, 9, seq)) for seq in range(50)
        }
        assert len(sids) == 1  # one customer group, one shard
        cluster.insert("acct", (1, 1.0))  # builds the cluster
        with pytest.raises(TwoPhaseCommitError):
            cluster.declare_placement("acct", "cust", 1)

    def test_placement_survives_split(self):
        cluster = make_cluster(placed=True)
        for seq in range(20):
            cluster.insert("hist", (5, 9, seq, float(seq)))
        ShardSplit(cluster, cluster.region_of("hist", (5, 9, 0))).run()
        # The group moved (or stayed) as one unit: still a single shard,
        # and every row is still readable through the new map.
        sids = {cluster.region_of("hist", (5, 9, seq)) for seq in range(20)}
        assert len(sids) == 1
        for seq in range(20):
            assert cluster.read("hist", (5, 9, seq)) == (5, 9, seq, float(seq))

    def test_install_boundaries_balances_expected_load(self):
        cluster = make_cluster(n_regions=4, placed=True)
        # Expected load: four customer groups, equally weighted.
        groups = [(5, c) for c in range(4)]
        sample = [
            cluster.point_of("hist", (*g, 0)) for g in groups for _ in range(50)
        ]
        cluster.install_boundaries(sample)
        # Each group gets its own shard, and routing still works end to
        # end: the cluster's own router converges through the epoch
        # bump the re-cut proposed.
        owners = {cluster.region_of("hist", (*g, 0)) for g in groups}
        assert len(owners) == 4
        for i, g in enumerate(groups):
            cluster.insert("hist", (*g, 0, float(i)))
            assert cluster.read("hist", (*g, 0)) == (*g, 0, float(i))

    def test_install_boundaries_rejected_after_first_commit(self):
        cluster = make_cluster(placed=True)
        cluster.insert("acct", (1, 1.0))
        with pytest.raises(TwoPhaseCommitError):
            cluster.install_boundaries([0, 1, 2])


# ------------------------------------------------------------- coordinator


class FakePiggybackParticipant:
    def __init__(self, vote=Vote.YES):
        self._vote = vote
        self.log = []

    def intent(self, txn_id, payload):
        self.log.append(("intent", txn_id, payload))

    def vote(self, txn_id):
        self.log.append(("vote", txn_id))
        return self._vote

    def resolve(self, txn_id, committed):
        self.log.append(("resolve", txn_id, committed))


class TestPiggybackCoordinator:
    def test_all_yes_commits_in_one_round(self):
        coord = PiggybackCoordinator()
        a, b = FakePiggybackParticipant(), FakePiggybackParticipant()
        result = coord.execute({"a": 1, "b": 2}, {"a": a, "b": b})
        assert result.outcome is TxnOutcome.COMMITTED
        assert result.rtts == 1  # one synchronous round, to both at once
        assert coord._cost.now_us() == 500.0 + 2.0 + 25.0  # one RTT + the decision record
        assert coord.decision(result.txn_id) is True
        assert ("resolve", result.txn_id, True) in a.log
        assert ("resolve", result.txn_id, True) in b.log

    def test_every_intent_is_out_before_a_vote_is_read(self):
        coord = PiggybackCoordinator()
        shared = []
        a, b, c = (FakePiggybackParticipant() for _ in range(3))
        for p in (a, b, c):
            p.log = shared
        result = coord.execute({"a": 1, "b": 2, "c": 3}, {"a": a, "b": b, "c": c})
        assert [entry[0] for entry in shared[:6]] == ["intent"] * 3 + ["vote"] * 3
        assert coord.decision(result.txn_id) is True
        assert ("resolve", result.txn_id, True) in a.log
        assert ("resolve", result.txn_id, True) in b.log

    def test_one_no_aborts_and_resolves_false(self):
        coord = PiggybackCoordinator()
        a = FakePiggybackParticipant()
        b = FakePiggybackParticipant(vote=Vote.NO)
        result = coord.execute({"a": 1, "b": 2}, {"a": a, "b": b})
        assert result.outcome is TxnOutcome.ABORTED
        assert coord.decision(result.txn_id) is False
        assert ("resolve", result.txn_id, False) in a.log

    def test_undecided_txn_has_no_decision(self):
        assert PiggybackCoordinator().decision(999) is None

    def test_bad_inputs_rejected(self):
        coord = PiggybackCoordinator()
        with pytest.raises(TwoPhaseCommitError):
            coord.execute({}, {})
        with pytest.raises(TwoPhaseCommitError):
            coord.execute({"z": 1}, {"a": FakePiggybackParticipant()})

    def test_txn_ids_shared_and_monotonic(self):
        coord = PiggybackCoordinator()
        first = coord.allocate_txn_id()
        result = coord.execute(
            {"a": 1}, {"a": FakePiggybackParticipant()}
        )
        assert result.txn_id == first + 1


# ------------------------------------------------------------- commit paths


class TestSingleShardFastPath:
    def test_single_shard_txn_uses_1pc(self):
        cluster = make_cluster()
        cluster.insert("acct", (1, 100.0))
        assert cluster.commits_single_shard == 1
        assert cluster.commits_piggybacked == 0
        assert cluster.read("acct", 1) == (1, 100.0)

    def test_validation_failure_aborts_with_no_effect(self):
        cluster = make_cluster()
        cluster.insert("acct", (1, 1.0))
        with pytest.raises(TransactionAborted):
            cluster.insert("acct", (1, 2.0))
        assert cluster.aborts == 1
        assert cluster.commits_single_shard == 1  # only the first
        assert cluster.read("acct", 1) == (1, 1.0)


class TestPiggybackedPath:
    def test_multi_shard_txn_piggybacks_and_settles_on_read(self):
        cluster = make_cluster()
        k1, k2 = two_shard_keys(cluster)
        cluster.insert("acct", (k1, 1.0))
        cluster.insert("acct", (k2, 2.0))
        cluster.execute_transaction(
            [
                WriteOp(WriteKind.UPDATE, "acct", k1, (k1, 10.0)),
                WriteOp(WriteKind.UPDATE, "acct", k2, (k2, 20.0)),
            ]
        )
        assert cluster.commits_piggybacked == 1
        # The commit round is in flight: proposed on both shards at the
        # decision, not waited for.
        sids = {cluster.region_of("acct", k) for k in (k1, k2)}
        assert set(cluster._resolving) == sids
        assert all(
            p.commands == [("resolve", p.commands[0][1], True)]
            for sid in sids
            for p in cluster._resolving[sid]
        )
        # A read goes through the decided intents on the live leaders:
        # the decided rows, one round trip and one read each, nothing
        # waited for.
        cost = cluster.cost
        start = cost.now_us()
        assert cluster.read("acct", k1) == (k1, 10.0)
        assert cluster.read("acct", k2) == (k2, 20.0)
        assert cost.now_us() - start == 2 * (cost.network_rtt_us + cost.row_point_read_us)
        assert set(cluster._resolving) == sids
        # A resolve on a deposed leader is waited for: re-proposed on the
        # successor, it commits before the read is served.
        sid = cluster.region_of("acct", k1)
        deposed = depose_leader(cluster, sid)
        assert cluster._resolving[sid][0].leader is deposed
        start = cost.now_us()
        assert cluster.read("acct", k1) == (k1, 10.0)
        assert cost.now_us() - start > cost.network_rtt_us + cost.row_point_read_us
        assert sid not in cluster._resolving
        assert cluster._leader_sm(sid).rows["acct"][k1] == (k1, 10.0)

    def test_multi_shard_abort_leaves_no_partial_state(self):
        cluster = make_cluster()
        k1, k2 = two_shard_keys(cluster)
        cluster.insert("acct", (k1, 1.0))
        with pytest.raises(TransactionAborted):
            cluster.execute_transaction(
                [
                    WriteOp(WriteKind.UPDATE, "acct", k1, (k1, -1.0)),
                    WriteOp(WriteKind.UPDATE, "acct", k2, (k2, -2.0)),  # missing
                ]
            )
        assert cluster.read("acct", k1) == (k1, 1.0)
        assert cluster.aborts == 1

    def test_placement_turns_group_txn_into_1pc(self):
        cluster = make_cluster(placed=True)
        writes = [
            WriteOp(WriteKind.INSERT, "hist", (2, 4, seq), (2, 4, seq, 1.0))
            for seq in range(5)
        ]
        cluster.execute_transaction(writes)
        assert cluster.commits_single_shard == 1
        assert cluster.commits_piggybacked == 0


def wide_updates(cluster, keys, bal):
    return [WriteOp(WriteKind.UPDATE, "acct", k, (k, bal)) for k in keys]


def decided_rows(cluster, keys):
    """What ``read``, ``read_many`` and ``row_scan`` each serve for
    ``keys``; all three must agree."""
    one_by_one = {k: cluster.read("acct", k) for k in keys}
    batch = {k: row for (_t, k), row in cluster.read_many(
        [("acct", k) for k in keys]
    ).items()}
    scanned = {r[0]: r for r in cluster.row_scan("acct") if r[0] in keys}
    scanned.update({k: None for k in keys if k not in scanned})
    assert one_by_one == batch == scanned
    return one_by_one


def learner_rows(cluster):
    """The learner's columnar image of ``acct`` after a sync."""
    cluster.sync()
    arrays = cluster.analytic_scan("acct", ["id", "bal"]).arrays
    return sorted(zip(arrays["id"].tolist(), arrays["bal"].tolist()))


class TestDecidedTruthAtZeroAdvance:
    """The contract the commit round keeps however it is scheduled: once
    a multi-shard commit returns, the very next operation — with no
    simulated time in between — reads and validates against its
    decided rows, on every read path and on every participant."""

    def _three_shard_keys(self, cluster):
        keys, seen = [], set()
        for k in range(500):
            sid = cluster.region_of("acct", k)
            if sid not in seen:
                seen.add(sid)
                keys.append(k)
        return keys

    def test_read_your_writes_on_every_read_path(self):
        cluster = make_cluster()
        keys = self._three_shard_keys(cluster)
        assert len(keys) == 3
        cluster.execute_transaction(
            [WriteOp(WriteKind.INSERT, "acct", k, (k, 1.0)) for k in keys]
        )
        for step in range(1, 6):
            cluster.execute_transaction(wide_updates(cluster, keys, float(step)))
            assert decided_rows(cluster, keys) == {
                k: (k, float(step)) for k in keys
            }
        assert cluster.commits_piggybacked == 6

    def test_next_commit_validates_against_the_decided_rows(self):
        cluster = make_cluster()
        k1, k2 = two_shard_keys(cluster)
        cluster.execute_transaction(
            [
                WriteOp(WriteKind.INSERT, "acct", k1, (k1, 1.0)),
                WriteOp(WriteKind.INSERT, "acct", k2, (k2, 2.0)),
            ]
        )
        # Re-inserting either key, alone (1PC) or both (piggybacked),
        # is refused: the first transaction's inserts are visible.
        for again in ([k1], [k2], [k1, k2]):
            with pytest.raises(TransactionAborted):
                cluster.execute_transaction(
                    [WriteOp(WriteKind.INSERT, "acct", k, (k, 9.0)) for k in again]
                )
        # A delete is decided too: the next transaction may insert again.
        cluster.execute_transaction(
            [
                WriteOp(WriteKind.DELETE, "acct", k1, None),
                WriteOp(WriteKind.DELETE, "acct", k2, None),
            ]
        )
        cluster.execute_transaction(
            [WriteOp(WriteKind.INSERT, "acct", k1, (k1, 3.0))]
        )
        assert decided_rows(cluster, [k1, k2]) == {k1: (k1, 3.0), k2: None}
        assert cluster.aborts == 3

    def test_an_intent_round_meets_a_resolve_on_a_deposed_leader(self):
        """A participant's leader is deposed with the last commit's
        resolve in its log alone.  The next multi-shard commit settles
        that resolve on the successor before proposing its intent there,
        so the intent validates against the decided rows and commits."""
        cluster = make_cluster()
        k1, k2 = two_shard_keys(cluster)
        with happens_before(cluster.network) as checker:
            cluster.execute_transaction(
                [
                    WriteOp(WriteKind.INSERT, "acct", k1, (k1, 1.0)),
                    WriteOp(WriteKind.INSERT, "acct", k2, (k2, 2.0)),
                ]
            )
            sid = cluster.region_of("acct", k1)
            deposed = depose_leader(cluster, sid)
            assert cluster._resolving[sid][0].leader is deposed
            cluster.execute_transaction(wide_updates(cluster, [k1, k2], 5.0))
            assert cluster.commits_piggybacked == 2
            assert decided_rows(cluster, [k1, k2]) == {k1: (k1, 5.0), k2: (k2, 5.0)}
            cluster.network.heal_all()
            assert learner_rows(cluster) == sorted([(k1, 5.0), (k2, 5.0)])
        assert checker.violations == []

    def test_a_leader_crashed_with_its_resolve_unreplicated(self):
        """Crash a participant's leader the instant the commit returns,
        before its commit round reaches any follower: the next operation
        on the shard re-proposes the round on the successor and reads
        the decided rows, on the row path and, after a sync, on the
        learner."""
        cluster = make_cluster()
        k1, k2 = two_shard_keys(cluster)
        with happens_before(cluster.network) as checker:
            cluster.execute_transaction(
                [
                    WriteOp(WriteKind.INSERT, "acct", k1, (k1, 1.0)),
                    WriteOp(WriteKind.INSERT, "acct", k2, (k2, 2.0)),
                ]
            )
            cluster.execute_transaction(wide_updates(cluster, [k1, k2], 7.0))
            sid = cluster.region_of("acct", k1)
            crashed = cluster._groups[sid].elect_leader()
            cluster.network.crash(crashed.node_id)
            assert decided_rows(cluster, [k1, k2]) == {k1: (k1, 7.0), k2: (k2, 7.0)}
            assert cluster._groups[sid].leader() is not crashed
            with pytest.raises(TransactionAborted):
                cluster.insert("acct", (k1, 0.0))
            cluster.network.restart_all()
            assert learner_rows(cluster) == sorted([(k1, 7.0), (k2, 7.0)])
        assert checker.violations == []

    def test_a_split_barrier_meets_undecided_commit_rounds(self):
        """Multi-shard commits right before every phase of a split, with
        no time in between: the barrier must wait their commit rounds out
        so the snapshot, the tail and the flip each carry every write
        exactly once."""
        cluster = make_cluster()
        ops = []

        def commit(rows):
            cluster.execute_transaction(
                [WriteOp(WriteKind.INSERT, "acct", r[0], r) for r in rows]
            )
            ops.append(("acct", rows))

        for i in range(0, 40, 4):
            commit([(i, 1.0), (i + 1, 1.0), (i + 2, 1.0), (i + 3, 1.0)])
        split = ShardSplit(cluster, 0)
        lo, hi = split._moving_range()
        moving = (k for k in range(40, 5_000) if lo <= cluster.point_of("acct", k) < hi)
        elsewhere = (k for k in range(40, 5_000) if cluster.region_of("acct", k) != 0)
        while not split.done:
            # One key that moves and one on another shard: the commit
            # round on the source is still in flight when the phase runs.
            commit([(next(moving), 2.0), (next(elsewhere), 2.0)])
            split.step()
        assert cluster.metadata.epoch == 1
        assert cluster.commits_piggybacked > 0
        expected = run_reference(ops)["acct"]
        assert {r[0]: r for r in cluster.row_scan("acct")} == expected
        assert learner_rows(cluster) == sorted(expected.values())


# ------------------------------------------------------------- differential


def mixed_workload(cluster):
    """A deterministic op mix exercising every commit shape; returns the
    per-op outcomes so two clusters can be compared exactly."""
    outcomes = []
    for i in range(24):
        cluster.insert("acct", (i, float(i)))
        outcomes.append(("insert", i, True))
    k1, k2 = two_shard_keys(cluster)
    # Multi-shard updates (piggybacked in production, 2PC on the oracle).
    for round_i in range(6):
        cluster.execute_transaction(
            [
                WriteOp(WriteKind.UPDATE, "acct", k1, (k1, 100.0 + round_i)),
                WriteOp(WriteKind.UPDATE, "acct", k2, (k2, 200.0 + round_i)),
            ]
        )
        outcomes.append(("multi", round_i, True))
    # Failing shapes: duplicate insert (single-shard) and a multi-shard
    # txn with a missing key (one participant votes NO).
    try:
        cluster.insert("acct", (0, -1.0))
        outcomes.append(("dup", 0, True))
    except TransactionAborted:
        outcomes.append(("dup", 0, False))
    try:
        cluster.execute_transaction(
            [
                WriteOp(WriteKind.UPDATE, "acct", k1, (k1, -1.0)),
                WriteOp(WriteKind.UPDATE, "acct", 9999, (9999, -1.0)),
            ]
        )
        outcomes.append(("partial", 0, True))
    except TransactionAborted:
        outcomes.append(("partial", 0, False))
    for i in range(24, 30):
        cluster.insert("acct", (i, float(i)))
        outcomes.append(("insert", i, True))
    return outcomes


class TestFastVsBaselineDifferential:
    def test_identical_state_and_abort_behavior(self):
        fast = make_cluster(seed=7)
        base = make_cluster(seed=7)
        coordinator = attach_two_phase(base)
        fast_outcomes = mixed_workload(fast)
        base_outcomes = mixed_workload(base)
        assert fast_outcomes == base_outcomes  # aborts agree op-for-op
        assert {r[0]: r for r in fast.row_scan("acct")} == {
            r[0]: r for r in base.row_scan("acct")
        }
        # The optimized paths actually ran on the fast side.
        assert fast.commits_single_shard > 0
        assert fast.commits_piggybacked > 0
        assert base.commits_single_shard == base.commits_piggybacked == 0
        assert coordinator.committed == fast.commits
        assert fast.commits == base.commits
        assert fast.aborts == base.aborts

    def test_learner_fed_columnar_state_identical(self):
        fast = make_cluster(seed=7)
        base = make_cluster(seed=7)
        attach_two_phase(base)
        mixed_workload(fast)
        mixed_workload(base)
        fast.sync()
        base.sync()
        fa = fast.analytic_scan("acct", ["id", "bal"]).arrays
        ba = base.analytic_scan("acct", ["id", "bal"]).arrays
        assert sorted(zip(fa["id"], fa["bal"])) == sorted(
            zip(ba["id"], ba["bal"])
        )
        assert fast.freshness_lag_ts() == base.freshness_lag_ts() == 0


# ------------------------------------------------------------------- chaos


def run_reference(ops):
    """Replay ``ops`` on a single-shard cluster: one Raft group, every
    commit 1PC, trivially correct — the exactly-once oracle."""
    ref = make_cluster(n_regions=1, seed=11)
    for table, rows in ops:
        schema = ACCT if table == "acct" else HIST
        ref.execute_transaction(
            [
                WriteOp(WriteKind.INSERT, table, schema.key_of(row), row)
                for row in rows
            ]
        )
    return {
        "acct": {r[0]: r for r in ref.row_scan("acct")},
        "hist": {(r[0], r[1], r[2]): r for r in ref.row_scan("hist")},
    }


class TestCommitPathChaos:
    def test_leader_kill_with_dangling_intents(self):
        """Kill a participant's leader while its commit round is still
        in flight: the resolve must land through the re-elected
        leader."""
        cluster = make_cluster()
        with happens_before(cluster.network) as checker:
            k1, k2 = two_shard_keys(cluster)
            cluster.insert("acct", (k1, 1.0))
            cluster.insert("acct", (k2, 2.0))
            cluster.execute_transaction(
                [
                    WriteOp(WriteKind.UPDATE, "acct", k1, (k1, 10.0)),
                    WriteOp(WriteKind.UPDATE, "acct", k2, (k2, 20.0)),
                ]
            )
            sid = cluster.region_of("acct", k1)
            assert sid in cluster._resolving  # commit round still in flight
            leader = cluster._groups[sid].elect_leader()
            cluster.network.crash(leader.node_id)
            cluster.advance(30_000)  # re-election with the intent staged
            assert cluster.read("acct", k1) == (k1, 10.0)
            assert cluster.read("acct", k2) == (k2, 20.0)
        assert checker.violations == []
        assert checker.deliveries_checked > 0

    def test_split_mid_workload_exactly_once(self):
        """Mid-workload ShardSplit with both optimized paths live and a
        leader kill thrown in: exactly-once against the reference."""
        cluster = make_cluster(placed=True)
        ops = []

        def commit(table, rows):
            schema = ACCT if table == "acct" else HIST
            cluster.execute_transaction(
                [
                    WriteOp(WriteKind.INSERT, table, schema.key_of(row), row)
                    for row in rows
                ]
            )
            ops.append((table, rows))

        with happens_before(cluster.network) as checker:
            for i in range(30):
                commit("acct", [(i, float(i))])
            for seq in range(10):
                commit("hist", [(1, 2, seq, float(seq))])
            split = ShardSplit(cluster, 0)
            nxt, seq = 30, 10
            killed = False
            while not split.done:
                split.step()
                if not killed:
                    leader = cluster._groups[0].elect_leader()
                    cluster.network.crash(leader.node_id)
                    cluster.advance(30_000)
                    killed = True
                # Single-shard (placed group), 1PC, and multi-shard
                # piggybacked traffic between every phase.
                commit("hist", [(1, 2, seq, 1.0), (1, 2, seq + 1, 1.0)])
                seq += 2
                commit("acct", [(nxt, 1.0), (nxt + 1, 1.0)])
                nxt += 2
            assert cluster.metadata.epoch == 1
            assert cluster.commits_single_shard > 0
            assert cluster.commits_piggybacked > 0
            expected = run_reference(ops)
            assert {r[0]: r for r in cluster.row_scan("acct")} == expected[
                "acct"
            ]
            assert {
                (r[0], r[1], r[2]): r for r in cluster.row_scan("hist")
            } == expected["hist"]
        assert checker.violations == []
        assert checker.deliveries_checked > 0

    def test_mvcc_visibility_with_fast_commits_and_split(self):
        """Both sanitizers at once: MVCC reads stay snapshot-correct
        while the fast commit paths and a split run alongside."""
        cluster = make_cluster()
        engine = RowIMCSEngine()
        engine.create_table(ACCT)
        with happens_before(cluster.network) as hb, snapshot_isolation(engine) as si:
            for i in range(20):
                cluster.insert("acct", (i, float(i)))
            for i in range(10):
                engine.insert("acct", (i, 100.0))
            split = ShardSplit(cluster, 0)
            k1, k2 = two_shard_keys(cluster)
            conflicts = 0
            round_i = 0
            while not split.done:
                split.step()
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
                # Piggybacked cluster traffic with commit rounds in flight
                # crossing the split phases.
                cluster.execute_transaction(
                    [
                        WriteOp(
                            WriteKind.UPDATE, "acct", k1, (k1, float(round_i))
                        ),
                        WriteOp(
                            WriteKind.UPDATE, "acct", k2, (k2, float(round_i))
                        ),
                    ]
                )
                round_i += 1
            assert conflicts == round_i
            assert cluster.metadata.epoch == 1
            assert cluster.read("acct", k1) == (k1, float(round_i - 1))
        assert hb.violations == []
        assert si.violations == []
        assert si.reads_checked > 0
