"""Failure injection on the distributed substrate.

Partitions, crashes, and recoveries — the situations architecture (b)'s
machinery (Raft quorums, learner lag, 2PC atomicity) exists to survive.
"""

import pytest

from repro.common import Column, ConsensusError, CostModel, DataType, Schema
from repro.distributed import (
    DistributedCluster,
    RaftGroup,
    Role,
    ReshardPhase,
    ShardMerge,
    ShardSplit,
    SimNetwork,
)
from repro.obs import get_registry


def make_cluster(**kwargs):
    schema = Schema(
        "acct",
        [Column("id", DataType.INT64), Column("bal", DataType.FLOAT64)],
        ["id"],
    )
    cluster = DistributedCluster(n_storage_nodes=3, seed=17, **kwargs)
    cluster.create_table(schema)
    return cluster


class TestRaftFaults:
    def _group(self, seed=21):
        cost = CostModel()
        net = SimNetwork(cost)
        group = RaftGroup("g", ["a", "b", "c"], ["lrn"], net, cost, seed=seed)
        return group, net

    def test_minority_partition_keeps_committing(self):
        group, net = self._group()
        leader = group.elect_leader()
        minority = next(
            n for n in group.nodes.values()
            if n.role is not Role.LEARNER and n.node_id != leader.node_id
        )
        net.crash(minority.node_id)
        for i in range(5):
            group.propose_and_wait(("op", i))
        assert group.elect_leader().commit_index >= 5

    def test_majority_partition_stalls_then_recovers(self):
        group, net = self._group()
        leader = group.elect_leader()
        for node in group.nodes.values():
            if node.node_id != leader.node_id and node.role is not Role.LEARNER:
                net.crash(node.node_id)
        index = leader.client_propose(("stalled", 1))
        group.run_for(20_000)
        assert leader.commit_index < index  # no quorum, no commit
        net.heal_all()
        for node_id in list(group.nodes):
            net.restart(node_id)
        group.run_for(30_000)
        # After healing, the entry (or a re-proposed successor) commits.
        new_leader = group.elect_leader()
        group.propose_and_wait(("after-heal", 2))
        commands = [e.command for e in new_leader.log[1:new_leader.commit_index + 1]]
        assert ("after-heal", 2) in commands

    def test_a_leader_elected_with_uncommitted_entries_serves_after_its_no_op(self):
        """The leader crashes once its entry reached the followers but
        before they learned it committed.  Its successor cannot know
        that until it commits an entry of its own term: it appends a
        no-op on election, does not know its commits until the no-op
        commits, and ``serving_leader`` waits for that."""
        group, net = self._group()
        applied = []
        group.nodes["lrn"]._apply_batch_fn = lambda start, commands: applied.extend(
            commands
        )
        leader = group.elect_leader()
        group.propose_and_wait(("op", 0))
        group.run_for(5_000)
        index = leader.client_propose(("op", 1))
        net.advance(net._cost.network_oneway_us)  # the followers append it
        net.crash(leader.node_id)
        successor = None
        while successor is None or successor is leader:
            group.run_for(100)
            successor = group.leader()
        assert successor.commit_index < index
        assert successor.log[-1].command is None
        assert successor.log[-1].term == successor.current_term
        assert not successor.knows_commits()
        serving = group.serving_leader()
        assert serving.knows_commits() and serving.commit_index > index
        assert serving.log[index].command == ("op", 1)
        group.run_for(5_000)
        assert [c for c in applied if c is not None] == [("op", 0), ("op", 1)]

    def test_crashed_learner_catches_up(self):
        group, net = self._group()
        applied = []
        group.nodes["lrn"]._apply_fn = lambda i, c: applied.append(c)
        group.elect_leader()
        net.crash("lrn")
        for i in range(4):
            group.propose_and_wait(("op", i))
        assert applied == []
        net.restart("lrn")
        group.run_for(20_000)
        assert applied == [("op", i) for i in range(4)]

    def test_repeated_failovers_preserve_committed_prefix(self):
        group, net = self._group(seed=5)
        committed = []
        for round_i in range(3):
            leader = group.elect_leader()
            group.propose_and_wait(("round", round_i))
            committed.append(("round", round_i))
            net.crash(leader.node_id)
            group.run_for(20_000)
            net.restart(leader.node_id)
            group.run_for(10_000)
        # A new leader only advances commit past prior-term entries once
        # it commits an entry of its own term (Raft §5.4.2) — propose a
        # final marker to flush the committed prefix.
        group.propose_and_wait(("final", 99))
        leader = group.elect_leader()
        log_commands = [
            e.command for e in leader.log[1 : leader.commit_index + 1]
        ]
        # All committed commands survive every failover, in order.
        positions = [log_commands.index(c) for c in committed]
        assert positions == sorted(positions)


class TestHealRestartSplit:
    """heal_all() repairs links only; crashed nodes need restart_all()."""

    def _group(self, seed=21):
        cost = CostModel()
        net = SimNetwork(cost)
        group = RaftGroup("g", ["a", "b", "c"], ["lrn"], net, cost, seed=seed)
        return group, net

    def test_heal_all_leaves_crashed_nodes_down(self):
        group, net = self._group()
        group.elect_leader()
        net.partition("a", "b")
        net.crash("lrn")
        applied = []
        group.nodes["lrn"]._apply_fn = lambda i, c: applied.append(c)
        net.heal_all()
        # The cut link is back ...
        assert net._link_ok("a", "b")
        # ... but the crashed learner is still silent.
        group.propose_and_wait(("op", 1))
        group.run_for(20_000)
        assert applied == []
        net.restart_all()
        group.run_for(20_000)
        assert ("op", 1) in applied

    def test_restart_all_does_not_heal_partitions(self):
        _group, net = self._group()
        net.partition("a", "b")
        net.crash("c")
        net.restart_all()
        assert not net._link_ok("a", "b")
        assert net._link_ok("a", "c")

    def test_message_counters_track_drops(self):
        group, net = self._group()
        group.elect_leader()
        net.crash("lrn")
        sent0, dropped0 = net.sent, net.dropped
        group.propose_and_wait(("op", 1))
        group.run_for(5_000)
        assert net.sent > sent0
        assert net.dropped > dropped0  # the learner's appends went nowhere


class TestClusterFaults:
    def test_follower_crash_does_not_block_commits(self):
        cluster = make_cluster()
        cluster.insert("acct", (1, 1.0))
        # Crash one physical node's replicas (all raft instances named *.n2).
        for node_id in list(cluster.network.node_ids()):
            if node_id.endswith(".n2"):
                cluster.network.crash(node_id)
        for i in range(2, 8):
            cluster.insert("acct", (i, float(i)))
        assert cluster.commits == 7

    def test_learner_partition_freezes_freshness(self):
        cluster = make_cluster()
        for i in range(10):
            cluster.insert("acct", (i, float(i)))
        cluster.sync()
        assert cluster.freshness_lag_ts() == 0
        for node_id in list(cluster.network.node_ids()):
            if node_id.endswith(".learner"):
                cluster.network.crash(node_id)
        for i in range(10, 20):
            cluster.insert("acct", (i, float(i)))
        # OLTP unaffected; the columnar side cannot see the new commits.
        assert cluster.commits == 20
        result = cluster.analytic_scan("acct", ["id"])
        assert len(result) == 10

    def test_leader_crash_mid_workload_recovers(self):
        cluster = make_cluster()
        for i in range(5):
            cluster.insert("acct", (i, float(i)))
        # Crash the leader replica of region 0.
        leader = cluster._groups[0].elect_leader()
        cluster.network.crash(leader.node_id)
        cluster.advance(30_000)  # let the region re-elect
        for i in range(5, 12):
            cluster.insert("acct", (i, float(i)))
        assert cluster.commits == 12
        for i in range(12):
            assert cluster.read("acct", i) == (i, float(i))


class TestHibernationFaults:
    """Faults injected through the network are what wakes a hibernating
    group: a parked follower has no timer to miss its leader with."""

    def _quiet_group(self, seed=21):
        cost = CostModel()
        net = SimNetwork(cost)
        group = RaftGroup("g", ["a", "b", "c"], ["lrn"], net, cost, seed=seed)
        group.propose_and_wait(("warm", 0))
        group.run_for(5_000)
        assert group.hibernating()
        return group, net, cost

    def test_crashing_a_hibernating_leader_triggers_a_normal_election(self):
        group, net, cost = self._quiet_group()
        old = group.leader()
        assert all(
            n.timer_due_us is None for n in group.nodes.values()
        )  # followers parked too
        net.crash(old.node_id)
        start = cost.now_us()

        def succeeded() -> bool:
            return any(n.is_leader() and n is not old for n in group.nodes.values())

        assert net.run_until(succeeded, 100.0, 20_000.0) < 20_000.0
        elapsed = cost.now_us() - start
        # An election timeout drawn at the crash, then one vote round trip.
        assert 1_500.0 <= elapsed <= 3_000.0 + cost.network_rtt_us + 200.0
        group.propose_and_wait(("after-crash", 1))

    def test_partitioned_hibernating_follower_converges_after_heal(self):
        group, net, _cost = self._quiet_group()
        leader = group.leader()
        cut = next(n for n in group.nodes.values() if n.role is Role.FOLLOWER)
        for other in group.nodes.values():
            if other is not cut:
                net.partition(cut.node_id, other.node_id)
        group.propose_and_wait(("during", 1))  # a quorum of two remains
        group.run_for(10_000)
        assert ("during", 1) not in [e.command for e in cut.log]
        net.heal_all()
        group.run_for(30_000)
        group.propose_and_wait(("after", 2))
        group.run_for(10_000)
        voters = [n for n in group.nodes.values() if n.role is not Role.LEARNER]
        logs = {tuple(e.command for e in n.log[1:]) for n in voters}
        assert len(logs) == 1
        assert len({n.commit_index for n in group.nodes.values()}) == 1
        assert group.hibernating()
        assert leader.current_term <= group.leader().current_term

    def test_retired_groups_never_tick_again(self):
        cluster = make_cluster()
        for i in range(12):
            cluster.insert("acct", (i, float(i)))
        ShardMerge(cluster, 0, 1).run()
        retired = [n for sid in (0, 1) for n in cluster._groups[sid].nodes.values()]
        assert all(n.timer_due_us is None for n in retired)

        def boom():
            raise AssertionError("a retired replica's timer fired")

        for node in retired:
            node.tick = boom
        cluster.drain_replication()
        heartbeats = get_registry().counter("raft.heartbeats")
        beats, dropped = heartbeats.value, cluster.network.dropped
        cluster.network.run_until(lambda: False, 100.0, 1_000_000.0)
        assert heartbeats.value == beats  # the live groups sleep, the dead stay dead
        for i in range(12, 20):
            cluster.insert("acct", (i, float(i)))  # live traffic, live timers
        cluster.drain_replication()
        assert cluster.network.dropped == dropped  # no handler lookup miss
        assert sorted(r[0] for r in cluster.row_scan("acct")) == list(range(20))

    @pytest.mark.parametrize("n_nodes", [3, 8])
    def test_draining_a_drained_cluster_is_free(self, n_nodes):
        schema = Schema(
            "acct",
            [Column("id", DataType.INT64), Column("bal", DataType.FLOAT64)],
            ["id"],
        )
        cluster = DistributedCluster(n_storage_nodes=n_nodes, seed=17)
        cluster.create_table(schema)
        for i in range(20):
            cluster.insert("acct", (i, float(i)))
        cluster.drain_replication()
        for _ in range(3):
            start, sent = cluster.cost.now_us(), cluster.network.sent
            cluster.drain_replication()
            assert cluster.cost.now_us() - start <= 500.0  # one poll step at most
            assert cluster.network.sent == sent


class TestDrainTimeouts:
    def test_a_crashed_follower_does_not_hold_up_a_level_drain(self):
        """The drain asks the learners, not whether the leaders sleep:
        with one follower of shard 0 down (so its leader never
        hibernates) and 20 inserts, the learner is level and the drain
        says so at once, well inside its budget, counting no timeout."""
        cluster = make_cluster()
        cluster.insert("acct", (0, 0.0))
        group = cluster._groups[0]
        follower = next(n for n in group.nodes.values() if n.role is Role.FOLLOWER)
        cluster.network.crash(follower.node_id)
        for i in range(1, 21):
            cluster.insert("acct", (i, float(i)))
        timeouts = get_registry().counter("replication.drain_timeouts")
        before, start = timeouts.value, cluster.cost.now_us()
        assert cluster.drain_replication() is True
        assert cluster.cost.now_us() - start < 50_000.0
        assert timeouts.value == before
        assert not group.hibernating()  # the leader is still awake
        learner = group.nodes["r0.learner"]
        assert learner.last_applied == group.leader().commit_index > 1
        cluster.sync()  # drains again, as fast
        assert timeouts.value == before

    def test_a_crashed_learner_makes_the_drain_time_out_and_say_so(self):
        """A learner that cannot catch up keeps the drain waiting: it
        spends the whole budget, returns False and counts the timeout;
        once the learner is back the drain succeeds."""
        cluster = make_cluster()
        cluster.insert("acct", (0, 0.0))
        group = cluster._groups[0]
        cluster.network.crash("r0.learner")
        for i in range(1, 21):
            cluster.insert("acct", (i, float(i)))
        timeouts = get_registry().counter("replication.drain_timeouts")
        before, start = timeouts.value, cluster.cost.now_us()
        assert cluster.drain_replication() is False
        assert cluster.cost.now_us() - start >= 50_000.0
        assert timeouts.value == before + 1

        cluster.network.restart("r0.learner")
        assert cluster.drain_replication() is True
        assert cluster.drain_replication() is True
        assert timeouts.value == before + 1
        learner = group.nodes["r0.learner"]
        assert learner.last_applied == group.leader().commit_index


    def test_a_flip_whose_drain_times_out_is_refused_and_retried(self):
        """The flip checks its drain: with the source's learner down and
        behind, the cutover is refused before anything changed, the
        phase stays FLIP, and the next step completes it."""
        cluster = make_cluster()
        for i in range(12):
            cluster.insert("acct", (i, float(i)))
        split = ShardSplit(cluster, 0)
        while split.phase is not ReshardPhase.FLIP:
            split.step()
        cluster.network.crash("r0.learner")
        behind = next(k for k in range(100, 200) if cluster.region_of("acct", k) == 0)
        cluster.insert("acct", (behind, 1.0))
        epoch = cluster.metadata.current().epoch
        with pytest.raises(ConsensusError, match="flip refused"):
            split.step()
        assert split.phase is ReshardPhase.FLIP
        assert cluster.metadata.current().epoch == epoch
        cluster.network.restart("r0.learner")
        split.step()
        assert split.done and cluster.metadata.current().epoch > epoch
        ids = sorted(r[0] for r in cluster.row_scan("acct"))
        assert ids == [*range(12), behind]


def scanned_leader(group):
    """``RaftGroup.leader()`` by brute force: every replica that believes
    it leads, the highest term winning, ties to the first in ``nodes``."""
    believers = [n for n in group.nodes.values() if n.role is Role.LEADER]
    return max(believers, key=lambda n: n.current_term) if believers else None


class TestLeaderRegistry:
    """The group's answer to "who leads?" equals a scan of its replicas
    after every step of simulated time, through crashes, partitions that
    leave a stale leader behind, heals, restarts and a split."""

    def _checked_cluster(self):
        cluster = make_cluster()
        checks = {"advances": 0, "stale": 0}
        advance = cluster.network.advance

        def checked_advance(delta_us):
            delivered = advance(delta_us)
            checks["advances"] += 1
            for group in cluster._groups:
                assert group.leader() is scanned_leader(group), group.group_id
                believers = sum(n.role is Role.LEADER for n in group.nodes.values())
                checks["stale"] += believers > 1
            return delivered

        cluster.network.advance = checked_advance
        return cluster, checks

    def test_leader_matches_a_scan_through_faults(self):
        cluster, checks = self._checked_cluster()
        net = cluster.network
        nxt = 0

        def insert(n=1):
            nonlocal nxt
            for _ in range(n):
                cluster.insert("acct", (nxt, float(nxt)))
                nxt += 1

        insert(6)
        crashed = cluster._groups[1].elect_leader()
        net.crash(crashed.node_id)
        cluster.advance(20_000)
        insert(4)

        # Cut shard 0's leader off from its peers: the rest elect a
        # successor at a higher term while the old one still believes.
        group = cluster._groups[0]
        old = group.elect_leader()
        for other in group.nodes:
            if other != old.node_id:
                net.partition(old.node_id, other)
        cluster.advance(20_000)
        assert old.role is Role.LEADER and group.leader() is not old
        insert(4)
        net.heal_all()
        cluster.advance(10_000)
        net.restart(crashed.node_id)
        cluster.advance(10_000)

        split = ShardSplit(cluster, 0)
        while not split.done:
            split.step()
            insert()
        insert(4)
        cluster.drain_replication()

        assert checks["advances"] > 100
        assert checks["stale"] > 0  # the highest-term rule was exercised
        assert sorted(r[0] for r in cluster.row_scan("acct")) == list(range(nxt))
