"""Simulated network and Raft consensus: elections, replication, safety."""

import pytest

from repro.common import ConsensusError, CostModel, NotLeaderError
from repro.distributed import RaftGroup, Role, SimNetwork
from repro.distributed.raft import RaftNode
from repro.obs import get_registry


def make_group(voters=3, learners=1, seed=7):
    cost = CostModel()
    net = SimNetwork(cost)
    voter_ids = [f"v{i}" for i in range(voters)]
    learner_ids = [f"l{i}" for i in range(learners)]
    group = RaftGroup("g", voter_ids, learner_ids, net, cost, seed=seed)
    return group, net, cost


class TestSimNetwork:
    def test_messages_delivered_after_latency(self):
        cost = CostModel()
        net = SimNetwork(cost)
        inbox = []
        net.register("a", lambda src, msg: None)
        net.register("b", lambda src, msg: inbox.append((src, msg)))
        net.send("a", "b", "hello")
        assert inbox == []
        net.advance(cost.network_oneway_us + 1)
        assert inbox == [("a", "hello")]

    def test_partition_drops(self):
        cost = CostModel()
        net = SimNetwork(cost)
        inbox = []
        net.register("a", lambda s, m: None)
        net.register("b", lambda s, m: inbox.append(m))
        net.partition("a", "b")
        net.send("a", "b", "lost")
        net.advance(1000)
        assert inbox == []
        assert net.dropped == 1
        net.heal("a", "b")
        net.send("a", "b", "found")
        net.advance(1000)
        assert inbox == ["found"]

    def test_crash_silences_node(self):
        cost = CostModel()
        net = SimNetwork(cost)
        inbox = []
        net.register("a", lambda s, m: None)
        net.register("b", lambda s, m: inbox.append(m))
        net.crash("b")
        net.send("a", "b", "x")
        net.advance(1000)
        assert inbox == []

    def test_duplicate_registration_rejected(self):
        net = SimNetwork(CostModel())
        net.register("a", lambda s, m: None)
        with pytest.raises(ValueError):
            net.register("a", lambda s, m: None)

    def test_ordering_preserved_for_same_latency(self):
        cost = CostModel()
        net = SimNetwork(cost)
        inbox = []
        net.register("a", lambda s, m: None)
        net.register("b", lambda s, m: inbox.append(m))
        for i in range(5):
            net.send("a", "b", i)
        net.advance(1000)
        assert inbox == [0, 1, 2, 3, 4]


class TestElection:
    def test_single_leader_elected(self):
        group, _net, _cost = make_group()
        leader = group.elect_leader()
        leaders = [n for n in group.nodes.values() if n.is_leader()]
        assert leaders == [leader]

    def test_learner_never_becomes_leader(self):
        group, net, _ = make_group()
        leader = group.elect_leader()
        net.crash(leader.node_id)
        group.run_for(20_000)
        new_leader = group.elect_leader()
        assert new_leader.role is Role.LEADER
        assert not new_leader.node_id.startswith("l")

    def test_failover_and_recovery(self):
        group, net, _ = make_group()
        leader = group.elect_leader()
        group.propose_and_wait(("a", 1))
        net.crash(leader.node_id)
        group.run_for(20_000)
        new_leader = group.elect_leader()
        assert new_leader.node_id != leader.node_id
        assert new_leader.current_term > leader.current_term
        group.propose_and_wait(("b", 2))
        # Old leader rejoins as follower and catches up.
        net.restart(leader.node_id)
        group.run_for(10_000)
        assert leader.role is not Role.LEADER or leader.current_term >= new_leader.current_term

    def test_single_voter_self_elects(self):
        group, _net, _ = make_group(voters=1, learners=0)
        leader = group.elect_leader()
        index = leader.client_propose(("solo", 1))
        assert leader.commit_index >= index


class TestReplication:
    def test_commands_apply_in_order_everywhere(self):
        cost = CostModel()
        net = SimNetwork(cost)
        applied: dict[str, list] = {f"v{i}": [] for i in range(3)}
        applied["l0"] = []
        group = RaftGroup(
            "g",
            ["v0", "v1", "v2"],
            ["l0"],
            net,
            cost,
            apply_fns={k: (lambda idx, cmd, k=k: applied[k].append(cmd)) for k in applied},
            seed=3,
        )
        for i in range(10):
            group.propose_and_wait(("cmd", i))
        group.run_for(5_000)
        expected = [("cmd", i) for i in range(10)]
        for node_id, log in applied.items():
            assert log == expected, node_id

    def test_learner_does_not_count_for_quorum(self):
        group, net, _ = make_group(voters=3, learners=1)
        leader = group.elect_leader()
        # Cut every other voter: only the learner remains reachable.
        for node in group.nodes.values():
            if node.node_id != leader.node_id and node.role is not Role.LEARNER:
                net.crash(node.node_id)
        index = leader.client_propose(("nope", 1))
        group.run_for(10_000)
        assert leader.commit_index < index

    def test_commit_requires_majority(self):
        group, net, _ = make_group(voters=3, learners=0)
        leader = group.elect_leader()
        followers = [n for n in group.nodes.values() if n.role is Role.FOLLOWER]
        net.crash(followers[0].node_id)
        # One follower alive: quorum of 2 still reachable.
        index = leader.client_propose(("ok", 1))
        group.run_for(10_000)
        assert leader.commit_index >= index

    def test_propose_on_follower_rejected(self):
        group, _net, _ = make_group()
        group.elect_leader()
        follower = next(n for n in group.nodes.values() if n.role is Role.FOLLOWER)
        with pytest.raises(NotLeaderError):
            follower.client_propose(("x", 1))

    def test_divergent_log_truncated(self):
        """A deposed leader's uncommitted entries are overwritten."""
        group, net, _ = make_group(voters=3, learners=0, seed=11)
        leader = group.elect_leader()
        group.propose_and_wait(("committed", 1))
        # Isolate the leader, then have it append an entry no one sees.
        for other in group.nodes.values():
            if other.node_id != leader.node_id:
                net.partition(leader.node_id, other.node_id)
        leader.client_propose(("orphan", 2))
        group.run_for(20_000)  # others elect a new leader
        net.heal_all()
        new_leader = group.elect_leader()
        assert new_leader.node_id != leader.node_id
        group.propose_and_wait(("after", 3))
        group.run_for(20_000)
        # The old leader's log must now match the new leader's.
        commands = [e.command for e in leader.log[1:]]
        assert ("orphan", 2) not in commands
        assert ("after", 3) in commands

    def test_log_safety_all_voters_agree_on_committed_prefix(self):
        group, _net, _ = make_group(seed=5)
        for i in range(6):
            group.propose_and_wait(("op", i))
        group.run_for(5_000)
        leader = group.elect_leader()
        committed = leader.commit_index
        logs = [
            tuple(e.command for e in node.log[1 : committed + 1])
            for node in group.nodes.values()
        ]
        assert len(set(logs)) == 1


class TestHibernation:
    """A quiescent group goes silent and parks its timers; a propose
    wakes it at no cost in simulated latency."""

    @staticmethod
    def _quiesce(group):
        group.propose_and_wait(("warm", 0))
        group.run_for(5_000)  # the commit index reaches everyone, the acks return
        assert group.hibernating()

    def test_idle_group_is_silent_for_a_simulated_second(self):
        group, net, _cost = make_group()
        self._quiesce(group)
        elections = get_registry().counter("raft.elections")
        sent, held = net.sent, elections.value
        terms = {n.node_id: n.current_term for n in group.nodes.values()}
        group.run_for(1_000_000)
        assert net.sent == sent
        assert elections.value == held
        assert terms == {n.node_id: n.current_term for n in group.nodes.values()}
        assert net.pending() == 0

    def test_propose_on_a_hibernating_group_pays_no_extra_latency(self):
        group, _net, cost = make_group()
        self._quiesce(group)
        wakeups = get_registry().counter("raft.wakeups")
        woke = wakeups.value
        start = cost.now_us()
        group.propose_and_wait(("cold", 1))
        asleep_us = cost.now_us() - start
        assert wakeups.value == woke + 1
        assert not group.hibernating()  # the commit index is still to be told
        start = cost.now_us()
        group.propose_and_wait(("warm", 2))
        assert cost.now_us() - start == asleep_us
        # One round trip, found at the next 100 us poll.
        assert asleep_us <= cost.wal_append_us + cost.network_rtt_us + 100.0

    def test_hibernation_needs_every_replica_level(self):
        """A leader with one crashed follower keeps heartbeating."""
        group, net, _cost = make_group()
        leader = group.elect_leader()
        follower = next(n for n in group.nodes.values() if n.role is Role.FOLLOWER)
        net.crash(follower.node_id)
        group.propose_and_wait(("op", 1))
        heartbeats = get_registry().counter("raft.heartbeats")
        before = heartbeats.value
        group.run_for(10_000)
        assert not group.hibernating()
        assert heartbeats.value - before >= 20  # one per 400 us, as ever
        assert group.leader() is leader

    def test_single_voter_group_hibernates(self):
        group, net, _ = make_group(voters=1, learners=0)
        leader = group.elect_leader()
        leader.client_propose(("solo", 1))
        group.run_for(1_000)
        assert group.hibernating()
        assert net.sent == 0
