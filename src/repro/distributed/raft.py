"""Raft consensus with learner replicas.

The heart of architecture (b): each partition (region) of the row store
is a Raft group.  The leader appends client commands to its log and
replicates them to voting followers (row replicas) *and* to non-voting
learners — the columnar replicas TiDB uses for OLAP.  Commit requires a
quorum of voters only, so learner lag never slows transactions, which
is exactly why the architecture gets High isolation and Low freshness
in Table 1.

The implementation covers leader election with randomized timeouts,
log replication with consistency checks and conflict rollback, commit
on majority match, and apply callbacks per node.  A leader elected with
entries it cannot know committed appends a no-op of its own term, and
serves no read until that commits (:meth:`RaftGroup.serving_leader`).  It is event-driven:
each voter keeps one timer armed on the deterministic
:class:`~repro.distributed.network.SimNetwork` — the election deadline,
or the next heartbeat once it leads — and :meth:`RaftNode.tick` is what
the network calls when that timer comes due.

A quiescent group *hibernates* (TiKV's hibernate-region): a follower
holding nothing uncommitted parks its election timer, and a leader whose
voters and learners have all acknowledged its last log index and its
commit index stops heartbeating.  A propose wakes the leader and, through
its AppendEntries, the followers; a fault injected through the network
wakes every parked replica — one without a timer cannot miss its leader.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass
from typing import Any, Callable

from ..common.cost import CostModel
from ..common.errors import ConsensusError, NotLeaderError
from ..common.rng import make_rng
from ..obs import get_registry
from .network import SimNetwork

ApplyFn = Callable[[int, Any], None]
"""(log index, command) invoked exactly once per node as entries commit."""

BatchApplyFn = Callable[[int, list], None]
"""(start index, commands) — one call per committed run of entries.

The batched counterpart of :data:`ApplyFn`: when a node has one (TiDB's
learner-side batched log replay), newly committed entries are handed
over as a single contiguous slice ``commands[i]`` holding log index
``start_index + i``, instead of one callback per entry."""


class Role(enum.Enum):
    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    LEADER = "leader"
    LEARNER = "learner"


@dataclass(frozen=True)
class LogEntry:
    term: int
    command: Any


# ----------------------------------------------------------------- messages
# Slotted, not frozen: a frozen dataclass pays ``object.__setattr__`` per
# field on construction, and nothing hashes or mutates a message once
# it is sent.


@dataclass(slots=True)
class RequestVote:
    term: int
    candidate_id: str
    last_log_index: int
    last_log_term: int


@dataclass(slots=True)
class RequestVoteReply:
    term: int
    granted: bool


@dataclass(slots=True)
class AppendEntries:
    term: int
    leader_id: str
    prev_log_index: int
    prev_log_term: int
    entries: tuple
    leader_commit: int


@dataclass(slots=True)
class AppendEntriesReply:
    term: int
    success: bool
    match_index: int
    commit_index: int = 0  # the sender's, so the leader knows who is level


_ELECTION_TIMEOUT_RANGE_US = (1_500.0, 3_000.0)
#: Preferred leaders time out much sooner, so they win first elections —
#: the testbed's stand-in for PD-style leader balancing across nodes.
#: Only the first: the range is below one round trip, so a candidate
#: timing out in it again calls a new election before its votes are
#: back, and a preferred follower whose log is stale times out before
#: any winner's first heartbeat reaches it — it would call elections it
#: cannot win for ever.
_PREFERRED_TIMEOUT_RANGE_US = (300.0, 500.0)
_HEARTBEAT_INTERVAL_US = 400.0
#: How often a wait on the group polls for its outcome.
_POLL_STEP_US = 100.0


class RaftNode:
    """One Raft participant (voter or learner)."""

    def __init__(
        self,
        node_id: str,
        voters: list[str],
        learners: list[str],
        network: SimNetwork,
        cost: CostModel,
        apply_fn: ApplyFn | None = None,
        seed: int = 0,
        preferred: bool = False,
        apply_batch_fn: BatchApplyFn | None = None,
    ):
        self.node_id = node_id
        self.voters = list(voters)
        self.learners = list(learners)
        self._peer_voters = [v for v in voters if v != node_id]
        self._peer_learners = [l for l in learners if l != node_id]
        self._peers = self._peer_voters + self._peer_learners  # replication targets
        self._first_timeout_range_us = (
            _PREFERRED_TIMEOUT_RANGE_US if preferred else _ELECTION_TIMEOUT_RANGE_US
        )
        self._network = network
        self._cost = cost
        self._apply_fn = apply_fn
        self._apply_batch_fn = apply_batch_fn
        # zlib.crc32 is stable across processes (unlike str hash, which
        # is salted and would make elections nondeterministic).
        self._rng = make_rng(seed ^ (zlib.crc32(node_id.encode()) & 0xFFFF))

        self.role = Role.LEARNER if node_id in learners else Role.FOLLOWER
        self.current_term = 0
        self.voted_for: str | None = None
        # log[0] is a sentinel so Raft's 1-based indexing reads naturally.
        self.log: list[LogEntry] = [LogEntry(term=0, command=None)]
        self.commit_index = 0
        self.last_applied = 0
        self.leader_id: str | None = None
        #: The armed deadline (kept by the network); None = hibernating.
        self.timer_due_us: float | None = None

        self._votes_received: set[str] = set()
        self._next_index: dict[str, int] = {}
        self._match_index: dict[str, int] = {}
        self._peer_commit: dict[str, int] = {}  # acknowledged since last (re)arm
        #: As leader, the log index whose commit tells it every commit
        #: (its election no-op, or its last entry when it had none).
        self._known_commits_at = 0
        self._election_deadline_us = 0.0
        self._heartbeat_due_us = 0.0
        #: The replicas of this node's group that believe they lead,
        #: shared by every member (its RaftGroup hands it over).
        self._leading: list[RaftNode] = []
        self._dispatch = {
            RequestVote: self._on_request_vote,
            RequestVoteReply: self._on_vote_reply,
            AppendEntries: self._on_append_entries,
            AppendEntriesReply: self._on_append_reply,
        }

        registry = get_registry()
        self._m_elections = registry.counter("raft.elections")
        self._m_heartbeats = registry.counter("raft.heartbeats")
        self._m_wakeups = registry.counter("raft.wakeups")
        self._m_replication_lag = registry.histogram("raft.replication_lag")

        network.register(node_id, self._on_message)
        self._restart_election_timer()

    # ------------------------------------------------------------- helpers

    def last_log_index(self) -> int:
        return len(self.log) - 1

    def last_log_term(self) -> int:
        return self.log[-1].term

    def is_leader(self) -> bool:
        return self.role is Role.LEADER

    def knows_commits(self) -> bool:
        """As leader: its commit index covers every entry any leader has
        committed, so its applied state holds them.  A leader elected
        with uncommitted entries does not know which of them a
        predecessor committed until the no-op it appended on election
        commits (§5.4.2); until then it must not serve reads (§8)."""
        return self.commit_index >= self._known_commits_at

    # ------------------------------------------------------------- timer

    def _arm(self) -> None:
        """Point this node's one timer at the deadline its role waits
        for; called wherever the role or that deadline changes."""
        if self.role is Role.LEARNER:
            return
        leads = self.role is Role.LEADER
        if leads and self.timer_due_us is None:
            self._m_wakeups.inc()  # a hibernating group wakes; its leader counts it
        self._network.arm(
            self, self._heartbeat_due_us if leads else self._election_deadline_us
        )

    def _restart_election_timer(self) -> None:
        first = self.current_term == 0
        timeout_us = self._rng.uniform(
            *(self._first_timeout_range_us if first else _ELECTION_TIMEOUT_RANGE_US)
        )
        self._election_deadline_us = self._cost.now_us() + timeout_us
        self._arm()

    def _quiescent(self) -> bool:
        """Every voter and learner has acknowledged both the last log
        index and the commit index: there is nothing left to tell."""
        last = len(self.log) - 1
        if self.commit_index != last:
            return False
        match, acked = self._match_index, self._peer_commit
        for peer in self._peers:
            if match[peer] != last or acked.get(peer) != last:
                return False
        return True

    def tick(self) -> None:
        """The timer came due: a heartbeat round, or an election."""
        if self.role is not Role.LEADER:
            self._start_election()
        elif self._quiescent():
            self._network.disarm(self)  # hibernate
        else:
            self._send_heartbeats()

    def rearm(self) -> None:
        """The network's wake-up call — the world was suspended, or a
        fault was injected while this node was parked: restart the
        election clock, and as leader forget who was level, so a full
        heartbeat round must confirm it before hibernating again."""
        if self.role is Role.LEADER:
            self._heartbeat_due_us = self._cost.now_us()  # catch followers up now
            self._peer_commit.clear()
        self._restart_election_timer()

    def _start_election(self) -> None:
        self._m_elections.inc()
        self.role = Role.CANDIDATE
        self.current_term += 1
        self.voted_for = self.node_id
        self._votes_received = {self.node_id}
        self.leader_id = None
        self._restart_election_timer()
        if len(self.voters) == 1:
            self._become_leader()
            return
        message = RequestVote(
            self.current_term, self.node_id, self.last_log_index(), self.last_log_term()
        )
        for peer in self._peer_voters:
            self._network.send(self.node_id, peer, message)

    def _become_leader(self) -> None:
        self.role = Role.LEADER  # entered from CANDIDATE only
        self._leading.append(self)
        self.leader_id = self.node_id
        nxt = self.last_log_index() + 1
        self._next_index = dict.fromkeys(self._peers, nxt)
        self._match_index = dict.fromkeys(self._peers, 0)
        self._peer_commit = {}
        if self.commit_index < nxt - 1:
            # Entries it cannot know committed: a no-op of its own term
            # commits them (§5.4.2).  With none, it knows every commit
            # already, so a quiet election appends nothing.
            self.log.append(LogEntry(term=self.current_term, command=None))
        self._known_commits_at = len(self.log) - 1
        self._send_heartbeats()

    # ------------------------------------------------------------- client API

    def client_propose(self, command: Any) -> int:
        """Append a command (leader only); returns its log index."""
        return self.client_propose_batch([command])

    def client_propose_batch(self, commands: list[Any]) -> int:
        """Append a run of commands in one log write + one replication
        round; returns the index of the last one (leader only)."""
        if self.role is not Role.LEADER:
            raise NotLeaderError(self.node_id, self.leader_id)
        if not commands:
            return self.last_log_index()
        term = self.current_term
        self.log.extend(LogEntry(term=term, command=c) for c in commands)
        self._cost.charge_rows(self._cost.wal_append_us, len(commands))  # local log write
        self._send_heartbeats()  # eager replication
        if len(self.voters) == 1:
            self._advance_commit()
        return self.last_log_index()

    # ------------------------------------------------------------- replication

    def _send_heartbeats(self) -> None:
        self._m_heartbeats.inc()
        self._heartbeat_due_us = self._cost.now_us() + _HEARTBEAT_INTERVAL_US
        self._arm()
        for peer in self._peers:
            self._send_append(peer)

    def _send_append(self, peer: str) -> None:
        next_idx = self._next_index[peer]  # never past the leader's own log
        prev_idx = next_idx - 1
        message = AppendEntries(
            self.current_term,
            self.node_id,
            prev_idx,
            self.log[prev_idx].term,
            tuple(self.log[next_idx:]),
            self.commit_index,
        )
        self._network.send(self.node_id, peer, message)

    # ------------------------------------------------------------- handlers

    def _on_message(self, src: str, message: Any) -> None:
        handler = self._dispatch.get(type(message))
        if handler is None:
            raise ConsensusError(f"unknown raft message {message!r}")
        handler(src, message)

    def _step_down(self, term: int) -> None:
        """A message carried a higher term: adopt it as a follower."""
        self.current_term = term
        self.voted_for = None
        if self.role is not Role.LEARNER:
            if self.role is Role.LEADER:
                self._leading.remove(self)
            self.role = Role.FOLLOWER
            self._arm()

    def _on_request_vote(self, src: str, msg: RequestVote) -> None:
        if msg.term > self.current_term:
            self._step_down(msg.term)
        grant = False
        if msg.term >= self.current_term and self.role is not Role.LEARNER:
            mine = (self.last_log_term(), self.last_log_index())
            up_to_date = (msg.last_log_term, msg.last_log_index) >= mine
            if up_to_date and self.voted_for in (None, msg.candidate_id):
                grant = True
                self.voted_for = msg.candidate_id
                self._restart_election_timer()
        self._network.send(self.node_id, src, RequestVoteReply(self.current_term, grant))

    def _on_vote_reply(self, src: str, msg: RequestVoteReply) -> None:
        if msg.term > self.current_term:
            self._step_down(msg.term)
        if self.role is not Role.CANDIDATE or msg.term < self.current_term:
            return
        if msg.granted:
            self._votes_received.add(src)
            if len(self._votes_received) > len(self.voters) // 2:
                self._become_leader()

    def _reply_append(self, dst: str, success: bool, match_index: int = 0) -> None:
        reply = AppendEntriesReply(self.current_term, success, match_index, self.commit_index)
        self._network.send(self.node_id, dst, reply)

    def _on_append_entries(self, src: str, msg: AppendEntries) -> None:
        if msg.term > self.current_term:
            self._step_down(msg.term)
        elif msg.term < self.current_term:
            self._reply_append(src, False)
            return
        # A valid leader exists: reset election pressure.
        self.leader_id = msg.leader_id
        if self.role is Role.CANDIDATE:
            self.role = Role.FOLLOWER
        # Log consistency check.
        log = self.log
        index = msg.prev_log_index
        if index >= len(log) or log[index].term != msg.prev_log_term:
            self._restart_election_timer()
            self._reply_append(src, False)
            return
        # Append, truncating conflicts.
        for entry in msg.entries:
            index += 1
            if index < len(log):
                if log[index].term != entry.term:
                    del log[index:]
                    log.append(entry)
            else:
                log.append(entry)
        last = len(log) - 1
        if msg.leader_commit > self.commit_index:
            self.commit_index = min(msg.leader_commit, last)
            self._apply_committed()
        if self.commit_index == last:
            # Nothing uncommitted held, the leader owes us no news: hibernate.
            self._network.disarm(self)
        else:
            self._restart_election_timer()
        self._reply_append(src, True, index)

    def _on_append_reply(self, src: str, msg: AppendEntriesReply) -> None:
        if msg.term > self.current_term:
            self._step_down(msg.term)
        if self.role is not Role.LEADER:
            return
        if msg.success:
            match = self._match_index.get(src, 0)
            if msg.match_index > match:
                match = msg.match_index
            self._match_index[src] = match
            self._next_index[src] = match + 1
            self._peer_commit[src] = msg.commit_index
            self._advance_commit()
            if self.timer_due_us is not None and self._quiescent():
                self._network.disarm(self)  # hibernate
        else:
            # Back off and retry immediately.
            self._next_index[src] = max(1, self._next_index.get(src, 1) - 1)
            self._send_append(src)

    def _advance_commit(self) -> None:
        """Commit the highest index replicated on a quorum of voters."""
        log, match, term = self.log, self._match_index, self.current_term
        majority = len(self.voters) // 2
        for index in range(len(log) - 1, self.commit_index, -1):
            if log[index].term != term:
                continue  # §5.4.2: only commit entries from the current term
            votes = 1  # self
            for voter in self._peer_voters:
                if match.get(voter, 0) >= index:
                    votes += 1
            if votes > majority:
                self.commit_index = index
                self._apply_committed()
                # Learner (columnar replica) lag in log entries at the
                # moment of commit — the Table 1 freshness story in data.
                if self._peer_learners:
                    behind = min(self._match_index[l] for l in self._peer_learners)
                    self._m_replication_lag.observe(float(index - behind))
                break

    def _apply_committed(self) -> None:
        if self._apply_batch_fn is not None and self.last_applied < self.commit_index:
            # Batched replay: hand the whole newly-committed run to the
            # state machine in one call (TiDB-style learner batching).
            start = self.last_applied + 1
            commands = [e.command for e in self.log[start : self.commit_index + 1]]
            self.last_applied = self.commit_index
            self._apply_batch_fn(start, commands)
            return
        while self.last_applied < self.commit_index:
            self.last_applied += 1
            entry = self.log[self.last_applied]
            if self._apply_fn is not None and entry.command is not None:
                self._apply_fn(self.last_applied, entry.command)


class RaftGroup:
    """A convenience wrapper: builds the nodes and drives the simulation."""

    def __init__(
        self,
        group_id: str,
        voter_ids: list[str],
        learner_ids: list[str],
        network: SimNetwork,
        cost: CostModel,
        apply_fns: dict[str, ApplyFn] | None = None,
        seed: int = 0,
        preferred_leader: str | None = None,
        apply_batch_fns: dict[str, BatchApplyFn] | None = None,
    ):
        self.group_id = group_id
        self.network = network
        apply_fns = apply_fns or {}
        apply_batch_fns = apply_batch_fns or {}
        self.nodes: dict[str, RaftNode] = {}
        #: Replicas that believe they lead (one, except while a deposed
        #: leader has not yet heard of its successor's term).
        self._leading: list[RaftNode] = []
        for node_id in list(voter_ids) + list(learner_ids):
            node = self.nodes[node_id] = RaftNode(
                node_id,
                voters=voter_ids,
                learners=learner_ids,
                network=network,
                cost=cost,
                apply_fn=apply_fns.get(node_id),
                seed=seed,
                preferred=(node_id == preferred_leader),
                apply_batch_fn=apply_batch_fns.get(node_id),
            )
            node._leading = self._leading

    def shutdown(self) -> None:
        """Retire the group: deregister every replica from the network
        and cancel its timer.  Used when resharding merges a shard
        away — the group's log is dead weight once the map epoch flips."""
        for node_id, node in self.nodes.items():
            self.network.unregister(node_id)
            self.network.cancel(node)

    def advance(self, delta_us: float) -> None:
        """Advance the shared world clock (every group's timers run)."""
        self.network.advance(delta_us)

    def run_for(self, total_us: float, step_us: float = 100.0) -> None:
        self.network.run_until(lambda: False, step_us, total_us)

    def hibernating(self) -> bool:
        """The group is quiet: its leader has stopped heartbeating."""
        leader = self.leader()
        return leader is not None and leader.timer_due_us is None

    def leader(self) -> RaftNode | None:
        leading = self._leading
        if len(leading) == 1:
            return leading[0]
        if not leading:
            return None
        # With partitions a stale leader can linger; prefer highest term
        # (ties to the first in ``nodes`` order).
        return max(
            (n for n in self.nodes.values() if n in leading),
            key=lambda n: n.current_term,
        )

    def elect_leader(self, max_us: float = 50_000.0) -> RaftNode:
        leader = self.leader()
        if leader is None:
            spent = self.network.run_until(
                lambda: self.leader() is not None, _POLL_STEP_US, max_us
            )
            if spent >= max_us:
                raise ConsensusError(f"group {self.group_id}: no leader after {max_us}us")
            leader = self.leader()
        return leader

    def serving_leader(self, max_us: float = 50_000.0) -> RaftNode:
        """:meth:`elect_leader`, once the leader knows every commit
        (:meth:`RaftNode.knows_commits`): what a read of its applied
        state needs."""
        leader = self.elect_leader(max_us)
        if leader.knows_commits():
            return leader

        def serving() -> bool:
            leader = self.leader()
            return leader is not None and leader.knows_commits()

        if self.network.run_until(serving, _POLL_STEP_US, max_us) >= max_us:
            raise ConsensusError(
                f"group {self.group_id}: no leader knows its commits after {max_us}us"
            )
        return self.leader()

    def propose(self, command: Any) -> "Proposal":
        """Propose ``command`` on the leader and return at once; the
        proposal commits under :func:`await_commit`."""
        return Proposal(self, [command])

    def propose_batch(self, commands: list[Any]) -> "Proposal":
        """:meth:`propose` for a run of commands: one log append and one
        replication round."""
        return Proposal(self, commands)

    def propose_and_wait(self, command: Any, max_us: float = 400_000.0) -> int:
        """Propose on the leader and advance time until it commits: the
        one-group case of :func:`await_commit`."""
        return await_commit([self.propose(command)], max_us)[0]

    def propose_batch_and_wait(
        self, commands: list[Any], max_us: float = 400_000.0
    ) -> int:
        """Batched :meth:`propose_and_wait`: one log append + one
        replication round for the whole run of commands."""
        if not commands:
            return self.elect_leader().last_log_index()
        return await_commit([self.propose_batch(commands)], max_us)[0]


class Proposal:
    """A run of commands proposed on one group's leader: at which log
    index, by which leader, in which term."""

    __slots__ = ("group", "commands", "leader", "term", "index")

    def __init__(self, group: RaftGroup, commands: list[Any]):
        self.group = group
        self.commands = commands
        self.propose()

    def propose(self) -> None:
        """(Re-)propose on the group's current leader."""
        leader = self.group.elect_leader()
        self.index = leader.client_propose_batch(self.commands)
        self.leader, self.term = leader, leader.current_term

    def committed(self) -> bool:
        leader = self.leader
        return leader.commit_index >= self.index and leader.current_term == self.term

    def settled(self) -> bool:
        """Committed — or deposed, or a crashed leader that still
        believes in itself while the group elected a successor at a
        higher term: either way there is nothing left to wait for."""
        leader = self.leader
        return (
            leader.commit_index >= self.index
            or leader.current_term != self.term
            or self.group.leader() is not leader
        )


def await_commit(proposals: list[Proposal], max_us: float = 400_000.0) -> list[int]:
    """The one Raft wait loop, for one group or many: advance the shared
    network until every proposal has committed, re-proposing on a new
    leader any whose leader was deposed or crashed (at-least-once
    delivery; the testbed's state machine commands are all idempotent
    per txn id).  Proposals in flight together replicate together, so a
    fan-out waits one replication round, not one per group.  One budget
    covers every re-proposal; returns each proposal's log index."""
    network = proposals[0].group.network
    waiting = list(proposals)

    def settled() -> bool:
        return all(p.settled() for p in waiting)

    left_us = max_us
    while True:
        left_us -= network.run_until(settled, _POLL_STEP_US, left_us)
        if left_us <= 0:
            break
        waiting[:] = [p for p in waiting if not p.committed()]
        if not waiting:
            return [p.index for p in proposals]
        for proposal in waiting:
            proposal.propose()
    stuck = ", ".join(sorted({p.group.group_id for p in waiting}))
    raise ConsensusError(
        f"group(s) {stuck}: {sum(len(p.commands) for p in waiting)} command(s) "
        f"uncommitted after {max_us}us"
    )
