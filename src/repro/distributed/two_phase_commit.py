"""The cross-shard commit protocol: piggybacked one-round 2PC.

The cross-region half of the "2PC + Raft + logging" TP technique
(Table 2); single-shard transactions skip it through the cluster's 1PC
fast path.  :class:`PiggybackCoordinator` is the one-round variant
(Spanner/CockroachDB parallel-commit style): each participant durably
logs PREPARED *plus* the write intent in a single command and acks with
its vote; the coordinator then resolves the outcome in its durable
decision record, and the commit round becomes asynchronous — each
participant proposes its resolution at once and the client does not
wait for it.  Participants are any
objects implementing :class:`PiggybackParticipant`, so unit tests
drive the coordinator with in-memory fakes while the cluster plugs in
Raft-replicated regions.
The synchronous round goes to every participant at once and costs one
network round trip, charged on the shared cost model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Protocol

from ..common.cost import CostModel
from ..common.errors import TwoPhaseCommitError


class Vote(enum.Enum):
    YES = "yes"
    NO = "no"


class PiggybackParticipant(Protocol):
    """A resource manager in the one-round piggybacked protocol:
    ``intent`` sends PREPARED + the write intent and returns at once;
    ``vote`` is read once every participant's intent is out;
    ``resolve`` starts the commit round and returns without waiting."""

    def intent(self, txn_id: int, payload: Any) -> None: ...

    def vote(self, txn_id: int) -> Vote: ...

    def resolve(self, txn_id: int, committed: bool) -> None: ...


class TxnOutcome(enum.Enum):
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class TwoPhaseResult:
    txn_id: int
    outcome: TxnOutcome
    votes: dict[str, Vote] = field(default_factory=dict)
    rtts: int = 0


class PiggybackCoordinator:
    """One-round piggybacked prepare+commit over durable write intents.

    Protocol per transaction:

    1. One synchronous round: each participant durably logs
       ``PREPARED`` + the write intent in a *single* command (one Raft
       propose, one fsync) and acks with its vote.  The intents go out
       to every participant before any vote is read, so the round is
       one round trip whatever the fan-out.
    2. The coordinator resolves the outcome into its durable decision
       record (:attr:`decisions`) — this is the commit point; the
       client is acked here.
    3. The commit/abort round is asynchronous: each participant
       proposes its resolution the moment the decision is logged
       (:meth:`PiggybackParticipant.resolve`) and does not wait for it.
       Meanwhile the cluster's shards answer reads through the decided
       intent, and a shard's next intent round carries the resolution,
       so the round's latency hides behind whatever the client does
       next.

    Against classic two-round 2PC that is one synchronous round
    instead of two per participant, with identical committed state and
    abort behavior (the differential tests against the 2PC oracle in
    ``tests/oracle/two_phase`` prove it).
    """

    def __init__(self, cost: CostModel | None = None):
        self._cost = cost or CostModel()
        self._next_txn_id = 1
        self.committed = 0
        self.aborted = 0
        #: The durable decision record: txn id -> committed?
        self.decisions: dict[int, bool] = {}

    def allocate_txn_id(self) -> int:
        """Ids are shared with the cluster's single-shard 1PC fast path
        so intent/vote bookkeeping never collides across commit paths."""
        txn_id = self._next_txn_id
        self._next_txn_id += 1
        return txn_id

    def decision(self, txn_id: int) -> bool | None:
        """Outcome lookup for readers of a dangling intent (``None``
        means the transaction never reached a decision here)."""
        return self.decisions.get(txn_id)

    def execute(
        self,
        payloads: dict[str, Any],
        participants: dict[str, PiggybackParticipant],
    ) -> TwoPhaseResult:
        if not payloads:
            raise TwoPhaseCommitError("transaction touches no participant")
        unknown = set(payloads) - set(participants)
        if unknown:
            raise TwoPhaseCommitError(f"unknown participants: {sorted(unknown)}")
        txn_id = self.allocate_txn_id()
        involved = {name: participants[name] for name in payloads}
        # The single synchronous round: PREPARED + intent on every
        # participant at once, one RTT.
        self._cost.charge(self._cost.network_rtt_us)
        for name, participant in involved.items():
            participant.intent(txn_id, payloads[name])
        votes = {name: participant.vote(txn_id) for name, participant in involved.items()}
        committed = all(v is Vote.YES for v in votes.values())
        # Durably log the decision before acking the client: from here
        # the outcome survives any participant-side failover and the
        # commit round can run in the background.
        self._cost.charge(self._cost.wal_append_us + self._cost.wal_fsync_us)
        self.decisions[txn_id] = committed
        for participant in involved.values():
            participant.resolve(txn_id, committed)
        if committed:
            self.committed += 1
        else:
            self.aborted += 1
        outcome = TxnOutcome.COMMITTED if committed else TxnOutcome.ABORTED
        return TwoPhaseResult(txn_id, outcome, votes, rtts=1)
