"""Classic two-round 2PC: the commit protocol the cluster's fast paths
replaced, kept as their yardstick.

:class:`TwoPhaseCoordinator` is a synchronous presumed-abort coordinator
over abstract participants (anything with ``prepare`` / ``commit`` /
``abort``): a prepare round, then a commit-or-abort round, each one
network round trip per participant.  A single-participant transaction
skips the prepare round's separate trip (the one-phase optimization).

:func:`attach_two_phase` makes one :class:`DistributedCluster` commit
every transaction through it, single-shard ones included.  Each shard
is a :class:`RegionParticipant`: its prepare proposes an ``"intent"``
(PREPARED + the write intent) and its commit or abort synchronously
proposes ``("resolve", txn_id, committed)``.  The busy ledger is charged
per propose, a group write for the prepare and a commit round for the
second, so the makespan counts both rounds.  The attached cluster still
counts ``commits`` / ``aborts`` and dual-logs to migration taps; it
records nothing in the commit-path metrics.
"""

from __future__ import annotations

from typing import Any

from repro.common import CostModel, TransactionAborted, TwoPhaseCommitError
from repro.distributed import TwoPhaseResult, TxnOutcome, Vote


class TwoPhaseCoordinator:
    """Synchronous presumed-abort coordinator."""

    def __init__(self, cost: CostModel | None = None):
        self._cost = cost or CostModel()
        self._next_txn_id = 1
        self.committed = 0
        self.aborted = 0

    def execute(self, payloads: dict[str, Any], participants: dict) -> TwoPhaseResult:
        """Run 2PC for one transaction whose work is ``payloads`` per
        participant name."""
        if not payloads:
            raise TwoPhaseCommitError("transaction touches no participant")
        unknown = set(payloads) - set(participants)
        if unknown:
            raise TwoPhaseCommitError(f"unknown participants: {sorted(unknown)}")
        txn_id = self._next_txn_id
        self._next_txn_id += 1
        involved = {name: participants[name] for name in payloads}

        if len(involved) == 1:
            ((name, participant),) = involved.items()
            self._cost.charge(self._cost.network_rtt_us)
            vote = participant.prepare(txn_id, payloads[name])
            committed = vote is Vote.YES
            if committed:
                participant.commit(txn_id)
            else:
                participant.abort(txn_id)
            return self._decided(txn_id, committed, {name: vote}, rtts=1)

        votes: dict[str, Vote] = {}
        for name, participant in involved.items():
            self._cost.charge(self._cost.network_rtt_us)
            votes[name] = participant.prepare(txn_id, payloads[name])
        committed = all(v is Vote.YES for v in votes.values())
        # Presumed abort: NO-voters already rolled back, but every
        # participant hears the decision so prepared state is released.
        for participant in involved.values():
            self._cost.charge(self._cost.network_rtt_us)
            if committed:
                participant.commit(txn_id)
            else:
                participant.abort(txn_id)
        return self._decided(txn_id, committed, votes, rtts=2 * len(involved))

    def _decided(self, txn_id, committed, votes, rtts) -> TwoPhaseResult:
        if committed:
            self.committed += 1
        else:
            self.aborted += 1
        outcome = TxnOutcome.COMMITTED if committed else TxnOutcome.ABORTED
        return TwoPhaseResult(txn_id, outcome, votes, rtts=rtts)


class RegionParticipant:
    """One Raft-replicated shard as a 2PC participant."""

    def __init__(self, cluster, sid: int):
        self._cluster = cluster
        self._sid = sid
        self._group = cluster._groups[sid]

    def prepare(self, txn_id: int, payload: Any) -> Vote:
        writes, commit_ts, read_ts = payload
        self._cluster._charge_group_write(self._sid, len(writes))
        self._group.propose_and_wait(("intent", txn_id, writes, commit_ts, read_ts))
        voted = self._cluster._leader_sm(self._sid).vote_log.get(txn_id, ())
        return Vote.YES if voted is None else Vote.NO

    def commit(self, txn_id: int) -> None:
        self._resolve(txn_id, True)

    def abort(self, txn_id: int) -> None:
        self._resolve(txn_id, False)

    def _resolve(self, txn_id: int, committed: bool) -> None:
        self._cluster._charge_commit_round(self._sid)
        self._group.propose_and_wait(("resolve", txn_id, committed))


def attach_two_phase(cluster) -> TwoPhaseCoordinator:
    """Route every commit of ``cluster`` through classic 2PC; returns
    the coordinator, whose ``committed`` / ``aborted`` count them."""
    coordinator = TwoPhaseCoordinator(cost=cluster.cost)

    def commit_routed(writes, points, router, read_ts):
        by_shard = cluster._route(writes, points, router)
        commit_ts = cluster.clock.tick()
        participants = {
            f"region{sid}": RegionParticipant(cluster, sid) for sid in by_shard
        }
        payloads = {
            f"region{sid}": (ws, commit_ts, read_ts)
            for sid, (ws, _ps) in by_shard.items()
        }
        result = coordinator.execute(payloads, participants)
        if result.outcome is TxnOutcome.ABORTED:
            cluster.aborts += 1
            raise TransactionAborted(result.txn_id, "shard validation failed")
        cluster.commits += 1
        if cluster._migration_taps:
            cluster._tap_commit(writes, points, commit_ts)
        return commit_ts

    cluster._commit_routed = commit_routed
    return coordinator
