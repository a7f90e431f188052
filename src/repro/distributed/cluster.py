"""A simulated distributed HTAP cluster (architecture (b)'s substrate).

Physical layout: ``n_storage_nodes`` row-store nodes host the voting
replicas of every shard's Raft group (placement round-robin), and one
or more analytics nodes host non-voting *learner* replicas that convert
the replicated log into columnar form (per-table delta logs + column
store) — precisely TiDB's design as the survey describes it:

    "asynchronously replicates Raft logs from the leader node to
    follower nodes storing the data in the row-based replicas. The
    logs are also sent to learner nodes that store the data in
    columnar format."

The key space is elastic: a :class:`~repro.distributed.metadata.ShardMap`
(owned by the cluster's :class:`MetadataService`) tiles the 64-bit hash
ring with contiguous shard intervals, each served by its own Raft
group.  Clients route through stateless
:class:`~repro.distributed.router.Router` caches; shards enforce the
epoch contract by rejecting requests for ring points they no longer own
(:class:`StaleEpochError`), which is what makes online resharding
(:mod:`~repro.distributed.resharding`) safe under live traffic.

Transactions touching one shard commit through that shard's Raft group
alone — the 1PC fast path: validate at the leader, then a single
"commit1p" propose installs the writes, no coordinator, one fsync
instead of two.  Cross-shard transactions commit through the
piggybacked one-round protocol (:class:`PiggybackCoordinator`): each
participant durably logs PREPARED + the write intent in one propose,
the coordinator's decision record is the commit point, and each shard's
commit round is proposed at that decision without waiting.  Nothing
that follows waits for it either: a read answers the decided rows from
the intents its live leader holds, and the shard's next intent round
carries it ahead of the new intent.  A single-shard commit, a bulk load,
a row scan and a resharding barrier wait for it; so does a read whose
resolve sits on a deposed or crashed leader, which re-proposes it.  A
:class:`~repro.distributed.metadata.PlacementPolicy` co-locates rows
sharing a placement-key prefix (a district's customers and history, an
order and its lines) on one shard, which is what turns the dominant
TPC-C mix into single-shard transactions in the first place.

Work that spans shards goes out to all of them at once and costs one
round trip, not one per shard: a batch of point reads
(:meth:`DistributedCluster.read_many`, TiDB's BatchGet) and the intent
round (TiDB prewrites across regions in parallel).  The commit round
costs no round trip and no wait of its own: it is proposed at the
decision and resolves in the background, and a reader reads a committed
transaction's intent directly, as in CockroachDB's parallel commits and
TiDB's async commit.

Simulated time measures *latency*; per-physical-node busy time in a
:class:`BusyLedger` measures *throughput* (makespan = the bottleneck
node's busy time), which is how scale-out shows up in the benches.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..common.clock import LogicalClock, Timestamp
from ..common.cost import CostModel
from ..common.errors import (
    KeyNotFoundError,
    StaleEpochError,
    TransactionAborted,
    TwoPhaseCommitError,
)
from ..common.predicate import ALWAYS_TRUE, Predicate
from ..common.types import Key, Row, Schema
from ..obs import get_registry
from ..storage.column_store import ColumnScanResult
from ..txn.transaction import first_committer_wins
from .metadata import MetadataService, PlacementPolicy, ShardMap, hash_point
from .network import SimNetwork
from .raft import Proposal, RaftGroup, RaftNode, await_commit
from .replica import ColumnarReplica, _runs_by_table
from .router import Router
from .two_phase_commit import PiggybackCoordinator, TxnOutcome, Vote

__all__ = [
    "BusyLedger",
    "ColumnarReplica",
    "DistributedCluster",
    "RegionStateMachine",
    "WriteKind",
    "WriteOp",
    "_runs_by_table",
]


class WriteKind(enum.Enum):
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"


@dataclass(frozen=True)
class WriteOp:
    kind: WriteKind
    table: str
    key: Key
    row: Row | None = None


class BusyLedger:
    """Per-physical-node busy time; makespan models parallel execution."""

    def __init__(self) -> None:
        self._busy: dict[str, float] = {}

    def charge(self, node: str, micros: float) -> None:
        self._busy[node] = self._busy.get(node, 0.0) + micros

    def busy(self, node: str) -> float:
        return self._busy.get(node, 0.0)

    def makespan_us(self, nodes: list[str] | None = None) -> float:
        """Bottleneck busy time; restrict to ``nodes`` when given (e.g.
        only the nodes serving OLTP, to measure interference there)."""
        if nodes is None:
            return max(self._busy.values(), default=0.0)
        return max((self._busy.get(n, 0.0) for n in nodes), default=0.0)

    def total_us(self) -> float:
        return sum(self._busy.values())

    def nodes(self) -> list[str]:
        return sorted(self._busy)

    def reset(self) -> None:
        self._busy.clear()

    def snapshot(self) -> dict[str, float]:
        return dict(self._busy)


class RegionStateMachine:
    """Deterministic row-store state machine replicated by one Raft group.

    Eight commands.  Three commit paths: "commit1p" (the single-shard
    1PC fast path: leader-validated writes installed in one command),
    "intent" (piggybacked prepare: PREPARED + the write intent durably
    logged together) and "resolve" (the commit round settling an
    intent).  "bulk" loads.  And the resharding protocol:
    "install" (staged snapshot from a migration source), "tail"
    (dual-logged writes that committed on the source after the snapshot
    barrier), "rehome" (the flip-time authoritative image, also
    consumed by learners), and "truncate" (drop a ring interval that
    migrated away).  ``written`` stamps each key with its newest write's
    commit ts, for :func:`~repro.txn.transaction.first_committer_wins`."""

    def __init__(
        self,
        region_id: int,
        schemas: dict[str, Schema],
        point_fn: Callable[[str, Any], int] = hash_point,
    ):
        self.region_id = region_id
        self.schemas = schemas
        self._point_fn = point_fn
        self.rows: dict[str, dict[Key, Row]] = {t: {} for t in schemas}
        self.written: dict[str, dict[Key, Timestamp]] = {t: {} for t in schemas}
        #: Durably staged writes awaiting their "resolve".
        self.intents: dict[int, tuple[list[WriteOp], Timestamp]] = {}
        #: txn id -> None (a YES vote) or the refusal its intent drew.
        self.vote_log: dict[int, TransactionAborted | None] = {}
        self.last_commit_ts: Timestamp = 0
        self.applied_commands = 0

    def apply(self, _index: int, command: tuple) -> None:
        self.applied_commands += 1
        op = command[0]
        if op == "intent":
            # PREPARED + the write intent durably logged in one command,
            # decided by "resolve".
            _op, txn_id, writes, commit_ts, read_ts = command
            refused = self.vote_log[txn_id] = self._validate(txn_id, writes, read_ts)
            if refused is None:
                self.intents[txn_id] = (writes, commit_ts)
        elif op == "commit1p":
            # Single-shard 1PC fast path: the leader validated before
            # proposing, so the one command installs unconditionally.
            _op, txn_id, writes, commit_ts = command
            self._install(writes, commit_ts)
        elif op == "resolve":
            # The commit round: idempotent — a re-proposed resolve
            # finds the intent already popped and does nothing.
            _op, txn_id, committed = command
            staged = self.intents.pop(txn_id, None)
            self.vote_log.pop(txn_id, None)
            if committed and staged is not None:
                writes, commit_ts = staged
                self._install(writes, commit_ts)
        elif op in ("bulk", "install", "rehome"):
            # Whole-row upserts: a pre-validated bulk load, a staged
            # migration snapshot, or the flip-time authoritative image.
            _op, table_name, rows, commit_ts = command
            table = self.rows[table_name]
            stamps = self.written[table_name]
            key_of = self.schemas[table_name].key_of
            for row in rows:
                key = key_of(row)
                table[key] = row
                stamps[key] = commit_ts
            self.last_commit_ts = max(self.last_commit_ts, commit_ts)
        elif op == "tail":
            # Dual-logged writes replayed onto a migration target: each
            # entry carries its own source commit timestamp.
            _op, entries = command
            for kind, table_name, key, row, commit_ts in entries:
                table = self.rows[table_name]
                if kind == "delete":
                    table.pop(key, None)
                else:
                    table[key] = row
                self.written[table_name][key] = commit_ts
                self.last_commit_ts = max(self.last_commit_ts, commit_ts)
        elif op == "truncate":
            # The interval [lo, hi) migrated away: drop its rows and stamps.
            _op, lo, hi = command
            for tables in (self.rows, self.written):
                for name, table in tables.items():
                    for key in [k for k in table if lo <= self._point_fn(name, k) < hi]:
                        del table[key]
        else:
            raise TwoPhaseCommitError(f"unknown region command {op!r}")

    def _validate(
        self, txn_id: int, writes: list[WriteOp], read_ts: Timestamp
    ) -> TransactionAborted | None:
        rows = self.rows
        return first_committer_wins(
            txn_id, [(w.kind.value, w.table, w.key) for w in writes], read_ts, self.written,
            lambda kind, table, key: (key in rows[table]) != (kind == "insert"),
        )

    def _install(self, writes: list[WriteOp], commit_ts: Timestamp) -> None:
        rows, written = self.rows, self.written
        for w in writes:
            table = rows[w.table]
            if w.kind is WriteKind.DELETE:
                table.pop(w.key, None)
            else:
                table[w.key] = w.row
            written[w.table][w.key] = commit_ts
        self.last_commit_ts = max(self.last_commit_ts, commit_ts)


class DistributedCluster:
    """Shards x Raft x one-round 2PC with columnar learner replicas and
    elastic shard maps (metadata service + stateless router tier)."""

    def __init__(
        self,
        n_storage_nodes: int = 3,
        replication: int = 3,
        n_regions: int | None = None,
        n_analytic_nodes: int = 1,
        cost: CostModel | None = None,
        clock: LogicalClock | None = None,
        seed: int = 0,
        point_fn: Callable[[str, Any], int] = hash_point,
        placement: PlacementPolicy | None = None,
    ):
        if replication > n_storage_nodes:
            replication = n_storage_nodes
        self.cost = cost or CostModel()
        self.clock = clock or LogicalClock()
        self.network = SimNetwork(self.cost)
        self.ledger = BusyLedger()
        self.n_storage_nodes = n_storage_nodes
        self.n_analytic_nodes = max(1, n_analytic_nodes)
        self.replication = replication
        self._initial_shards = n_regions if n_regions is not None else n_storage_nodes
        self._seed = seed
        self._point_fn = point_fn
        self.placement = placement or PlacementPolicy()
        self.schemas: dict[str, Schema] = {}
        self.metadata = MetadataService(ShardMap.uniform(self._initial_shards))
        self.router = Router(self.metadata, cost=self.cost, point_fn=self.point_of)
        self.piggyback = PiggybackCoordinator(cost=self.cost)
        self.columnar = ColumnarReplica({}, self.cost)
        # Grow-only, shard-id-indexed (ids are allocated monotonically;
        # merged-away shards keep their slot so indices never shift).
        self._groups: list[RaftGroup] = []
        self._region_sms: list[dict[str, RegionStateMachine]] = []
        self._region_leader_node: list[list[str]] = []  # physical placement
        self._phys_of: dict[str, str] = {}  # voter id -> its physical node
        self._migration_taps: list = []  # resharding dual-log buffers
        #: Commit rounds in flight: shard id -> its "resolve" proposals,
        #: until ``_route`` sees them committed or ``_settle`` waits.
        self._resolving: dict[int, list[Proposal]] = {}
        #: (shard, table) -> the newest commit timestamp written there.
        self._written_ts: dict[tuple[int, str], Timestamp] = {}
        self._built = False
        self.commits = 0
        self.aborts = 0
        self.commits_single_shard = 0
        self.commits_piggybacked = 0
        reg = get_registry()
        self._m_commit_1p = reg.counter("commit.single_shard")
        self._m_commit_pb = reg.counter("commit.piggybacked")
        self._h_commit_fanout = reg.histogram("commit.participant_fanout")
        self._m_drain_timeouts = reg.counter("replication.drain_timeouts")

    # ------------------------------------------------------------- build

    @property
    def n_regions(self) -> int:
        """Live shard count (grows/shrinks with online resharding)."""
        return self.metadata.current().n_shards

    def point_of(self, table: str, key: Any) -> int:
        """Ring position of one row: the placement policy's co-location
        prefix when the table declares one, the plain per-row point
        function otherwise."""
        if self.placement.rule(table) is not None:
            return self.placement.point_of(table, key)
        return self._point_fn(table, key)

    def create_table(self, schema: Schema) -> None:
        if self._built:
            raise TwoPhaseCommitError("create every table before first commit")
        self.schemas[schema.table_name] = schema

    def declare_placement(self, table: str, group: str, prefix_len: int) -> None:
        """Declare a placement-key prefix for ``table``.  DDL-time only:
        rows are placed by ``point_of`` from the first commit on, so the
        point function must never change once any row exists."""
        if self._built:
            raise TwoPhaseCommitError("declare placement before first commit")
        self.placement.declare(table, group, prefix_len)

    def install_boundaries(self, points: Iterable[int]) -> None:
        """Re-cut the boot shard map at load quantiles of ``points``
        (an expected-load sample of placement-point positions; repeat a
        point to weight it).  DDL-time only, same contract as
        :meth:`declare_placement`: boundaries are a boot decision and
        must be fixed before the first commit places a row."""
        if self._built:
            raise TwoPhaseCommitError(
                "install boundaries before first commit"
            )
        self.metadata.rebound(
            ShardMap.balanced(points, self._initial_shards)
        )

    def _build(self) -> None:
        if self._built:
            return
        self._built = True
        self.columnar = ColumnarReplica(self.schemas, self.cost)
        for sid in self.metadata.current().shard_ids():
            self._make_shard(sid)
        for group in self._groups:
            group.elect_leader()

    def _make_shard(self, sid: int) -> None:
        """Create the Raft group + state machines for shard ``sid``.

        Used both at boot and when resharding spawns a new shard; the
        shard-id-indexed lists stay aligned because ids are allocated
        monotonically by the metadata service."""
        if sid != len(self._groups):
            raise TwoPhaseCommitError(
                f"shard ids must be allocated in order (got {sid}, "
                f"expected {len(self._groups)})"
            )
        voters = []
        placement = []
        for r in range(self.replication):
            phys = (sid + r) % self.n_storage_nodes
            voters.append(f"r{sid}.n{phys}")
            placement.append(f"n{phys}")
            self._phys_of[voters[-1]] = placement[-1]
        learner_id = f"r{sid}.learner"
        sms = {
            v: RegionStateMachine(sid, self.schemas, point_fn=self.point_of)
            for v in voters
        }
        apply_fns = {v: sms[v].apply for v in voters}
        # Learners replay committed runs in batches; voters keep the
        # per-entry apply (their intent votes are read between individual
        # proposals).
        apply_batch_fns = {
            learner_id: lambda start, commands: (
                self.columnar.learner_apply_batch(sid, start, commands)
            )
        }
        group = RaftGroup(
            group_id=f"region{sid}",
            voter_ids=voters,
            learner_ids=[learner_id],
            network=self.network,
            cost=self.cost,
            apply_fns=apply_fns,
            seed=self._seed + sid,
            # Home-node preference spreads leaders round-robin over
            # the physical nodes (PD-style leader balancing).
            preferred_leader=voters[0],
            apply_batch_fns=apply_batch_fns,
        )
        self._groups.append(group)
        self._region_sms.append(sms)
        self._region_leader_node.append(placement)

    def _phys_node_of_leader(self, region: int) -> str:
        return self._phys_of[self._groups[region].elect_leader().node_id]

    def _leader_sm(self, region: int) -> RegionStateMachine:
        """The state machine of the shard's leader, once that leader
        knows every commit (its applied rows hold every committed
        write)."""
        leader = self._groups[region].serving_leader()
        return self._region_sms[region][leader.node_id]

    def _live_sids(self) -> list[int]:
        return self.metadata.current().shard_ids()

    # ------------------------------------------------------------- epoch guard

    def _check_ownership(self, sid: int, points: list[int]) -> None:
        """The server side of the epoch contract: a shard (which sees
        the live map for free — it is co-located with metadata in this
        simulation) rejects any request for a ring point it no longer
        owns, instead of silently serving stale topology."""
        current = self.metadata.current()
        shard = current.get(sid)
        for point in points:
            if shard is None or not shard.owns(point):
                raise StaleEpochError(sid, current.epoch)

    def _charge_group_write(self, sid: int, n_writes: int) -> None:
        """Busy accounting: the leader does the row work + fsync, the
        followers append to their WALs in parallel."""
        phys = self._phys_node_of_leader(sid)
        per_write = self.cost.row_point_write_us + self.cost.wal_append_us
        self.ledger.charge(phys, n_writes * per_write + self.cost.wal_fsync_us)
        for replica_node in self._region_leader_node[sid][1:]:
            self.ledger.charge(replica_node, n_writes * self.cost.wal_append_us)

    def _charge_commit_round(self, sid: int, n_rows: int = 0) -> None:
        """Busy accounting for one metadata-only propose, an intent's
        resolution: a WAL append and an fsync at the leader plus the
        resolved intent's row installs, an append at each follower."""
        phys = self._phys_node_of_leader(sid)
        self.ledger.charge(
            phys,
            self.cost.wal_append_us
            + self.cost.wal_fsync_us
            + n_rows * self.cost.row_point_write_us,
        )
        for replica_node in self._region_leader_node[sid][1:]:
            self.ledger.charge(replica_node, self.cost.wal_append_us)

    # ------------------------------------------------------ in-flight resolves

    def _settle(self, sids: Iterable[int]) -> None:
        """Wait until the in-flight resolves of the shards ``sids`` have
        committed: for what reads or validates against a leader's
        applied rows alone (a single-shard commit, a bulk load, a row
        scan, a resharding barrier), and for a shard whose resolve sits
        on a deposed or crashed leader.  Proposed at decision time, they
        cost what is left of their replication round and no round trip;
        a deposed or crashed leader's resolve is re-proposed on its
        successor."""
        waiting = [p for sid in sids for p in self._resolving.pop(sid, ())]
        if waiting:
            await_commit(waiting)

    def _live_leader(self, sid: int) -> RaftNode | None:
        """Shard ``sid``'s leader, if it is up, knows every commit and
        holds every in-flight resolve of the shard in its log in its
        current term: then the resolves commit through it, in log order,
        and what they decide can be read off it.  None when one sits on
        a deposed or crashed leader, whose successor may never have seen
        it, or when the leader has yet to commit in its own term."""
        leader = self._groups[sid].leader()
        if (
            leader is None
            or not self.network.is_up(leader.node_id)
            or not leader.knows_commits()
        ):
            return None
        term = leader.current_term
        for proposal in self._resolving.get(sid, ()):
            if proposal.leader is not leader or proposal.term != term:
                return None
        return leader

    def _decided(self, sid: int) -> dict[tuple[str, Key], Row | None] | None:
        """The rows shard ``sid``'s uncommitted resolves decide, keyed
        ``(table, key)`` (None for a delete), read off the intents its
        live leader holds; None when the shard has to be settled
        first."""
        pending = self._resolving.get(sid)
        if not pending:
            return {}
        leader = self._live_leader(sid)
        if leader is None:
            return None
        intents = self._region_sms[sid][leader.node_id].intents
        decided: dict[tuple[str, Key], Row | None] = {}
        for proposal in pending:
            if proposal.committed():
                continue  # applied: the rows have it
            for _op, txn_id, committed in proposal.commands:
                if not committed:
                    continue
                staged = intents.get(txn_id)
                if staged is None:
                    return None
                for w in staged[0]:
                    decided[(w.table, w.key)] = (
                        None if w.kind is WriteKind.DELETE else w.row
                    )
        return decided

    def settle_all(self) -> None:
        """Wait for every shard's in-flight resolves (replication
        drains and resharding barriers call this so learners, snapshots,
        and flips always see settled truth)."""
        self._settle(list(self._resolving))

    def _tap_commit(
        self, writes: list[WriteOp], points: list[int], commit_ts: Timestamp
    ) -> None:
        """Dual-log committed writes that fall inside an in-flight
        migration's moving interval (the resharding tail)."""
        for tap in self._migration_taps:
            for w, point in zip(writes, points):
                if tap.lo <= point < tap.hi:
                    tap.record(w.kind.value, w.table, w.key, w.row, commit_ts)

    # ------------------------------------------------------------- writes

    def region_of(self, table: str, key: Key) -> int:
        """Owning shard id per the *authoritative* map (test/debug aid;
        clients route through a :class:`Router` cache instead)."""
        return self.metadata.current().shard_for_point(
            self.point_of(table, key)
        ).shard_id

    def execute_transaction(
        self, writes: list[WriteOp], router: Router | None = None, read_ts: Timestamp | None = None
    ) -> Timestamp:
        """Commit ``writes`` atomically; raises TransactionAborted on
        validation failure at any shard (DuplicateKeyAborted when an
        insert's key is present, WriteConflictError when a key was
        written after ``read_ts``, by default ``clock.now()``: a blind
        write).  Routed through ``router`` (the cluster's co-located
        router by default) with the full stale-epoch retry protocol."""
        self._build()
        if not writes:
            raise TwoPhaseCommitError("empty transaction")
        for w in writes:
            if w.table not in self.schemas:
                raise KeyNotFoundError(f"no table {w.table!r}")
        router = router or self.router
        read_ts = self.clock.now() if read_ts is None else read_ts
        points = [self.point_of(w.table, w.key) for w in writes]
        return router.retrying(lambda: self._commit_routed(writes, points, router, read_ts))

    def _route(
        self, items: list, points: list[int], router: Router
    ) -> dict[int, tuple[list, list[int]]]:
        """Group ``items`` (writes or rows) by owning shard id."""
        by_shard: dict[int, tuple[list, list[int]]] = {}
        for item, point in zip(items, points):
            sid = router.shard_for_point(point).shard_id
            slot = by_shard.get(sid)
            if slot is None:
                slot = by_shard[sid] = ([], [])
            slot[0].append(item)
            slot[1].append(point)
        # Every participant validates ownership before anything is
        # proposed, so a stale route aborts with no partial effects.
        for sid, (_items, ps) in by_shard.items():
            self._check_ownership(sid, ps)
        # Resolves that have committed are in the rows: nothing to wait
        # for or to read through.
        resolving = self._resolving
        for sid in by_shard:
            pending = resolving.get(sid)
            if pending:
                pending[:] = [p for p in pending if not p.committed()]
                if not pending:
                    del resolving[sid]
        return by_shard

    def _commit_routed(
        self, writes: list[WriteOp], points: list[int], router: Router, read_ts: Timestamp
    ) -> Timestamp:
        by_shard = self._route(writes, points, router)
        commit_ts = self.clock.tick()
        if len(by_shard) == 1:
            ((sid, (ws, _ps)),) = by_shard.items()
            self._commit_single_shard(sid, ws, commit_ts, read_ts)
            self.commits_single_shard += 1
            self._m_commit_1p.inc()
        else:
            self._commit_coordinated(by_shard, commit_ts, read_ts)
            self.commits_piggybacked += 1
            self._m_commit_pb.inc()
        self.commits += 1
        self._h_commit_fanout.observe(float(len(by_shard)))
        written = self._written_ts
        for sid, (ws, _ps) in by_shard.items():
            for w in ws:
                written[(sid, w.table)] = commit_ts
        if self._migration_taps:
            self._tap_commit(writes, points, commit_ts)
        return commit_ts

    def _commit_single_shard(
        self, sid: int, writes: list[WriteOp], commit_ts: Timestamp, read_ts: Timestamp
    ) -> None:
        """The 1PC fast path: a transaction wholly owned by one shard
        skips the coordinator — validate at the leader, then a single
        "commit1p" propose installs the writes.  One Raft round and one
        fsync instead of two.  The leader validates against its applied
        rows, so the shard's in-flight resolves commit first."""
        self._settle([sid])
        txn_id = self.piggyback.allocate_txn_id()
        self.cost.charge(self.cost.network_rtt_us)
        if refused := self._leader_sm(sid)._validate(txn_id, writes, read_ts):
            self.aborts += 1
            raise refused
        self._charge_group_write(sid, len(writes))
        self._groups[sid].propose_and_wait(
            ("commit1p", txn_id, writes, commit_ts)
        )

    def _commit_coordinated(
        self,
        by_shard: dict[int, tuple[list[WriteOp], list[int]]],
        commit_ts: Timestamp,
        read_ts: Timestamp,
    ) -> None:
        """Multi-shard transactions: each shard durably logs PREPARED +
        intent in one propose, all shards at once; at the decision each
        shard's commit round is proposed and left in flight.

        The shards' earlier resolves ride the round: ahead of the
        intents in their leaders' logs, they commit in its replication
        round, and ``await_commit`` re-proposes them first on failover,
        so each intent validates after them.  A shard whose resolve sits
        on a deposed or crashed leader settles it first: the successor
        would log it behind the intent."""
        sids = sorted(by_shard)
        self._settle([sid for sid in sids if self._live_leader(sid) is None])
        in_flight = [p for sid in sids for p in self._resolving.get(sid, ())]
        participants = {
            f"region{sid}": _RaftRegionParticipant(self, sid, in_flight)
            for sid in sids
        }
        payloads = {f"region{sid}": (by_shard[sid][0], commit_ts, read_ts) for sid in sids}
        result = self.piggyback.execute(payloads, participants)
        if result.outcome is TxnOutcome.ABORTED:
            self.aborts += 1
            refused = [p.refused for p in participants.values() if p.refused]
            if not refused:
                raise TransactionAborted(result.txn_id, "shard validation failed")
            raise refused[0]

    def bulk_load(
        self, table: str, rows: list[Row], router: Router | None = None
    ) -> Timestamp:
        """Load pre-validated fresh rows through Raft in one command per
        shard instead of one transaction per row batch."""
        self._build()
        if table not in self.schemas:
            raise KeyNotFoundError(f"no table {table!r}")
        if not rows:
            return self.clock.now()
        schema = self.schemas[table]
        router = router or self.router
        validated = [schema.validate_row(row) for row in rows]
        points = [self.point_of(table, schema.key_of(row)) for row in validated]
        return router.retrying(
            lambda: self._bulk_routed(table, validated, points, router)
        )

    def _bulk_routed(
        self, table: str, rows: list[Row], points: list[int], router: Router
    ) -> Timestamp:
        by_shard = self._route(rows, points, router)
        self._settle(by_shard)  # like a 1PC commit, a bulk load waits
        commit_ts = self.clock.tick()
        for sid, (shard_rows, _ps) in by_shard.items():
            self._charge_group_write(sid, len(shard_rows))
            self._groups[sid].propose_and_wait(
                ("bulk", table, tuple(shard_rows), commit_ts)
            )
            self._written_ts[(sid, table)] = commit_ts
        self.commits += 1
        if self._migration_taps:
            key_of = self.schemas[table].key_of
            writes = [WriteOp(WriteKind.INSERT, table, key_of(r), r) for r in rows]
            self._tap_commit(writes, points, commit_ts)
        return commit_ts

    # ------------------------------------------------------------- reads

    def read(
        self, table: str, key: Key, router: Router | None = None
    ) -> Row | None:
        """Point read served by the owning shard's leader replica."""
        return self.read_many(((table, key),), router)[(table, key)]

    def read_many(
        self, pairs: Iterable[tuple[str, Key]], router: Router | None = None
    ) -> dict[tuple[str, Key], Row | None]:
        """BatchGet: point reads of ``(table, key)`` pairs in one round
        trip.  Every key is routed and every shard checks ownership
        before any is read; each leader then serves its own keys, in
        parallel, so the batch costs one round trip plus the slowest
        shard's reads.  A key written by an intent whose decision is
        commit reads as decided while its resolve is in flight on the
        live leader; a shard whose resolve sits on a deposed or crashed
        leader waits for it first (``_settle``)."""
        self._build()
        router = router or self.router
        pairs = list(dict.fromkeys(pairs))
        if not pairs:
            return {}
        points = [self.point_of(table, key) for table, key in pairs]
        read_us = self.cost.row_point_read_us

        def attempt() -> dict[tuple[str, Key], Row | None]:
            by_shard = self._route(pairs, points, router)
            decided: dict[tuple[str, Key], Row | None] = {}
            unsettled = []
            for sid in by_shard:
                shard_decided = self._decided(sid)
                if shard_decided is None:
                    unsettled.append(sid)
                else:
                    decided.update(shard_decided)
            self._settle(unsettled)
            self.cost.charge(self.cost.network_rtt_us)
            found: dict[tuple[str, Key], Row | None] = {}
            slowest = 0
            for sid, (shard_pairs, _ps) in by_shard.items():
                leader_id = self._groups[sid].serving_leader().node_id
                n_keys = len(shard_pairs)
                self.ledger.charge(self._phys_of[leader_id], read_us * n_keys)
                rows = self._region_sms[sid][leader_id].rows
                for pair in shard_pairs:
                    if pair in decided:
                        found[pair] = decided[pair]
                    else:
                        found[pair] = rows[pair[0]].get(pair[1])
                slowest = max(slowest, n_keys)
            self.cost.charge_rows(read_us, slowest)
            return found

        return router.retrying(attempt)

    def row_scan(
        self,
        table: str,
        predicate: Predicate = ALWAYS_TRUE,
        router: Router | None = None,
    ) -> list[Row]:
        """Scatter-gather scan over every live shard's leader (row path).
        Each shard re-validates ownership and waits for its in-flight
        resolves before serving, so the scan reads decided truth."""
        self._build()
        schema = self.schemas[table]
        router = router or self.router

        def attempt() -> list[Row]:
            current = self.metadata.current()
            out: list[Row] = []
            for sid in current.shard_ids():
                self._check_ownership(sid, [current.get(sid).lo])
                self._settle([sid])
                self.cost.charge(self.cost.network_rtt_us)
                sm = self._leader_sm(sid)
                rows = sm.rows[table]
                self.cost.charge_rows(
                    self.cost.row_scan_per_row_us, max(len(rows), 1)
                )
                self.ledger.charge(
                    self._phys_node_of_leader(sid),
                    self.cost.row_scan_per_row_us * max(len(rows), 1),
                )
                out.extend(
                    r for r in rows.values() if predicate.matches(r, schema)
                )
            return out

        return router.retrying(attempt)

    def analytic_scan(
        self,
        table: str,
        columns: list[str] | None = None,
        predicate: Predicate = ALWAYS_TRUE,
        read_delta: bool = True,
        encode: bool = False,
    ) -> ColumnScanResult:
        """Columnar scan on the analytics tier (learner-fed)."""
        self._build()
        return self.columnar.scan(table, columns, predicate, read_delta, encode)

    # ------------------------------------------------------------- sync & time

    def advance(self, delta_us: float) -> None:
        """Let replication/heartbeats make progress (world-wide)."""
        self._build()
        self.network.advance(delta_us)

    def drain_replication(self, max_us: float = 50_000.0) -> bool:
        """Advance until learners have applied everything committed and
        every delta file they sealed has landed; returns whether the
        learners caught up within ``max_us``.  In-flight resolves commit
        first, so "everything committed" includes every decided
        piggybacked transaction.

        The test asks the learners directly: each live group's learner
        has applied its leader's commit index, and that leader knows
        every commit (``RaftNode.knows_commits``).  A crashed follower does
        not hold it up; a learner that cannot catch up (it is down, or
        its group has no leader) makes the drain spend its whole budget,
        return False and count ``replication.drain_timeouts``.  Once they
        have caught up, the drain waits out the files still shipping."""
        self._build()
        self.settle_all()

        def drained() -> bool:
            for sid in self._live_sids():
                group = self._groups[sid]
                leader = group.leader()
                learner = group.nodes[f"r{sid}.learner"]
                if (
                    leader is None
                    or not leader.knows_commits()
                    or learner.last_applied < leader.commit_index
                ):
                    return False
            return True

        budget = max_us
        while True:
            budget -= self.network.run_until(drained, 500.0, budget)
            if not drained():
                self._m_drain_timeouts.inc()
                return False
            in_flight_us = self.columnar.landing_us() - self.cost.now_us()
            if in_flight_us <= 0:
                return True
            self.network.advance(in_flight_us)
            budget -= in_flight_us

    def sync(self) -> int:
        """Drain replication (every sealed file has landed), then seal
        and merge the learner's delta logs into the column stores; the
        merge waits for the files it seals to land."""
        self._build()
        self.drain_replication()
        return self.columnar.merge_deltas()

    def freshness_lag_ts(self) -> int:
        """Commit-timestamp distance between OLTP truth and the AP view.

        Measured at the most-stale table: a table with unsealed delta
        entries, a sealed file still shipping, or a commit some shard's
        learner has not applied, is only fresh up to its last landed or
        merged timestamp.
        """
        newest = self.clock.now()
        applied_of = self.columnar.applied_ts_of
        unapplied = {
            table
            for (sid, table), ts in self._written_ts.items()
            if applied_of.get((sid, table), 0) < ts
        }
        lags = []
        for table, log in self.columnar.delta_logs.items():
            if log.unsealed_entries() > 0 or log.in_flight() or table in unapplied:
                store_ts = self.columnar.column_stores[table].max_commit_ts()
                visible = max(log.max_sealed_ts(), store_ts)
                lags.append(max(0, newest - visible))
        return max(lags, default=0)

    # ------------------------------------------------------------- helpers

    def make_router(self, name: str) -> Router:
        """A fresh stateless router with its own shard-map cache (each
        front-door / bench client gets one, like a TiDB-server node)."""
        return Router(
            self.metadata, cost=self.cost, name=name, point_fn=self.point_of
        )

    def _write_row(self, kind: WriteKind, table: str, row: Row) -> Timestamp:
        schema = self.schemas[table]
        row = schema.validate_row(row)
        return self.execute_transaction(
            [WriteOp(kind, table, schema.key_of(row), row)]
        )

    def insert(self, table: str, row: Row) -> Timestamp:
        return self._write_row(WriteKind.INSERT, table, row)

    def update(self, table: str, row: Row) -> Timestamp:
        return self._write_row(WriteKind.UPDATE, table, row)

    def delete(self, table: str, key: Key) -> Timestamp:
        return self.execute_transaction([WriteOp(WriteKind.DELETE, table, key, None)])


class _RaftRegionParticipant:
    """Adapts one Raft-replicated shard to the piggybacked protocol
    (intent/vote/resolve).  Busy-ledger charging lives here,
    per propose, so the protocol's round count is exactly what the
    makespan measures.  The participants of one transaction share
    ``in_flight``, the round's proposals (the shards' earlier resolves,
    then the intents): the first vote read waits for all of them at
    once."""

    def __init__(
        self, cluster: DistributedCluster, region: int, in_flight: list[Proposal]
    ):
        self._cluster = cluster
        self._region = region
        self._group = cluster._groups[region]
        self._in_flight = in_flight
        self._n_writes = 0
        #: What the intent's validation logged (``vote_log``).
        self.refused: TransactionAborted | None | tuple = ()

    def intent(self, txn_id: int, payload: Any) -> None:
        writes, commit_ts, read_ts = payload
        self._n_writes = len(writes)
        self._cluster._charge_group_write(self._region, len(writes))
        self._in_flight.append(self._group.propose(("intent", txn_id, writes, commit_ts, read_ts)))

    def vote(self, txn_id: int) -> Vote:
        if self._in_flight:
            await_commit(self._in_flight)
            self._in_flight.clear()
        voted = self._cluster._leader_sm(self._region).vote_log
        self.refused = voted.get(txn_id, ())  # (): no vote logged, a NO
        return Vote.YES if self.refused is None else Vote.NO

    def resolve(self, txn_id: int, committed: bool) -> None:
        """Propose the commit round at decision time and return: reads
        go through the decided intent meanwhile, and the shard's next
        intent round carries it (``_commit_coordinated``)."""
        cluster = self._cluster
        cluster._charge_commit_round(
            self._region, n_rows=self._n_writes if committed else 0
        )
        cluster._resolving.setdefault(self._region, []).append(
            self._group.propose(("resolve", txn_id, committed))
        )
