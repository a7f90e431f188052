"""Online shard split / merge / migrate — resharding under live traffic.

Every operation is the same five-phase machine, driven one phase per
:meth:`ReshardOperation.step` call so client traffic interleaves between
phases (the benches and chaos tests run writes and CH-benCHmark reads
between steps):

1. ``CREATE_TARGET`` — allocate a shard id and spin up its Raft group
   (voters + learner) on the existing physical nodes.
2. ``SNAPSHOT`` — install a dual-log *tap* for the moving ring interval
   and read the source leader's rows at that barrier.  Installing the
   tap and reading the snapshot happen in one step (the simulation is
   single-threaded), so the barrier is exact: every committed write
   after it lands in the tap.
3. ``INSTALL`` — ship the snapshot to the target group as staged
   ``"install"`` commands (whole-row upserts, voters only).
4. ``CATCH_UP`` — drain the tap into ``"tail"`` commands on the target.
   Writes keep flowing to the source the whole time: the map has not
   changed, so routers route as before and the tap dual-logs anything
   in the moving interval.
5. ``FLIP`` — atomic cutover: drain the final tail, propose the
   authoritative ``"rehome"`` image on the target (the learner rebuilds
   the moved interval's columnar state through the same
   ``learner_apply_batch`` bulk path as a bulk load), bump the map
   epoch, and truncate (split) or retire (merge/migrate) the sources.
   From the next client operation on, stale router caches are rejected
   by the shards (:class:`StaleEpochError`) and converge via refresh.

Zero-loss argument: before the flip the map owns every point at the
source, and the tap captures each committed write past the barrier; at
the flip the target holds snapshot ∪ tail — exactly the source's
committed state — and the epoch bump happens in the same step, so no
write can land on a shard that is about to stop owning it.  Duplicates
cannot arise either: "install"/"tail"/"rehome" are whole-row upserts
keyed by primary key, and the learner consumes only the idempotent
"rehome" image.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..common.clock import Timestamp
from ..common.errors import ConsensusError, StorageError
from ..common.types import Key, Row
from ..obs import get_registry
from .cluster import DistributedCluster
from .metadata import Shard


class ReshardPhase(enum.Enum):
    CREATE_TARGET = "create_target"
    SNAPSHOT = "snapshot"
    INSTALL = "install"
    CATCH_UP = "catch_up"
    FLIP = "flip"
    DONE = "done"


@dataclass
class MigrationTap:
    """Dual-log buffer for committed writes in a moving ring interval."""

    lo: int
    hi: int
    entries: list[tuple[str, str, Key, Row | None, Timestamp]] = field(
        default_factory=list
    )

    def record(
        self, kind: str, table: str, key: Key, row: Row | None, commit_ts: Timestamp
    ) -> None:
        self.entries.append((kind, table, key, row, commit_ts))


class ReshardOperation:
    """Base phase machine; subclasses define sources and the map delta."""

    metric = "reshard.migrations"

    def __init__(self, cluster: DistributedCluster):
        cluster._build()
        self.cluster = cluster
        self.phase = ReshardPhase.CREATE_TARGET
        self.target_sid: int | None = None
        self.rows_moved = 0
        self.tail_writes = 0
        self._tap: MigrationTap | None = None
        self._snapshot_rows: dict[str, list[Row]] = {}
        self._start_us = cluster.cost.now_us()
        reg = get_registry()
        self._m_done = reg.counter(self.metric)
        self._m_rows_moved = reg.counter("reshard.rows_moved")
        self._m_tail_writes = reg.counter("reshard.tail_writes")
        self._h_duration = reg.histogram("reshard.duration_us")

    # ----------------------------------------------------- subclass hooks

    def _moving_range(self) -> tuple[int, int]:
        raise NotImplementedError

    def _source_sids(self) -> list[int]:
        raise NotImplementedError

    def _map_delta(self) -> tuple[list[int], list[Shard]]:
        raise NotImplementedError

    def _finish_sources(self) -> None:
        raise NotImplementedError

    # ----------------------------------------------------- the machine

    @property
    def done(self) -> bool:
        return self.phase is ReshardPhase.DONE

    def step(self) -> ReshardPhase:
        """Run one phase; client traffic interleaves between calls."""
        if self.phase is ReshardPhase.CREATE_TARGET:
            self._create_target()
            self.phase = ReshardPhase.SNAPSHOT
        elif self.phase is ReshardPhase.SNAPSHOT:
            self._snapshot_at_barrier()
            self.phase = ReshardPhase.INSTALL
        elif self.phase is ReshardPhase.INSTALL:
            self._install_snapshot()
            self.phase = ReshardPhase.CATCH_UP
        elif self.phase is ReshardPhase.CATCH_UP:
            self._drain_tail()
            self.phase = ReshardPhase.FLIP
        elif self.phase is ReshardPhase.FLIP:
            self._flip()
            self.phase = ReshardPhase.DONE
        return self.phase

    def run(self) -> None:
        """Drive to completion with no interleaved traffic."""
        while not self.done:
            self.step()

    def _create_target(self) -> None:
        cluster = self.cluster
        self.target_sid = cluster.metadata.allocate_shard_id()
        cluster._make_shard(self.target_sid)
        cluster._groups[self.target_sid].elect_leader()

    def _snapshot_at_barrier(self) -> None:
        cluster = self.cluster
        lo, hi = self._moving_range()
        # The sources' in-flight resolves must commit before the
        # barrier: a snapshot must be committed truth, and an intent
        # decided *after* the tap installs dual-logs normally.
        cluster._settle(self._source_sids())
        # Tap first, read second, same step: the barrier is exact.
        self._tap = MigrationTap(lo, hi)
        cluster._migration_taps.append(self._tap)
        for sid in self._source_sids():
            sm = cluster._leader_sm(sid)
            for table, rows in sm.rows.items():
                moved = [
                    row
                    for key, row in rows.items()
                    if lo <= cluster.point_of(table, key) < hi
                ]
                if moved:
                    self._snapshot_rows.setdefault(table, []).extend(moved)

    def _install_snapshot(self) -> None:
        cluster = self.cluster
        ts = cluster.clock.tick()
        group = cluster._groups[self.target_sid]
        for table, rows in self._snapshot_rows.items():
            cluster._charge_group_write(self.target_sid, len(rows))
            group.propose_and_wait(("install", table, tuple(rows), ts))
            self.rows_moved += len(rows)
        self._snapshot_rows.clear()
        self._m_rows_moved.inc(self.rows_moved)

    def _drain_tail(self) -> None:
        cluster = self.cluster
        entries = tuple(self._tap.entries)
        if not entries:
            return
        self._tap.entries.clear()
        cluster._charge_group_write(self.target_sid, len(entries))
        cluster._groups[self.target_sid].propose_and_wait(("tail", entries))
        self.tail_writes += len(entries)
        self._m_tail_writes.inc(len(entries))

    def _flip(self) -> None:
        cluster = self.cluster
        # Final tail drain + epoch bump happen in this one step, with no
        # client operation in between: the cutover is atomic.
        self._drain_tail()
        # Source learner streams must be fully applied before a source
        # can retire (merge/migrate), and the rehome image must be the
        # settled truth.  A drain that ran out of budget refuses the
        # flip before anything changed; the phase stays FLIP, so the
        # next step() tries again.
        if not cluster.drain_replication():
            raise ConsensusError(
                "flip refused: a learner has not applied its leader's commit index"
            )
        ts = cluster.clock.tick()
        target_group = cluster._groups[self.target_sid]
        target_sm = cluster._leader_sm(self.target_sid)
        for table, rows in target_sm.rows.items():
            if rows:
                target_group.propose_and_wait(
                    ("rehome", table, tuple(rows.values()), ts)
                )
        removed, added = self._map_delta()
        cluster.metadata.propose(removed, added)
        cluster._migration_taps.remove(self._tap)
        self._finish_sources()
        self._m_done.inc()
        self._h_duration.observe(cluster.cost.now_us() - self._start_us)


class ShardSplit(ReshardOperation):
    """Split one shard: the upper interval [at, hi) moves to a new
    group; the source keeps [lo, at) under its existing id."""

    metric = "reshard.splits"

    def __init__(
        self, cluster: DistributedCluster, source_sid: int, at: int | None = None
    ):
        super().__init__(cluster)
        source = cluster.metadata.current().get(source_sid)
        if source is None:
            raise StorageError(f"shard {source_sid} is not in the live map")
        self.source = source
        self.at = source.midpoint() if at is None else at
        if not source.lo < self.at < source.hi:
            raise StorageError(
                f"split point {self.at} outside shard {source_sid}'s "
                f"interval [{source.lo}, {source.hi})"
            )

    def _moving_range(self) -> tuple[int, int]:
        return (self.at, self.source.hi)

    def _source_sids(self) -> list[int]:
        return [self.source.shard_id]

    def _map_delta(self) -> tuple[list[int], list[Shard]]:
        return (
            [self.source.shard_id],
            [
                Shard(self.source.shard_id, self.source.lo, self.at),
                Shard(self.target_sid, self.at, self.source.hi),
            ],
        )

    def _finish_sources(self) -> None:
        # The source lives on with a narrower interval: drop the rows
        # that moved.  Post-flip, so no client op can interleave.
        self.cluster._groups[self.source.shard_id].propose_and_wait(
            ("truncate", self.at, self.source.hi)
        )


class ShardMerge(ReshardOperation):
    """Merge two ring-adjacent shards into one new group; both sources
    retire (their Raft groups shut down) after the flip."""

    metric = "reshard.merges"

    def __init__(self, cluster: DistributedCluster, left_sid: int, right_sid: int):
        super().__init__(cluster)
        current = cluster.metadata.current()
        left, right = current.get(left_sid), current.get(right_sid)
        if left is None or right is None:
            raise StorageError(
                f"shards {left_sid}/{right_sid} are not both in the live map"
            )
        if left.hi != right.lo:
            raise StorageError(
                f"shards {left_sid} and {right_sid} are not ring-adjacent"
            )
        self.left, self.right = left, right

    def _moving_range(self) -> tuple[int, int]:
        return (self.left.lo, self.right.hi)

    def _source_sids(self) -> list[int]:
        return [self.left.shard_id, self.right.shard_id]

    def _map_delta(self) -> tuple[list[int], list[Shard]]:
        return (
            [self.left.shard_id, self.right.shard_id],
            [Shard(self.target_sid, self.left.lo, self.right.hi)],
        )

    def _finish_sources(self) -> None:
        for sid in self._source_sids():
            self.cluster._groups[sid].shutdown()


class ShardMigrate(ReshardOperation):
    """Move one shard's whole interval to a freshly placed Raft group
    (rebalancing onto different physical nodes); the source retires."""

    metric = "reshard.migrations"

    def __init__(self, cluster: DistributedCluster, source_sid: int):
        super().__init__(cluster)
        source = cluster.metadata.current().get(source_sid)
        if source is None:
            raise StorageError(f"shard {source_sid} is not in the live map")
        self.source = source

    def _moving_range(self) -> tuple[int, int]:
        return (self.source.lo, self.source.hi)

    def _source_sids(self) -> list[int]:
        return [self.source.shard_id]

    def _map_delta(self) -> tuple[list[int], list[Shard]]:
        return (
            [self.source.shard_id],
            [Shard(self.target_sid, self.source.lo, self.source.hi)],
        )

    def _finish_sources(self) -> None:
        self.cluster._groups[self.source.shard_id].shutdown()
