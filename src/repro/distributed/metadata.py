"""Epoch-versioned shard maps and the metadata service that owns them.

The key space is a totally ordered ring of *points* (a stable 64-bit
hash of ``(table, key)``, see :mod:`~repro.distributed.partitioner`),
tiled by contiguous shard intervals, each interval served by its own
Raft group.  The :class:`ShardMap` is the routing table — an immutable,
epoch-stamped snapshot with O(log shards) point lookup (bisect over the
interval lower bounds; never a linear scan).

:class:`MetadataService` is the single writer (PD / placement-driver
role): resharding operations propose deltas, the service bumps the
epoch and appends the delta to a bounded history so stateless routers
can catch up incrementally (``deltas_since``) instead of refetching the
whole map.  Routers that fall behind the retained history take a full
snapshot.  Shards enforce the epoch contract: a request routed with a
map that no longer owns the key is rejected with
:class:`~repro.common.errors.StaleEpochError`, which is the router's
cue to refresh and retry — the metadata node is *never* on the routing
hot path.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from ..common.errors import RoutingError, StorageError
from ..obs import get_registry
from .partitioner import hash_point, placement_point

#: The hash keyspace tiles the full 64-bit stable-hash ring.
RING_SIZE = 1 << 64

#: Deltas retained by the metadata service; routers further behind
#: than this take a full snapshot instead of an incremental catch-up.
DELTA_HISTORY = 64


@dataclass(frozen=True)
class PlacementKey:
    """One table's placement rule: hash only the leading ``prefix_len``
    key columns, namespaced by ``group``.

    Tables sharing a ``group`` and prefix *values* co-locate exactly —
    customer ``(w, d, c)`` and history ``(w, d, c, h_id)`` under the
    same group with ``prefix_len=3`` hash to the identical ring point,
    so a payment's customer update and history insert always commit on
    one shard.  Placement changes only the point function, never the
    ring: routing, the epoch contract, and resharding all keep working
    on points exactly as before.
    """

    group: str
    prefix_len: int


class PlacementPolicy:
    """Table -> :class:`PlacementKey` rules consulted by ``point_of``.

    TiDB placement-rule / F1 table-group style: the policy is declared
    with the schema (before any row is placed) and is deliberately
    *not* part of the epoch-versioned shard map — it never changes at
    runtime, so every component (router caches, shard ownership checks,
    resharding snapshots and truncates) derives the same point for the
    same row forever.
    """

    def __init__(self) -> None:
        self._rules: dict[str, PlacementKey] = {}

    def declare(self, table: str, group: str, prefix_len: int) -> None:
        if prefix_len < 1:
            raise StorageError("placement prefix must keep at least one column")
        if not group:
            raise StorageError("placement group name must be non-empty")
        existing = self._rules.get(table)
        if existing is not None and existing != PlacementKey(group, prefix_len):
            raise StorageError(
                f"table {table!r} already placed in group "
                f"{existing.group!r} (prefix {existing.prefix_len})"
            )
        self._rules[table] = PlacementKey(group, prefix_len)

    def rule(self, table: str) -> PlacementKey | None:
        return self._rules.get(table)

    def tables(self) -> list[str]:
        return sorted(self._rules)

    def point_of(self, table: str, key: Any) -> int:
        """Ring position of one row under this policy; tables without
        a rule fall back to the plain per-row ``hash_point``."""
        rule = self._rules.get(table)
        if rule is None:
            return hash_point(table, key)
        prefix = key if isinstance(key, tuple) else (key,)
        if len(prefix) < rule.prefix_len:
            raise RoutingError(
                f"key {key!r} of {table!r} is shorter than its placement "
                f"prefix ({rule.prefix_len} columns)"
            )
        return placement_point(rule.group, prefix[: rule.prefix_len])


@dataclass(frozen=True)
class Shard:
    """One contiguous interval ``[lo, hi)`` of the ring, one Raft group."""

    shard_id: int
    lo: int
    hi: int

    def owns(self, point: int) -> bool:
        return self.lo <= point < self.hi

    def midpoint(self) -> int:
        return self.lo + (self.hi - self.lo) // 2


@dataclass(frozen=True)
class ShardMapDelta:
    """One epoch transition: drop ``removed`` ids, add ``added`` entries."""

    epoch: int
    removed: tuple[int, ...]
    added: tuple[Shard, ...]


class ShardMap:
    """Immutable epoch-stamped shard table with bisect routing."""

    def __init__(self, shards: Iterable[Shard], epoch: int = 0):
        ordered = sorted(shards, key=lambda s: s.lo)
        if not ordered:
            raise StorageError("a shard map needs at least one shard")
        for left, right in zip(ordered, ordered[1:]):
            if left.hi != right.lo:
                raise StorageError(
                    f"shard intervals must tile the ring: shard {left.shard_id} "
                    f"ends at {left.hi}, shard {right.shard_id} starts at {right.lo}"
                )
        for shard in ordered:
            if shard.lo >= shard.hi:
                raise StorageError(f"shard {shard.shard_id} interval is empty")
        self.epoch = epoch
        self._shards = tuple(ordered)
        self._los = [s.lo for s in ordered]
        self._by_id = {s.shard_id: s for s in ordered}

    # ------------------------------------------------------------- routing

    def shard_for_point(self, point: int) -> Shard:
        """O(log shards) interval lookup; the routing hot path."""
        idx = bisect_right(self._los, point) - 1
        if idx < 0 or not self._shards[idx].owns(point):
            raise RoutingError(
                f"point {point} outside the mapped ring "
                f"[{self._los[0]}, {self._shards[-1].hi})"
            )
        return self._shards[idx]

    def get(self, shard_id: int) -> Shard | None:
        return self._by_id.get(shard_id)

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def shards(self) -> tuple[Shard, ...]:
        return self._shards

    def shard_ids(self) -> list[int]:
        return sorted(self._by_id)

    # ------------------------------------------------------------- evolve

    def apply(self, delta: ShardMapDelta) -> "ShardMap":
        """New map with ``delta`` applied (epoch taken from the delta)."""
        if delta.epoch <= self.epoch:
            raise StorageError(
                f"delta epoch {delta.epoch} not newer than map epoch {self.epoch}"
            )
        removed = set(delta.removed)
        survivors = [s for s in self._shards if s.shard_id not in removed]
        return ShardMap([*survivors, *delta.added], epoch=delta.epoch)

    @staticmethod
    def uniform(n_shards: int, span: tuple[int, int] = (0, RING_SIZE)) -> "ShardMap":
        """``n_shards`` equal intervals tiling ``span`` — the boot map."""
        lo, hi = span
        if n_shards < 1:
            raise StorageError("need at least one shard")
        width = (hi - lo) // n_shards
        if width < 1:
            raise StorageError("span too narrow for that many shards")
        bounds = [lo + i * width for i in range(n_shards)] + [hi]
        return ShardMap(
            [
                Shard(shard_id=i, lo=bounds[i], hi=bounds[i + 1])
                for i in range(n_shards)
            ]
        )

    @staticmethod
    def balanced(points: Iterable[int], n_shards: int) -> "ShardMap":
        """Boot map cut at load quantiles instead of equal ring spans.

        ``points`` is an expected-load sample: one entry per anticipated
        unit of traffic (repeat a point to weight it).  Equal ring spans
        give every shard equal *hash space*; with placement-driven
        co-location the traffic rides a finite population of placement
        points, and equal spans leave the busiest shard holding ~1.5x
        the mean — a fixed imbalance no amount of extra work shrinks.
        Cutting at equal-count quantiles of the sample gives every shard
        equal *expected load* instead, which is what placement drivers
        in real systems converge to via load-based splitting.

        Falls back to :meth:`uniform` when the sample is too small or
        too duplicate-heavy to yield ``n_shards`` distinct intervals.
        """
        if n_shards < 1:
            raise StorageError("need at least one shard")
        sample = sorted(points)
        if sample and not (0 <= sample[0] and sample[-1] < RING_SIZE):
            raise StorageError("sample points must lie on the ring")
        bounds = [0]
        for i in range(1, n_shards):
            cut = sample[(i * len(sample)) // n_shards] if sample else 0
            if cut > bounds[-1]:
                bounds.append(cut)
        if len(bounds) < n_shards:
            return ShardMap.uniform(n_shards)
        bounds.append(RING_SIZE)
        return ShardMap(
            [
                Shard(shard_id=i, lo=bounds[i], hi=bounds[i + 1])
                for i in range(n_shards)
            ]
        )


class MetadataService:
    """The authoritative shard map plus a bounded delta history.

    Single-writer by construction (resharding operations call
    :meth:`propose`); readers are the stateless routers, which pay a
    metadata round trip only on :meth:`snapshot` / :meth:`deltas_since`
    — never per routed operation.
    """

    def __init__(self, initial: ShardMap, history: int = DELTA_HISTORY):
        self._map = initial
        self._history: list[ShardMapDelta] = []
        self._history_cap = history
        self._next_shard_id = max(initial.shard_ids()) + 1
        reg = get_registry()
        self._g_epoch = reg.gauge("shardmap.epoch")
        self._g_shards = reg.gauge("shardmap.shards")
        self._m_delta_fetches = reg.counter("shardmap.delta_fetches")
        self._m_full_fetches = reg.counter("shardmap.full_fetches")
        self._g_epoch.set(float(initial.epoch))
        self._g_shards.set(float(initial.n_shards))

    @property
    def epoch(self) -> int:
        return self._map.epoch

    def rebound(self, new_map: ShardMap) -> ShardMapDelta:
        """Re-cut every boundary in one epoch transition, keeping the
        shard-id population (e.g. install :meth:`ShardMap.balanced` load
        quantiles at boot).  Goes through :meth:`propose` — a boundary
        change is a map change, and routers that cached the old cut must
        be able to converge through the delta history like any other
        transition."""
        if sorted(new_map.shard_ids()) != sorted(self._map.shard_ids()):
            raise StorageError(
                "rebound must keep the same shard ids "
                f"({sorted(new_map.shard_ids())} vs "
                f"{sorted(self._map.shard_ids())})"
            )
        return self.propose(
            removed=list(self._map.shard_ids()),
            added=[new_map.get(sid) for sid in new_map.shard_ids()],
        )

    def current(self) -> ShardMap:
        """The live map, free of charge — for co-located components
        (shard servers checking ownership); routers use the fetch APIs
        so cache behaviour stays observable."""
        return self._map

    # ------------------------------------------------------------- fetch

    def snapshot(self) -> ShardMap:
        """Full-map fetch (router bootstrap, or too far behind)."""
        self._m_full_fetches.inc()
        return self._map

    def deltas_since(self, epoch: int) -> list[ShardMapDelta] | None:
        """Incremental catch-up from ``epoch``; ``None`` means the
        history no longer reaches back that far — take a snapshot."""
        if epoch >= self._map.epoch:
            self._m_delta_fetches.inc()
            return []
        missing = [d for d in self._history if d.epoch > epoch]
        if not missing or missing[0].epoch != epoch + 1:
            return None
        self._m_delta_fetches.inc()
        return missing

    # ------------------------------------------------------------- evolve

    def allocate_shard_id(self) -> int:
        sid = self._next_shard_id
        self._next_shard_id += 1
        return sid

    def propose(
        self, removed: Sequence[int], added: Sequence[Shard]
    ) -> ShardMapDelta:
        """Apply one resharding transition; bumps the epoch atomically."""
        delta = ShardMapDelta(
            epoch=self._map.epoch + 1,
            removed=tuple(removed),
            added=tuple(added),
        )
        self._map = self._map.apply(delta)
        self._history.append(delta)
        if len(self._history) > self._history_cap:
            del self._history[: len(self._history) - self._history_cap]
        self._g_epoch.set(float(self._map.epoch))
        self._g_shards.set(float(self._map.n_shards))
        return delta
