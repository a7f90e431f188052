"""A memory-optimized, multi-versioned row store.

This is the OLTP substrate of architecture categories (a)-(c): a hash
primary index over MVCC version chains, exactly the "MVCC + logging"
model of Table 2's transaction-processing row.  An update "creates a
new version of a row with a new lifetime of a begin timestamp and an
end timestamp" (§2.2(1)); deletes close the lifetime of the newest
version.

The store itself is timestamp-driven and knows nothing about
transactions: the transaction manager stages writes and installs them
here at commit time with the commit timestamp.  That keeps snapshot
visibility a pure function of (version chain, snapshot ts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from ..common.clock import INFINITY_TS, Timestamp
from ..common.cost import CostModel
from ..common.errors import DuplicateKeyError, KeyNotFoundError, SchemaError
from ..common.predicate import ALWAYS_TRUE, Predicate
from ..common.types import Key, Row, Schema
from .btree import BPlusTree
from .mv_index import MultiVersionIndex


@dataclass
class RowVersion:
    """One lifetime of a row: visible to snapshots in [begin_ts, end_ts)."""

    row: Row
    begin_ts: Timestamp
    end_ts: Timestamp = INFINITY_TS

    def visible_at(self, snapshot_ts: Timestamp) -> bool:
        return self.begin_ts <= snapshot_ts < self.end_ts


class ChangeFeed(NamedTuple):
    """What a row store installed between two drains
    (:meth:`MVCCRowStore.drain_changes`)."""

    #: Every key an insert, update or delete installed, in first-install
    #: order, mapped to whether its chain was created since the last
    #: drain.  Created chains sit at the tail of the store's chains, in
    #: this order.
    keys: dict[Key, bool]
    #: No vacuum dropped a whole chain since the last drain.
    intact: bool
    #: The newest ts the store ever wrote (-1: none).
    newest_ts: Timestamp
    #: This drain's number, from 1: a consumer that drained last took
    #: the number before it.
    drain: int


class MVCCRowStore:
    """Hash-indexed MVCC row store with optional B+-tree secondary indexes."""

    def __init__(self, schema: Schema, cost: CostModel | None = None):
        self.schema = schema
        self._cost = cost or CostModel()
        self._chains: dict[Key, list[RowVersion]] = {}
        self._secondary: dict[str, BPlusTree] = {}
        self._mv_indexes: dict[str, MultiVersionIndex] = {}
        self._installs = 0  # total versions ever installed (activity counter)
        self._versions = 0  # live version count, maintained incrementally
        # The change feed since the last drain (see ChangeFeed).
        self._fed: dict[Key, bool] = {}
        self._fed_intact = True
        self._newest_ts: Timestamp = -1
        self._drains = 0

    # ------------------------------------------------------------- metadata

    def __len__(self) -> int:
        """Number of keys with a currently-live newest version."""
        return sum(
            1 for chain in self._chains.values() if chain and chain[-1].end_ts == INFINITY_TS
        )

    @property
    def installs(self) -> int:
        return self._installs

    def keys(self) -> Iterator[Key]:
        for key, chain in self._chains.items():
            if chain and chain[-1].end_ts == INFINITY_TS:
                yield key

    def version_count(self) -> int:
        """O(1): scan-cache tokens read this on every scan, so it must
        not walk the chains (writes and vacuum keep the tally)."""
        return self._versions

    def memory_bytes(self) -> int:
        """Rough footprint: versions dominate; ~48 bytes/cell heuristic."""
        width = max(1, len(self.schema.columns))
        return self.version_count() * width * 48

    def contains_key(self, key: Key) -> bool:
        """Is ``key`` live in the newest committed state?  A directory
        probe, no charge."""
        chain = self._chains.get(key)
        return bool(chain) and chain[-1].end_ts == INFINITY_TS

    # ------------------------------------------------------------- writes

    def install_insert(self, row: Row, commit_ts: Timestamp) -> Key:
        return self.install_validated_insert(self.schema.validate_row(row), commit_ts)

    def install_validated_insert(self, row: Row, commit_ts: Timestamp) -> Key:
        """:meth:`install_insert` of a row that ``Schema.validate_row``
        already returned: an engine's commit, bulk load and WAL replay
        install the tuple its session or loader validated."""
        key = self.schema.key_of(row)
        chain = self._chains.get(key)
        if chain and chain[-1].end_ts == INFINITY_TS:
            raise DuplicateKeyError(
                f"key {key!r} already live in {self.schema.table_name!r}"
            )
        self._cost.charge(self._cost.row_point_write_us)
        if chain is None:
            self._chains[key] = [RowVersion(row=row, begin_ts=commit_ts)]
        else:
            chain.append(RowVersion(row=row, begin_ts=commit_ts))
        self._fed.setdefault(key, chain is None)
        if commit_ts > self._newest_ts:
            self._newest_ts = commit_ts
        self._installs += 1
        self._versions += 1
        self._index_add(key, row)
        for column, index in self._mv_indexes.items():
            index.on_insert(key, row[self.schema.index_of(column)], commit_ts)
        return key

    def install_update(self, key: Key, row: Row, commit_ts: Timestamp) -> None:
        row = self.schema.validate_row(row)
        if self.schema.key_of(row) != key:
            raise SchemaError("update must not change the primary key")
        self.install_validated_update(key, row, commit_ts)

    def install_validated_update(self, key: Key, row: Row, commit_ts: Timestamp) -> None:
        """:meth:`install_update` of a validated row whose key is ``key``
        (see :meth:`install_validated_insert`)."""
        chain = self._require_live_chain(key)
        self._cost.charge(self._cost.row_point_write_us)
        old = chain[-1]
        old.end_ts = commit_ts
        chain.append(RowVersion(row=row, begin_ts=commit_ts))
        self._fed.setdefault(key, False)
        if commit_ts > self._newest_ts:
            self._newest_ts = commit_ts
        self._installs += 1
        self._versions += 1
        self._index_remove(key, old.row)
        self._index_add(key, row)
        for column, index in self._mv_indexes.items():
            pos = self.schema.index_of(column)
            index.on_update(key, old.row[pos], row[pos], commit_ts)

    def install_delete(self, key: Key, commit_ts: Timestamp) -> None:
        chain = self._require_live_chain(key)
        self._cost.charge(self._cost.row_point_write_us)
        old = chain[-1]
        old.end_ts = commit_ts
        self._fed.setdefault(key, False)
        if commit_ts > self._newest_ts:
            self._newest_ts = commit_ts
        self._installs += 1
        self._index_remove(key, old.row)
        for column, index in self._mv_indexes.items():
            index.on_delete(key, old.row[self.schema.index_of(column)], commit_ts)

    def _require_live_chain(self, key: Key) -> list[RowVersion]:
        chain = self._chains.get(key)
        if not chain or chain[-1].end_ts != INFINITY_TS:
            raise KeyNotFoundError(
                f"key {key!r} not live in {self.schema.table_name!r}"
            )
        return chain

    # ------------------------------------------------------------- reads

    def read(self, key: Key, snapshot_ts: Timestamp) -> Row | None:
        """The version of ``key`` visible at ``snapshot_ts`` (or None)."""
        self._cost.charge(self._cost.row_point_read_us)
        chain = self._chains.get(key)
        if not chain:
            return None
        # Newest-first: OLTP reads overwhelmingly want the latest version.
        for version in reversed(chain):
            if version.visible_at(snapshot_ts):
                return version.row
        return None

    def scan(
        self, snapshot_ts: Timestamp, predicate: Predicate = ALWAYS_TRUE
    ) -> list[Row]:
        """Full scan of the snapshot; returns matching rows in key-hash order."""
        out: list[Row] = []
        examined = 0
        for chain in self._chains.values():
            for version in reversed(chain):
                # RowVersion.visible_at, inlined: one test per chain per scan.
                if version.begin_ts <= snapshot_ts < version.end_ts:
                    examined += 1
                    if predicate.matches(version.row, self.schema):
                        out.append(version.row)
                    break
        self._cost.charge_rows(self._cost.row_scan_per_row_us, max(examined, 1))
        return out

    def snapshot_rows(self, snapshot_ts: Timestamp) -> list[Row]:
        """All rows visible at ``snapshot_ts`` (used by rebuild sync)."""
        return self.scan(snapshot_ts)

    def snapshot_since(
        self,
        snapshot_ts: Timestamp,
        since_ts: Timestamp,
        keys: Iterable[Key] | None = None,
    ) -> tuple[list[Key], list[Row | None]]:
        """The keys visible at ``snapshot_ts`` in :meth:`scan`'s order,
        each with its row, or None where that same version was already
        visible at ``since_ts``.  Given ``keys`` (each with a chain), it
        visits only their chains, in that order.  Uncharged: the caller
        prices the scan."""
        chains = self._chains
        pairs = chains.items() if keys is None else zip(keys, map(chains.__getitem__, keys))
        visible: list[Key] = []
        rows: list[Row | None] = []
        for key, chain in pairs:
            for version in reversed(chain):
                if version.begin_ts <= snapshot_ts < version.end_ts:
                    visible.append(key)
                    unchanged = version.begin_ts <= since_ts < version.end_ts
                    rows.append(None if unchanged else version.row)
                    break
        return visible, rows

    def drain_changes(self) -> ChangeFeed:  # htaplint: ignore[HTL002] -- hands the change feed over and starts a new one; no scan reads the feed and no cache token includes it
        """The :class:`ChangeFeed` since the last drain; the next one
        starts empty."""
        self._drains += 1
        feed = ChangeFeed(self._fed, self._fed_intact, self._newest_ts, self._drains)
        self._fed, self._fed_intact = {}, True
        return feed

    # ------------------------------------------------------------- indexes

    def create_index(self, column: str) -> None:
        """Build a B+-tree secondary index over the *live* rows of a column."""
        idx_pos = self.schema.index_of(column)
        tree = BPlusTree()
        for key, chain in self._chains.items():
            if chain and chain[-1].end_ts == INFINITY_TS:
                value = chain[-1].row[idx_pos]
                bucket = tree.get((value,), default=None)
                if bucket is None:
                    bucket = []
                    tree.insert((value,), bucket)
                bucket.append(key)
        self._secondary[column] = tree

    def index_lookup_range(
        self, column: str, low, high
    ) -> list[Key]:
        """Keys whose ``column`` is within [low, high] per the index.

        Reflects the index's current (latest) state — callers re-check
        visibility with :meth:`read`, the standard index-then-verify
        pattern of MVCC systems.
        """
        tree = self._secondary.get(column)
        if tree is None:
            raise KeyNotFoundError(f"no index on column {column!r}")
        self._cost.charge(self._cost.index_lookup_us)
        keys: list[Key] = []
        low_key = None if low is None else (low,)
        high_key = None if high is None else (high, _TOP)
        for _value, bucket in tree.range(low_key, high_key):
            keys.extend(bucket)
        self._cost.charge_rows(self._cost.index_scan_per_row_us, max(len(keys), 1))
        return keys

    def has_index(self, column: str) -> bool:
        return column in self._secondary

    # ------------------------------------------------------- mv indexes

    def create_mv_index(self, column: str) -> MultiVersionIndex:
        """Build a multi-version index over ``column`` (MV-PBT style).

        Backfills postings for the full version history so snapshot
        lookups are correct even for timestamps before index creation.
        """
        pos = self.schema.index_of(column)
        index = MultiVersionIndex(column, self._cost)
        for key, chain in self._chains.items():
            for version in chain:
                index.on_insert(key, version.row[pos], version.begin_ts)
                if version.end_ts != INFINITY_TS:
                    index.on_delete(key, version.row[pos], version.end_ts)
        self._mv_indexes[column] = index
        return index

    def mv_index(self, column: str) -> MultiVersionIndex:
        try:
            return self._mv_indexes[column]
        except KeyError:
            raise KeyNotFoundError(f"no mv-index on column {column!r}") from None

    def mv_lookup(self, column: str, value, snapshot_ts: Timestamp) -> list[Key]:
        """Snapshot-correct equality lookup, no verification reads."""
        return self.mv_index(column).lookup(value, snapshot_ts)

    def mv_range(self, column: str, low, high, snapshot_ts: Timestamp):
        return self.mv_index(column).range(low, high, snapshot_ts)

    def _index_add(self, key: Key, row: Row) -> None:
        for column, tree in self._secondary.items():
            value = row[self.schema.index_of(column)]
            bucket = tree.get((value,), default=None)
            if bucket is None:
                bucket = []
                tree.insert((value,), bucket)
            bucket.append(key)

    def _index_remove(self, key: Key, row: Row) -> None:
        for column, tree in self._secondary.items():
            value = row[self.schema.index_of(column)]
            bucket = tree.get((value,), default=None)
            if bucket and key in bucket:
                bucket.remove(key)

    # ------------------------------------------------------------- GC

    def vacuum(self, oldest_active_ts: Timestamp) -> int:  # htaplint: ignore[HTL002] -- GC drops only versions invisible to every live snapshot; cache tokens include version_count(), which this does move
        """Drop versions invisible to every snapshot >= oldest_active_ts.

        Returns the number of versions reclaimed.
        """
        reclaimed = 0
        dead_keys: list[Key] = []
        for key, chain in self._chains.items():
            keep: list[RowVersion] = []
            for version in chain:
                dead = version.end_ts <= oldest_active_ts
                if dead:
                    reclaimed += 1
                else:
                    keep.append(version)
            if keep:
                self._chains[key] = keep
            else:
                dead_keys.append(key)
        for key in dead_keys:
            del self._chains[key]
        if dead_keys:
            # A chain created later goes to the tail, out of its old place.
            self._fed_intact = False
        self._versions -= reclaimed
        for index in self._mv_indexes.values():
            index.vacuum(oldest_active_ts)
        return reclaimed


class _Top:
    """Compares greater than everything; upper sentinel for index ranges."""

    def __lt__(self, other) -> bool:
        return False

    def __gt__(self, other) -> bool:
        return True

    def __eq__(self, other) -> bool:
        return isinstance(other, _Top)

    def __hash__(self) -> int:
        return hash("_Top")


_TOP = _Top()
