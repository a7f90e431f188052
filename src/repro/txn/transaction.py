"""Snapshot-isolation transactions over the MVCC row store.

The "MVCC + logging" TP technique of Table 2: a transaction reads a
fixed snapshot (its begin timestamp), buffers its writes, and at commit
(i) passes a first-committer-wins conflict check, (ii) logs its redo
records and forces the WAL, (iii) installs the new versions with its
commit timestamp, and (iv) feeds every registered commit listener —
the hook delta stores, IMCUs, and replication use to stay in sync.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable

from ..common.clock import LogicalClock, Timestamp
from ..common.cost import CostModel
from ..common.errors import (
    KeyNotFoundError,
    TransactionError,
    WriteConflictError,
)
from ..common.predicate import ALWAYS_TRUE, Predicate
from ..common.types import Key, Row, Schema
from ..obs import get_registry
from ..storage.delta_store import DeltaEntry, DeltaKind
from ..storage.row_store import MVCCRowStore
from .wal import WalKind, WriteAheadLog


class TxnStatus(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class _WriteKind(enum.Enum):
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"


@dataclass
class _StagedWrite:
    kind: _WriteKind
    table: str
    key: Key
    row: Row | None
    # A DELETE that cancels this transaction's own insert: it hides the
    # key from reads but installs nothing.
    cancels_insert: bool = False


CommitListener = Callable[[str, list[DeltaEntry], Timestamp], None]
"""(table, delta entries, commit_ts) fired once per table per commit."""


class Transaction:
    """A unit of work; all access goes through its owning manager."""

    def __init__(self, txn_id: int, begin_ts: Timestamp, manager: "TransactionManager"):
        self.txn_id = txn_id
        self.begin_ts = begin_ts
        self.commit_ts: Timestamp | None = None
        self.status = TxnStatus.ACTIVE
        self._manager = manager
        self._writes: list[_StagedWrite] = []
        # (table, key) -> index into _writes, for read-your-own-writes.
        self._write_index: dict[tuple[str, Key], int] = {}

    # ------------------------------------------------------------- guards

    def _require_active(self) -> None:
        if self.status is not TxnStatus.ACTIVE:
            raise TransactionError(
                f"transaction {self.txn_id} is {self.status.value}, not active"
            )

    # ------------------------------------------------------------- reads

    def read(self, table: str, key: Key) -> Row | None:
        """Point read: own writes first, then the begin-ts snapshot."""
        self._require_active()
        staged = self._write_index.get((table, key))
        if staged is not None:
            write = self._writes[staged]
            return None if write.kind is _WriteKind.DELETE else write.row
        store = self._manager.store(table)
        return store.read(key, self.begin_ts)

    def scan(self, table: str, predicate: Predicate = ALWAYS_TRUE) -> list[Row]:
        """Snapshot scan merged with this transaction's own writes."""
        self._require_active()
        store = self._manager.store(table)
        rows = {store.schema.key_of(r): r for r in store.scan(self.begin_ts, predicate)}
        for write in self._writes:
            if write.table != table:
                continue
            if write.kind is _WriteKind.DELETE:
                rows.pop(write.key, None)
            elif predicate.matches(write.row, store.schema):
                rows[write.key] = write.row
            else:
                rows.pop(write.key, None)
        return list(rows.values())

    # ------------------------------------------------------------- writes

    def insert(self, table: str, row: Row) -> Key:
        self._require_active()
        store = self._manager.store(table)
        row = store.schema.validate_row(row)
        key = store.schema.key_of(row)
        if self.read(table, key) is not None:
            from ..common.errors import DuplicateKeyError

            raise DuplicateKeyError(f"key {key!r} already visible in {table!r}")
        self._stage(_StagedWrite(_WriteKind.INSERT, table, key, row))
        return key

    def update(self, table: str, row: Row) -> None:
        self._require_active()
        store = self._manager.store(table)
        row = store.schema.validate_row(row)
        key = store.schema.key_of(row)
        if self.read(table, key) is None:
            raise KeyNotFoundError(f"key {key!r} not visible in {table!r}")
        self._stage(_StagedWrite(_WriteKind.UPDATE, table, key, row))

    def delete(self, table: str, key: Key) -> None:
        self._require_active()
        if self.read(table, key) is None:
            raise KeyNotFoundError(f"key {key!r} not visible in {table!r}")
        self._stage(_StagedWrite(_WriteKind.DELETE, table, key, None))

    def _stage(self, write: _StagedWrite) -> None:
        slot = self._write_index.get((write.table, write.key))
        if slot is not None:
            prior = self._writes[slot]
            write = _coalesce(prior, write)
            self._writes[slot] = write
        else:
            self._writes.append(write)
            self._write_index[(write.table, write.key)] = len(self._writes) - 1

    # ------------------------------------------------------------- finish

    def commit(self) -> Timestamp:
        return self._manager.commit(self)

    def abort(self) -> None:
        self._manager.abort(self)


def _coalesce(prior: _StagedWrite, new: _StagedWrite) -> _StagedWrite:
    """Fold two writes to the same key into one effective write."""
    if new.kind is _WriteKind.DELETE:
        if prior.kind is _WriteKind.INSERT:
            # Insert-then-delete inside one txn: net no-op, keep a marker
            # that suppresses reads but installs nothing.
            return _StagedWrite(
                _WriteKind.DELETE, new.table, new.key, None, cancels_insert=True
            )
        return new
    if prior.kind is _WriteKind.INSERT:
        # Insert then update: still an insert of the newest image.
        return _StagedWrite(_WriteKind.INSERT, new.table, new.key, new.row)
    if prior.kind is _WriteKind.DELETE:
        # Delete then insert: an update of a key the snapshot holds, an
        # insert again if the delete cancelled this transaction's insert.
        kind = _WriteKind.INSERT if prior.cancels_insert else _WriteKind.UPDATE
        return _StagedWrite(kind, new.table, new.key, new.row)
    return new


def first_lost_write(
    writes: Iterable[tuple], exists: Callable[[str, Key], bool]
) -> tuple | None:
    """Commit-time validation for transactions that read the latest
    committed state instead of a snapshot (the engines' write-set
    sessions, the cluster's region state machines): of the staged
    ``(kind, table, key, ...)`` writes, in staged order, the first that
    lost a race against ``exists(table, key)`` — an insert needs its
    key absent, an update or delete needs it present — or None.  Only
    a key's first write is checked; later ones were staged against the
    transaction's own view of it."""
    seen: set[tuple[str, Key]] = set()
    for write in writes:
        kind, table, key = write[:3]
        if (table, key) in seen:
            continue
        seen.add((table, key))
        if exists(table, key) == (kind == "insert"):
            return write
    return None


class TransactionManager:
    """Catalog of row stores + SI commit protocol + commit listeners."""

    def __init__(
        self,
        clock: LogicalClock | None = None,
        cost: CostModel | None = None,
        wal: WriteAheadLog | None = None,
        labels: dict[str, str] | None = None,
    ):
        self.clock = clock or LogicalClock()
        self.cost = cost or CostModel()
        # `is not None` matters: an empty WAL is falsy (len() == 0).
        self.wal = wal if wal is not None else WriteAheadLog(cost=self.cost)
        self._stores: dict[str, MVCCRowStore] = {}
        self._listeners: list[CommitListener] = []
        self._active: dict[int, Transaction] = {}
        self._next_txn_id = 1
        self.commits = 0
        self.aborts = 0
        self.conflicts = 0
        registry = get_registry()
        labels = labels or {}
        self._m_commits = registry.counter("txn.commits", **labels)
        self._m_aborts = registry.counter("txn.aborts", **labels)
        self._m_conflicts = registry.counter("txn.conflicts", **labels)

    # ------------------------------------------------------------- catalog

    def create_table(self, schema: Schema) -> MVCCRowStore:
        if schema.table_name in self._stores:
            raise TransactionError(f"table {schema.table_name!r} already exists")
        store = MVCCRowStore(schema, cost=self.cost)
        self._stores[schema.table_name] = store
        return store

    def store(self, table: str) -> MVCCRowStore:
        try:
            return self._stores[table]
        except KeyError:
            raise KeyNotFoundError(f"no table {table!r}") from None

    def tables(self) -> list[str]:
        return list(self._stores)

    def schema(self, table: str) -> Schema:
        return self.store(table).schema

    def add_commit_listener(self, listener: CommitListener) -> None:
        self._listeners.append(listener)

    # ------------------------------------------------------------- lifecycle

    def begin(self) -> Transaction:
        txn = Transaction(self._next_txn_id, self.clock.now(), self)
        self._next_txn_id += 1
        self._active[txn.txn_id] = txn
        return txn

    def oldest_active_ts(self) -> Timestamp:
        if not self._active:
            return self.clock.now()
        return min(t.begin_ts for t in self._active.values())

    def commit(self, txn: Transaction) -> Timestamp:
        txn._require_active()
        # First-committer-wins: abort if any written key got a newer
        # committed version after our snapshot was taken.
        for write in txn._writes:
            store = self.store(write.table)
            last = store.last_committed_ts(write.key)
            if last is not None and last > txn.begin_ts:
                self.conflicts += 1
                self._m_conflicts.inc()
                self._finish(txn, TxnStatus.ABORTED)
                self.wal.append(txn.txn_id, WalKind.ABORT)
                raise WriteConflictError(txn.txn_id, write.key)
        commit_ts = self.clock.tick()
        txn.commit_ts = commit_ts
        self.wal.append(txn.txn_id, WalKind.BEGIN)
        per_table: dict[str, list[DeltaEntry]] = {}
        for write in txn._writes:
            store = self.store(write.table)
            if write.kind is _WriteKind.INSERT:
                self.wal.append(
                    txn.txn_id, WalKind.INSERT, write.table, write.key, write.row, commit_ts
                )
                store.install_insert(write.row, commit_ts)
                entry = DeltaEntry(DeltaKind.INSERT, write.key, write.row, commit_ts)
            elif write.kind is _WriteKind.UPDATE:
                self.wal.append(
                    txn.txn_id, WalKind.UPDATE, write.table, write.key, write.row, commit_ts
                )
                store.install_update(write.key, write.row, commit_ts)
                entry = DeltaEntry(DeltaKind.UPDATE, write.key, write.row, commit_ts)
            else:
                if write.cancels_insert:  # insert+delete in this txn
                    continue
                self.wal.append(
                    txn.txn_id, WalKind.DELETE, write.table, write.key, None, commit_ts
                )
                store.install_delete(write.key, commit_ts)
                entry = DeltaEntry(DeltaKind.DELETE, write.key, None, commit_ts)
            per_table.setdefault(write.table, []).append(entry)
        self.wal.append(txn.txn_id, WalKind.COMMIT, commit_ts=commit_ts)
        self._finish(txn, TxnStatus.COMMITTED)
        self.commits += 1
        self._m_commits.inc()
        for table, entries in per_table.items():
            for listener in self._listeners:
                listener(table, entries, commit_ts)
        return commit_ts

    def abort(self, txn: Transaction) -> None:
        txn._require_active()
        self.wal.append(txn.txn_id, WalKind.ABORT)
        self._finish(txn, TxnStatus.ABORTED)
        self.aborts += 1
        self._m_aborts.inc()

    def _finish(self, txn: Transaction, status: TxnStatus) -> None:
        txn.status = status
        self._active.pop(txn.txn_id, None)

    # ------------------------------------------------------------- helpers

    def run(self, work: Callable[[Transaction], None], retries: int = 3) -> Timestamp:
        """Execute ``work`` in a transaction, retrying on write conflicts."""
        last_error: WriteConflictError | None = None
        for _attempt in range(retries + 1):
            txn = self.begin()
            try:
                work(txn)
                return self.commit(txn)
            except WriteConflictError as err:
                last_error = err
                continue
            except Exception:
                if txn.status is TxnStatus.ACTIVE:
                    self.abort(txn)
                raise
        assert last_error is not None
        raise last_error

    def autocommit_insert(self, table: str, row: Row) -> Timestamp:
        txn = self.begin()
        txn.insert(table, row)
        return self.commit(txn)

    def vacuum_all(self) -> int:
        horizon = self.oldest_active_ts()
        return sum(store.vacuum(horizon) for store in self._stores.values())
