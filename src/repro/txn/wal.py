"""Write-ahead logging with optional group commit.

Every committing transaction appends its redo records and forces the
log (one simulated fsync) before its effects become visible — the
"logging" half of both TP techniques in Table 2.  Group commit batches
several commits behind one fsync, the standard way the MVCC+logging
engines keep their "high efficiency".

Durability contract: only COMMIT records at or below :attr:`durable_lsn`
(advanced by :meth:`force`) survive a crash.  Commits sitting in the
unforced group-commit tail are *visible* on the live instance but are
lost on crash — recovery honors this by default.  ABORT records never
count toward the group-commit batch: an aborted transaction installs
nothing, so it has nothing to make durable and must not burn a slot
that would trigger (or delay) someone else's fsync.
"""

from __future__ import annotations

import enum
from typing import Iterator, NamedTuple

from ..common.clock import Timestamp
from ..common.cost import CostModel
from ..common.types import Key, Row
from ..obs import get_registry


class WalKind(enum.Enum):
    BEGIN = "begin"
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"
    COMMIT = "commit"
    ABORT = "abort"


class WalRecord(NamedTuple):
    """One redo record.  A tuple: immutable, and cheaper to build than a
    frozen dataclass (an OLTP run appends tens of thousands)."""

    lsn: int
    txn_id: int
    kind: WalKind
    table: str | None = None
    key: Key | None = None
    row: Row | None = None
    commit_ts: Timestamp | None = None


class WriteAheadLog:
    """An append-only redo log held in memory (durability is simulated)."""

    def __init__(
        self,
        cost: CostModel | None = None,
        group_commit_size: int = 1,
        labels: dict[str, str] | None = None,
    ):
        if group_commit_size < 1:
            raise ValueError("group_commit_size must be >= 1")
        self._cost = cost or CostModel()
        self._records: list[WalRecord] = []
        self._next_lsn = 1
        self._group_commit_size = group_commit_size
        self._unforced_commits = 0
        self.fsyncs = 0
        #: Highest LSN guaranteed on stable storage (advanced by force()).
        self.durable_lsn = 0
        registry = get_registry()
        labels = labels or {}
        self._m_appends = registry.counter("wal.appends", **labels)
        self._m_fsyncs = registry.counter("wal.fsyncs", **labels)
        self._m_batch = registry.histogram("wal.group_commit_batch", **labels)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> tuple[WalRecord, ...]:
        """An immutable view; the log's internal list never escapes."""
        return tuple(self._records)

    def append(
        self,
        txn_id: int,
        kind: WalKind,
        table: str | None = None,
        key: Key | None = None,
        row: Row | None = None,
        commit_ts: Timestamp | None = None,
    ) -> WalRecord:
        record = WalRecord(self._next_lsn, txn_id, kind, table, key, row, commit_ts)
        self._next_lsn += 1
        self._records.append(record)
        self._cost.charge(self._cost.wal_append_us)
        self._m_appends.inc()
        if kind is WalKind.COMMIT:
            self._unforced_commits += 1
            if self._unforced_commits >= self._group_commit_size:
                self.force()
        return record

    def append_batch(
        self,
        txn_id: int,
        writes: list[tuple[WalKind, str, Key, Row | None]],
        commit_ts: Timestamp,
    ) -> None:
        """Encode one transaction's records (BEGIN + writes + COMMIT) as
        a single batched append: one cost charge for the whole run, one
        commit toward the group-commit window.  Bulk-load paths use this
        instead of per-record :meth:`append` calls."""
        records = [WalRecord(self._next_lsn, txn_id, WalKind.BEGIN)]
        lsn = self._next_lsn + 1
        for kind, table, key, row in writes:
            records.append(WalRecord(lsn, txn_id, kind, table, key, row, commit_ts))
            lsn += 1
        records.append(WalRecord(lsn, txn_id, WalKind.COMMIT, None, None, None, commit_ts))
        self._next_lsn = lsn + 1
        self._records.extend(records)
        self._cost.charge_rows(self._cost.wal_append_us, len(records))
        self._m_appends.inc(len(records))
        self._unforced_commits += 1
        if self._unforced_commits >= self._group_commit_size:
            self.force()

    @property
    def group_commit_size(self) -> int:
        return self._group_commit_size

    def set_group_commit_size(self, size: int) -> None:
        """Retune the group-commit window (the front door's arrival-rate
        knob): larger batches amortize fsyncs under bursts, size 1 keeps
        commit latency minimal when traffic is light.

        Shrinking the window below the commits already pending forces
        immediately — a commit admitted under the old window must never
        wait longer because the window shrank.
        """
        if size < 1:
            raise ValueError("group_commit_size must be >= 1")
        self._group_commit_size = size
        if self._unforced_commits >= size:
            self.force()

    def force(self) -> None:
        """Simulated fsync: pay the sync cost, clear the pending batch,
        and advance the durability horizon to the current tail."""
        if self._unforced_commits == 0:
            return
        self._cost.charge(self._cost.wal_fsync_us)
        self.fsyncs += 1
        self._m_fsyncs.inc()
        self._m_batch.observe(float(self._unforced_commits))
        self._unforced_commits = 0
        self.durable_lsn = self.tail_lsn()

    def unforced_commits(self) -> int:
        """Commits visible on the live instance but not yet durable."""
        return self._unforced_commits

    def tail_lsn(self) -> int:
        return self._next_lsn - 1

    def committed_txn_ids(self, up_to_lsn: int | None = None) -> set[int]:
        """Txn ids with a COMMIT record (optionally at or below a LSN)."""
        return {
            r.txn_id
            for r in self._records
            if r.kind is WalKind.COMMIT
            and (up_to_lsn is None or r.lsn <= up_to_lsn)
        }

    def durable_txn_ids(self) -> set[int]:
        """Txn ids whose COMMIT record made it to stable storage — the
        set a crash-restart is allowed to replay."""
        return self.committed_txn_ids(up_to_lsn=self.durable_lsn)

    def redo(self, include_unforced: bool = False) -> Iterator[WalRecord]:
        """The redo pass: the INSERT / UPDATE / DELETE records of winner
        transactions, in LSN order.  By default a winner is a *durable*
        commit (its COMMIT record was covered by an fsync) — a crash
        loses the unforced group-commit tail.  ``include_unforced=True``
        replays every logged commit (clean-shutdown semantics, or
        checking the log against a live instance)."""
        winners = self.committed_txn_ids(
            None if include_unforced else self.durable_lsn
        )
        return (
            r for r in self._records if r.txn_id in winners and r.table is not None
        )
