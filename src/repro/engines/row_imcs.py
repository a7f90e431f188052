"""Architecture (a): Primary Row Store + In-Memory Column Store.

The Oracle Dual-Format / SQL Server CSI / DB2 BLU family.  All data
lives in a memory-optimized MVCC row store (the primary); selected
tables are *populated* into in-memory column units (IMCUs).  Committed
changes are recorded in each IMCU's snapshot metadata unit (SMU);
analytical scans read the columnar image and patch the stale keys from
the row store at query time ("in-memory delta and column scan"), so
freshness is High.  When staleness crosses a threshold, sync
repopulates the unit from the primary ("rebuild from primary row
store").  Everything runs on one node, which is why Table 1 scores the
category Low on isolation and AP scalability.

Transactions are Table 2's MVCC + logging: the shared write-set session
reads the primary's version chains at its read ts, and the redo-log
commit body of :class:`~.base.LoggedEngine` refuses an insert of a key
present at that ts, then a commit by first-committer-wins, then
installs one version per key and marks the key stale in its IMCU.
"""

from __future__ import annotations

import numpy as np

from ..common.cost import CostModel
from ..common.clock import LogicalClock, Timestamp
from ..common.errors import KeyNotFoundError, TransactionError
from ..common.predicate import Predicate
from ..common.types import Key, Row, Schema
from ..query.access import AccessPath
from ..query.adapters import index_lookup_rows
from ..query.statistics import TableStats
from ..storage.column_store import encoded_column_fraction, pruned_row_fraction
from ..storage.imcu import InMemoryColumnUnit
from ..storage.row_store import MVCCRowStore
from .base import EngineInfo, EngineTableAccess, LoggedEngine

_NODE = "node0"


class RowIMCSEngine(LoggedEngine):
    """Primary row store + IMCU-per-table, single node."""

    info = EngineInfo(
        name="row+imcs",
        category="a",
        description="Primary Row Store + In-Memory Column Store "
        "(Oracle Dual-Format / SQL Server CSI style)",
    )

    def __init__(
        self,
        cost: CostModel | None = None,
        clock: LogicalClock | None = None,
        repopulate_staleness: float = 0.05,
        group_commit_size: int = 8,
    ):
        super().__init__(cost, clock, group_commit_size)
        self.repopulate_staleness = repopulate_staleness
        self._stores: dict[str, MVCCRowStore] = {}
        self._imcus: dict[str, InMemoryColumnUnit] = {}
        # Each table whose IMCU changed since its last populate -> that
        # populate's ts: all freshness_lag reads.
        self._pending: dict[str, Timestamp] = {}
        #: When set, row-path reads serve this historical snapshot
        #: instead of "now" (see :meth:`time_travel_query`).
        self._read_ts_override: Timestamp | None = None

    # ------------------------------------------------------------- schema

    def create_table(self, schema: Schema) -> None:
        if schema.table_name in self._stores:
            raise TransactionError(f"table {schema.table_name!r} already exists")
        store = MVCCRowStore(schema, cost=self.cost)
        self._stores[schema.table_name] = store
        imcu = InMemoryColumnUnit(schema, store, self.cost)
        imcu.populate(self.clock.now())
        self._imcus[schema.table_name] = imcu
        self._register_adapter(
            schema.table_name, _ImcuTableAccess(self, schema.table_name)
        )

    def store(self, table: str) -> MVCCRowStore:
        try:
            return self._stores[table]
        except KeyError:
            raise KeyNotFoundError(f"no table {table!r}") from None

    # ------------------------------------------------------------- OLTP
    #
    # Reads see the version chains at the session's read ts; a commit is
    # refused by every engine's first-committer-wins (LoggedEngine's).

    def _schema_of(self, table: str) -> Schema:
        return self.store(table).schema

    def _read_committed(self, table: str, key: Key, read_ts: Timestamp) -> Row | None:
        return self._charged(self.store(table).read, key, read_ts)

    def _scan_committed(
        self, table: str, predicate: Predicate, read_ts: Timestamp
    ) -> list[Row]:
        return self._charged(self.store(table).scan, read_ts, predicate)

    def _install(
        self, kind: str, table: str, key: Key, row: Row | None, ts: Timestamp
    ) -> None:
        store = self.store(table)
        if kind == "insert":
            store.install_validated_insert(row, ts)
        elif kind == "update":
            store.install_validated_update(key, row, ts)
        else:
            store.install_delete(key, ts)
        imcu = self._imcus[table]
        imcu.on_change(key)
        self._pending.setdefault(table, imcu.smu.populate_ts)

    def _install_batch(self, table: str, rows: list[Row], ts: Timestamp) -> None:
        store, imcu = self.store(table), self._imcus[table]
        key_of = store.schema.key_of
        for row in rows:
            store.install_validated_insert(row, ts)
            imcu.on_change(key_of(row))
        if rows:
            self._pending.setdefault(table, imcu.smu.populate_ts)

    def _recovered(self) -> None:
        self.force_sync()  # populate the IMCUs from the replayed primary

    def vacuum(self) -> int:
        """Drop the row versions no open session's snapshot can see;
        returns how many went."""
        horizon = min(self._open.values(), default=self.clock.now())
        return sum(store.vacuum(horizon) for store in self._stores.values())

    # ------------------------------------------------------------- DS / metrics

    def _sync(self) -> int:
        """Rebuild every IMCU whose staleness crossed the threshold."""
        rebuilt = 0
        snapshot = self.clock.now()
        before = self.cost.now_us()
        for table, imcu in self._imcus.items():
            if imcu.staleness() >= self.repopulate_staleness:
                rebuilt += imcu.populate(snapshot)
                self._pending.pop(table, None)
        self.ledger.charge(_NODE, self.cost.now_us() - before)
        return rebuilt

    def force_sync(self) -> int:
        snapshot = self.clock.now()
        moved = sum(imcu.populate(snapshot) for imcu in self._imcus.values())
        self._pending.clear()
        self.scan_cache.invalidate()
        return moved

    def freshness_lag(self) -> int:
        if self.read_fresh:
            return 0  # queries patch from the primary at scan time
        # An image with no pending changes is fresh no matter how long
        # ago it was populated.
        if not self._pending:
            return 0
        return self.clock.now() - min(self._pending.values())

    def memory_report(self) -> dict[str, int]:
        return {
            "row_store": sum(s.memory_bytes() for s in self._stores.values()),
            "column_units": sum(u.memory_bytes() for u in self._imcus.values()),
            "wal": len(self.wal) * 64,
        }

    def imcu(self, table: str) -> InMemoryColumnUnit:
        return self._imcus[table]

    def read_snapshot_ts(self) -> Timestamp:
        if self._read_ts_override is not None:
            return self._read_ts_override
        return self.clock.now()

    def time_travel_query(self, query, as_of: Timestamp):
        """Run an analytical query AS OF an earlier commit timestamp.

        MVCC version chains make historical snapshots first-class on
        this architecture (Oracle flashback style).  The plan is pinned
        to the row path: the primary store holds every version (until
        vacuumed), while the columnar image only holds the present.
        """
        self._read_ts_override = as_of
        try:
            return self.query(query, force_path=AccessPath.ROW_SCAN)
        finally:
            self._read_ts_override = None


class _ImcuTableAccess(EngineTableAccess):
    """TableAccess over (row store, IMCU) with query-time patching."""

    def _store(self):
        return self._engine.store(self._table)

    def schema(self) -> Schema:
        return self._store().schema

    def _compute_stats(self) -> TableStats:
        rows = self._store().snapshot_rows(self._engine.clock.now())
        return TableStats.from_rows(self.schema(), rows)

    def stats(self) -> TableStats:
        return self._stats.get(self._store().installs)

    def cache_token(self, path: AccessPath | None = None):
        """Scan-cache version token: the reader snapshot (including any
        time-travel override — historical MVCC reads are immutable and
        cacheable per snapshot), the primary's write/vacuum versions,
        the IMCU population generation, and the patch mode.

        An isolated-mode COLUMN_SCAN reads *only* the stale columnar
        image (``scan_columns`` passes ``patch=False``), so its token is
        the image generation plus how many populated keys the SMU has
        marked stale — the unpatched scan drops those rows, and the set
        only grows between populations.  Primary-side inserts between
        syncs keep those cached scans servable instead of invalidating
        them.
        """
        imcu = self._engine.imcu(self._table)
        if path is AccessPath.COLUMN_SCAN and not self._engine.read_fresh:
            return (
                "imcs",
                imcu.populations,
                imcu.smu.populate_ts,
                len(imcu.smu.stale_keys),
            )
        store = self._store()
        return (
            self._engine.read_snapshot_ts(),
            store.installs,
            store.version_count(),
            imcu.smu.populate_ts,
            self._engine.read_fresh,
        )

    def scan_rows(self, predicate: Predicate) -> list[Row]:
        return self._store().scan(self._engine.read_snapshot_ts(), predicate)

    def scan_columns(
        self, columns: list[str], predicate: Predicate
    ) -> dict[str, np.ndarray]:
        """Dictionary columns stay encoded (CodeColumn); patch rows are
        folded into the code space at the merge."""
        imcu = self._engine.imcu(self._table)
        fresh = self._engine.read_fresh
        # Isolated mode: serve the stale columnar image only (no patch
        # reads against the primary) — faster, less fresh.
        snapshot_ts = self._engine.clock.now() if fresh else imcu.smu.populate_ts
        return imcu.scan(
            snapshot_ts, columns, predicate, patch=fresh, with_keys=False, encode=True
        ).arrays

    def scan_pruning_hint(self, predicate: Predicate) -> float:
        """Prunable fraction of the populated IMCU (all-or-nothing: the
        unit is one pruning granule; patch reads are never pruned)."""
        return pruned_row_fraction(self._engine.imcu(self._table).segments, predicate)

    def code_space_hint(self, columns: list[str]) -> float:
        """Fraction of ``columns`` the IMCU serves as dictionary codes."""
        return encoded_column_fraction(columns, self._engine.imcu(self._table).segments)

    def indexed_columns(self) -> set[str]:
        """Secondary-index columns the planner may treat as sargable."""
        return set(self._store()._secondary)

    def point_lookup(self, key: Key) -> Row | None:
        return self._store().read(key, self._engine.read_snapshot_ts())

    def index_lookup_rows(self, predicate: Predicate) -> list[Row]:
        return index_lookup_rows(
            self._store(), self._engine.read_snapshot_ts(), predicate
        )
