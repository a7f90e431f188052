"""Architecture (c): Disk Row Store + Distributed In-Memory Column Store.

The MySQL Heatwave shape: a disk-based RDBMS (slotted pages behind a
buffer pool) keeps "full capacity for OLTP workloads"; a distributed
in-memory column-store (IMCS) cluster is bolted on for analytics.
Columns are *loaded* into the IMCS (all by default, or picked by the
column-selection policy under a memory budget); committed changes
buffer in a per-table delta and propagate to the IMCS when the
threshold fires ("threshold-based change propagation") — hence
Table 1's Medium freshness.  Queries whose columns are loaded push down
to the IMCS nodes; anything else falls back to the disk row store on
the primary node (the documented downside of column selection).
"""

from __future__ import annotations

import numpy as np

from ..common.clock import LogicalClock, Timestamp
from ..common.cost import CostModel
from ..common.errors import KeyNotFoundError, TransactionError
from ..common.predicate import Predicate
from ..common.types import Key, Row, Schema, rows_to_columns
from ..query.column_selection import (
    AccessTracker,
    HeatmapColumnSelector,
    LearnedColumnSelector,
)
from ..query.statistics import TableStats
from ..storage.code_batch import overlay_delta
from ..storage.column_store import ColumnStore
from ..storage.delta_store import InMemoryDeltaStore
from ..storage.disk_row_store import DiskRowStore
from ..sync.delta_merge import InMemoryDeltaMerger
from .base import EngineInfo, EngineTableAccess, LoggedEngine

_PRIMARY = "mysql"


class DiskRowIMCSEngine(LoggedEngine):
    """Disk RDBMS primary + IMCS cluster with change propagation."""

    info = EngineInfo(
        name="disk-row+imcs-cluster",
        category="c",
        description="Disk Row Store + Distributed In-Memory Column Store "
        "(MySQL Heatwave style)",
    )

    def __init__(
        self,
        cost: CostModel | None = None,
        clock: LogicalClock | None = None,
        n_imcs_nodes: int = 2,
        buffer_capacity: int = 256,
        propagation_threshold: int = 512,
        column_budget_bytes: int | None = None,
        column_selector: str = "heatmap",
        group_commit_size: int = 8,
    ):
        super().__init__(cost, clock, group_commit_size)
        self.n_imcs_nodes = max(1, n_imcs_nodes)
        self.buffer_capacity = buffer_capacity
        self.propagation_threshold = propagation_threshold
        #: None = load every column; otherwise the selector packs this
        #: budget with the hottest columns.
        self.column_budget_bytes = column_budget_bytes
        self.tracker = AccessTracker()
        if column_selector == "heatmap":
            self._selector = HeatmapColumnSelector(self.tracker)
        elif column_selector == "learned":
            # §2.4's lightweight learned method: trend-aware scoring.
            self._selector = LearnedColumnSelector(self.tracker)
        else:
            raise ValueError(f"unknown column selector {column_selector!r}")
        self._stores: dict[str, DiskRowStore] = {}
        #: Per table, the in-memory delta merge that propagates its
        #: unpropagated changes (``.delta``) into its IMCS (``.main``).
        self._mergers: dict[str, InMemoryDeltaMerger] = {}
        self._loaded: dict[str, set[str]] = {}
        self.pushdowns = 0
        self.fallbacks = 0

    # ------------------------------------------------------------- schema

    def create_table(self, schema: Schema) -> None:
        name = schema.table_name
        if name in self._stores:
            raise TransactionError(f"table {name!r} already exists")
        store = DiskRowStore(schema, self.cost, buffer_capacity=self.buffer_capacity)
        self._stores[name] = store
        self._new_image(name)
        self._loaded[name] = (
            set(schema.column_names) if self.column_budget_bytes is None else set()
        )
        store.add_change_listener(self._make_listener(name))
        self._register_adapter(name, _HeatwaveTableAccess(self, name))

    def _new_image(self, table: str) -> ColumnStore:
        """An empty IMCS and delta for ``table``, and the merge between."""
        schema = self._stores[table].schema
        imcs = ColumnStore(schema, self.cost)
        self._mergers[table] = InMemoryDeltaMerger(
            InMemoryDeltaStore(schema, self.cost),
            imcs,
            self.cost,
            threshold_rows=self.propagation_threshold,
        )
        return imcs

    def _make_listener(self, table: str):
        def listener(kind: str, key: Key, row: Row | None, ts: Timestamp) -> None:
            delta = self._mergers[table].delta
            if kind == "insert":
                delta.record_insert(row, ts)
            elif kind == "update":
                delta.record_update(row, ts)
            else:
                delta.record_delete(key, ts)

        return listener

    def store(self, table: str) -> DiskRowStore:
        try:
            return self._stores[table]
        except KeyError:
            raise KeyNotFoundError(f"no table {table!r}") from None

    def imcs_store(self, table: str) -> ColumnStore:
        return self._mergers[table].main

    def loaded_columns(self, table: str) -> set[str]:
        return self._loaded[table]

    # ------------------------------------------------------------- OLTP
    #
    # The write-set session reads the disk row store; every access is
    # the primary node's work.

    def _schema_of(self, table: str) -> Schema:
        return self.store(table).schema

    def _read_committed(self, table: str, key: Key, _read_ts: Timestamp) -> Row | None:
        return self._charged(self.store(table).read, key)

    def _scan_committed(
        self, table: str, predicate: Predicate, _read_ts: Timestamp
    ) -> list[Row]:
        return self._charged(self.store(table).scan, predicate)

    def _install(
        self, kind: str, table: str, key: Key, row: Row | None, ts: Timestamp
    ) -> None:
        store = self.store(table)
        if kind == "insert":
            store.insert_validated(row, ts)
        elif kind == "update":
            store.update_validated(key, row, ts)
        else:
            store.delete(key, ts)

    def _recovered(self) -> None:
        self.force_sync()  # re-extract the IMCS from the replayed row store

    def _install_batch(self, table: str, rows: list[Row], ts: Timestamp) -> None:
        store = self.store(table)
        for row in rows:
            store.insert_validated(row, ts)

    # ------------------------------------------------------------- DS

    def pending_changes(self, table: str | None = None) -> int:
        if table is not None:
            return len(self._mergers[table].delta)
        return sum(len(m.delta) for m in self._mergers.values())

    def _sync(self) -> int:
        """Threshold-based change propagation into the IMCS."""
        before = self.cost.now_us()
        moved = sum(merger.maybe_merge() for merger in self._mergers.values())
        self.ledger.charge(_PRIMARY, self.cost.now_us() - before)
        return moved

    def force_sync(self) -> int:
        moved = sum(self._propagate(table) for table in self._mergers)
        self.scan_cache.invalidate()
        return moved

    def _propagate(self, table: str) -> int:
        return self._mergers[table].merge()

    def freshness_lag(self) -> int:
        newest = self.clock.now()
        lags = [
            max(0, newest - m.main.max_commit_ts()) if len(m.delta) else 0
            for m in self._mergers.values()
        ]
        return max(lags, default=0)

    # ------------------------------------------------------------- column selection

    def reselect_columns(self) -> dict[str, set[str]]:
        """Re-run the heatmap selector against the budget; load/evict."""
        if self.column_budget_bytes is None:
            return dict(self._loaded)
        self.tracker.close_window()
        sizes: dict[tuple[str, str], int] = {}
        for table, store in self._stores.items():
            n = max(len(store), 1)
            for col in store.schema.column_names:
                sizes[(table, col)] = n * 8
        decision = self._selector.select(sizes, self.column_budget_bytes)
        new_loaded: dict[str, set[str]] = {t: set() for t in self._stores}
        for table, col in decision.chosen:
            new_loaded[table].add(col)
        for table in self._stores:
            if new_loaded[table] != self._loaded[table]:
                self._loaded[table] = new_loaded[table]
                self._reload_table(table)
        return dict(self._loaded)

    def _reload_table(self, table: str) -> None:
        """(Re)extract loaded columns from the row store into the IMCS."""
        store = self._stores[table]
        rows = [row for _key, row in store.iter_rows()]
        imcs = self._new_image(table)
        if rows:
            self.cost.charge_rows(self.cost.rebuild_per_row_us, len(rows))
            imcs.append_rows(rows, commit_ts=self.clock.now())

    # ------------------------------------------------------------- metrics

    def tp_nodes(self) -> list[str]:
        return [_PRIMARY]

    def ap_nodes(self) -> list[str]:
        return [f"imcs{i}" for i in range(self.n_imcs_nodes)]

    def memory_report(self) -> dict[str, int]:
        return {
            "disk_pages": sum(s.disk_bytes() for s in self._stores.values()),
            # Only loaded columns are resident in the IMCS cluster.
            "imcs": sum(
                m.main.memory_bytes(sorted(self._loaded[t]))
                for t, m in self._mergers.items()
            ),
            "propagation_delta": sum(
                m.delta.memory_bytes() for m in self._mergers.values()
            ),
            "wal": len(self.wal) * 64,
        }


class _HeatwaveTableAccess(EngineTableAccess):
    """TableAccess with pushdown-or-fallback semantics."""

    def schema(self) -> Schema:
        return self._engine.store(self._table).schema

    def _compute_stats(self) -> TableStats:
        rows = [row for _k, row in self._engine.store(self._table).iter_rows()]
        return TableStats.from_rows(self.schema(), rows)

    def stats(self) -> TableStats:
        return self._stats.get(self._engine.commits)

    def _columns_loaded(self, needed: set[str]) -> bool:
        return needed <= self._engine.loaded_columns(self._table)

    def cache_token(self, path=None):
        """Scan-cache version token: primary write version, IMCS write
        version, unpropagated-delta depth, the loaded-column set (a
        reselect flips pushdown↔fallback results routing), and the
        freshness mode."""
        engine = self._engine
        return (
            "latest",
            engine.store(self._table).mutations,
            engine.imcs_store(self._table).mutations,
            engine.pending_changes(self._table),
            frozenset(engine.loaded_columns(self._table)),
            engine.read_fresh,
        )

    def note_cached_scan(self, columns: list[str], predicate: Predicate) -> None:
        """A cache hit bypasses scan_columns; keep the column-selection
        heat map honest by recording the access anyway."""
        needed = set(columns) | predicate.referenced_columns()
        self._engine.tracker.record_query(self._table, needed)

    def scan_pruning_hint(self, predicate: Predicate) -> float:
        """Prunable fraction of the IMCS columnar image — only when the
        scan would actually push down (all needed columns loaded)."""
        if not self._columns_loaded(predicate.referenced_columns()):
            return 0.0
        return self._engine.imcs_store(self._table).pruned_row_fraction(predicate)

    def scan_rows(self, predicate: Predicate) -> list[Row]:
        engine = self._engine
        return engine._scan_committed(self._table, predicate, engine.clock.now())

    def scan_columns(
        self, columns: list[str], predicate: Predicate
    ) -> dict[str, np.ndarray]:
        """Pushdown serves dictionary columns as codes (CodeColumn); the
        fallback stays decoded — the disk row store has no code space
        to hand off."""
        needed = set(columns) | predicate.referenced_columns()
        self._engine.tracker.record_query(self._table, needed)
        if not self._columns_loaded(needed):
            # Not pushable: fall back to the disk row store (charged to
            # the primary — exactly the column-selection downside).
            self._engine.fallbacks += 1
            return rows_to_columns(self.schema(), self.scan_rows(predicate), columns)
        self._engine.pushdowns += 1
        if self._engine.read_fresh and self._engine.pending_changes(self._table):
            # Shared mode: merge the unpropagated delta at query time.
            return self._scan_with_delta(columns, predicate)
        result = self._engine.imcs_store(self._table).scan(
            columns, predicate, with_keys=False, encode=True
        )
        return result.arrays

    def code_space_hint(self, columns: list[str]) -> float:
        """Encoded fraction of the IMCS image — only when the scan would
        push down (all needed columns loaded)."""
        if not self._columns_loaded(set(columns)):
            return 0.0
        return self._engine.imcs_store(self._table).encoded_column_fraction(columns)

    def _scan_with_delta(self, columns: list[str], predicate: Predicate):
        engine = self._engine
        store = engine.imcs_store(self._table)
        result = store.scan(columns, predicate, with_keys=False, encode=True)
        delta = engine._mergers[self._table].delta
        live, tombstones = delta.effective_rows(delta.max_commit_ts())
        dropped = store.rows_of(result, tombstones | set(live))
        return overlay_delta(
            result.arrays, dropped, live.values(), predicate, self.schema()
        )[0]

    def point_lookup(self, key: Key) -> Row | None:
        engine = self._engine
        return engine._read_committed(self._table, key, engine.clock.now())
