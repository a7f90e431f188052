"""Architecture (d): Primary Column Store + Delta Row Store (SAP HANA).

The survey: "It divides the in-memory data store into three layers:
L1-delta, L2-delta, and Main. The L1-delta keeps data updates in a
row-wise format. When the threshold is reached, the data in L1-delta is
appended to L2-delta. The L2-delta transforms the data into columnar
data, then merges the data into the main column store."

* OLTP writes append to the row-wise L1 delta (cheap); point reads must
  probe L1 → L2 → Main (pricier than architecture (a)'s single hash
  probe — the source of (d)'s weaker OLTP profile).
* OLAP scans Main + L2 + the visible L1 entries ("in-memory delta and
  column scan"): freshness High, AP throughput High (read-optimized
  main store).
* Sync: L1→L2 columnarization, then L2→Main via the dictionary-encoded
  sorting merge.

Key invariant maintained by the merges: any key lives in *at most one*
of {Main, L2} (merges upsert), while L1 entries override both.
"""

from __future__ import annotations

import numpy as np

from ..common.clock import LogicalClock, Timestamp
from ..common.cost import CostModel
from ..common.errors import KeyNotFoundError, TransactionError
from ..common.predicate import ALWAYS_TRUE, Predicate
from ..common.types import Key, Row, Schema
from ..query.statistics import TableStats
from ..obs import get_registry
from ..storage.code_batch import CodeColumn, concat_code_parts, overlay_delta
from ..storage.column_store import ColumnStore
from ..storage.delta_store import InMemoryDeltaStore
from .base import EngineInfo, EngineTableAccess, LoggedEngine

_NODE = "node0"


class HanaTable:
    """One table's L1-delta / L2-delta / Main trio."""

    def __init__(self, schema: Schema, cost: CostModel):
        self.schema = schema
        self._cost = cost
        self.l1 = InMemoryDeltaStore(schema, cost)
        self.l2 = ColumnStore(schema, cost)
        self.main = ColumnStore(schema, cost)
        # Current-state view of L1 for cheap point reads:
        # key -> row, or None for an L1 tombstone.
        self._l1_view: dict[Key, Row | None] = {}
        self.l1_to_l2_merges = 0
        self.l2_to_main_merges = 0
        registry = get_registry()
        self._m_l1_merges = registry.counter("sync.delta_merge.l1_to_l2")
        self._m_l2_merges = registry.counter("sync.delta_merge.l2_to_main")

    # ------------------------------------------------------------- OLTP reads

    def read_latest(self, key: Key) -> Row | None:
        """Point read resolving L1 → L2 → Main.

        Priced above a plain row-store probe: every read pays the
        L1 lookup (hash probe + delta-versioning overhead) and misses
        fall through to columnar point reads — the read amplification
        behind (d)'s Medium OLTP throughput in Table 1.
        """
        self._cost.charge(
            self._cost.row_point_read_us + self._cost.delta_scan_per_row_us * 0.5
        )
        if key in self._l1_view:
            return self._l1_view[key]
        row = self.l2.get_row(key)
        if row is not None:
            return row
        return self.main.get_row(key)

    # ------------------------------------------------------------- writes

    def apply_insert(self, row: Row, commit_ts: Timestamp) -> None:
        self.l1.record_insert(row, commit_ts)
        self._l1_view[self.schema.key_of(row)] = row

    def apply_update(self, row: Row, commit_ts: Timestamp) -> None:
        self.l1.record_update(row, commit_ts)
        self._l1_view[self.schema.key_of(row)] = row

    def apply_delete(self, key: Key, commit_ts: Timestamp) -> None:
        self.l1.record_delete(key, commit_ts)
        self._l1_view[key] = None

    def apply_insert_batch(self, rows: list[Row], commit_ts: Timestamp) -> None:
        """Bulk insert of fresh rows into L1 (one delta charge)."""
        self.l1.record_insert_batch(rows, commit_ts)
        key_of = self.schema.key_of
        self._l1_view.update((key_of(row), row) for row in rows)

    # ------------------------------------------------------------- merges

    def merge_l1_to_l2(self) -> int:
        """Columnarize the L1 delta into L2 (upserting over Main/L2)."""
        batch = self.l1.clear_batch()
        self._l1_view.clear()
        if not len(batch):
            return 0
        collapsed = batch.collapse()
        max_ts = batch.max_commit_ts()
        # L1 overrides both columnar layers, so what it folds into L2
        # leaves Main: a key lives in at most one of {Main, L2}.
        self.main.delete_batch(collapsed.touched_keys())
        self.main.advance_sync_ts(max_ts)
        moved = self.l2.fold(collapsed, max_ts)
        self.l1_to_l2_merges += 1
        self._m_l1_merges.inc()
        return moved

    def merge_l2_to_main(self) -> int:
        """Fold L2 into Main and re-sort dictionaries (compact)."""
        max_ts = max(self.l2.max_commit_ts(), self.main.max_commit_ts())
        # Move L2 as whole column arrays, charged one materialize per row.
        result = self.l2.scan(with_keys=True)
        moved = len(result.keys)
        self._cost.charge_rows(self._cost.column_materialize_per_row_us, moved)
        if moved:
            self.main.delete_batch(result.keys)
            self.main.append_batch(result.arrays, result.keys, commit_ts=max_ts)
        # Dictionary-encoded sorting merge: the compaction rebuilds every
        # segment (and thus every sorted dictionary) in one pass.
        self._cost.charge(
            self._cost.dict_rebuild_per_value_us
            * max(len(self.main), 1)
            * len(self.schema.columns)
        )
        self.main.compact()
        self.main.advance_sync_ts(max_ts)
        self.l2 = ColumnStore(self.schema, self._cost)
        self.l2.advance_sync_ts(max_ts)
        self.l2_to_main_merges += 1
        self._m_l2_merges.inc()
        return moved

    # ------------------------------------------------------------- AP scan

    def scan_columns(
        self,
        columns: list[str],
        predicate: Predicate,
        read_fresh: bool,
        encode: bool = False,
    ) -> dict[str, np.ndarray]:
        """Main + L2 + (optionally) visible L1 entries, newest wins.

        With ``encode`` Main and L2 scan with ``encode=True``: columns
        both layers serve as codes merge via dictionary union (remap
        charged here), and the L1 overlay folds fresh rows into the
        code space with a decoded fallback."""
        main_res = self.main.scan(columns, predicate, with_keys=False, encode=encode)
        l2_res = self.l2.scan(columns, predicate, with_keys=False, encode=encode)
        arrays: dict[str, np.ndarray] = {}
        remapped = 0
        for name in main_res.arrays:
            a, b = main_res.arrays[name], l2_res.arrays[name]
            a_code, b_code = isinstance(a, CodeColumn), isinstance(b, CodeColumn)
            if a_code and b_code:
                column, n_remap = concat_code_parts(
                    [(a.codes, a.dictionary), (b.codes, b.dictionary)]
                )
                arrays[name] = column
                remapped += n_remap
                continue
            # One side plain: keep the encoded side when the plain side
            # is empty (the common fresh-L2 case), else decode.
            if a_code and len(b) == 0:
                arrays[name] = a
                continue
            if b_code and len(a) == 0:
                arrays[name] = b
                continue
            if a_code:
                a = a.decode()
            if b_code:
                b = b.decode()
            arrays[name] = np.concatenate([a, b])
        if remapped:
            self._cost.charge_rows(self._cost.code_remap_per_value_us, remapped)
        if not read_fresh or not len(self.l1):
            return arrays
        live, tombstones = self.l1.effective_rows(
            self.l1.max_commit_ts(), ALWAYS_TRUE
        )
        drop = tombstones | set(live)
        # L2's rows follow Main's in ``arrays``.
        n_main = len(main_res)
        dropped = self.main.rows_of(main_res, drop) + [
            n_main + row for row in self.l2.rows_of(l2_res, drop)
        ]
        return overlay_delta(arrays, dropped, live.values(), predicate, self.schema)[0]

    def all_latest_rows(self) -> list[Row]:
        """Materialize current state across all three layers (row path)."""
        arrays = self.scan_columns(
            self.schema.column_names, ALWAYS_TRUE, read_fresh=True
        )
        from ..common.types import columns_to_rows

        n = len(next(iter(arrays.values()))) if arrays else 0
        self._cost.charge_rows(self._cost.column_materialize_per_row_us, n)
        return columns_to_rows(self.schema, arrays)

    def row_count(self) -> int:
        live, tombstones = self.l1.effective_rows(self.l1.max_commit_ts())
        overlay = set(live) | tombstones
        base = sum(
            1
            for store in (self.main, self.l2)
            for k in _store_keys(store)
            if k not in overlay
        )
        return base + len(live)

    def memory_report(self) -> dict[str, int]:
        return {
            "l1_delta": self.l1.memory_bytes(),
            "l2_delta": self.l2.memory_bytes(),
            "main": self.main.memory_bytes(),
        }


def _store_keys(store: ColumnStore):
    for segment in store.segments:
        for pos, key in enumerate(segment.keys):
            if not segment.delete_mask[pos]:
                yield key


class ColumnDeltaEngine(LoggedEngine):
    """HANA-style single-node engine over HanaTable layers."""

    info = EngineInfo(
        name="column+delta",
        category="d",
        description="Primary Column Store + Delta Row Store (SAP HANA style)",
    )

    def __init__(
        self,
        cost: CostModel | None = None,
        clock: LogicalClock | None = None,
        l1_threshold: int = 128,
        l2_threshold: int = 2048,
        l1_fraction: float = 0.05,
        group_commit_size: int = 8,
    ):
        super().__init__(cost, clock, group_commit_size)
        self.l1_threshold = l1_threshold
        self.l2_threshold = l2_threshold
        #: L1 also merges once it reaches this fraction of the columnar
        #: rows, so small hot tables do not drag every scan through a
        #: row-wise overlay (HANA merges L1 aggressively for the same
        #: reason).
        self.l1_fraction = l1_fraction
        self._tables: dict[str, HanaTable] = {}

    # ------------------------------------------------------------- schema

    def create_table(self, schema: Schema) -> None:
        if schema.table_name in self._tables:
            raise TransactionError(f"table {schema.table_name!r} already exists")
        table = HanaTable(schema, self.cost)
        self._tables[schema.table_name] = table
        self._register_adapter(schema.table_name, _HanaTableAccess(self, schema.table_name))

    def table(self, name: str) -> HanaTable:
        try:
            return self._tables[name]
        except KeyError:
            raise KeyNotFoundError(f"no table {name!r}") from None

    # ------------------------------------------------------------- OLTP
    #
    # The write-set session reads through L1 → L2 → Main; a session
    # scan is a full materialization filtered afterwards (no row heap).
    # Writes — live or replayed from the log — land in the L1 delta.

    def _schema_of(self, table: str) -> Schema:
        return self.table(table).schema

    def _read_committed(self, table: str, key: Key, _read_ts: Timestamp) -> Row | None:
        return self._charged(self.table(table).read_latest, key)

    def _scan_committed(
        self, table: str, predicate: Predicate, _read_ts: Timestamp
    ) -> list[Row]:
        target = self.table(table)
        rows = self._charged(target.all_latest_rows)
        return [r for r in rows if predicate.matches(r, target.schema)]

    def _install(
        self, kind: str, table: str, key: Key, row: Row | None, ts: Timestamp
    ) -> None:
        target = self.table(table)
        if kind == "insert":
            target.apply_insert(row, ts)
        elif kind == "update":
            target.apply_update(row, ts)
        else:
            target.apply_delete(key, ts)

    def _install_batch(self, table: str, rows: list[Row], ts: Timestamp) -> None:
        self.table(table).apply_insert_batch(rows, ts)

    # ------------------------------------------------------------- DS

    def _sync(self) -> int:
        """Threshold-driven L1→L2 and L2→Main merges."""
        moved = 0
        before = self.cost.now_us()
        for table in self._tables.values():
            base = len(table.main) + len(table.l2)
            trigger = min(self.l1_threshold, max(16, int(base * self.l1_fraction)))
            if len(table.l1) >= trigger:
                moved += table.merge_l1_to_l2()
            if len(table.l2) >= self.l2_threshold:
                moved += table.merge_l2_to_main()
        self.ledger.charge(_NODE, self.cost.now_us() - before)
        return moved

    def force_sync(self) -> int:
        moved = 0
        for table in self._tables.values():
            moved += table.merge_l1_to_l2()
            moved += table.merge_l2_to_main()
        self.scan_cache.invalidate()
        return moved

    def freshness_lag(self) -> int:
        if self.read_fresh:
            return 0  # L1 is merged into every scan
        newest = self.clock.now()
        lags = [
            newest - max(t.main.max_commit_ts(), t.l2.max_commit_ts())
            for t in self._tables.values()
            if len(t.l1)  # only tables with unmerged L1 entries are stale
        ]
        return max(lags, default=0)

    def memory_report(self) -> dict[str, int]:
        out = {"l1_delta": 0, "l2_delta": 0, "main": 0, "wal": len(self.wal) * 64}
        for table in self._tables.values():
            report = table.memory_report()
            out["l1_delta"] += report["l1_delta"]
            out["l2_delta"] += report["l2_delta"]
            out["main"] += report["main"]
        return out


class _HanaTableAccess(EngineTableAccess):
    """TableAccess over the three HANA layers."""

    def _target(self) -> HanaTable:
        return self._engine.table(self._table)

    def schema(self) -> Schema:
        return self._target().schema

    def _compute_stats(self) -> TableStats:
        return TableStats.from_rows(self.schema(), self._target().all_latest_rows())

    def stats(self) -> TableStats:
        target = self._target()
        version = len(target.l1) + len(target.l2) + len(target.main)
        return self._stats.get(version)

    def cache_token(self, path=None):
        """Scan-cache version token: L1 size/high-water commit ts plus
        the merge generations and write versions of L2/Main — any HANA
        write or merge changes at least one component."""
        target = self._target()
        return (
            "latest",
            len(target.l1),
            target.l1.max_commit_ts(),
            target.l1_to_l2_merges,
            target.l2_to_main_merges,
            target.l2.mutations,
            target.main.mutations,
            self._engine.read_fresh,
        )

    def scan_rows(self, predicate: Predicate) -> list[Row]:
        # The "row path" here is a full materialization — the primary
        # store is columnar, so there is no cheap tuple heap to scan.
        schema = self.schema()
        return [
            r for r in self._target().all_latest_rows() if predicate.matches(r, schema)
        ]

    def scan_columns(self, columns: list[str], predicate: Predicate):
        return self._target().scan_columns(
            columns, predicate, read_fresh=self._engine.read_fresh, encode=True
        )

    def code_space_hint(self, columns: list[str]) -> float:
        """Row-weighted encoded fraction across L2 + Main (L1 rows are
        decoded overlay — they dilute the hint like unprunable rows)."""
        target = self._target()
        total = len(target.l1) + len(target.l2) + len(target.main)
        if total == 0:
            return 0.0
        encoded = sum(
            len(store) * store.encoded_column_fraction(columns)
            for store in (target.l2, target.main)
        )
        return encoded / total

    def scan_pruning_hint(self, predicate: Predicate) -> float:
        """Row-weighted prunable fraction across the L2 + Main stores
        (L1 is a row delta — never prunable, so it dilutes the hint)."""
        target = self._target()
        total = len(target.l1) + len(target.l2) + len(target.main)
        if total == 0:
            return 0.0
        prunable = sum(
            len(store) * store.pruned_row_fraction(predicate)
            for store in (target.l2, target.main)
        )
        return prunable / total

    def point_lookup(self, key: Key) -> Row | None:
        return self._target().read_latest(key)
