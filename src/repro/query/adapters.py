"""Reference TableAccess adapters.

:class:`DualStoreTableAccess` wires an MVCC row store and a column
store behind the planner's access-path abstraction — the minimal
"dual-store" table every HTAP architecture in the survey builds on.
Engines subclass or compose it to add their architecture's delta
patching; unit tests use it directly.
"""

from __future__ import annotations

import numpy as np

from ..common.clock import Timestamp
from ..common.cost import CostModel
from ..common.errors import PlanningError
from ..common.predicate import Comparison, Predicate
from ..common.types import Key, Row, Schema, rows_to_columns
from ..storage.column_store import ColumnStore
from ..storage.row_store import MVCCRowStore
from .access import AccessPath, TableAccess
from .optimizer import split_conjuncts
from .statistics import TableStats


def index_lookup_rows(
    store: MVCCRowStore, snapshot_ts: Timestamp, predicate: Predicate
) -> list[Row]:
    """Rows of ``store`` visible at ``snapshot_ts`` that match
    ``predicate``, found through its first equality conjunct on a
    secondary-indexed column (the planner offers this path only when
    there is one)."""
    schema = store.schema
    for conjunct in split_conjuncts(predicate):
        if (
            isinstance(conjunct, Comparison)
            and conjunct.op == "="
            and store.has_index(conjunct.column)
        ):
            keys = store.index_lookup_range(
                conjunct.column, conjunct.value, conjunct.value
            )
            rows = []
            for k in keys:
                row = store.read(k, snapshot_ts)
                if row is not None and predicate.matches(row, schema):
                    rows.append(row)
            return rows
    raise PlanningError(
        f"no indexed equality on {schema.table_name!r} in {predicate!r}"
    )


class DualStoreTableAccess(TableAccess):
    """Row + column access over the same logical table."""

    def __init__(
        self,
        row_store: MVCCRowStore,
        column_store: ColumnStore | None,
        cost: CostModel | None = None,
        snapshot_ts_fn=None,
    ):
        super().__init__()
        self._rows = row_store
        self._columns = column_store
        self._cost = cost or CostModel()
        # Engines pass a callable yielding the current read timestamp;
        # default reads "latest" using a far-future snapshot.
        self._snapshot_ts_fn = snapshot_ts_fn or (lambda: 2**60)

    # ------------------------------------------------------------- protocol

    def schema(self) -> Schema:
        return self._rows.schema

    def _compute_stats(self) -> TableStats:
        snapshot = self._rows.snapshot_rows(self._snapshot_ts_fn())
        return TableStats.from_rows(self.schema(), snapshot)

    def stats(self) -> TableStats:
        """Statistics refreshed lazily with slack (like real engines)."""
        return self._stats.get(self._rows.installs)

    def available_paths(self) -> set[AccessPath]:
        paths = {AccessPath.ROW_SCAN, AccessPath.INDEX_LOOKUP}
        if self._columns is not None:
            paths.add(AccessPath.COLUMN_SCAN)
        return paths

    def indexed_columns(self) -> set[str]:
        """Secondary-index columns the planner may treat as sargable."""
        return set(self._rows._secondary)

    def cache_token(self, path=None):
        """Version token for the snapshot-scan cache.

        Pins the reader snapshot (MVCC isolation: different snapshot ⇒
        different cache key) plus every mutation counter that can change
        a scan's result on either path: row-store installs and version
        count (writes, vacuum) and the column store's write version.
        Returning None would disable caching for this table.
        """
        return (
            self._snapshot_ts_fn(),
            self._rows.installs,
            self._rows.version_count(),
            self._columns.mutations if self._columns is not None else -1,
        )

    def scan_rows(self, predicate: Predicate) -> list[Row]:
        return self._rows.scan(self._snapshot_ts_fn(), predicate)

    def scan_columns(
        self, columns: list[str], predicate: Predicate
    ) -> dict[str, np.ndarray]:
        """Column path: code-space-safe dictionary columns come back as
        :class:`~repro.storage.code_batch.CodeColumn` (codes +
        dictionary), everything else as a plain array."""
        if self._columns is None:
            return rows_to_columns(self.schema(), self.scan_rows(predicate), columns)
        result = self._columns.scan(columns, predicate, with_keys=False, encode=True)
        return result.arrays

    def scan_pruning_hint(self, predicate: Predicate) -> float:
        """Fraction of columnar rows in zone-map-prunable segments."""
        if self._columns is None:
            return 0.0
        return self._columns.pruned_row_fraction(predicate)

    def code_space_hint(self, columns: list[str]) -> float:
        """Fraction of ``columns`` an encoded scan serves as codes
        (planner discount hint, no charge)."""
        if self._columns is None:
            return 0.0
        return self._columns.encoded_column_fraction(columns)

    def point_lookup(self, key: Key) -> Row | None:
        return self._rows.read(key, self._snapshot_ts_fn())

    def index_lookup_rows(self, predicate: Predicate) -> list[Row]:
        return index_lookup_rows(self._rows, self._snapshot_ts_fn(), predicate)

    # ------------------------------------------------------------- plumbing

    @property
    def row_store(self) -> MVCCRowStore:
        return self._rows

    @property
    def column_store(self) -> ColumnStore | None:
        return self._columns
