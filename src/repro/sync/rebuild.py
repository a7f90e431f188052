"""Rebuild-from-primary-row-store (Table 2, DS technique (iii)).

SingleStore/Oracle style: instead of merging individual deltas, throw
the columnar image away and repopulate it wholesale from a row-store
snapshot.  The survey notes this wins when "the delta updates exceed a
certain threshold" — small steady-state memory (no delta retained) at
the price of a high load cost per rebuild.  The benches compare this
directly against incremental merging.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.clock import Timestamp
from ..common.cost import CostModel
from ..common.types import rows_to_columns
from ..obs import get_registry
from ..storage.column_store import ColumnStore
from ..storage.row_store import MVCCRowStore


@dataclass
class RebuildStats:
    rebuilds: int = 0
    rows_loaded: int = 0
    rebuild_time_us: float = 0.0


class ColumnStoreRebuilder:
    """Repopulates a column store from an MVCC row-store snapshot."""

    def __init__(
        self,
        rows: MVCCRowStore,
        main: ColumnStore,
        cost: CostModel | None = None,
        staleness_threshold: float = 0.2,
    ):
        if not 0.0 < staleness_threshold <= 1.0:
            raise ValueError("staleness_threshold must be in (0, 1]")
        self.rows = rows
        self.main = main
        self._cost = cost or CostModel()
        self.staleness_threshold = staleness_threshold
        self.stats = RebuildStats()
        self._changes_since_rebuild = 0
        self._rows_at_rebuild = 0
        registry = get_registry()
        self._m_rebuilds = registry.counter("sync.rebuild.events")
        self._m_rows = registry.counter("sync.rebuild.rows")
        self._h_batch = registry.histogram(
            "sync.batch_rows", technique="rebuild"
        )
        self._h_latency = registry.histogram(
            "sync.merge_latency_us", technique="rebuild"
        )

    def on_change(self) -> None:
        """Count a committed change against the staleness budget."""
        self._changes_since_rebuild += 1

    def staleness(self) -> float:
        base = max(self._rows_at_rebuild, 1)
        return self._changes_since_rebuild / base

    def should_rebuild(self) -> bool:
        if self._rows_at_rebuild == 0 and self._changes_since_rebuild > 0:
            return True
        return self.staleness() >= self.staleness_threshold

    def maybe_rebuild(self, snapshot_ts: Timestamp) -> int:
        if not self.should_rebuild():
            return 0
        return self.rebuild(snapshot_ts)

    def rebuild(self, snapshot_ts: Timestamp) -> int:
        """Full repopulation at ``snapshot_ts``; returns rows loaded.

        Drop the snapshot's keys from the old image, compact the
        remainder, reload the snapshot — rows absent from the snapshot
        survive.  The snapshot is pivoted once and sealed via
        ``append_batch``.
        """
        start = self._cost.now_us()
        rows = self.rows.snapshot_rows(snapshot_ts)
        self._cost.charge_rows(self._cost.rebuild_per_row_us, max(len(rows), 1))
        key_of = self.main.schema.key_of
        stale_keys = [key_of(r) for r in rows]
        self.main.delete_batch(stale_keys)
        self.main.compact()  # drop dead space from the previous image
        if rows:
            arrays = rows_to_columns(self.main.schema, rows)
            self.main.append_batch(arrays, stale_keys, commit_ts=snapshot_ts)
        self.main.advance_sync_ts(snapshot_ts)
        self._changes_since_rebuild = 0
        self._rows_at_rebuild = len(rows)
        elapsed = self._cost.now_us() - start
        self.stats.rebuilds += 1
        self.stats.rows_loaded += len(rows)
        self.stats.rebuild_time_us += elapsed
        self._m_rebuilds.inc()
        self._m_rows.inc(len(rows))
        self._h_batch.observe(len(rows))
        self._h_latency.observe(elapsed)
        return len(rows)
