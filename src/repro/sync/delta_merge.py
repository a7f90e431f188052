"""In-memory delta merge (Table 2, DS technique (i)).

Periodically folds the in-memory delta store into the main column
store.  Implements the survey's two optimizations:

* **threshold-based change propagation** — merge fires only once the
  delta exceeds a row-count threshold (Oracle/Heatwave/BLU style);
* **two-phase transaction-based data migration** (SQL Server style) —
  phase 1 snapshots the delta up to a cut timestamp while new commits
  keep landing in the (remaining) delta; phase 2 atomically applies
  deletes and appends the collapsed rows as a new segment.  Readers
  never observe a half-merged store: until phase 2 completes they see
  main + full delta, afterwards main' + residual delta.

The merge is *batch-vectorized*: the delta drains as a columnar
:class:`~repro.storage.delta_batch.DeltaBatch`, collapses with one
NumPy scatter, and lands via the column store's bulk
``append_batch``/``delete_batch`` path.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.clock import Timestamp
from ..common.cost import CostModel
from ..obs import get_registry
from ..storage.column_store import ColumnStore
from ..storage.delta_store import InMemoryDeltaStore


@dataclass
class MergeStats:
    merges: int = 0
    rows_merged: int = 0
    tombstones_applied: int = 0
    merge_time_us: float = 0.0

    def record(self, rows: int, tombstones: int, elapsed_us: float) -> None:
        self.merges += 1
        self.rows_merged += rows
        self.tombstones_applied += tombstones
        self.merge_time_us += elapsed_us


class InMemoryDeltaMerger:
    """Threshold-driven merge of one table's delta into its column store."""

    def __init__(
        self,
        delta: InMemoryDeltaStore,
        main: ColumnStore,
        cost: CostModel | None = None,
        threshold_rows: int = 1024,
    ):
        if threshold_rows < 1:
            raise ValueError("threshold_rows must be >= 1")
        self.delta = delta
        self.main = main
        self._cost = cost or CostModel()
        self.threshold_rows = threshold_rows
        self.stats = MergeStats()
        registry = get_registry()
        self._m_merges = registry.counter("sync.delta_merge.events")
        self._m_rows = registry.counter("sync.delta_merge.rows")
        self._h_batch = registry.histogram(
            "sync.batch_rows", technique="delta_merge"
        )
        self._h_latency = registry.histogram(
            "sync.merge_latency_us", technique="delta_merge"
        )

    def should_merge(self) -> bool:
        return len(self.delta) >= self.threshold_rows

    def maybe_merge(self, up_to_ts: Timestamp | None = None) -> int:
        """Merge if over threshold; returns rows merged (0 if skipped)."""
        if not self.should_merge():
            return 0
        return self.merge(up_to_ts)

    def merge(self, up_to_ts: Timestamp | None = None) -> int:
        """Run the two-phase migration; returns rows moved into main."""
        start = self._cost.now_us()
        cut = up_to_ts if up_to_ts is not None else self.delta.max_commit_ts()
        # Phase 1: detach the prefix columnar — no DeltaEntry objects.
        batch = self.delta.drain_batch_up_to(cut)
        if not len(batch):
            return 0
        collapsed = batch.collapse()
        # Phase 2: one bulk delete + one bulk seal.
        rows = self.main.fold(collapsed, cut)
        self._cost.charge_rows(self._cost.merge_per_row_us, rows)
        elapsed = self._cost.now_us() - start
        self.stats.record(rows, len(collapsed.tombstones), elapsed)
        self._m_merges.inc()
        self._m_rows.inc(rows)
        self._h_batch.observe(len(batch))
        self._h_latency.observe(elapsed)
        return rows
