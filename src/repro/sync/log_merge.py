"""Log-based (disk) delta merge (Table 2, DS technique (ii)).

TiDB-style: committed changes accumulate as sealed delta log files on
the columnar side; the merger periodically reads them back (paying page
I/O — the technique's "High Merge Cost") and folds the collapsed images
into the column store.  A merge takes every sealed file, so it first
waits for the newest to land (``LogDeltaManager.drain_files``).

The merge is *batch-vectorized*: all drained files concatenate into
one columnar :class:`~repro.storage.delta_batch.DeltaBatch` whose
last-writer-wins collapse keeps each key's newest entry (files are
commit-ordered), then the survivors land via ``ColumnStore.fold``.  The
simulated charges are what this body does: every page of every file
read whole — no per-key index is walked, so none is charged — and one
merge per row landed.  Architecture (b)'s learner replica runs this
class (``ColumnarReplica.merge_deltas``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.cost import CostModel
from ..obs import get_registry
from ..storage.column_store import ColumnStore
from ..storage.delta_batch import DeltaBatch
from ..storage.delta_log import DeltaLogFile, LogDeltaManager


@dataclass
class LogMergeStats:
    merges: int = 0
    files_merged: int = 0
    entries_read: int = 0
    entries_superseded: int = 0
    rows_merged: int = 0
    pages_read: int = 0
    merge_time_us: float = 0.0


class LogDeltaMerger:
    """Folds sealed delta-log files into one table's column store."""

    def __init__(
        self,
        log: LogDeltaManager,
        main: ColumnStore,
        cost: CostModel | None = None,
        threshold_files: int = 4,
    ):
        self.log = log
        self.main = main
        self._cost = cost or CostModel()
        self.threshold_files = threshold_files
        self.stats = LogMergeStats()
        registry = get_registry()
        self._m_merges = registry.counter("sync.log_merge.events")
        self._m_rows = registry.counter("sync.log_merge.rows")
        self._h_batch = registry.histogram(
            "sync.batch_rows", technique="log_merge"
        )
        self._h_latency = registry.histogram(
            "sync.merge_latency_us", technique="log_merge"
        )

    def should_merge(self) -> bool:
        return len(self.log.files) >= self.threshold_files

    def maybe_merge(self, seal_first: bool = False) -> int:
        if seal_first:
            self.log.seal()
        if not self.should_merge():
            return 0
        return self.merge()

    def merge(self, seal_first: bool = False) -> int:
        """Merge every sealed file; returns rows installed into main."""
        start = self._cost.now_us()
        if seal_first:
            self.log.seal()
        files = self.log.drain_files()
        if not files:
            return 0
        entries_total = sum(len(f) for f in files)
        rows_merged = self._fold_files(files)
        elapsed = self._cost.now_us() - start
        self.stats.merges += 1
        self.stats.merge_time_us += elapsed
        self._m_merges.inc()
        self._m_rows.inc(rows_merged)
        self._h_batch.observe(entries_total)
        self._h_latency.observe(elapsed)
        return rows_merged

    def _fold_files(self, files: list[DeltaLogFile]) -> int:
        indexed_keys = 0
        kinds: list[int] = []
        keys: list = []
        rows: list = []
        ts: list = []
        for file in files:
            self._cost.charge(self._cost.page_read_us * file.page_count())
            self.stats.pages_read += file.page_count()
            self.stats.files_merged += 1
            indexed_keys += file.indexed_key_count()
            f_kinds, f_keys, f_rows, f_ts = file.columns()
            kinds.extend(f_kinds)
            keys.extend(f_keys)
            rows.extend(f_rows)
            ts.extend(f_ts)
            self.stats.entries_read += len(file)
        collapsed = DeltaBatch.from_columns(kinds, keys, rows, ts).collapse()
        self.stats.entries_superseded += indexed_keys - (
            len(collapsed.live_keys) + len(collapsed.tombstones)
        )
        # Learner streams of different shards interleave, so a file's
        # last entry need not carry its newest commit.
        rows_merged = self.main.fold(collapsed, max(ts))
        self._cost.charge_rows(self._cost.merge_per_row_us, rows_merged)
        self.stats.rows_merged += rows_merged
        return rows_merged
