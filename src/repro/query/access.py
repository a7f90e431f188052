"""The access-path abstraction between engines and the query layer.

Every HTAP engine exposes each of its tables as a :class:`TableAccess`:
the *same* logical data reachable through a row path (tuple-at-a-time,
cheap per lookup, expensive per full scan) and/or a column path
(vectorized, cheap per value).  The optimizer's job — the "hybrid
row/column scan" of Table 2 — is choosing between them per table per
query, with identical results either way.

The base class is the whole protocol.  Every catalog adapter inherits
it; the planner and executor call its methods directly and probe for
nothing, so an adapter that lacks one fails at construction, not at
the first query that would have needed it.
"""

from __future__ import annotations

import abc
import enum
from typing import Hashable

import numpy as np

from ..common.predicate import Predicate
from ..common.types import Key, Row, Schema
from .statistics import TableStats
from .stats_cache import StatsCache


class AccessPath(enum.Enum):
    ROW_SCAN = "row_scan"          # full scan of the row store
    INDEX_LOOKUP = "index_lookup"  # pk probe or secondary-index equality, then verify
    COLUMN_SCAN = "column_scan"    # vectorized scan of the columnar image


class TableAccess(abc.ABC):
    """What the planner/executor need from one engine table.

    The base class *is* the protocol: every catalog adapter inherits
    it, the query layer calls these methods directly and probes for
    nothing."""

    def __init__(self) -> None:
        self._stats = StatsCache(self._compute_stats)

    @abc.abstractmethod
    def schema(self) -> Schema: ...

    @abc.abstractmethod
    def _compute_stats(self) -> TableStats:
        """Fresh statistics; :meth:`stats` serves them through the
        slack-based :class:`StatsCache`."""

    @abc.abstractmethod
    def stats(self) -> TableStats:
        """``self._stats.get(version)`` for the table's change counter."""

    def stats_epoch(self) -> int:
        """Version of the statistics the planner would see right now
        (refreshing them first if they drifted past the stats-cache
        slack).  The plan cache fences cached plans on it: equal epochs
        guarantee the plan was costed against the statistics currently
        being served."""
        self.stats()
        return self._stats.epoch

    def available_paths(self) -> set[AccessPath]:
        return set(AccessPath)

    def indexed_columns(self) -> set[str]:
        """Secondary-index columns the planner may treat as sargable,
        beside the primary key."""
        return set()

    @abc.abstractmethod
    def cache_token(self, path: AccessPath | None = None) -> Hashable | None:
        """A value pinning down exactly what a scan would return (reader
        snapshot + every relevant mutation counter); None opts the table
        out of the :class:`~repro.query.scan_cache.ScanCache`.

        The token is the cache's only fence — no write path invalidates
        it — so it MUST move on every change a scan can observe: a
        commit, merge, sync, vacuum, reload or mode switch that leaves
        it equal serves a stale batch.  ``path`` is the access path
        about to run: an adapter may return a *narrower* token for a
        path whose result depends on fewer versions (e.g. an
        isolated-mode column scan reads only the stale columnar image,
        so primary-side writes leave its entries servable), but must
        stay conservative when unsure."""

    def note_cached_scan(self, columns: list[str], predicate: Predicate) -> None:
        """Called on a scan-cache hit so the engine can keep its own
        bookkeeping (column-selection heat, adaptive stats) in step even
        though no physical scan ran."""
        return None  # most adapters keep none

    @abc.abstractmethod
    def scan_rows(self, predicate: Predicate) -> list[Row]:
        """Row path: matching rows from the (freshest) row-side store."""

    @abc.abstractmethod
    def scan_columns(
        self, columns: list[str], predicate: Predicate
    ) -> dict[str, np.ndarray]:
        """Column path: arrays for ``columns`` of matching rows.

        A column may come back as a
        :class:`~repro.storage.code_batch.CodeColumn` (dictionary codes
        + sorted dictionary) instead of a decoded ndarray; the executor
        takes both and decodes at result emit."""

    @abc.abstractmethod
    def point_lookup(self, key: Key) -> Row | None:
        """Index path, primary key: the row under ``key`` on the
        (freshest) row side, or None.  The planner hands over the key
        the predicate pins; the executor checks the rest of it."""

    def index_lookup_rows(self, predicate: Predicate) -> list[Row]:
        """Index path, secondary index: matching rows found through an
        equality conjunct on one of :meth:`indexed_columns` — planned
        only for an adapter that reports such a column, which is the
        adapter that overrides this."""
        raise NotImplementedError(f"{type(self).__name__} has no secondary index")

    @abc.abstractmethod
    def scan_pruning_hint(self, predicate: Predicate) -> float:
        """Planning-time estimate in [0, 1]: the fraction of the table's
        columnar rows living in segments whose zone maps exclude
        ``predicate``.  The optimizer discounts the COLUMN_SCAN price by
        this fraction (floored at one zone-map check), which is how
        segment skipping becomes visible to access-path choice.  Must be
        an uncharged estimate — it runs during planning."""

    @abc.abstractmethod
    def code_space_hint(self, columns: list[str]) -> float:
        """Planning-time estimate in [0, 1]: the fraction of ``columns``
        (row-weighted) the column path hands off as dictionary codes,
        which skip the per-row materialize at the scan boundary."""


Catalog = dict
"""table name -> TableAccess; what engines hand to the planner."""
