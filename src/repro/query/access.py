"""The access-path abstraction between engines and the query layer.

Every HTAP engine exposes each of its tables as a :class:`TableAccess`:
the *same* logical data reachable through a row path (tuple-at-a-time,
cheap per lookup, expensive per full scan) and/or a column path
(vectorized, cheap per value).  The optimizer's job — the "hybrid
row/column scan" of Table 2 — is choosing between them per table per
query, with identical results either way.
"""

from __future__ import annotations

import enum
from typing import Protocol

import numpy as np

from ..common.predicate import Predicate
from ..common.types import Row, Schema
from .statistics import TableStats


class AccessPath(enum.Enum):
    ROW_SCAN = "row_scan"          # full scan of the row store
    INDEX_LOOKUP = "index_lookup"  # selective B+-tree / pk access, then verify
    COLUMN_SCAN = "column_scan"    # vectorized scan of the columnar image


class TableAccess(Protocol):
    """What the planner/executor need from one engine table."""

    def schema(self) -> Schema: ...

    def stats(self) -> TableStats: ...

    def available_paths(self) -> set[AccessPath]: ...

    def scan_rows(self, predicate: Predicate) -> list[Row]:
        """Row path: matching rows from the (freshest) row-side store."""
        ...

    def scan_columns(
        self, columns: list[str], predicate: Predicate
    ) -> dict[str, np.ndarray]:
        """Column path: arrays for ``columns`` of matching rows.

        A column may come back as a
        :class:`~repro.storage.code_batch.CodeColumn` (dictionary codes
        + sorted dictionary) instead of a decoded ndarray; the executor
        takes both and decodes at result emit."""
        ...

    def index_lookup_rows(self, predicate: Predicate) -> list[Row] | None:
        """Index path: matching rows, or None when no usable index."""
        ...

    # --------------------------------------------------- optional protocol
    #
    # Adapters *may* also expose the following methods; the query layer
    # probes for them with getattr and degrades gracefully when absent:
    #
    # ``cache_token(path: AccessPath | None = None) -> Hashable | None``
    #     A value pinning down exactly what a scan would return (reader
    #     snapshot + every relevant mutation counter).  Enables the
    #     MVCC-aware :class:`~repro.query.scan_cache.ScanCache`; return
    #     None (or omit the method) to opt the table out of caching.
    #     The token is the cache's only fence — no write path
    #     invalidates it — so it MUST move on every change a scan can
    #     observe: a commit, merge, sync, vacuum, reload or mode switch
    #     that leaves it equal serves a stale batch.
    #     ``path`` is the access path about to run: an adapter may
    #     return a *narrower* token for a path whose result depends on
    #     fewer versions (e.g. an isolated-mode column scan reads only
    #     the stale columnar image, so primary-side writes leave its
    #     entries servable), but must stay conservative when unsure.
    #
    # ``note_cached_scan(columns, predicate) -> None``
    #     Called on a scan-cache hit so the engine can keep its own
    #     bookkeeping (freshness probes, adaptive stats) in step even
    #     though no physical scan ran.
    #
    # ``stats_epoch() -> int``
    #     Version of the statistics the planner would see right now
    #     (refreshing them first if they drifted past the stats-cache
    #     slack).  The plan cache fences cached plans on it: equal
    #     epochs guarantee the plan was costed against the statistics
    #     currently being served.  Tables without it opt out of plan
    #     caching for statements that reference them.
    #
    # ``scan_pruning_hint(predicate) -> float``
    #     Planning-time estimate in [0, 1]: the fraction of the table's
    #     columnar rows living in segments whose zone maps exclude
    #     ``predicate``.  The optimizer discounts the COLUMN_SCAN price
    #     by this fraction (floored at one zone-map check), which is how
    #     segment skipping becomes visible to access-path choice.  Must
    #     be an uncharged estimate — it runs during planning.


Catalog = dict
"""table name -> TableAccess; what engines hand to the planner."""
