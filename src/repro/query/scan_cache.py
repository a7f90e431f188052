"""MVCC-aware snapshot-scan cache.

A column scan or a full row scan starts by materializing
dict-of-arrays column batches out of a store (an MVCC row store, an
IMCU, a columnar replica, ...).  The survey's point about avoiding
redundant TP→AP data movement is modeled here: such a batch is cached
under a key that pins down *exactly* which data it holds (an index
lookup is not a scan — it costs the rows it returns and never comes
here) —

    (table, access path, needed columns, predicate, version token)

The version token comes from the engine's table adapter
(``cache_token()``) and encodes the reader snapshot plus every
mutation counter that can change what the scan would return (row-store
installs/vacuums, delta sizes, merge generations, replica apply
timestamps).  It is the cache's *only* invalidation mechanism:

* a hit is provably snapshot-correct — any commit, merge, sync, or
  vacuum changes the token, so the stale entry can never be returned
  for the new state (it just stops being reachable);
* batches are never shared across snapshot timestamps — a different
  ``snapshot_ts`` is a different key (MVCC isolation);
* no write path touches the cache.  A commit leaves its dead entries
  behind and the LRU retires them, so OLTP never walks analytical
  state.

The one caller of :meth:`ScanCache.invalidate` left is a sync that
replaces a columnar image wholesale (``HTAPEngine.sync`` when rows
moved, and each ``force_sync``).  That drop is for memory, not for
correctness: the whole-table batches of the old image are large and
all dead at once (``olap_suite`` peak RSS 418.4 MB with the sync-time
drop, 436.2 MB without it; 414.1 MB when commits dropped eagerly too).

Hit/miss/eviction/invalidation counts are exported as plain attributes
and through the ``obs`` :class:`~repro.obs.registry.MetricsRegistry`
(``scan_cache.hits`` / ``scan_cache.misses`` / ``scan_cache.evictions``
/ ``scan_cache.invalidations``, plus the ``scan_cache.entries`` and
``scan_cache.bytes`` gauges).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Mapping

import numpy as np

from ..obs.registry import get_registry

Batch = dict
CacheKey = tuple
"""(table, path, columns, predicate, token) — see module docstring."""

#: What is left in the cache is scans, a few dozen live entries per
#: engine; a commit still strands the ones keyed on the old token until
#: the LRU or the next sync retires them.  The smallest power of two at
#: which every simulated metric and result digest of the four e2e
#: workloads equals the 2048-deep run's, seeds 1 and 2 (at 128
#: ``point_frontdoor`` evicts a batch it would have hit again: 4 051 ->
#: 4 050 and 4 152 -> 4 133 hits per repetition; EXPERIMENTS.md P12).
DEFAULT_CAPACITY = 256


class ScanCache:
    """LRU cache of scan batches keyed by (table, path, columns,
    predicate, snapshot/version token)."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        labels: Mapping[str, str] | None = None,
    ):
        if capacity < 1:
            raise ValueError("scan cache capacity must be >= 1")
        self._capacity = capacity
        self._entries: OrderedDict[CacheKey, Batch] = OrderedDict()
        #: Approximate per-entry footprint (array buffer bytes; object
        #: arrays count their 8-byte pointers, not payloads).
        self._entry_bytes: dict[CacheKey, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.bytes = 0
        labels = dict(labels or {})
        reg = get_registry()
        self._hit_counter = reg.counter("scan_cache.hits", **labels)
        self._miss_counter = reg.counter("scan_cache.misses", **labels)
        self._eviction_counter = reg.counter("scan_cache.evictions", **labels)
        self._invalidation_counter = reg.counter("scan_cache.invalidations", **labels)
        self._entries_gauge = reg.gauge("scan_cache.entries", **labels)
        self._bytes_gauge = reg.gauge("scan_cache.bytes", **labels)

    # ------------------------------------------------------------- access

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: CacheKey) -> Batch | None:
        """The cached batch for ``key``, or None; counts a hit/miss.

        Hits hand out a *shallow* copy of the entry: the column arrays
        (frozen read-only at :meth:`put`) stay shared, but the mapping
        itself is private — a caller adding/replacing columns in its
        result batch cannot poison other readers of the same hit.
        """
        batch = self._entries.get(key)
        if batch is None:
            self.misses += 1
            self._miss_counter.inc()
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        self._hit_counter.inc()
        return dict(batch)

    def put(self, key: CacheKey, batch: Mapping[str, np.ndarray]) -> None:
        if key in self._entries:
            self.bytes -= self._entry_bytes[key]
        # Decouple the entry from the caller's mapping and freeze the
        # array columns as zero-copy read-only views: any consumer that
        # tries to write through a hit raises instead of silently
        # corrupting every later hit for this key.  (Producers hand the
        # cache ownership — scan paths build a fresh batch per miss —
        # so there is no writable original left to mutate around the
        # freeze.)
        entry = {}
        for name, value in batch.items():
            if isinstance(value, np.ndarray):
                view = value.view()
                view.flags.writeable = False
                entry[name] = view
            else:
                entry[name] = value
        # Columns may be plain ndarrays or encoded CodeColumns; both
        # expose nbytes (codes + dictionary for the latter).
        size = 0
        for arr in entry.values():
            nbytes = getattr(arr, "nbytes", None)
            size += int(nbytes) if nbytes is not None else int(np.asarray(arr).nbytes)
        self._entries[key] = entry
        self._entry_bytes[key] = size
        self.bytes += size
        self._entries.move_to_end(key)
        while len(self._entries) > self._capacity:
            evicted, _ = self._entries.popitem(last=False)
            self.bytes -= self._entry_bytes.pop(evicted)
            self.evictions += 1
            self._eviction_counter.inc()
        self._entries_gauge.set(len(self._entries))
        self._bytes_gauge.set(self.bytes)

    # ------------------------------------------------------------- invalidation

    def invalidate(self) -> int:
        """Drop every entry; returns how many were dropped.

        Correctness never depends on this being called — version tokens
        already fence stale entries off; it frees memory (see the module
        docstring).
        """
        dropped = len(self._entries)
        self._entries.clear()
        self._entry_bytes.clear()
        self.bytes = 0
        if dropped:
            self.invalidations += dropped
            self._invalidation_counter.inc(dropped)
            self._entries_gauge.set(0)
            self._bytes_gauge.set(0)
        return dropped

    # ------------------------------------------------------------- stats

    @property
    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "entries": len(self._entries),
            "bytes": self.bytes,
        }
