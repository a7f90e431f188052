"""Columnar batch representation of delta entries.

An entry-at-a-time sync moves one :class:`~repro.storage.delta_store.DeltaEntry`
at a time through Python dicts.  A :class:`DeltaBatch` keeps the same
information as parallel columns (kind codes, keys, row tuples, commit
timestamps) so the last-writer-wins collapse — the inner loop of every
Table 2 data-synchronization technique — runs as one NumPy scatter
instead of ``n`` dict operations:

* assign each distinct key a dense integer code (one dict pass,
  amortized at ingest time by :class:`InMemoryDeltaStore`);
* ``last[codes] = arange(n)`` — later positions overwrite earlier ones,
  which *is* last-writer-wins;
* partition the winning positions by kind into live rows vs tombstones.

Only the winners (unique keys) ever touch Python objects again, so a
batch of 100k entries over 20k keys collapses with 20k dict stores
instead of 100k branchy dict mutations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..common.clock import Timestamp
from ..common.types import Key, Row

#: Integer kind codes used inside batches (np.int8 friendly).
KIND_INSERT = 0
KIND_UPDATE = 1
KIND_DELETE = 2


@dataclass
class CollapseResult:
    """Final image of one delta batch: newest row per surviving key,
    plus the keys whose final operation was a delete."""

    live_keys: list[Key]
    live_rows: list[Row]
    tombstones: list[Key]

    def as_dicts(self) -> tuple[dict[Key, Row], set[Key]]:
        """The ``(live, tombstones)`` shape the scalar paths return."""
        return dict(zip(self.live_keys, self.live_rows)), set(self.tombstones)

    def touched_keys(self) -> list[Key]:
        """Every key the batch finally writes or deletes (upsert set)."""
        return self.live_keys + self.tombstones


@dataclass
class DeltaBatch:
    """Commit-ordered delta entries held columnar.

    ``key_codes`` maps each entry to a dense integer id for its key
    (same key ⇒ same code); ``n_codes`` bounds the code space so the
    collapse scatter array can be allocated directly.
    """

    kinds: np.ndarray        # int8 KIND_* per entry
    keys: list[Key]
    rows: list[Row | None]   # None for deletes
    commit_ts: np.ndarray    # int64 per entry, non-decreasing
    key_codes: np.ndarray    # int64 dense key ids
    n_codes: int

    def __len__(self) -> int:
        return len(self.keys)

    def max_commit_ts(self) -> Timestamp:
        return int(self.commit_ts[-1]) if len(self.commit_ts) else 0

    def min_commit_ts(self) -> Timestamp:
        return int(self.commit_ts[0]) if len(self.commit_ts) else 0

    @classmethod
    def empty(cls) -> "DeltaBatch":
        return cls(
            kinds=np.empty(0, dtype=np.int8),
            keys=[],
            rows=[],
            commit_ts=np.empty(0, dtype=np.int64),
            key_codes=np.empty(0, dtype=np.int64),
            n_codes=0,
        )

    @classmethod
    def from_columns(
        cls,
        kinds: Sequence[int],
        keys: list[Key],
        rows: list[Row | None],
        commit_ts: Sequence[int],
        key_codes: Sequence[int] | None = None,
        n_codes: int | None = None,
    ) -> "DeltaBatch":
        if key_codes is None:
            key_codes, n_codes = encode_keys(keys)
        return cls(
            kinds=np.asarray(kinds, dtype=np.int8),
            keys=keys,
            rows=rows,
            commit_ts=np.asarray(commit_ts, dtype=np.int64),
            key_codes=np.asarray(key_codes, dtype=np.int64),
            n_codes=int(n_codes if n_codes is not None else 0),
        )

    def collapse(self) -> CollapseResult:
        return collapse_batch(self)


def encode_keys(keys: list[Key]) -> tuple[np.ndarray, int]:
    """Dense integer codes for ``keys``: same key ⇒ same code, codes
    dense in ``[0, n_codes)`` — the only contract the collapse scatter
    needs (code *values* may differ between the paths below)."""
    if keys:
        arr = np.asarray(keys)
        # Homogeneous scalar keys (one table's key space) vectorize;
        # tuples and mixed types fall back to the dict pass.  Guarding
        # on kind avoids e.g. int/str mixes silently coerced to <U.
        if arr.ndim == 1 and arr.dtype.kind in "iuUS":
            uniq, codes = np.unique(arr, return_inverse=True)
            return codes.astype(np.int64, copy=False), len(uniq)
    code_of: dict[Key, int] = {}
    codes = np.empty(len(keys), dtype=np.int64)
    setdefault = code_of.setdefault
    for i, key in enumerate(keys):
        codes[i] = setdefault(key, len(code_of))
    return codes, len(code_of)


def collapse_batch(batch: DeltaBatch) -> CollapseResult:
    """Vectorized last-writer-wins collapse + tombstone separation.

    Equivalent to the scalar ``collapse_entries`` on the same entries:
    per key, only the final operation survives; DELETE winners become
    tombstones, INSERT/UPDATE winners become live row images.  Winners
    come out in commit order of their final operation.
    """
    n = len(batch)
    if n == 0:
        return CollapseResult([], [], [])
    last = np.full(batch.n_codes, -1, dtype=np.int64)
    # Scatter with duplicate indices: NumPy applies assignments in
    # order, so the highest (newest) position per code wins.
    last[batch.key_codes] = np.arange(n, dtype=np.int64)
    winners = last[last >= 0]
    winners.sort()
    win_kinds = batch.kinds[winners]
    live_pos = winners[win_kinds != KIND_DELETE]
    tomb_pos = winners[win_kinds == KIND_DELETE]
    keys = batch.keys
    rows = batch.rows
    live_list = live_pos.tolist()
    return CollapseResult(
        live_keys=[keys[i] for i in live_list],
        live_rows=[rows[i] for i in live_list],
        tombstones=[keys[i] for i in tomb_pos.tolist()],
    )
