"""In-memory delta store + delete bitmap.

Architecture (a) and (d) systems append every committed change to an
in-memory, row-wise delta that analytical scans merge on the fly (the
"in-memory delta and column scan" of Table 2) until the data
synchronizer folds it into the main column store.  Deletes against
rows already in the main store are tracked as a delete set — the
"delete bitmap" of §2.2(1).

Entries are held *columnar* internally (parallel kind/key/row/ts
columns plus dense per-key codes) so merges can drain them as a
:class:`~repro.storage.delta_batch.DeltaBatch` and collapse them with
one NumPy scatter instead of a per-entry Python loop.  The classic
:class:`DeltaEntry` object view is materialized on demand for
entry-at-a-time readers.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..common.clock import Timestamp
from ..common.cost import CostModel
from ..common.predicate import ALWAYS_TRUE, Predicate
from ..common.types import Key, Row, Schema
from .delta_batch import (
    KIND_DELETE,
    KIND_INSERT,
    KIND_UPDATE,
    DeltaBatch,
)


class DeltaKind(enum.Enum):
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"


_KIND_CODE = {
    DeltaKind.INSERT: KIND_INSERT,
    DeltaKind.UPDATE: KIND_UPDATE,
    DeltaKind.DELETE: KIND_DELETE,
}
_CODE_KIND = {code: kind for kind, code in _KIND_CODE.items()}


@dataclass(frozen=True)
class DeltaEntry:
    kind: DeltaKind
    key: Key
    row: Row | None         # None for deletes
    commit_ts: Timestamp


class InMemoryDeltaStore:
    """Commit-ordered delta entries with a per-key latest index."""

    def __init__(self, schema: Schema, cost: CostModel | None = None):
        self.schema = schema
        self._cost = cost or CostModel()
        # Columnar entry storage: one append per column keeps the OLTP
        # write path cheap while merges read whole columns at once.
        self._kinds: list[int] = []
        self._keys: list[Key] = []
        self._rows: list[Row | None] = []
        self._ts: list[Timestamp] = []
        # Dense per-key integer codes (stable for the store's lifetime)
        # power the vectorized last-writer-wins collapse.
        self._key_codes: list[int] = []
        self._code_of: dict[Key, int] = {}
        self._latest: dict[Key, int] = {}  # key -> index of newest entry

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def entries(self) -> list[DeltaEntry]:
        """Object view of the columnar storage (scalar-path compat)."""
        return [
            DeltaEntry(_CODE_KIND[k], key, row, ts)
            for k, key, row, ts in zip(self._kinds, self._keys, self._rows, self._ts)
        ]

    # ------------------------------------------------------------- ingest

    def _append_raw(
        self, kind_code: int, key: Key, row: Row | None, commit_ts: Timestamp
    ) -> None:
        if self._ts and commit_ts < self._ts[-1]:
            raise ValueError("delta entries must arrive in commit order")
        self._kinds.append(kind_code)
        self._keys.append(key)
        self._rows.append(row)
        self._ts.append(commit_ts)
        self._key_codes.append(self._code_of.setdefault(key, len(self._code_of)))
        self._latest[key] = len(self._keys) - 1

    def append(self, entry: DeltaEntry) -> None:
        self._cost.charge(self._cost.row_point_write_us)
        self._append_raw(_KIND_CODE[entry.kind], entry.key, entry.row, entry.commit_ts)

    def record_insert(self, row: Row, commit_ts: Timestamp) -> None:
        self._cost.charge(self._cost.row_point_write_us)
        self._append_raw(KIND_INSERT, self.schema.key_of(row), row, commit_ts)

    def record_update(self, row: Row, commit_ts: Timestamp) -> None:
        self._cost.charge(self._cost.row_point_write_us)
        self._append_raw(KIND_UPDATE, self.schema.key_of(row), row, commit_ts)

    def record_delete(self, key: Key, commit_ts: Timestamp) -> None:
        self._cost.charge(self._cost.row_point_write_us)
        self._append_raw(KIND_DELETE, key, None, commit_ts)

    def record_insert_batch(self, rows: Sequence[Row], commit_ts: Timestamp) -> None:
        """Bulk-ingest ``rows`` at one commit timestamp (one charge)."""
        if not rows:
            return
        self._cost.charge_rows(self._cost.row_point_write_us, len(rows))
        key_of = self.schema.key_of
        for row in rows:
            self._append_raw(KIND_INSERT, key_of(row), row, commit_ts)

    def record_delete_batch(self, keys: Sequence[Key], commit_ts: Timestamp) -> None:
        if not keys:
            return
        self._cost.charge_rows(self._cost.row_point_write_us, len(keys))
        for key in keys:
            self._append_raw(KIND_DELETE, key, None, commit_ts)

    # ------------------------------------------------------------- reads

    def _cut_index(self, ts: Timestamp) -> int:
        """Number of leading entries with commit_ts <= ts (commit order)."""
        return bisect_right(self._ts, ts)

    def effective_rows(
        self, snapshot_ts: Timestamp, predicate: Predicate = ALWAYS_TRUE
    ) -> tuple[dict[Key, Row], set[Key]]:
        """Collapse entries visible at ``snapshot_ts`` into final images.

        Returns ``(live, tombstones)``: the newest row image per key that
        still matches ``predicate``, and the set of keys deleted by the
        delta (tombstones must also suppress main-store rows).
        """
        cut = self._cut_index(snapshot_ts)
        self._cost.charge_rows(self._cost.delta_scan_per_row_us, max(cut, 1))
        live, tombstones = self._slice_batch(0, cut).collapse().as_dicts()
        if not isinstance(predicate, type(ALWAYS_TRUE)):
            live = {
                key: row
                for key, row in live.items()
                if predicate.matches(row, self.schema)
            }
        return live, tombstones

    def updated_keys(self) -> set[Key]:
        return set(self._latest.keys())

    def max_commit_ts(self) -> Timestamp:
        return self._ts[-1] if self._ts else 0

    def min_commit_ts(self) -> Timestamp:
        return self._ts[0] if self._ts else 0

    def memory_bytes(self) -> int:
        width = max(1, len(self.schema.columns))
        return len(self._keys) * width * 56  # row-wise deltas are fat

    # ------------------------------------------------------------- merge support

    def _slice_batch(self, start: int, stop: int) -> DeltaBatch:
        return DeltaBatch.from_columns(
            self._kinds[start:stop],
            self._keys[start:stop],
            self._rows[start:stop],
            self._ts[start:stop],
            key_codes=self._key_codes[start:stop],
            # Codes are store-lifetime dense ids, so the live dict size
            # upper-bounds every code in any slice.
            n_codes=len(self._code_of),
        )

    def _drain_cut(self, cut: int) -> None:
        """Drop the first ``cut`` entries, keeping residuals consistent.

        Residual entries (commits that interleaved with phase 1 of a
        two-phase merge) must have ``_latest`` *re-indexed* against
        their new positions — offset arithmetic on the old indexes
        would go stale as soon as a drained key also has a residual
        entry.
        """
        self._kinds = self._kinds[cut:]
        self._keys = self._keys[cut:]
        self._rows = self._rows[cut:]
        self._ts = self._ts[cut:]
        self._key_codes = self._key_codes[cut:]
        self._latest = {key: i for i, key in enumerate(self._keys)}

    def drain_batch_up_to(self, ts: Timestamp) -> DeltaBatch:
        """Columnar variant of :meth:`drain_up_to` for batch mergers."""
        cut = self._cut_index(ts)
        if cut == len(self._keys):
            # Full drain (the common merge-everything case): hand the
            # slabs over without slicing copies or a _latest rebuild.
            batch = DeltaBatch.from_columns(
                self._kinds,
                self._keys,
                self._rows,
                self._ts,
                key_codes=self._key_codes,
                n_codes=len(self._code_of),
            )
            self._kinds = []
            self._keys = []
            self._rows = []
            self._ts = []
            self._key_codes = []
            self._latest = {}
            return batch
        batch = self._slice_batch(0, cut)
        self._drain_cut(cut)
        return batch

    def drain_up_to(self, ts: Timestamp) -> list[DeltaEntry]:
        """Remove and return every entry with commit_ts <= ts.

        The data synchronizer calls this inside its merge; remaining
        entries (committed after ``ts``) stay behind for the next round.
        """
        cut = self._cut_index(ts)
        drained = [
            DeltaEntry(_CODE_KIND[k], key, row, ts_)
            for k, key, row, ts_ in zip(
                self._kinds[:cut], self._keys[:cut], self._rows[:cut], self._ts[:cut]
            )
        ]
        self._drain_cut(cut)
        return drained

    def clear_batch(self) -> DeltaBatch:
        return self.drain_batch_up_to(self.max_commit_ts())


def collapse_entries(
    entries: Iterable[DeltaEntry],
) -> tuple[dict[Key, Row], set[Key]]:
    """Final row image per key plus tombstoned keys, for a merge batch.

    The entry-at-a-time collapse; the batch equivalent lives in
    :mod:`repro.storage.delta_batch`.
    """
    live: dict[Key, Row] = {}
    tombstones: set[Key] = set()
    for entry in entries:
        if entry.kind is DeltaKind.DELETE:
            live.pop(entry.key, None)
            tombstones.add(entry.key)
        else:
            tombstones.discard(entry.key)
            live[entry.key] = entry.row
    return live, tombstones
