"""Oracle-style In-Memory Compression Units with Snapshot Metadata Units.

Architecture (a)'s analytical side (Oracle Database In-Memory in the
survey): the primary row store stays authoritative, while selected
tables are *populated* into columnar IMCUs.  Changes made after
population are not applied in place — the SMU merely records which keys
went stale, and queries patch those rows from the row store at scan
time.  When staleness crosses a threshold the unit is repopulated
(the survey's "rebuild from primary row store" DS technique), priced
as a full rebuild.  The Python work behind it re-reads only the keys
the row store's change feed names (walking every chain only where the
feed cannot answer) and re-pivots only the rows whose visible version
changed; the rest are gathered from the arrays the image sealed (never
from decoded cells: dictionary and RLE fold ``-0.0`` and NaN payloads).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import is_not

import numpy as np

from ..common.clock import Timestamp
from ..common.cost import CostModel
from ..common.predicate import ALWAYS_TRUE, Predicate
from ..common.types import Key, Row, Schema, rows_to_columns
from ..obs.registry import get_registry
from .code_batch import overlay_delta
from .column_store import (
    ColumnScanResult,
    Segment,
    encodable_columns,
    scan_segment,
    seal_segment,
)
from .row_store import ChangeFeed, MVCCRowStore


@dataclass
class SnapshotMetadataUnit:
    """Tracks which populated keys have changed since population."""

    populate_ts: Timestamp = 0
    stale_keys: set = field(default_factory=set)
    new_keys: set = field(default_factory=set)

    def record_change(self, key: Key, populated: bool) -> None:
        if populated:
            self.stale_keys.add(key)
        else:
            self.new_keys.add(key)

    def staleness(self, populated_rows: int) -> float:
        if populated_rows == 0:
            return 1.0 if (self.stale_keys or self.new_keys) else 0.0
        return (len(self.stale_keys) + len(self.new_keys)) / populated_rows


class InMemoryColumnUnit:
    """One populated columnar image of a table, patched through its SMU:
    a :class:`Segment` sealed and scanned as a ``ColumnStore``'s are (a
    stale key is a delete bit), at the unit's own rates."""

    def __init__(self, schema: Schema, row_store: MVCCRowStore, cost: CostModel):
        self.schema = schema
        self._rows = row_store
        self._cost = cost
        self._segment: Segment | None = None  # None: nothing populated
        self._keys: list[Key] = []  # the image's keys, in the row store's order
        self._position: dict[Key, int] = {}  # key -> row of the image
        # The arrays the image sealed (a plain column's are its encoding's
        # own) and the ts it read them at; nothing is visible before 0.
        self._arrays, self._image_ts = rows_to_columns(schema, []), -1
        # The row store's drain the next populate may repopulate from;
        # None: it walks every chain.
        self._next_drain: int | None = None
        self.smu = SnapshotMetadataUnit()
        self.populations = 0
        reg = get_registry()
        self._scanned_counter = reg.counter("scan.segments_scanned")
        self._pruned_counter = reg.counter("scan.segments_pruned")
        self._code_filter_counter = reg.counter("scan.code_space_filters")

    # ------------------------------------------------------------- populate

    def populate(self, snapshot_ts: Timestamp) -> int:
        """(Re)build the unit from the row store at ``snapshot_ts``,
        priced as a full rebuild: a scan, then ``rebuild_per_row_us`` per
        row.  A row is reused when its visible version was visible at
        the image's ts too; version timestamps decide, never the SMU, so
        the image equals a full rebuild.

        Only the keys the store's change feed names are re-read.  Every
        chain is walked instead on a first population, at a ts older
        than the image, after an image taken while the store held a
        newer version, when another consumer drained the feed, when a
        vacuum dropped a chain, or when a key re-enters the image from
        a chain older than the feed."""
        feed = self._rows.drain_changes()
        take, fresh = self._trickle(feed, snapshot_ts) or self._walk(snapshot_ts)
        # Image rows gather from [the sealed arrays | the pivoted fresh rows].
        pivoted = rows_to_columns(self.schema, fresh)
        self._arrays = {
            name: np.concatenate((column, pivoted[name]))[take]
            for name, column in self._arrays.items()
        }
        n = len(self._keys)
        self._segment = (
            seal_segment(self.schema, self._arrays, self._keys, snapshot_ts) if n else None
        )
        self._image_ts = snapshot_ts
        # Chains the feed never names keep their visible version only
        # while the store held nothing newer than the image.
        self._next_drain = feed.drain + 1 if feed.newest_ts <= snapshot_ts else None
        self.smu = SnapshotMetadataUnit(populate_ts=snapshot_ts)
        self.populations += 1
        self._cost.charge_rows(self._cost.row_scan_per_row_us, max(n, 1))
        self._cost.charge_rows(self._cost.rebuild_per_row_us, max(n, 1))
        return n

    def _walk(self, snapshot_ts: Timestamp) -> tuple[np.ndarray, list[Row]]:
        """Every chain's visible row: the new key order, and the gather
        over [sealed arrays | fresh rows] with the fresh rows."""
        keys, rows = self._rows.snapshot_since(snapshot_ts, self._image_ts)
        is_fresh = np.fromiter(map(is_not, rows, repeat(None)), bool, len(keys))
        fresh = list(compress(rows, is_fresh.tolist()))
        take = np.empty(len(keys), np.intp)
        take[is_fresh] = np.arange(len(fresh)) + len(self._keys)
        kept = compress(keys, (~is_fresh).tolist())
        take[~is_fresh] = np.fromiter(map(self._position.__getitem__, kept), np.intp)
        self._keys, self._position = keys, dict(zip(keys, range(len(keys))))
        return take, fresh

    def _trickle(
        self, feed: ChangeFeed, snapshot_ts: Timestamp
    ) -> tuple[np.ndarray, list[Row]] | None:
        """:meth:`_walk`'s result from the fed keys alone: image rows whose
        key left are dropped, changed ones overwritten, and rows of the
        chains created since the last drain appended in creation order —
        their place in a walk.  None, changing nothing, where the feed
        cannot answer: this unit did not take the drain before it, a
        vacuum dropped a chain, ``snapshot_ts`` is older than the image,
        or a fed key re-enters the image from an older chain (a walk
        puts its row mid-image)."""
        if not (
            feed.drain == self._next_drain
            and feed.intact
            and snapshot_ts >= self._image_ts
        ):
            return None
        fed = feed.keys
        keys, rows = self._rows.snapshot_since(snapshot_ts, self._image_ts, fed)
        position = self._position
        born: list[Key] = []
        fresh: list[Row] = []
        moved: list[int] = []
        moved_rows: list[Row] = []
        for key, row in zip(keys, rows):
            at = position.get(key)
            if at is None:
                if not fed[key]:
                    return None
                born.append(key)
                fresh.append(row)
            elif row is not None:
                moved.append(at)
                moved_rows.append(row)
        visible = set(keys)
        gone = [position[key] for key in fed if key in position and key not in visible]
        n_old = len(self._keys)
        n = n_old + len(born)
        # Appended rows are the first fresh ones, overwritten rows follow.
        take = np.arange(n, dtype=np.intp)
        take[moved] = np.arange(n, n + len(moved))
        fresh += moved_rows
        self._keys.extend(born)
        if gone:
            keep = np.ones(n, bool)
            keep[gone] = False
            take = take[keep]
            self._keys = list(compress(self._keys, keep.tolist()))
            self._position = dict(zip(self._keys, range(len(self._keys))))
        else:
            position.update(zip(born, range(n_old, n)))
        return take, fresh

    @property
    def populated(self) -> bool:
        return self.populations > 0

    @property
    def segments(self) -> list[Segment]:
        """The image as a segment list (one, or none while empty) — what
        the planner's segment estimates read."""
        return [] if self._segment is None else [self._segment]

    def populated_rows(self) -> int:
        return len(self._keys)

    def memory_bytes(self) -> int:
        return sum(seg.size_bytes() for seg in self.segments)

    # ------------------------------------------------------------- change feed

    def on_change(self, key: Key) -> None:
        """Row-store change hook: mark the key stale (or new).  A stale
        key's image row is dead to every later scan."""
        position = self._position.get(key)
        if position is not None and key not in self.smu.stale_keys:
            self._segment.delete_mask[position] = True
            self._segment.dead_count += 1
        self.smu.record_change(key, populated=position is not None)

    def staleness(self) -> float:
        return self.smu.staleness(self.populated_rows())

    # ------------------------------------------------------------- scan

    def scan(
        self,
        snapshot_ts: Timestamp,
        columns: list[str] | None = None,
        predicate: Predicate = ALWAYS_TRUE,
        patch: bool = True,
        *,
        with_keys: bool = True,
        encode: bool = False,
    ) -> ColumnScanResult:
        """Columnar scan patched with current row-store truth.

        Populated-and-clean rows are answered from the IMCU; stale and
        new keys are re-read from the row store at ``snapshot_ts`` —
        which is why this architecture's freshness is High in Table 1
        (at the cost of per-stale-row patch reads).

        The unit is one pruning granule: when its zone maps exclude the
        predicate, the whole columnar side is skipped (patch reads still
        run — staleness is orthogonal to pruning).  Surviving scans
        evaluate the predicate in code/run space where the codec allows
        and late-materialize output columns at surviving positions.

        ``encode=True`` keeps code-space-safe dictionary columns
        *encoded*: they come back as :class:`CodeColumn` (codes +
        dictionary) instead of decoded values, charging the cheaper
        ``code_gather_per_value_us`` and deferring materialization to
        whoever decodes downstream.  Patch rows are folded into the
        code space by :func:`overlay_delta` (decode fallback when the
        patch values are not encodable).  ``with_keys=False`` leaves
        ``keys`` None, as on :meth:`ColumnStore.scan`: a columnar
        consumer reads the arrays only.
        """
        wanted = list(columns) if columns is not None else self.schema.column_names
        segment = self._segment
        part = None
        scanned = pruned = code_filters = 0
        if segment is not None:
            self._cost.charge(self._cost.zone_map_check_us)
            if segment.may_match(predicate, self.schema):
                scanned = 1
                encode_cols = (
                    encodable_columns(wanted, [segment]) if encode else frozenset()
                )
                # An empty factor table: the IMCU's per-value price never
                # varied by codec.
                part = scan_segment(
                    segment, self._cost, wanted, predicate, with_keys, encode_cols, {}
                )
                code_filters = part.code_space_filters
                self._cost.charge(sum(rate * count for rate, count in part.charges))
            else:
                pruned = 1
        if part is None or part.arrays is None:
            arrays = rows_to_columns(self.schema, [], wanted)
            out_keys = [] if with_keys else None
        elif part.positions is None:
            # Every row survived and the kernel handed back the image's
            # own buffers: the reader gets copies.
            arrays = {name: column.copy() for name, column in part.arrays.items()}
            out_keys = list(part.keys) if with_keys else None
        else:
            arrays, out_keys = part.arrays, part.keys
        if scanned:
            self._scanned_counter.inc(scanned)
        if pruned:
            self._pruned_counter.inc(pruned)
        if code_filters:
            self._code_filter_counter.inc(code_filters)
        # Patch stale + brand-new keys from the row store.  Isolated mode
        # (``patch=False``) reads none — the scan is cheaper but the
        # image is stale.
        patch_keys = self.smu.stale_keys | self.smu.new_keys if patch else ()
        patch_rows = (self._rows.read(key, snapshot_ts) for key in patch_keys)
        arrays, patched = overlay_delta(
            arrays,
            [],
            (row for row in patch_rows if row is not None),
            predicate,
            self.schema,
        )
        if with_keys:
            out_keys.extend(map(self.schema.key_of, patched))
        return ColumnScanResult(
            arrays=arrays,
            keys=out_keys,
            segments_scanned=scanned,
            segments_pruned=pruned,
            code_space_filters=code_filters,
        )
