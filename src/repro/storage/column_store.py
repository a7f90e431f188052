"""A compressed, segment-based in-memory column store.

The analytical substrate of all four architectures: immutable sealed
segments of compressed column arrays with zone maps (min/max,
null count, distinct hint per segment) and a delete bitmap.  Inserted/
merged rows always form new segments; deletes flip bits; updates are
delete + re-insert — the standard append-only columnar contract that
makes "column scan" (Table 2's AP rows) a pure vectorized operation.

Scans are predicate-aware end to end:

1. zone maps prune whole segments before any decode;
2. surviving segments evaluate the predicate in code/run space where
   the codec allows (:mod:`repro.storage.segment_filter`), decoding a
   column only when they must;
3. output columns are late-materialized — gathered at surviving
   positions only.

The full-decode scan these steps must equal byte for byte lives in
``tests/oracle/scan.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..common.clock import Timestamp
from ..common.cost import CostModel
from ..common.errors import StorageError
from ..common.predicate import ALWAYS_TRUE, Predicate, column_range
from ..common.types import (
    NULL_INT, Key, Row, Schema, column_cells, columns_to_rows, rows_to_columns,
)
from ..obs.registry import get_registry
from .code_batch import CodeColumn, concat_code_parts
from .compression import (
    DictionaryEncoding,
    Encoding,
    RunLengthEncoding,
    choose_encoding,
)
from .delta_batch import CollapseResult
from .segment_filter import EncodedColumns, predicate_mask

#: Relative per-value scan cost by codec: compressed layouts move fewer
#: bytes per value (RLE best on runs, bit-packing next, dictionary adds
#: one indirection but smaller codes); plain is the 1.0 baseline.
SCAN_COST_FACTOR = {
    "plain": 1.0,
    "bitpack": 0.7,
    "dictionary": 0.85,
    "rle": 0.55,
}

#: Relative per-row seal (encode) cost: building dictionaries and run
#: boundaries is costlier than memcpy — the maintenance price that
#: erodes compressed layouts under update-heavy mixes (HAP's trade-off).
SEAL_COST_FACTOR = {
    "plain": 1.0,
    "bitpack": 1.15,
    "dictionary": 1.8,
    "rle": 1.3,
}


@dataclass(frozen=True)
class ZoneMap:
    """Per-column pruning metadata for one sealed segment.

    ``min``/``max`` reflect what the *mask* path sees: raw extrema for
    integer columns (NULL sentinels included — ``predicate.mask``
    compares the sentinel value itself), NaN-excluded extrema for float
    columns (comparisons with NaN are always False, so skipping NaN is
    conservative), and sorted-dictionary endpoints for dictionary-coded
    object columns.  ``None`` min/max means "no usable bound".

    ``null_count`` counts NULL cells (sentinel/NaN/None) and
    ``distinct_hint`` is a codec-derived cardinality upper bound
    (dictionary size, or RLE run count) for selectivity estimation.

    Iterating yields ``(min, max)`` — the historical tuple shape.
    """

    min: Any
    max: Any
    null_count: int = 0
    distinct_hint: int | None = None

    def __iter__(self) -> Iterator[Any]:
        yield self.min
        yield self.max


def build_zone_map(arr: np.ndarray, encoding: Encoding) -> ZoneMap | None:
    """Zone map for one sealed column array (None when unusable)."""
    n = len(arr)
    if n == 0:
        return None
    if isinstance(encoding, DictionaryEncoding):
        distinct: int | None = encoding.cardinality()
    elif isinstance(encoding, RunLengthEncoding):
        distinct = encoding.n_runs()  # upper bound: runs >= distinct values
    else:
        distinct = None
    if arr.dtype == object:
        null_count = int(
            np.frompyfunc(lambda v: v is None, 1, 1)(arr).astype(bool).sum()
        )
        zmin = zmax = None
        if isinstance(encoding, DictionaryEncoding) and encoding.cardinality():
            # The sorted dictionary gives exact extrema for free; plain
            # object columns stay unbounded (a Python-level min/max
            # pass is not worth the seal-time cost).
            zmin = encoding.dictionary[0]
            zmax = encoding.dictionary[-1]
        if zmin is None and null_count < n:
            return (
                ZoneMap(None, None, null_count, distinct) if null_count else None
            )
        return ZoneMap(zmin, zmax, null_count, distinct)
    if arr.dtype.kind == "f":
        null_count = int(np.isnan(arr).sum())
        if null_count == n:
            return ZoneMap(None, None, null_count, distinct)
        return ZoneMap(
            float(np.nanmin(arr)), float(np.nanmax(arr)), null_count, distinct
        )
    null_count = (
        int(np.count_nonzero(arr == NULL_INT)) if arr.dtype.kind == "i" else 0
    )
    return ZoneMap(arr.min().item(), arr.max().item(), null_count, distinct)


def zones_may_match(
    zone_maps: dict[str, ZoneMap], n_rows: int, predicate: Predicate
) -> bool:
    """Zone-map check: can any of ``n_rows`` satisfy the predicate?

    Conservative by construction: a unit is skipped only when the
    predicate's extracted bounds provably exclude every value the mask
    path would see — including the all-NULL case, where a bounded
    predicate cannot match (NULL comparisons are False).
    """
    for col in predicate.referenced_columns():
        bounds = column_range(predicate, col)
        if bounds is None:
            continue
        zone = zone_maps.get(col)
        if zone is None:
            continue
        if zone.min is None:
            # No usable extrema.  All-NULL columns (min is None and
            # every cell null) cannot satisfy a bounded predicate.
            if zone.null_count >= n_rows:
                return False
            continue
        low, high = bounds
        try:
            if low is not None and zone.max < low:
                return False
            if high is not None and zone.min > high:
                return False
        except TypeError:
            # Bound incomparable with the zone's type: no pruning.
            continue
    return True


@dataclass
class Segment:
    """One sealed, immutable batch of rows in columnar form."""

    segment_id: int
    n_rows: int
    encodings: dict[str, Encoding]
    keys: list[Key]
    zone_maps: dict[str, ZoneMap]
    delete_mask: np.ndarray          # True = row is dead
    max_commit_ts: Timestamp
    #: Number of set bits in ``delete_mask``, maintained by the delete
    #: paths so per-scan liveness checks never re-sum the mask.
    dead_count: int = 0
    #: The rows as tuples, decoded on the first point read
    #: (:meth:`ColumnStore.get_row`).  Sealed encodings never change —
    #: only ``delete_mask`` does — so they stay right.
    rows: list[Row] | None = field(default=None, repr=False, compare=False)

    def live_count(self) -> int:
        return self.n_rows - self.dead_count

    def size_bytes(self) -> int:
        return sum(enc.size_bytes() for enc in self.encodings.values())

    def may_match(self, predicate: Predicate, schema: Schema) -> bool:
        """Zone-map check: can any row here satisfy the predicate?"""
        return zones_may_match(self.zone_maps, self.n_rows, predicate)


@dataclass
class ColumnScanResult:
    """Arrays for the requested columns plus the matching keys.

    ``keys`` is ``None`` when the scan ran with ``with_keys=False``
    (pure columnar consumers like the executor never touch them) — no
    key list is ever allocated on that path — so ``len`` falls back to
    the array length.
    """

    arrays: dict[str, np.ndarray]
    keys: list[Key] | None = None
    segments_scanned: int = 0
    segments_pruned: int = 0
    code_space_filters: int = 0
    #: segment id -> (first output row, surviving positions or None for
    #: "all of them") — how :meth:`ColumnStore.rows_of` finds a key.
    spans: dict[int, tuple[int, np.ndarray | None]] = field(default_factory=dict)

    def __len__(self) -> int:
        if self.keys is not None:
            return len(self.keys)
        for arr in self.arrays.values():
            return len(arr)
        return 0


@dataclass
class _SegmentPartial:
    """One segment's contribution to a scan.

    Simulated work is carried as ``(per-value rate, value count)``
    pairs: the scan sums the integer counts per rate over all segments
    and prices each rate once.  ``arrays`` values are ndarrays, or
    :class:`CodeColumn` parts when the scan hands codes across the
    boundary (``encode=True``).
    """

    arrays: dict[str, object] | None  # None: no surviving rows
    keys: Sequence[Key] | None
    charges: tuple[tuple[float, int], ...]
    code_space_filters: int
    positions: np.ndarray | None = None  # None: every row survived


def seal_segment(
    schema: Schema,
    arrays: dict[str, np.ndarray],
    keys: Sequence[Key],
    commit_ts: Timestamp,
    segment_id: int = 0,
    encode: Callable[[np.ndarray], Encoding] = choose_encoding,
) -> Segment:
    """Encode pre-pivoted column ``arrays`` into one sealed segment with
    its zone maps.  Uncharged: what sealing a row costs is the caller's
    to charge."""
    n = len(keys)
    encodings: dict[str, Encoding] = {}
    zone_maps: dict[str, ZoneMap] = {}
    for col in schema.columns:
        arr = np.asarray(arrays[col.name])
        if len(arr) != n:
            raise StorageError(
                f"column {col.name!r} has {len(arr)} values for {n} keys"
            )
        encodings[col.name] = encode(arr)
        zone = build_zone_map(arr, encodings[col.name])
        if zone is not None:
            zone_maps[col.name] = zone
    return Segment(
        segment_id=segment_id,
        n_rows=n,
        encodings=encodings,
        keys=list(keys),
        zone_maps=zone_maps,
        delete_mask=np.zeros(n, dtype=bool),
        max_commit_ts=commit_ts,
    )


def scan_segment(
    segment: Segment,
    cost: CostModel,
    wanted: list[str],
    predicate: Predicate,
    with_keys: bool,
    encode_cols: frozenset[str],
    scan_factors: Mapping[str, float],
) -> _SegmentPartial:
    """One segment's filter + gather; charges are reported, not settled
    — the caller prices them.  When every row survives the arrays (and
    ``keys``) are the segment's own buffers: a caller that hands them
    out copies them first."""
    data = EncodedColumns(
        segment.encodings,
        segment.n_rows,
        cost.column_scan_per_value_us,
        cost.code_filter_per_value_us,
        scan_factors,
        cost.code_gather_per_value_us,
    )
    mask = predicate_mask(predicate, data) & ~segment.delete_mask
    if not mask.any():
        return _SegmentPartial(
            None, None, data.charge_items(), data.code_space_filters
        )
    if mask.all():
        arrays = {
            name: (
                CodeColumn(data.codes(name), data.encoding(name).dictionary)
                if name in encode_cols
                else data.array(name)
            )
            for name in wanted
        }
        return _SegmentPartial(
            arrays,
            segment.keys if with_keys else None,
            data.charge_items(),
            data.code_space_filters,
        )
    positions = np.flatnonzero(mask)
    arrays = {
        name: (
            CodeColumn(
                data.codes(name, positions), data.encoding(name).dictionary
            )
            if name in encode_cols
            else data.gather(name, positions)
        )
        for name in wanted
    }
    keys = [segment.keys[p] for p in positions] if with_keys else None
    return _SegmentPartial(
        arrays, keys, data.charge_items(), data.code_space_filters, positions
    )


def encodable_columns(wanted: list[str], segments: list[Segment]) -> frozenset[str]:
    """Wanted columns every one of ``segments`` can serve as codes.

    All-or-nothing per column and decided before any segment is read —
    a fixed representation regardless of which segments end up empty.
    """
    if not segments:
        return frozenset()
    return frozenset(
        name
        for name in wanted
        if all(
            isinstance(seg.encodings.get(name), DictionaryEncoding)
            and seg.encodings[name].code_space_safe()
            for seg in segments
        )
    )


def encoded_column_fraction(columns: Sequence[str], segments: list[Segment]) -> float:
    """Fraction of ``columns`` servable as dictionary codes across
    ``segments`` — the planner's code-space hint (a planning estimate:
    no simulated charge)."""
    cols = list(columns)
    if not cols:
        return 0.0
    return len(encodable_columns(cols, segments)) / len(cols)


def pruned_row_fraction(segments: list[Segment], predicate: Predicate) -> float:
    """Fraction of the rows of ``segments`` in segments zone maps would
    prune.

    A planning-time estimate (no simulated charge): the optimizer
    discounts the column-scan price by this fraction, which is how
    zone-map pruning becomes visible to access-path choice.
    """
    total = sum(seg.n_rows for seg in segments)
    if total == 0:
        return 0.0
    pruned = sum(
        seg.n_rows
        for seg in segments
        if not zones_may_match(seg.zone_maps, seg.n_rows, predicate)
    )
    return pruned / total


class ColumnStore:
    """Segmented columnar table with pk-addressed deletes."""

    def __init__(
        self,
        schema: Schema,
        cost: CostModel | None = None,
        forced_encoding: str | None = None,
    ):
        self.schema = schema
        self._cost = cost or CostModel()
        self._forced_encoding = forced_encoding
        self._segments: list[Segment] = []
        self._locations: dict[Key, tuple[int, int]] = {}  # key -> (segment_id, pos)
        self._segment_by_id: dict[int, Segment] = {}
        self._next_segment_id = 0
        self._max_commit_ts: Timestamp = 0
        #: Monotone write-version: bumped on any operation that can change
        #: what a scan returns (seal/delete/compact).  Scan caches key on it.
        self.mutations = 0
        #: Store-level zone index: per-column (min, max) over every
        #: sealed segment, widened on append and rebuilt on compact.
        #: Lets planners bound a predicate against the whole table in
        #: O(1) and backs :meth:`table_range`.
        self._zone_ranges: dict[str, tuple] = {}
        reg = get_registry()
        self._scanned_counter = reg.counter("scan.segments_scanned")
        self._pruned_counter = reg.counter("scan.segments_pruned")
        self._code_filter_counter = reg.counter("scan.code_space_filters")

    # ------------------------------------------------------------- metadata

    def __len__(self) -> int:
        return sum(seg.live_count() for seg in self._segments)

    @property
    def segments(self) -> list[Segment]:
        return self._segments

    def segment_count(self) -> int:
        return len(self._segments)

    def memory_bytes(self, columns: list[str] | None = None) -> int:
        """Encoded footprint; restrict to ``columns`` when the caller
        only keeps a subset resident (column selection)."""
        if columns is None:
            return sum(seg.size_bytes() for seg in self._segments)
        wanted = set(columns)
        return sum(
            enc.size_bytes()
            for seg in self._segments
            for name, enc in seg.encodings.items()
            if name in wanted
        )

    def max_commit_ts(self) -> Timestamp:
        """Commit timestamp of the freshest data in the store."""
        return self._max_commit_ts

    def contains_key(self, key: Key) -> bool:
        return key in self._locations

    # ------------------------------------------------------------- writes

    def append_rows(self, rows: Sequence[Row], commit_ts: Timestamp) -> Segment:
        """Validate and pivot ``rows``, then seal them via :meth:`append_batch`."""
        if not rows:
            raise StorageError("cannot seal an empty segment")
        validated = [self.schema.validate_row(r) for r in rows]
        key_of = self.schema.key_of
        return self.append_batch(
            rows_to_columns(self.schema, validated),
            [key_of(r) for r in validated],
            commit_ts,
        )

    def append_batch(
        self,
        arrays: dict[str, np.ndarray],
        keys: Sequence[Key],
        commit_ts: Timestamp,
    ) -> Segment:
        """Seal pre-pivoted column ``arrays`` into one segment — the one
        way rows land in a column image.

        Callers supply already-encoded cell arrays (e.g. from
        ``rows_to_columns`` or a prior scan) plus the matching key list.
        A key already in the store is upserted: its old position is
        deleted.  A key repeated *within* the batch is rejected before
        any state changes — the pk directory could only address one of
        the copies.
        """
        n = len(keys)
        if n == 0:
            raise StorageError("cannot seal an empty segment")
        sid = self._next_segment_id
        # The batch's directory entries; a repeated key collapses one.
        located = dict(zip(keys, zip(repeat(sid), range(n))))
        if len(located) != n:
            raise StorageError("batch repeats a primary key")
        self.mutations += 1
        self._delete_positions(located)  # the keys already stored go stale
        segment = seal_segment(
            self.schema, arrays, keys, commit_ts, sid, self._encode_column
        )
        self._widen_zone_index(segment.zone_maps)
        self._next_segment_id += 1
        self._segments.append(segment)
        self._segment_by_id[sid] = segment
        self._locations.update(located)
        self._max_commit_ts = max(self._max_commit_ts, commit_ts)
        seal_factor = sum(
            SEAL_COST_FACTOR.get(enc.name, 1.0) for enc in segment.encodings.values()
        ) / max(len(segment.encodings), 1)
        self._cost.charge_rows(self._cost.segment_seal_per_row_us * seal_factor, n)
        return segment

    def _encode_column(self, arr: np.ndarray) -> Encoding:
        if self._forced_encoding is not None:
            from .compression import PlainEncoding, encoding_for_name

            try:
                return encoding_for_name(self._forced_encoding, arr)
            except (ValueError, TypeError):
                # Codec inapplicable to this dtype (e.g. bit-packing
                # strings): store plainly rather than failing the seal.
                return PlainEncoding(data=arr)
        return choose_encoding(arr)

    def _widen_zone_index(self, zone_maps: dict[str, ZoneMap]) -> None:
        """Fold a new segment's zone maps into the store-level index.

        Only called from the sealing paths (which bump ``mutations``);
        deletes leave the index conservatively wide and ``compact``
        rebuilds it from scratch.
        """
        for name, zone in zone_maps.items():
            if zone.min is None:
                continue
            current = self._zone_ranges.get(name)
            if current is None:
                self._zone_ranges[name] = (zone.min, zone.max)
                continue
            lo, hi = current
            try:
                self._zone_ranges[name] = (
                    min(lo, zone.min), max(hi, zone.max)
                )
            except TypeError:  # mixed incomparable types across segments
                self._zone_ranges.pop(name, None)

    def _delete_positions(self, keys: Iterable[Key]) -> int:
        """Flip delete bits without bumping the write version: hits are
        grouped per segment and land as one fancy-indexed assignment."""
        if not self._locations:
            return 0
        by_segment: dict[int, list[int]] = {}
        pop = self._locations.pop
        for key in keys:
            loc = pop(key, None)
            if loc is None:
                continue
            by_segment.setdefault(loc[0], []).append(loc[1])
        hit = 0
        for segment_id, positions in by_segment.items():
            segment = self._segment_by_id[segment_id]
            segment.delete_mask[np.asarray(positions, dtype=np.int64)] = True
            segment.dead_count += len(positions)
            hit += len(positions)
        return hit

    def delete_keys(self, keys: Iterable[Key]) -> int:
        """Flip delete bits for ``keys``; returns how many were present."""
        self.mutations += 1
        return self._delete_positions(keys)

    delete_batch = delete_keys  # the name the batch mergers use

    def fold(self, collapsed: CollapseResult, commit_ts: Timestamp) -> int:
        """Land one collapsed delta batch — the step every synchronizer
        ends in: tombstoned keys leave, the newest image of every live
        key is sealed as one segment (:meth:`append_batch` upserts over
        older positions), and the freshness horizon advances to
        ``commit_ts`` even when only deletes arrived.  Returns the live
        row count; what a merged row costs is the caller's to charge.
        """
        if collapsed.tombstones:
            self.delete_batch(collapsed.tombstones)
        if collapsed.live_keys:
            arrays = rows_to_columns(self.schema, collapsed.live_rows)
            self.append_batch(arrays, collapsed.live_keys, commit_ts)
        self.advance_sync_ts(commit_ts)
        return len(collapsed.live_keys)

    def advance_sync_ts(self, commit_ts: Timestamp) -> None:  # htaplint: ignore[HTL002] -- moves only the freshness watermark; scan results are unchanged and no cache token includes _max_commit_ts
        """Record that the store reflects all commits up to ``commit_ts``.

        Called by synchronizers after merging a delta batch that may
        contain only deletes (which create no new segment).
        """
        self._max_commit_ts = max(self._max_commit_ts, commit_ts)

    # ------------------------------------------------------------- reads

    def get_row(self, key: Key) -> Row | None:
        """Point lookup by primary key (materializes one row).

        Deliberately priced above a row-store probe: reconstruction
        gathers one value per column (k cache misses vs the row store's
        one) — the read-amplification that makes pure column stores a
        poor OLTP primary (Table 1, architecture (d)).  The Python work
        is a segment's one decode per column on its first point read
        (:attr:`Segment.rows`), then one index.
        """
        self._cost.charge(self._cost.row_point_read_us * 0.5)  # pk directory probe
        loc = self._locations.get(key)
        if loc is None:
            return None
        segment_id, pos = loc
        segment = self._segment_by_id[segment_id]
        self._cost.charge(self._cost.column_materialize_per_row_us * len(self.schema))
        if segment.rows is None:
            segment.rows = list(zip(*[
                column_cells(segment.encodings[name].decode(), decode)
                for name, decode in self.schema.decoders.items()
            ]))
        return segment.rows[pos]

    def scan(
        self,
        columns: Sequence[str] | None = None,
        predicate: Predicate = ALWAYS_TRUE,
        with_keys: bool = True,
        *,
        encode: bool = False,
    ) -> ColumnScanResult:
        """Predicate-aware scan: prune, filter encoded, gather survivors.

        Per segment: zone maps prune first; the predicate then runs in
        code/run space where the codec allows (decoding a column only
        when it must); output columns are gathered at surviving
        positions only.  ``with_keys=False`` never allocates the key
        list.

        ``encode=True`` keeps output columns *encoded* across the scan
        boundary: a wanted column whose every surviving segment carries
        a code-space-safe sorted dictionary is returned as a
        :class:`CodeColumn` (codes gathered at surviving positions, one
        merged dictionary — cross-segment dictionaries union-remap at
        the merge), so joins/GROUP BY/DISTINCT downstream can run on
        codes and defer materialization to result emit.

        Simulated cost settles once per scan: each segment reports
        (rate, value-count) charge pairs, the integer counts are summed
        per rate, and each rate is priced once.
        """
        wanted = list(columns) if columns is not None else self.schema.column_names
        for name in wanted:
            self.schema.index_of(name)  # validate
        # Snapshot the segment list: appends triggered mid-scan by this
        # scan's own predicate never change what it returns.
        live = self._live_segments()
        survivors: list[Segment] = []
        pruned = 0
        charge = 0.0
        for segment in live:
            charge += self._cost.zone_map_check_us
            if segment.may_match(predicate, self.schema):
                survivors.append(segment)
            else:
                pruned += 1
        encode_cols = encodable_columns(wanted, survivors) if encode else frozenset()
        out_arrays: dict[str, list] = {name: [] for name in wanted}
        out_keys: list[Key] | None = [] if with_keys else None
        code_filters = 0
        rate_counts: dict[float, int] = {}
        spans: dict[int, tuple[int, np.ndarray | None]] = {}
        n_out = 0
        for segment in survivors:
            part = scan_segment(
                segment, self._cost, wanted, predicate, with_keys, encode_cols,
                SCAN_COST_FACTOR,
            )
            for rate, count in part.charges:
                rate_counts[rate] = rate_counts.get(rate, 0) + count
            code_filters += part.code_space_filters
            if part.arrays is None:
                continue
            spans[segment.segment_id] = (n_out, part.positions)
            n_out += (
                segment.n_rows if part.positions is None else len(part.positions)
            )
            for name in wanted:
                out_arrays[name].append(part.arrays[name])
            if out_keys is not None:
                out_keys.extend(part.keys)
        final: dict[str, object] = {}
        remapped = 0
        for name, parts in out_arrays.items():
            if not parts:
                final[name] = np.array(
                    [], dtype=self.schema.column(name).dtype.numpy_dtype
                )
            elif name in encode_cols:
                column, n_remap = concat_code_parts(
                    [(p.codes, p.dictionary) for p in parts]
                )
                final[name] = column
                remapped += n_remap
            else:
                final[name] = np.concatenate(parts)
        for rate, count in rate_counts.items():
            charge += rate * count
        if remapped:
            charge += self._cost.code_remap_per_value_us * remapped
        self._cost.charge(charge)
        scanned = len(survivors)
        if scanned:
            self._scanned_counter.inc(scanned)
        if pruned:
            self._pruned_counter.inc(pruned)
        if code_filters:
            self._code_filter_counter.inc(code_filters)
        return ColumnScanResult(
            arrays=final,
            keys=out_keys,
            segments_scanned=scanned,
            segments_pruned=pruned,
            code_space_filters=code_filters,
            spans=spans,
        )

    def rows_of(self, result: ColumnScanResult, keys: Iterable[Key]) -> list[int]:
        """Output rows of ``result`` — a scan of this store as it stands
        — that hold ``keys``: one directory probe per key, so dropping
        a delta's keys from a scan costs the delta, not the table."""
        rows: list[int] = []
        locate = self._locations.get
        for key in keys:
            loc = locate(key)
            span = result.spans.get(loc[0]) if loc is not None else None
            if span is None:
                continue  # absent, deleted, or in a pruned / empty segment
            first, positions = span
            if positions is None:
                rows.append(first + loc[1])
                continue
            i = int(positions.searchsorted(loc[1]))
            if i < len(positions) and positions[i] == loc[1]:
                rows.append(first + i)
        return rows

    def _live_segments(self) -> list[Segment]:
        return [seg for seg in self._segments if seg.live_count() > 0]

    def encoded_column_fraction(self, columns: Sequence[str]) -> float:
        """:func:`encoded_column_fraction` over every live segment."""
        return encoded_column_fraction(columns, self._live_segments())

    # ------------------------------------------------------- pruning estimates

    def table_range(self, column: str) -> tuple | None:
        """Store-level (min, max) over every sealed segment, or None."""
        return self._zone_ranges.get(column)

    def pruned_row_fraction(self, predicate: Predicate) -> float:
        """:func:`pruned_row_fraction` over every live segment."""
        return pruned_row_fraction(self._live_segments(), predicate)

    def all_rows(self) -> list[Row]:
        """Materialize every live row (test/verification helper)."""
        result = self.scan()
        self._cost.charge_rows(self._cost.column_materialize_per_row_us, len(result.keys))
        return columns_to_rows(self.schema, result.arrays)

    # ------------------------------------------------------------- maintenance

    def dead_fraction(self) -> float:
        total = sum(seg.n_rows for seg in self._segments)
        if total == 0:
            return 0.0
        dead = sum(seg.dead_count for seg in self._segments)
        return dead / total

    def compact(self) -> None:
        """Rewrite all live rows into a single fresh segment.

        The survivors move as whole column arrays (scan → reset →
        :meth:`append_batch`), charged one materialize per row plus the
        seal.
        """
        self.mutations += 1
        max_ts = self._max_commit_ts
        result = self.scan(with_keys=True)
        n = len(result.keys)
        self._cost.charge_rows(self._cost.column_materialize_per_row_us, n)
        self._segments.clear()
        self._segment_by_id.clear()
        self._locations.clear()
        self._zone_ranges.clear()  # rebuilt by the re-seal below
        if n:
            self.append_batch(result.arrays, result.keys, commit_ts=max_ts)
        self._max_commit_ts = max_ts
