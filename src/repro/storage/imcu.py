"""Oracle-style In-Memory Compression Units with Snapshot Metadata Units.

Architecture (a)'s analytical side (Oracle Database In-Memory in the
survey): the primary row store stays authoritative, while selected
tables are *populated* into columnar IMCUs.  Changes made after
population are not applied in place — the SMU merely records which keys
went stale, and queries patch those rows from the row store at scan
time.  When staleness crosses a threshold the unit is repopulated
(the survey's "rebuild from primary row store" DS technique).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.clock import Timestamp
from ..common.cost import CostModel
from ..common.predicate import ALWAYS_TRUE, Predicate
from ..common.types import Key, Row, Schema, rows_to_columns
from ..obs.registry import get_registry
from .code_batch import CodeColumn, encode_against
from .column_store import (
    ColumnScanResult,
    ZoneMap,
    build_zone_map,
    zones_may_match,
)
from .compression import DictionaryEncoding, Encoding, choose_encoding
from .row_store import MVCCRowStore
from .segment_filter import EncodedColumns, predicate_mask


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
    """One populated columnar image of a table, patched through its SMU."""

    def __init__(self, schema: Schema, row_store: MVCCRowStore, cost: CostModel):
        self.schema = schema
        self._rows = row_store
        self._cost = cost
        self._encodings: dict[str, Encoding] = {}
        self._keys: list[Key] = []
        self._position: dict[Key, int] = {}  # key -> row of the image
        self.zone_maps: dict[str, ZoneMap] = {}
        self.smu = SnapshotMetadataUnit()
        self.populations = 0
        reg = get_registry()
        self._scanned_counter = reg.counter("scan.segments_scanned")
        self._pruned_counter = reg.counter("scan.segments_pruned")
        self._code_filter_counter = reg.counter("scan.code_space_filters")

    # ------------------------------------------------------------- populate

    def populate(self, snapshot_ts: Timestamp) -> int:
        """(Re)build the unit from the row store at ``snapshot_ts``."""
        rows = self._rows.snapshot_rows(snapshot_ts)
        self._keys = [self.schema.key_of(r) for r in rows]
        self._position = dict(zip(self._keys, range(len(self._keys))))
        self._encodings = {}
        self.zone_maps = {}
        if rows:
            arrays = rows_to_columns(self.schema, rows)
            for name, arr in arrays.items():
                enc = choose_encoding(arr)
                self._encodings[name] = enc
                zone = build_zone_map(arr, enc)
                if zone is not None:
                    self.zone_maps[name] = zone
        self.smu = SnapshotMetadataUnit(populate_ts=snapshot_ts)
        self.populations += 1
        self._cost.charge_rows(self._cost.rebuild_per_row_us, max(len(rows), 1))
        return len(rows)

    @property
    def populated(self) -> bool:
        return self.populations > 0

    def populated_rows(self) -> int:
        return len(self._keys)

    def memory_bytes(self) -> int:
        return sum(e.size_bytes() for e in self._encodings.values())

    # ------------------------------------------------------------- change feed

    def on_change(self, key: Key) -> None:
        """Row-store change hook: mark the key stale (or new)."""
        self.smu.record_change(key, populated=key in self._position)

    def staleness(self) -> float:
        return self.smu.staleness(self.populated_rows())

    # ------------------------------------------------------------- scan

    def pruned_row_fraction(self, predicate: Predicate) -> float:
        """Fraction of populated rows the unit's zone maps would prune.

        All-or-nothing (the IMCU is one pruning granule); a
        planning-time estimate with no simulated charge.
        """
        n = self.populated_rows()
        if n == 0 or not self._encodings:
            return 0.0
        return 0.0 if zones_may_match(self.zone_maps, n, predicate) else 1.0

    def _encodable_columns(self, wanted: list[str]) -> frozenset:
        """Columns an encoded scan can hand off as dictionary codes."""
        out = set()
        for name in wanted:
            enc = self._encodings.get(name)
            if isinstance(enc, DictionaryEncoding) and enc.code_space_safe():
                out.add(name)
        return frozenset(out)

    def encoded_column_fraction(self, columns: list[str] | None = None) -> float:
        """Fraction of ``columns`` an encoded scan serves as codes.

        Planner hint for the code-space scan discount; estimates only,
        no simulated charge.
        """
        wanted = list(columns) if columns is not None else self.schema.column_names
        if not wanted or not self._encodings:
            return 0.0
        return len(self._encodable_columns(wanted)) / len(wanted)

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
        code space via :func:`encode_against` (decode fallback when the
        patch values are not encodable).  ``with_keys=False`` leaves
        ``keys`` None, as on :meth:`ColumnStore.scan`: a columnar
        consumer reads the arrays only.
        """
        wanted = list(columns) if columns is not None else self.schema.column_names
        n = len(self._keys)
        arrays: dict[str, np.ndarray] = {}
        out_keys: list[Key] | None = [] if with_keys else None
        scanned = pruned = code_filters = 0
        unit_matches = True
        if n and self._encodings:
            self._cost.charge(self._cost.zone_map_check_us)
            unit_matches = zones_may_match(self.zone_maps, n, predicate)
        if n and self._encodings and unit_matches:
            scanned = 1
            encode_cols = self._encodable_columns(wanted) if encode else frozenset()
            # Factors stay 1.0 here: the IMCU's per-value price never
            # varied by codec.
            data = EncodedColumns(
                self._encodings,
                n,
                self._cost.column_scan_per_value_us,
                self._cost.code_filter_per_value_us,
                {},
                self._cost.code_gather_per_value_us,
            )
            mask = predicate_mask(predicate, data)
            stale = self.smu.stale_keys
            if stale:
                # One probe per changed key; a copy, because a custom
                # predicate may hand back an array it still owns.
                mask = mask.copy()
                mask[list(map(self._position.__getitem__, stale))] = False
            positions = np.flatnonzero(mask)
            for name in wanted:
                if name in encode_cols:
                    arrays[name] = CodeColumn(
                        data.codes(name, positions), data.encoding(name).dictionary
                    )
                else:
                    arrays[name] = data.gather(name, positions)
            if with_keys:
                out_keys.extend(self._keys[p] for p in positions)
            code_filters = data.code_space_filters
            self._cost.charge(data.charge_us)
        else:
            if n and self._encodings:
                pruned = 1
            for name in wanted:
                arrays[name] = np.array(
                    [], dtype=self.schema.column(name).dtype.numpy_dtype
                )
        if scanned:
            self._scanned_counter.inc(scanned)
        if pruned:
            self._pruned_counter.inc(pruned)
        if code_filters:
            self._code_filter_counter.inc(code_filters)
        # Patch stale + brand-new keys from the row store.  Isolated mode
        # (``patch=False``) dropped the stale keys above and reads none
        # here — the scan is cheaper but the image is stale.
        patch_keys = self.smu.stale_keys | self.smu.new_keys if patch else ()
        patch_rows: list[Row] = []
        patched_keys: list[Key] = []
        for key in patch_keys:
            row = self._rows.read(key, snapshot_ts)
            if row is not None and predicate.matches(row, self.schema):
                patch_rows.append(row)
                patched_keys.append(key)
        if patch_rows:
            patch_arrays = rows_to_columns(self.schema, patch_rows, wanted)
            for name in wanted:
                current = arrays[name]
                if isinstance(current, CodeColumn):
                    extended = encode_against(current, list(patch_arrays[name]))
                    if extended is not None:
                        arrays[name] = extended
                        continue
                    current = current.decode()
                arrays[name] = np.concatenate([current, patch_arrays[name]])
            if with_keys:
                out_keys.extend(patched_keys)
        return ColumnScanResult(
            arrays=arrays,
            keys=out_keys,
            segments_scanned=scanned,
            segments_pruned=pruned,
            code_space_filters=code_filters,
        )
