"""Dictionary-code batches for compressed execution past the scan.

PR 5 stopped decoding *inside* the scan (code-space predicates, late
materialization of surviving positions) but still handed the executor
fully decoded arrays.  This module is the currency that lets encoded
data cross the scan boundary: a :class:`CodeColumn` pairs int32/int64
codes with the *sorted* dictionary they index, so joins, GROUP BY and
DISTINCT run directly on the codes and values materialize only at
result emit.

Two invariants carried over from :class:`DictionaryEncoding` make the
code space exact:

* the dictionary is sorted and free of NaN (``code_space_safe``), so
  codes order exactly like values and ``code_a == code_b`` ⇔
  ``value_a == value_b`` within one dictionary;
* cross-dictionary operations (multi-segment scans, join sides built
  from different stores) first remap codes into a merged sorted
  dictionary — after which the same single-dictionary guarantees hold.

Simulated-cost discipline: helpers here never touch the shared clock.
They *report* how many codes were remapped; the caller prices that
against :attr:`CostModel.code_remap_per_value_us` in its own charging
sequence.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..common.predicate import Predicate
from ..common.types import Row, Schema, rows_to_columns
from .compression import _object_bytes


class CodeColumn:
    """An encoded column batch: integer codes into a sorted dictionary.

    Behaves enough like an ``ndarray`` for batch plumbing (``len``,
    boolean/fancy indexing, ``dtype``, ``nbytes``) that executor stages
    can carry it untouched; kernels that understand codes unwrap
    :attr:`codes` and :attr:`dictionary` directly.
    """

    __slots__ = ("codes", "dictionary")

    def __init__(self, codes: np.ndarray, dictionary: np.ndarray):
        self.codes = codes
        self.dictionary = dictionary

    def __len__(self) -> int:
        return len(self.codes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CodeColumn(n={len(self.codes)}, "
            f"cardinality={len(self.dictionary)}, dtype={self.dtype})"
        )

    @property
    def dtype(self) -> np.dtype:
        """The *decoded* dtype — what the batch looks like to results."""
        return self.dictionary.dtype

    @property
    def nbytes(self) -> int:
        if self.dictionary.dtype == object:
            dict_bytes = _object_bytes(self.dictionary)
        else:
            dict_bytes = int(self.dictionary.nbytes)
        return int(self.codes.nbytes) + dict_bytes

    def decode(self) -> np.ndarray:
        """Materialize values (the late-materialization boundary)."""
        return self.dictionary[self.codes]

    def take(self, positions) -> "CodeColumn":
        return CodeColumn(self.codes[positions], self.dictionary)

    def copy(self) -> "CodeColumn":
        """Codes the holder may write to; dictionaries are never written."""
        return CodeColumn(self.codes.copy(), self.dictionary)

    def __getitem__(self, item):
        """Array-style indexing: selections stay encoded, a scalar
        index decodes (single-cell emit)."""
        if isinstance(item, (int, np.integer)):
            return self.dictionary[int(self.codes[item])]
        return CodeColumn(self.codes[item], self.dictionary)

    def cardinality(self) -> int:
        return len(self.dictionary)


def is_code_column(value) -> bool:
    return isinstance(value, CodeColumn)


def decode_column(value):
    """``value`` decoded if it is a :class:`CodeColumn`, else as-is."""
    return value.decode() if isinstance(value, CodeColumn) else value


def _merge_dictionaries(dicts: list[np.ndarray]) -> np.ndarray:
    """Sorted union of already-sorted dictionaries."""
    if len(dicts) == 1:
        return dicts[0]
    first = dicts[0]
    if first.dtype == object:
        merged: set = set()
        for d in dicts:
            merged.update(d.tolist())
        return np.array(sorted(merged), dtype=object)
    return np.unique(np.concatenate(dicts))


def _remap_into(dictionary: np.ndarray, merged: np.ndarray) -> np.ndarray:
    """Code map from ``dictionary``'s code space into ``merged``'s.

    Every value of ``dictionary`` must be present in ``merged`` (it is,
    by construction of the union), so a searchsorted is exact.
    """
    return np.searchsorted(merged, dictionary).astype(np.int64)


def concat_code_parts(
    parts: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[CodeColumn, int]:
    """Concatenate per-segment ``(codes, dictionary)`` parts.

    Parts that share the dictionary *object*, and segments of a stable
    value domain that share dictionary *content*, collapse to one
    canonical dictionary and concatenate codes with zero remapping (the
    global-dictionary model: equal dictionaries define the same code
    space, so no map is applied and none is charged).  Only genuinely
    different dictionaries pay the sorted union + per-dictionary remap
    table.  Returns the merged column and how many codes were remapped
    (for cost accounting).
    """
    canon: dict[int, np.ndarray] = {}
    dicts: list[np.ndarray] = []
    for _codes, d in parts:
        if id(d) in canon:
            continue
        hit = next(
            (
                seen
                for seen in dicts
                if seen is d
                or (len(seen) == len(d) and bool(np.array_equal(seen, d)))
            ),
            None,
        )
        if hit is None:
            dicts.append(d)
            canon[id(d)] = d
        else:
            canon[id(d)] = hit
    if len(dicts) == 1:
        codes = (
            parts[0][0]
            if len(parts) == 1
            else np.concatenate([codes for codes, _ in parts])
        )
        return CodeColumn(codes, dicts[0]), 0
    merged = _merge_dictionaries(dicts)
    maps = {id(d): _remap_into(d, merged) for d in dicts}
    remapped = sum(len(codes) for codes, _ in parts)
    codes = np.concatenate(
        [maps[id(canon[id(d)])][codes] for codes, d in parts]
    )
    return CodeColumn(codes, merged), remapped


def align_build_codes(
    probe: CodeColumn, build: CodeColumn
) -> tuple[np.ndarray, np.ndarray, int]:
    """Align a join's build side into the probe side's code space.

    Shared dictionary: both code arrays are already comparable.
    Different dictionaries: build codes are remapped through the probe
    dictionary; build values absent from it become ``-1``, which can
    never match a probe code (codes are non-negative) — exactly the
    no-match semantics of the decoded join.  Returns
    ``(probe_codes, build_codes, n_remapped)``.
    """
    if probe.dictionary is build.dictionary or (
        probe.dictionary.dtype == build.dictionary.dtype
        and len(probe.dictionary) == len(build.dictionary)
        and bool(np.array_equal(probe.dictionary, build.dictionary))
    ):
        return probe.codes, build.codes, 0
    mapping = np.searchsorted(probe.dictionary, build.dictionary)
    mapping = np.minimum(mapping, max(len(probe.dictionary) - 1, 0)).astype(
        np.int64
    )
    if len(probe.dictionary):
        present = np.asarray(
            probe.dictionary[mapping] == build.dictionary, dtype=bool
        )
    else:
        present = np.zeros(len(build.dictionary), dtype=bool)
    mapping[~present] = -1
    return probe.codes, mapping[build.codes], len(build.codes)


def encode_against(
    column: CodeColumn, values: list
) -> CodeColumn | None:
    """``column`` extended with fresh ``values`` (overlay/patch rows),
    still encoded.

    The dictionary grows to the sorted union of old dictionary and new
    values; old codes remap, new values encode against the result.
    Returns None when the values cannot join the code space (None/NaN
    or incomparable types) — the caller decodes instead, which is
    always exact.
    """
    if not values:
        return column
    d = column.dictionary
    try:
        if d.dtype == object:
            if any(v is None for v in values):
                return None
            fresh = np.array(sorted(set(values)), dtype=object)
        else:
            fresh = np.asarray(values, dtype=d.dtype)
            if fresh.dtype.kind == "f" and bool(np.isnan(fresh).any()):
                return None
            fresh = np.unique(fresh)
    except (TypeError, ValueError):
        return None
    merged = _merge_dictionaries([d, fresh])
    if len(merged) == len(d):
        codes = column.codes
    else:
        codes = _remap_into(d, merged)[column.codes]
    new_codes = np.searchsorted(merged, np.asarray(values, dtype=merged.dtype))
    return CodeColumn(
        np.concatenate([codes, new_codes.astype(codes.dtype, copy=False)]),
        merged,
    )


def overlay_arrays(arrays: dict, dropped: list[int], fresh_columns: dict | None) -> dict:
    """The array half of :func:`overlay_delta`, kept encoded: drop the
    rows whose keys the delta touched, then append the delta's fresh
    rows.  ``dropped`` names those rows by output position
    (:meth:`ColumnStore.rows_of` finds them with one probe per delta
    key).  ``arrays`` may hold :class:`CodeColumn` entries; they
    stay encoded when the fresh values fit their dictionaries and fall
    back to decoded concatenation otherwise.  ``fresh_columns`` maps
    column name → the fresh rows' values as a pre-built ndarray (None:
    nothing to append).
    """
    if dropped and arrays:
        keep = np.ones(len(next(iter(arrays.values()))), dtype=bool)
        keep[dropped] = False
        arrays = {name: col[keep] for name, col in arrays.items()}
    if fresh_columns is None:
        return dict(arrays)
    out = {}
    for name, col in arrays.items():
        fresh = fresh_columns[name]
        if isinstance(col, CodeColumn):
            extended = encode_against(col, list(fresh))
            if extended is None:
                extended = np.concatenate(
                    [col.decode(), np.asarray(fresh, dtype=col.dtype)]
                )
            out[name] = extended
        else:
            out[name] = np.concatenate([col, fresh])
    return out


def overlay_delta(
    arrays: dict,
    dropped: list[int],
    live_rows: Iterable[Row],
    predicate: Predicate,
    schema: Schema,
) -> tuple[dict, list[Row]]:
    """A base columnar scan read fresh — the one overlay of all four
    architectures, which differ only in where the delta comes from.

    ``arrays`` is the base scan (its keys are the wanted columns),
    ``dropped`` the output rows whose keys the delta touched,
    ``live_rows`` the delta's newest image of every key it still holds.
    Those that satisfy ``predicate`` are appended after the surviving
    base rows.  Returns the overlaid arrays and the appended rows, in
    order, for a caller that also answers keys.
    """
    fresh = [row for row in live_rows if predicate.matches(row, schema)]
    fresh_columns = rows_to_columns(schema, fresh, list(arrays)) if fresh else None
    return overlay_arrays(arrays, dropped, fresh_columns), fresh
