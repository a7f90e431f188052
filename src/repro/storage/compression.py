"""Columnar compression codecs.

The survey's column stores all compress their main data (dictionary
encoding in HANA, IMCU compression in Oracle, RLE everywhere).  We
implement the three classics plus plain storage, with a heuristic
chooser.  Every codec decodes to values that compare equal to its input
(property-tested), though dictionary and RLE keep one representative of
equal floats: a FLOAT64 ``-0.0`` or NaN payload may not survive.  Each
reports its encoded size so the benches can measure memory footprints.

Row-granular access gathers positions: ``take(positions)`` reads the
cells asked for without materializing the column, so a delta overlay
on a column image costs the rows it touches.  The base class has no
decode-then-index default — a codec that inherited one would hide a
whole-column decode behind every gather.  A point read by key decodes
its segment once and keeps its rows (``ColumnStore.get_row``).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np


def _object_bytes(data: np.ndarray) -> int:
    """Footprint estimate for object columns: payload length + 8 bytes
    of pointer per cell.  ``map(len, ...)`` covers the all-string case
    at C speed; anything else falls back to stringification."""
    try:
        return int(sum(map(len, data))) + 8 * len(data)
    except TypeError:
        return int(sum(len(str(v)) + 8 for v in data))


def dictionary_encode(values: np.ndarray, dtype) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` for an object array:
    the sorted distinct values and each cell's position among them, as
    ``dtype``.  ``np.unique`` on objects argsorts with Python-level
    comparisons; a set + dict lookup builds the same dictionary and
    codes in one linear pass.  Incomparable mixed types fall back to
    ``np.unique`` (and its error)."""
    cells = values.tolist()
    try:
        ordered = sorted(set(cells))
    except TypeError:
        dictionary, codes = np.unique(values, return_inverse=True)
        return dictionary, codes.astype(dtype)
    code_of = {v: i for i, v in enumerate(ordered)}
    codes = np.fromiter(map(code_of.__getitem__, cells), dtype=dtype, count=len(cells))
    return np.array(ordered, dtype=object), codes


class Encoding:
    """A sealed, immutable encoded column segment."""

    name: str = "base"

    def __len__(self) -> int:
        raise NotImplementedError

    def decode(self) -> np.ndarray:
        """Materialize the full column as a NumPy array."""
        raise NotImplementedError

    def size_bytes(self) -> int:
        """Approximate encoded footprint in bytes."""
        raise NotImplementedError

    def take(self, positions: np.ndarray) -> np.ndarray:
        """Gather the values at ``positions`` (``decode()[positions]``)."""
        raise NotImplementedError


@dataclass
class PlainEncoding(Encoding):
    """Raw array storage; the fallback for incompressible data."""

    data: np.ndarray
    name = "plain"

    @classmethod
    def encode(cls, values: np.ndarray) -> "PlainEncoding":
        return cls(data=values)

    def __len__(self) -> int:
        return len(self.data)

    def decode(self) -> np.ndarray:
        # Zero-copy, but sealed: decode() results feed kernels that
        # must never write back into the stored segment.
        view = self.data.view()
        view.flags.writeable = False
        return view

    def size_bytes(self) -> int:
        if self.data.dtype == object:
            return _object_bytes(self.data)
        return int(self.data.nbytes)

    def take(self, positions: np.ndarray) -> np.ndarray:
        return self.data[positions]


@dataclass
class DictionaryEncoding(Encoding):
    """Sorted dictionary + integer codes — HANA's main-store format.

    The dictionary is kept sorted so that merges can be performed as
    the "dictionary-encoded sorting merge" of §2.2(3) and so range
    predicates can be answered on codes.
    """

    dictionary: np.ndarray   # sorted unique values
    codes: np.ndarray        # int32 positions into the dictionary
    name = "dictionary"

    @classmethod
    def encode(cls, values: np.ndarray) -> "DictionaryEncoding":
        if values.dtype == object:
            dictionary, codes = dictionary_encode(values, np.int32)
            return cls(dictionary=dictionary, codes=codes)
        dictionary, codes = np.unique(values, return_inverse=True)
        return cls(dictionary=dictionary, codes=codes.astype(np.int32))

    def __len__(self) -> int:
        return len(self.codes)

    def decode(self) -> np.ndarray:
        return self.dictionary[self.codes]

    def size_bytes(self) -> int:
        if self.dictionary.dtype == object:
            dict_bytes = _object_bytes(self.dictionary)
        else:
            dict_bytes = int(self.dictionary.nbytes)
        return dict_bytes + int(self.codes.nbytes)

    def take(self, positions: np.ndarray) -> np.ndarray:
        return self.dictionary[self.codes[positions]]

    def cardinality(self) -> int:
        return len(self.dictionary)

    # --------------------------------------------------- code-space predicates
    #
    # The dictionary is sorted, so codes order exactly like values and
    # value comparisons rewrite to integer comparisons on the codes —
    # filters run on the encoded segment without decompressing it.

    def code_space_safe(self) -> bool:
        """Whether code-space evaluation is exact for this dictionary.

        NaN sorts to the end of the dictionary but compares False to
        everything, so range rewrites would wrongly include NaN rows;
        callers must fall back to decoded evaluation in that case.
        """
        d = self.dictionary
        return not (d.dtype.kind == "f" and bool(np.isnan(d).any()))

    def code_cut(self, value, side: str) -> int:
        """The code-space boundary for ``value`` (``np.searchsorted``).

        May raise TypeError for values incomparable with the dictionary
        dtype — callers treat that as "not evaluable in code space".
        """
        return int(np.searchsorted(self.dictionary, value, side=side))

    def code_for(self, value) -> int | None:
        """The exact code of ``value``, or None when absent."""
        i = self.code_cut(value, "left")
        if i < len(self.dictionary) and bool(self.dictionary[i] == value):
            return i
        return None

    def codes_for_values(self, values) -> np.ndarray:
        """Codes of the ``values`` present in the dictionary.

        Values are coerced to the dictionary dtype first — the same
        cast ``np.isin`` applies on decoded data, so IN-list semantics
        match the decoded path exactly.
        """
        vals = np.asarray(list(values), dtype=self.dictionary.dtype)
        if len(vals) == 0 or len(self.dictionary) == 0:
            return np.array([], dtype=np.int32)
        idx = np.searchsorted(self.dictionary, vals, side="left")
        idx = np.minimum(idx, len(self.dictionary) - 1)
        present = np.asarray(self.dictionary[idx] == vals, dtype=bool)
        return idx[present].astype(np.int32)


@dataclass
class RunLengthEncoding(Encoding):
    """(value, run length) pairs; wins on sorted or low-churn columns."""

    values: np.ndarray
    run_ends: np.ndarray  # cumulative ends, run i covers [run_ends[i-1], run_ends[i])
    name = "rle"

    @classmethod
    def encode(cls, values: np.ndarray) -> "RunLengthEncoding":
        if len(values) == 0:
            return cls(values=values[:0], run_ends=np.array([], dtype=np.int64))
        if values.dtype == object:
            change = np.array(
                [True, *(values[i] != values[i - 1] for i in range(1, len(values)))]
            )
        else:
            change = np.empty(len(values), dtype=bool)
            change[0] = True
            np.not_equal(values[1:], values[:-1], out=change[1:])
        starts = np.flatnonzero(change)
        run_values = values[starts]
        run_ends = np.append(starts[1:], len(values)).astype(np.int64)
        return cls(values=run_values, run_ends=run_ends)

    def __post_init__(self) -> None:
        # A sealed segment never changes: the run lengths every scan
        # repeats over are computed once, here.
        self._lengths = np.diff(self.run_ends, prepend=0)

    def __len__(self) -> int:
        return int(self.run_ends[-1]) if len(self.run_ends) else 0

    def lengths(self) -> np.ndarray:
        """Per-run lengths; with :attr:`values` this is enough to
        evaluate a predicate per *run* and ``np.repeat`` the run mask —
        run-space filtering without materializing the column."""
        return self._lengths

    def decode(self) -> np.ndarray:
        return np.repeat(self.values, self._lengths)

    def take(self, positions: np.ndarray) -> np.ndarray:
        """A few positions bisect the run ends; a dense gather (more
        than 1 in 16 rows) is cheaper through one ``np.repeat``."""
        if 16 * len(positions) > len(self):
            return self.decode()[positions]
        return self.values[self.run_ends.searchsorted(positions, side="right")]

    def size_bytes(self) -> int:
        if self.values.dtype == object:
            value_bytes = int(sum(len(str(v)) + 8 for v in self.values))
        else:
            value_bytes = int(self.values.nbytes)
        return value_bytes + int(self.run_ends.nbytes)

    def n_runs(self) -> int:
        return len(self.values)


@dataclass
class BitPackedEncoding(Encoding):
    """Frame-of-reference + narrow dtype for small-range integers."""

    base: int
    offsets: np.ndarray
    name = "bitpack"

    @classmethod
    def encode(cls, values: np.ndarray) -> "BitPackedEncoding":
        if values.dtype.kind not in "iu":  # offsets would truncate floats
            raise TypeError(f"bit-packing needs integers, not {values.dtype}")
        if len(values) == 0:
            return cls(base=0, offsets=np.array([], dtype=np.uint8))
        base = int(values.min())
        span = int(values.max()) - base
        return cls(base=base, offsets=(values - base).astype(_offset_dtype(span)))

    def __len__(self) -> int:
        return len(self.offsets)

    def decode(self) -> np.ndarray:
        return self.offsets.astype(np.int64) + self.base

    def size_bytes(self) -> int:
        return int(self.offsets.nbytes) + 8

    def take(self, positions: np.ndarray) -> np.ndarray:
        return self.offsets[positions].astype(np.int64) + self.base


def _offset_dtype(span: int) -> np.dtype:
    """The narrowest unsigned dtype holding offsets ``0..span``."""
    return np.min_scalar_type(span)


def choose_encoding(values: np.ndarray) -> Encoding:
    """Pick the cheapest codec for ``values`` by estimated size.

    Mirrors what real column stores do at segment-seal time: strings
    get dictionaries when repetitive, integers get FOR/bit-packing,
    runs get RLE, everything else stays plain.

    A fixed-width column sizes every candidate by its ``size_bytes``
    formula and builds only the winner (of equal sizes, the earliest of
    plain, bit-packed, RLE, dictionary); the distinct count, a sort, is
    taken only when a dictionary could still win.
    """
    n = len(values)
    if n == 0:
        return PlainEncoding(data=values)
    if values.dtype == object:
        candidates: list[Encoding] = [PlainEncoding(data=values)]
        unique = len(set(values.tolist()))
        if unique <= max(1, n // 2):
            try:
                candidates.append(DictionaryEncoding.encode(values))
            except TypeError:
                pass  # NULL (None) beside strings: no sorted dictionary
        return min(candidates, key=lambda e: e.size_bytes())
    itemsize = values.dtype.itemsize
    codec, size = PlainEncoding, int(values.nbytes)
    if np.issubdtype(values.dtype, np.integer):
        span = int(values.max()) - int(values.min())
        packed = n * _offset_dtype(span).itemsize + 8
        if packed < size:
            codec, size = BitPackedEncoding, packed
    n_runs = 1 + int(np.count_nonzero(values[1:] != values[:-1]))
    if n_runs <= n // 3 and n_runs * (itemsize + 8) < size:
        codec, size = RunLengthEncoding, n_runs * (itemsize + 8)
    if 4 * n + itemsize < size:  # the least a dictionary can cost
        distinct = len(np.unique(values))
        if distinct <= n // 4 and distinct * itemsize + 4 * n < size:
            codec = DictionaryEncoding
    return codec.encode(values)


_CODECS = {
    codec.name: codec
    for codec in (PlainEncoding, DictionaryEncoding, RunLengthEncoding, BitPackedEncoding)
}


def encoding_for_name(name: str, values: np.ndarray) -> Encoding:
    """Force a specific codec; used by ablation benches."""
    if name not in _CODECS:
        raise ValueError(f"unknown encoding {name!r}")
    return _CODECS[name].encode(values)
