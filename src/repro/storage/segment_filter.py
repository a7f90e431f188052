"""Predicate evaluation over *encoded* segments.

The survey's main-store optimization — "compressed execution" — is
evaluating filters directly on encoded data.  This module walks a
predicate tree against one sealed segment and evaluates each leaf in
the cheapest space available:

* **code space** — on a sorted :class:`DictionaryEncoding`, equality /
  range / IN rewrite to integer comparisons on the codes (the
  dictionary is sorted, so codes order like values);
* **run space** — on a :class:`RunLengthEncoding`, the leaf runs over
  the per-run values (one comparison per run, not per row) and the run
  mask is ``np.repeat``-ed out;
* **decoded** — anything else falls back to materializing the column
  once (cached) and calling the predicate's own ``mask``.

The contract is *exactness*: every rewrite produces the same boolean
mask ``predicate.mask(decoded)`` would, including NULL-sentinel, NaN,
and dtype-coercion corner cases — anything not provably exact (NaN in
a dictionary, incomparable mixed types) falls back to decoded
evaluation instead of guessing.

:class:`EncodedColumns` is the per-segment column provider.  It is
deliberately *pure with respect to shared state*: it accumulates its
simulated cost in ``charge_us`` instead of charging a shared
:class:`~repro.common.cost.CostModel`, so the scan settles one charge
on the shared clock after every segment has reported.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..common.predicate import (
    And,
    Between,
    Comparison,
    InList,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from .compression import DictionaryEncoding, Encoding, RunLengthEncoding


class EncodedColumns:
    """Lazy decoded-column cache over one segment, with cost accounting.

    Charges accumulate as ``{per-value rate: value count}`` instead of a
    running float: integer counts sum exactly across the segments of a
    scan, so the settled cost does not depend on how the rows were cut
    into segments (``rate * (a + b) == rate * n`` exactly, whereas
    ``rate*a + rate*b`` need not be).
    """

    __slots__ = (
        "_encodings",
        "n_rows",
        "_scan_us",
        "_code_us",
        "_code_gather_us",
        "_factors",
        "_decoded",
        "_charge_counts",
        "code_space_filters",
    )

    def __init__(
        self,
        encodings: dict[str, Encoding],
        n_rows: int,
        scan_per_value_us: float,
        code_filter_per_value_us: float,
        scan_factors: Mapping[str, float],
        code_gather_per_value_us: float = 0.0,
    ):
        self._encodings = encodings
        self.n_rows = n_rows
        self._scan_us = scan_per_value_us
        self._code_us = code_filter_per_value_us
        self._code_gather_us = code_gather_per_value_us
        self._factors = scan_factors
        self._decoded: dict[str, np.ndarray] = {}
        self._charge_counts: dict[float, int] = {}
        self.code_space_filters = 0

    def _add_charge(self, rate: float, count: int) -> None:
        if count:
            self._charge_counts[rate] = self._charge_counts.get(rate, 0) + count

    @property
    def charge_us(self) -> float:
        return sum(rate * count for rate, count in self._charge_counts.items())

    def charge_items(self) -> tuple[tuple[float, int], ...]:
        """(rate, value-count) pairs, in first-charge order — the scan
        aggregates counts per rate before pricing them."""
        return tuple(self._charge_counts.items())

    def encoding(self, name: str) -> Encoding:
        return self._encodings[name]

    def array(self, name: str) -> np.ndarray:
        """The fully decoded column (cached; charged once per column)."""
        arr = self._decoded.get(name)
        if arr is None:
            enc = self._encodings[name]
            arr = enc.decode()
            self._decoded[name] = arr
            self._add_charge(
                self._scan_us * self._factors.get(enc.name, 1.0), self.n_rows
            )
        return arr

    def gather(self, name: str, positions: np.ndarray) -> np.ndarray:
        """Late materialization: values at ``positions`` only.

        Columns never decoded pay per *surviving* position instead of
        per row — the payoff of filtering in code space first.
        """
        arr = self._decoded.get(name)
        if arr is not None:
            return arr[positions]
        enc = self._encodings[name]
        self._add_charge(
            self._scan_us * self._factors.get(enc.name, 1.0), len(positions)
        )
        return enc.take(positions)

    def codes(self, name: str, positions: np.ndarray | None = None):
        """Dictionary codes (not values) at ``positions`` — the encoded
        hand-off for compressed execution.  Touching a code costs
        ``code_gather_per_value_us``, a fraction of the decode price;
        the deferred materialization is charged downstream at result
        emit.  Only valid for dictionary encodings.
        """
        enc = self._encodings[name]
        if positions is None:
            self._add_charge(self._code_gather_us, self.n_rows)
            return enc.codes
        self._add_charge(self._code_gather_us, len(positions))
        return enc.codes[positions]

    def note_code_filter(self) -> None:
        self.code_space_filters += 1
        self._add_charge(self._code_us, self.n_rows)


def predicate_mask(predicate: Predicate, data: EncodedColumns) -> np.ndarray:
    """Boolean row mask for ``predicate`` over one encoded segment."""
    if isinstance(predicate, TruePredicate):
        return np.ones(data.n_rows, dtype=bool)
    if isinstance(predicate, And):
        result: np.ndarray | None = None
        for child in predicate.children:
            m = predicate_mask(child, data)
            result = m if result is None else result & m
        return result if result is not None else np.ones(data.n_rows, dtype=bool)
    if isinstance(predicate, Or):
        result = None
        for child in predicate.children:
            m = predicate_mask(child, data)
            result = m if result is None else result | m
        return result if result is not None else np.ones(data.n_rows, dtype=bool)
    if isinstance(predicate, Not):
        return ~predicate_mask(predicate.child, data)
    if isinstance(predicate, (Comparison, Between, InList)):
        mask = _leaf_code_mask(predicate, data)
        if mask is not None:
            data.note_code_filter()
            return np.asarray(mask, dtype=bool)
    return _decoded_mask(predicate, data)


def _decoded_mask(predicate: Predicate, data: EncodedColumns) -> np.ndarray:
    """Reference evaluation: decode the referenced columns, call mask()."""
    decoded = {name: data.array(name) for name in predicate.referenced_columns()}
    if not decoded:
        # Custom predicates with no column references: size the mask
        # from a dummy column (TruePredicate-style length probing).
        decoded = {"__rows__": np.empty(data.n_rows, dtype=np.int8)}
    return np.asarray(predicate.mask(decoded), dtype=bool)


def _is_nan(value) -> bool:
    return isinstance(value, float) and value != value


def _leaf_code_mask(
    predicate: Comparison | Between | InList, data: EncodedColumns
) -> np.ndarray | None:
    """Evaluate a single-column leaf in code/run space, or None if the
    rewrite would not be provably exact."""
    enc = data.encoding(predicate.column)
    if isinstance(enc, RunLengthEncoding):
        try:
            run_mask = np.asarray(
                predicate.mask({predicate.column: enc.values}), dtype=bool
            )
        except TypeError:  # incomparable run values: decoded path decides
            return None
        return np.repeat(run_mask, enc.lengths())
    if not isinstance(enc, DictionaryEncoding) or not enc.code_space_safe():
        return None
    n = len(enc.codes)
    try:
        if isinstance(predicate, InList):
            wanted = enc.codes_for_values(predicate.values)
            return np.isin(enc.codes, wanted)
        if isinstance(predicate, Between):
            if _is_nan(predicate.low) or _is_nan(predicate.high):
                return None
            lo = enc.code_cut(predicate.low, "left")
            hi = enc.code_cut(predicate.high, "right")
            return (enc.codes >= lo) & (enc.codes < hi)
        value = predicate.value
        if _is_nan(value):
            return None
        op = predicate.op
        if op == "=":
            code = enc.code_for(value)
            if code is None:
                return np.zeros(n, dtype=bool)
            return enc.codes == code
        if op == "!=":
            code = enc.code_for(value)
            if code is None:
                return np.ones(n, dtype=bool)
            return enc.codes != code
        if op == "<":
            return enc.codes < enc.code_cut(value, "left")
        if op == "<=":
            return enc.codes < enc.code_cut(value, "right")
        if op == ">":
            return enc.codes >= enc.code_cut(value, "right")
        if op == ">=":
            return enc.codes >= enc.code_cut(value, "left")
    except (TypeError, ValueError):
        # Incomparable / uncoercible literal: the decoded path owns the
        # semantics (including raising, where numpy would).
        return None
    return None
