"""Table statistics and selectivity estimation.

The estimator deliberately makes the *uniformity and independence*
assumptions the survey's §2.4 criticizes ("such methods are problematic
for correlated and skewed data") — the learned access-path chooser in
:mod:`repro.query.learned_optimizer` exists precisely to beat it on
skewed inputs, and the open-problems bench measures that gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

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
from ..common.types import NULL_INT, Row, Schema, rows_to_columns


@dataclass
class ColumnStats:
    ndv: int
    min_value: Any = None
    max_value: Any = None


@dataclass
class TableStats:
    row_count: int
    columns: dict[str, ColumnStats]

    @classmethod
    def from_rows(cls, schema: Schema, rows: list[Row]) -> "TableStats":
        return cls.from_arrays(rows_to_columns(schema, rows))

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "TableStats":
        """Row count, and per column the distinct non-NULL values and
        (numeric columns) their range.  NULL is ``NULL_INT`` in an int64
        array and NaN in a float64 one, so a NaN value counts as NULL."""
        columns = {}
        n = 0
        for name, arr in arrays.items():
            n = len(arr)
            if arr.dtype == np.int64:
                arr = arr[arr != NULL_INT]
            elif arr.dtype == np.float64:
                arr = arr[arr == arr]
            if arr.dtype != object and len(arr):
                columns[name] = ColumnStats(
                    ndv=len(np.unique(arr)),
                    min_value=arr.min().item(),
                    max_value=arr.max().item(),
                )
            else:  # strings (a NULL is None, which np.unique cannot order) or empty
                columns[name] = ColumnStats(ndv=len(set(arr) - {None}))
        return cls(row_count=n, columns=columns)

    def empty(self) -> bool:
        return self.row_count == 0

    # ------------------------------------------------------------- estimates

    def selectivity(self, predicate: Predicate) -> float:
        """Estimated fraction of rows matching (uniform + independent)."""
        if isinstance(predicate, TruePredicate):
            return 1.0
        if isinstance(predicate, Comparison):
            return self._comparison_selectivity(predicate)
        if isinstance(predicate, Between):
            return self._range_selectivity(
                predicate.column, predicate.low, predicate.high
            )
        if isinstance(predicate, InList):
            stats = self.columns.get(predicate.column)
            if stats is None or stats.ndv == 0:
                return 0.5
            return min(1.0, len(predicate.values) / stats.ndv)
        if isinstance(predicate, And):
            # Independence assumption: multiply child selectivities.
            sel = 1.0
            for child in predicate.children:
                sel *= self.selectivity(child)
            return sel
        if isinstance(predicate, Or):
            sel = 0.0
            for child in predicate.children:
                child_sel = self.selectivity(child)
                sel = sel + child_sel - sel * child_sel
            return sel
        if isinstance(predicate, Not):
            return 1.0 - self.selectivity(predicate.child)
        return 0.5

    def _comparison_selectivity(self, cmp: Comparison) -> float:
        stats = self.columns.get(cmp.column)
        if stats is None or stats.ndv == 0:
            return 0.5
        if cmp.op == "=":
            return 1.0 / stats.ndv
        if cmp.op == "!=":
            return 1.0 - 1.0 / stats.ndv
        if stats.min_value is None or stats.max_value is None:
            return 1.0 / 3.0  # classic System R default for ranges
        span = stats.max_value - stats.min_value
        if span <= 0:
            return 1.0
        if cmp.op in ("<", "<="):
            frac = (cmp.value - stats.min_value) / span
        else:
            frac = (stats.max_value - cmp.value) / span
        return float(min(1.0, max(0.0, frac)))

    def _range_selectivity(self, column: str, low: Any, high: Any) -> float:
        stats = self.columns.get(column)
        if stats is None or stats.min_value is None or stats.max_value is None:
            return 1.0 / 3.0
        span = stats.max_value - stats.min_value
        if span <= 0:
            return 1.0
        lo = max(low, stats.min_value)
        hi = min(high, stats.max_value)
        if hi < lo:
            return 0.0
        return float(min(1.0, (hi - lo) / span))

    def estimate_matching_rows(self, predicate: Predicate) -> int:
        return int(round(self.row_count * self.selectivity(predicate)))
