"""``TableStats.from_rows`` against the row-at-a-time rule it replaced.

``reference_table_stats`` is the old ``from_rows`` (and its
``ColumnStats.from_values``), kept here as the reference: per column,
the distinct non-None cells, and their min/max when every one is a
number.  ``from_rows`` now pivots the rows and takes
``from_arrays``'s path, so every engine's statistics follow one rule.
The one documented difference: a NaN cell and a NULL are the same value
in columnar form, so a NaN counts as NULL there (the reference counts
it as a value); the property generates no NaN.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.common import Column, DataType, Schema
from repro.common.types import NULL_INT
from repro.query import TableStats
from repro.query.statistics import ColumnStats


def reference_table_stats(schema: Schema, rows: list[tuple]) -> TableStats:
    columns = {}
    for i, col in enumerate(schema.columns):
        non_null = [r[i] for r in rows if r[i] is not None]
        if not non_null:
            columns[col.name] = ColumnStats(ndv=0)
            continue
        ndv = len(set(non_null))
        if all(isinstance(v, (int, float)) for v in non_null):
            columns[col.name] = ColumnStats(ndv, min(non_null), max(non_null))
        else:
            columns[col.name] = ColumnStats(ndv=ndv)
    return TableStats(row_count=len(rows), columns=columns)


SCHEMA = Schema(
    "t",
    [
        Column("id", DataType.INT64),
        Column("n", DataType.INT64, nullable=True),
        Column("d", DataType.DATE, nullable=True),
        Column("f", DataType.FLOAT64, nullable=True),
        Column("b", DataType.BOOL),
        Column("s", DataType.STRING, nullable=True),
    ],
    ["id"],
)

# NULL_INT is the int column's NULL, so a value never equals it.
INTS = st.integers(min_value=NULL_INT + 1, max_value=2**63 - 1)
SMALL_INTS = st.integers(min_value=-5, max_value=5)
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.5, -1.5, math.inf, -math.inf]),
    st.floats(allow_nan=False),
)


@st.composite
def tables(draw):
    n = draw(st.integers(min_value=0, max_value=30))
    ids = draw(st.lists(INTS, min_size=n, max_size=n, unique=True))
    rows = []
    for key in ids:
        rows.append(
            (
                key,
                draw(st.none() | st.one_of(INTS, SMALL_INTS)),
                draw(st.none() | st.integers(min_value=0, max_value=20_000)),
                draw(st.none() | FLOATS),
                draw(st.booleans()),
                draw(st.none() | st.text(max_size=3)),
            )
        )
    return [SCHEMA.validate_row(row) for row in rows]


@settings(max_examples=200, deadline=None)
@given(tables())
def test_from_rows_equals_the_reference(rows):
    assert TableStats.from_rows(SCHEMA, rows) == reference_table_stats(SCHEMA, rows)


def test_all_null_and_empty_columns_have_no_values():
    rows = [(1, None, None, None, True, None), (2, None, None, None, False, None)]
    stats = TableStats.from_rows(SCHEMA, rows)
    assert stats == reference_table_stats(SCHEMA, rows)
    assert stats.columns["n"] == ColumnStats(ndv=0)
    assert stats.columns["f"] == ColumnStats(ndv=0)
    assert TableStats.from_rows(SCHEMA, []) == reference_table_stats(SCHEMA, [])


def test_from_arrays_skips_the_null_sentinels():
    # A columnar image holds NULL as NULL_INT / NaN; neither is a value.
    stats = TableStats.from_arrays(
        {
            "o_carrier_id": np.array([NULL_INT, 3, 10, NULL_INT, 3]),
            "f": np.array([np.nan, 2.5, -1.0]),
            "only_null": np.array([NULL_INT, NULL_INT]),
        }
    )
    assert stats.columns["o_carrier_id"] == ColumnStats(ndv=2, min_value=3, max_value=10)
    assert stats.columns["f"] == ColumnStats(ndv=2, min_value=-1.0, max_value=2.5)
    assert stats.columns["only_null"] == ColumnStats(ndv=0)
    assert stats.row_count == 2


def test_a_nan_cell_counts_as_null_in_columnar_form():
    rows = [(1, None, None, math.nan, True, "a"), (2, None, None, 1.0, True, "a")]
    assert TableStats.from_rows(SCHEMA, rows).columns["f"] == ColumnStats(1, 1.0, 1.0)
    assert reference_table_stats(SCHEMA, rows).columns["f"].ndv == 2
