"""Unit tests for schema primitives and row/column conversions."""

import enum
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import SchemaError
from repro.common.types import (
    NULL_INT,
    Column,
    DataType,
    Schema,
    columns_to_rows,
    encode_cell,
    rows_to_columns,
)


def make_schema(**kwargs):
    return Schema(
        "t",
        [
            Column("a", DataType.INT64),
            Column("b", DataType.FLOAT64),
            Column("c", DataType.STRING, nullable=True),
        ],
        ["a"],
        **kwargs,
    )


class TestSchema:
    def test_column_names(self):
        assert make_schema().column_names == ["a", "b", "c"]

    def test_index_of(self):
        schema = make_schema()
        assert schema.index_of("b") == 1

    def test_index_of_unknown_raises(self):
        with pytest.raises(SchemaError):
            make_schema().index_of("nope")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Schema("t", [Column("a", DataType.INT64)] * 2, ["a"])

    def test_missing_pk_rejected(self):
        with pytest.raises(SchemaError):
            Schema("t", [Column("a", DataType.INT64)], [])

    def test_pk_must_exist(self):
        with pytest.raises(SchemaError):
            Schema("t", [Column("a", DataType.INT64)], ["z"])

    def test_nullable_pk_rejected(self):
        with pytest.raises(SchemaError):
            Schema("t", [Column("a", DataType.INT64, nullable=True)], ["a"])

    def test_key_of_scalar(self):
        assert make_schema().key_of((7, 1.0, "x")) == 7

    def test_key_of_composite(self):
        schema = Schema(
            "t",
            [Column("a", DataType.INT64), Column("b", DataType.INT64)],
            ["a", "b"],
        )
        assert schema.key_of((1, 2)) == (1, 2)

    def test_validate_row_arity(self):
        with pytest.raises(SchemaError):
            make_schema().validate_row((1, 2.0))

    def test_validate_row_type(self):
        with pytest.raises(SchemaError):
            make_schema().validate_row(("x", 2.0, "c"))

    def test_validate_null_in_non_nullable(self):
        with pytest.raises(SchemaError):
            make_schema().validate_row((None, 2.0, "c"))

    def test_validate_null_in_nullable_ok(self):
        row = make_schema().validate_row((1, 2.0, None))
        assert row == (1, 2.0, None)

    def test_bool_not_accepted_as_int(self):
        with pytest.raises(SchemaError):
            make_schema().validate_row((True, 2.0, "c"))

    def test_invalid_column_name(self):
        with pytest.raises(SchemaError):
            Column("not a name", DataType.INT64)


class TestConversions:
    def test_round_trip(self):
        schema = make_schema()
        rows = [(1, 1.5, "x"), (2, 2.5, "y"), (3, 3.5, None)]
        arrays = rows_to_columns(schema, rows)
        assert arrays["a"].dtype == np.int64
        assert columns_to_rows(schema, arrays) == rows

    def test_null_int_sentinel(self):
        schema = Schema(
            "t",
            [Column("k", DataType.INT64), Column("v", DataType.INT64, nullable=True)],
            ["k"],
        )
        arrays = rows_to_columns(schema, [(1, None), (2, 5)])
        assert arrays["v"][0] == NULL_INT
        back = columns_to_rows(schema, arrays)
        assert back == [(1, None), (2, 5)]

    def test_null_float_round_trip(self):
        schema = Schema(
            "t",
            [Column("k", DataType.INT64), Column("v", DataType.FLOAT64, nullable=True)],
            ["k"],
        )
        arrays = rows_to_columns(schema, [(1, None), (2, 5.0)])
        assert np.isnan(arrays["v"][0])
        assert columns_to_rows(schema, arrays) == [(1, None), (2, 5.0)]

    def test_encode_decode_cell_all_types(self):
        """Each dtype's NULL sentinel, and the schema's decoder mapping it
        (and nothing else) back to None."""
        sentinels = {
            DataType.INT64: NULL_INT, DataType.DATE: NULL_INT,
            DataType.STRING: None, DataType.BOOL: None,
        }
        for dtype in DataType:
            encoded = encode_cell(None, dtype)
            if dtype is DataType.FLOAT64:
                assert encoded != encoded
            else:
                assert encoded == sentinels[dtype]
            assert encode_cell(7, dtype) == 7
        schema = Schema(
            "t",
            [Column("k", DataType.INT64)]
            + [
                Column(dtype.name.lower(), dtype, nullable=dtype is not DataType.BOOL)
                for dtype in DataType
            ],
            ["k"],
        )
        decoders = schema.decoders
        assert list(decoders) == schema.column_names
        for dtype in DataType:
            decode = decoders[dtype.name.lower()]
            if dtype is not DataType.BOOL:
                assert decode(encode_cell(None, dtype)) is None
            for value in (7, 0, -1, 2.5, "s", True, False):
                assert decode(value) is value

    def test_bool_column_cannot_be_nullable(self):
        """A NumPy bool array has no NULL: a nullable BOOL column would
        read ``False`` back from a column image."""
        with pytest.raises(SchemaError, match="cannot be nullable"):
            Column("flag", DataType.BOOL, nullable=True)
        assert not Column("flag", DataType.BOOL).nullable

    def test_empty_rows(self):
        schema = make_schema()
        arrays = rows_to_columns(schema, [])
        assert len(arrays["a"]) == 0
        assert columns_to_rows(schema, arrays) == []


class TestDataTypes:
    def test_numpy_dtypes(self):
        """Every member's columnar dtype (INT64 and DATE share int64)."""
        assert {dtype: dtype.numpy_dtype for dtype in DataType} == {
            DataType.INT64: np.dtype(np.int64),
            DataType.FLOAT64: np.dtype(np.float64),
            DataType.STRING: np.dtype(object),
            DataType.BOOL: np.dtype(np.bool_),
            DataType.DATE: np.dtype(np.int64),
        }
        assert all(isinstance(dtype.numpy_dtype, np.dtype) for dtype in DataType)

    def test_validation(self):
        assert DataType.INT64.validate(5)
        assert not DataType.INT64.validate(5.5)
        assert not DataType.INT64.validate(True)
        assert DataType.FLOAT64.validate(5)
        assert DataType.STRING.validate("x")
        assert DataType.BOOL.validate(True)
        assert DataType.DATE.validate(19723)


# ------------------------------------------------------- row codec battery
#
# validate_row, key_of and the row <-> column pivot against references
# written here: the per-cell DataType.validate loop, the scalar / tuple
# key rule, and the identity round trip.


class _Level(enum.IntEnum):
    LOW = 1


class _Name(str):
    pass


#: Every kind of cell a caller can hand a schema: builtins, NULL, NaN,
#: numpy scalars, an int subclass that is not bool, a str subclass.
_CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**63), 2**63 - 1),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.just(float("nan")),
    st.integers(-(2**31), 2**31 - 1).map(np.int64),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_),
    st.just(_Level.LOW),
    st.text(max_size=3).map(_Name),
)

#: (dtype, nullable) for every column kind a schema accepts; numpy bool
#: arrays have no NULL, so BOOL columns are drawn non-nullable only.
_COLUMN_KINDS = [
    (dtype, nullable)
    for dtype in DataType
    for nullable in (False, True)
    if not (dtype is DataType.BOOL and nullable)
]


def _reference_validate(schema, row):
    """The per-cell rule, cell by cell, with its messages."""
    if len(row) != len(schema.columns):
        raise SchemaError(
            f"row has {len(row)} values, table {schema.table_name!r} "
            f"has {len(schema.columns)} columns"
        )
    for value, col in zip(row, schema.columns):
        if value is None:
            if not col.nullable:
                raise SchemaError(
                    f"column {col.name!r} of {schema.table_name!r} is not nullable"
                )
        elif not col.dtype.validate(value):
            raise SchemaError(
                f"value {value!r} is not valid for column "
                f"{col.name!r} ({col.dtype.value})"
            )
    return tuple(row)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except SchemaError as exc:
        return "raised", str(exc)


@st.composite
def _schema_and_row(draw):
    kinds = draw(st.lists(st.sampled_from(_COLUMN_KINDS), min_size=1, max_size=5))
    # The key is column 0, made non-nullable.
    kinds[0] = (kinds[0][0], False)
    schema = Schema(
        "t",
        [Column(f"c{i}", dtype, nullable) for i, (dtype, nullable) in enumerate(kinds)],
        ["c0"],
    )
    arity = draw(st.sampled_from([len(kinds), len(kinds), len(kinds) - 1, len(kinds) + 1]))
    cells = draw(st.lists(_CELLS, min_size=arity, max_size=arity))
    row = draw(st.sampled_from([tuple, list]))(cells)
    return schema, row


@settings(max_examples=400, deadline=None)
@given(case=_schema_and_row())
def test_validate_row_matches_per_cell_reference(case):
    schema, row = case
    got = _outcome(schema.validate_row, row)
    want = _outcome(_reference_validate, schema, row)
    assert got[0] == want[0], (got, want)
    if want[0] == "raised":
        assert got[1] == want[1]
    else:
        assert type(got[1]) is tuple
        assert len(got[1]) == len(want[1])
        assert all(map(operator.is_, got[1], want[1]))


@settings(max_examples=100, deadline=None)
@given(
    n_columns=st.integers(3, 5),
    data=st.data(),
)
def test_key_of_matches_scalar_or_tuple_reference(n_columns, data):
    names = [f"c{i}" for i in range(n_columns)]
    key_cols = data.draw(
        st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True)
    )
    schema = Schema("t", [Column(n, DataType.INT64) for n in names], key_cols)
    row = tuple(data.draw(st.lists(st.integers(), min_size=n_columns, max_size=n_columns)))
    idx = [names.index(n) for n in key_cols]
    want = row[idx[0]] if len(idx) == 1 else tuple(row[i] for i in idx)
    assert schema.key_of(row) == want
    assert type(schema.key_of(row)) is type(want)


_ROUND_TRIP_SCHEMA = Schema(
    "t",
    [
        Column("k", DataType.INT64),
        Column("i", DataType.INT64, nullable=True),
        Column("f", DataType.FLOAT64, nullable=True),
        Column("s", DataType.STRING, nullable=True),
        Column("d", DataType.DATE, nullable=True),
        Column("b", DataType.BOOL),
    ],
    ["k"],
)

# NULL_INT and NaN are the sentinels, so real data never holds them.
_INTS = st.integers(-(2**62) + 1, 2**62)
_ROUND_TRIP_ROWS = st.lists(
    st.tuples(
        _INTS,
        st.none() | _INTS,
        st.none() | st.floats(allow_nan=False),
        st.none() | st.text(max_size=4),
        st.none() | st.integers(-50_000, 50_000),
        st.booleans(),
    ),
    max_size=30,
)


@settings(max_examples=150, deadline=None)
@given(rows=_ROUND_TRIP_ROWS)
def test_columns_to_rows_inverts_rows_to_columns(rows):
    schema = _ROUND_TRIP_SCHEMA
    back = columns_to_rows(schema, rows_to_columns(schema, rows))
    assert back == rows
    for got, want in zip(back, rows):
        assert type(got) is tuple
        assert [type(v) for v in got] == [type(v) for v in want]
