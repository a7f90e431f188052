"""Schema primitives shared by the row store, column store, and planner.

A *row* in this library is a plain tuple whose positions line up with the
columns of a :class:`Schema`.  Keeping rows as tuples (instead of objects)
keeps every storage engine cheap to copy and trivially hashable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .errors import SchemaError

Row = tuple
Key = Any


#: A column type's value -> the NumPy dtype it is held in columnar.
_NUMPY_DTYPES = {
    "int64": np.dtype(np.int64),
    "float64": np.dtype(np.float64),
    "string": np.dtype(object),
    "bool": np.dtype(np.bool_),
    "date": np.dtype(np.int64),
}


class DataType(enum.Enum):
    """Logical column types understood by every store and the executor."""

    INT64 = "int64"
    FLOAT64 = "float64"
    STRING = "string"
    BOOL = "bool"
    # Dates are stored as int64 days-since-epoch; DATE only affects parsing
    # and formatting, never storage.
    DATE = "date"

    def __init__(self, value: str) -> None:
        #: The NumPy dtype used when this column is held columnar: a
        #: plain attribute, read for every column of every pivot.
        self.numpy_dtype = _NUMPY_DTYPES[value]

    @property
    def cell_types(self) -> frozenset:
        """The exact builtin types :meth:`validate` accepts (no
        subclasses, no NumPy scalars, no NULL)."""
        if self is DataType.INT64 or self is DataType.DATE:
            return frozenset({int})
        if self is DataType.FLOAT64:
            return frozenset({int, float})
        if self is DataType.BOOL:
            return frozenset({bool})
        return frozenset({str})

    def validate(self, value: Any) -> bool:
        """Whether ``value`` is acceptable for a column of this type."""
        if value is None:
            return True
        if self is DataType.INT64 or self is DataType.DATE:
            return isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        if self is DataType.FLOAT64:
            return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(
                value, bool
            )
        if self is DataType.BOOL:
            return isinstance(value, (bool, np.bool_))
        return isinstance(value, str)


@dataclass(frozen=True)
class Column:
    """One column of a table schema."""

    name: str
    dtype: DataType
    nullable: bool = False

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid column name: {self.name!r}")
        if self.dtype is DataType.BOOL and self.nullable:
            # A NumPy bool array has no NULL sentinel to store.
            raise SchemaError(f"BOOL column {self.name!r} cannot be nullable")


@dataclass(frozen=True)
class Schema:
    """An ordered set of columns plus the primary-key column names.

    The primary key may be composite; the key of a row is then a tuple of
    the key column values in declaration order.

    The row codec is compiled once, here: ``key_of`` is an
    ``operator.itemgetter`` over the key columns, ``validate_row`` tests
    each cell's exact type against a per-column set, and ``decoders``
    map a columnar cell back to a row cell (``NULL_INT`` and NaN to
    None, identity otherwise).
    """

    table_name: str
    columns: tuple[Column, ...]
    primary_key: tuple[str, ...]
    _index_of: dict = field(default_factory=dict, compare=False, repr=False)
    #: Row -> primary key (scalar for 1-column keys, tuple otherwise).
    key_of: Callable[[Row], Key] = field(init=False, compare=False, repr=False)
    _cell_types: tuple[frozenset, ...] = field(default=(), compare=False, repr=False)
    #: Column name -> columnar cell decoder, in column order.
    decoders: dict = field(default_factory=dict, compare=False, repr=False)

    def __init__(
        self,
        table_name: str,
        columns: Sequence[Column],
        primary_key: Sequence[str],
    ):
        object.__setattr__(self, "table_name", table_name)
        object.__setattr__(self, "columns", tuple(columns))
        object.__setattr__(self, "primary_key", tuple(primary_key))
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in table {table_name!r}")
        if not self.primary_key:
            raise SchemaError(f"table {table_name!r} needs a primary key")
        index_of = {name: i for i, name in enumerate(names)}
        for key_col in self.primary_key:
            if key_col not in index_of:
                raise SchemaError(f"primary key column {key_col!r} not in schema")
            if self.columns[index_of[key_col]].nullable:
                raise SchemaError(f"primary key column {key_col!r} must not be nullable")
        object.__setattr__(self, "_index_of", index_of)
        object.__setattr__(
            self, "key_of", itemgetter(*(index_of[name] for name in self.primary_key))
        )
        object.__setattr__(self, "_cell_types", tuple(
            c.dtype.cell_types | {type(None)} if c.nullable else c.dtype.cell_types
            for c in self.columns
        ))
        object.__setattr__(
            self, "decoders", {c.name: _DECODERS.get(c.dtype, _identity) for c in self.columns}
        )

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def __len__(self) -> int:
        return len(self.columns)

    def has_column(self, name: str) -> bool:
        return name in self._index_of

    def index_of(self, name: str) -> int:
        """Position of ``name`` in a row tuple; raises on unknown columns."""
        try:
            return self._index_of[name]
        except KeyError:
            raise SchemaError(
                f"no column {name!r} in table {self.table_name!r}"
            ) from None

    def column(self, name: str) -> Column:
        return self.columns[self.index_of(name)]

    def validate_row(self, row: Sequence[Any]) -> Row:
        """Check arity, types, and nullability; return the row as a tuple.

        A row of exact builtin cells passes on one set probe per cell;
        anything else (NumPy scalars, subclasses, bad values, wrong
        arity) takes the per-dtype rule and its messages.
        """
        if len(row) == len(self._cell_types):
            for value, ok in zip(row, self._cell_types):
                if type(value) not in ok:
                    break
            else:
                return tuple(row)
        if len(row) != len(self.columns):
            raise SchemaError(
                f"row has {len(row)} values, table {self.table_name!r} "
                f"has {len(self.columns)} columns"
            )
        for value, col in zip(row, self.columns):
            if value is None:
                if not col.nullable:
                    raise SchemaError(
                        f"column {col.name!r} of {self.table_name!r} is not nullable"
                    )
            elif not col.dtype.validate(value):
                raise SchemaError(
                    f"value {value!r} is not valid for column "
                    f"{col.name!r} ({col.dtype.value})"
                )
        return tuple(row)

    def project(self, names: Iterable[str]) -> list[int]:
        """Indexes of ``names`` in row order, validating each name."""
        return [self.index_of(n) for n in names]


#: SQL NULL in an INT64/DATE column array.  Far enough from real data
#: that range predicates with sane constants exclude it, like NULL
#: semantics require; floats use NaN, strings/objects use None directly.
NULL_INT: int = -(2**62)


def encode_cell(value: Any, dtype: DataType) -> Any:
    """Map a (possibly-None) row cell to its columnar representation."""
    if value is not None:
        return value
    if dtype is DataType.INT64 or dtype is DataType.DATE:
        return NULL_INT
    if dtype is DataType.FLOAT64:
        return float("nan")
    return None


def _identity(value: Any) -> Any:
    return value


def _int_or_null(value: Any) -> Any:
    return None if value == NULL_INT else value


def _float_or_null(value: Any) -> Any:
    return None if value != value else value  # NaN check


#: Inverse of :func:`encode_cell` per dtype, on the Python scalars
#: ``ndarray.tolist`` gives (see :func:`column_cells`); identity for the
#: rest.
_DECODERS = {
    DataType.INT64: _int_or_null,
    DataType.DATE: _int_or_null,
    DataType.FLOAT64: _float_or_null,
}


def rows_to_columns(
    schema: Schema, rows: Sequence[Row], names: Iterable[str] | None = None
) -> dict[str, np.ndarray]:
    """Pivot row tuples into one NumPy array per column — every schema
    column, or just ``names`` (in that order).

    The work-horse conversion used when deltas are merged into columnar
    form and when the vectorized executor pulls row-store data.  NULLs
    become per-dtype sentinels (see :data:`NULL_INT`).
    """
    arrays: dict[str, np.ndarray] = {}
    indexes = range(len(schema.columns)) if names is None else schema.project(names)
    for i in indexes:
        col = schema.columns[i]
        values = [row[i] for row in rows]
        if None in values:  # only NULL cells need sentinel mapping
            dtype = col.dtype
            values = [encode_cell(v, dtype) for v in values]
        arrays[col.name] = np.array(values, dtype=col.dtype.numpy_dtype)
    return arrays


def column_cells(values: np.ndarray, decode: Callable[[Any], Any]) -> list:
    """One column array as row cells: builtins (``tolist``), its NULL
    sentinels back to None.  ``decode`` is the column's
    :attr:`Schema.decoders` entry; it runs cell by cell only on a column
    where one vectorised test finds a ``NULL_INT`` / NaN."""
    cells = values.tolist()
    if decode is _int_or_null:
        has_null = (values == NULL_INT).any()
    elif decode is _float_or_null:
        has_null = (values != values).any()
    else:
        return cells
    return list(map(decode, cells)) if has_null else cells


def columns_to_rows(schema: Schema, arrays: dict[str, np.ndarray]) -> list[Row]:
    """Inverse of :func:`rows_to_columns` (column order from the schema)."""
    if not arrays:
        return []
    return list(zip(*[
        column_cells(arrays[name], decode) for name, decode in schema.decoders.items()
    ]))
