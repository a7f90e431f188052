"""Compression codecs must round-trip exactly and estimate sizes sanely."""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.types import NULL_INT
from repro.storage.compression import (
    BitPackedEncoding,
    DictionaryEncoding,
    PlainEncoding,
    RunLengthEncoding,
    choose_encoding,
    encoding_for_name,
)


class TestPlain:
    def test_round_trip(self):
        arr = np.array([3, 1, 4, 1, 5])
        enc = PlainEncoding(data=arr)
        assert np.array_equal(enc.decode(), arr)
        assert len(enc) == 5

    def test_take(self):
        enc = PlainEncoding(data=np.array([10, 20, 30]))
        assert enc.take(np.array([2, 0])).tolist() == [30, 10]


class TestDictionary:
    def test_round_trip_strings(self):
        arr = np.array(["b", "a", "b", "c", "a"], dtype=object)
        enc = DictionaryEncoding.encode(arr)
        assert enc.decode().tolist() == arr.tolist()
        assert enc.cardinality() == 3

    def test_dictionary_is_sorted(self):
        arr = np.array(["z", "m", "a", "m"], dtype=object)
        enc = DictionaryEncoding.encode(arr)
        assert enc.dictionary.tolist() == sorted(set(arr.tolist()))

    def test_round_trip_ints(self):
        arr = np.array([5, 5, 2, 9, 2])
        enc = DictionaryEncoding.encode(arr)
        assert enc.decode().tolist() == arr.tolist()

    def test_take(self):
        enc = DictionaryEncoding.encode(np.array(["x", "y", "x"], dtype=object))
        assert enc.take(np.array([0, 2])).tolist() == ["x", "x"]

    def test_compresses_repetitive_strings(self):
        arr = np.array(["longvalue"] * 1000, dtype=object)
        enc = DictionaryEncoding.encode(arr)
        assert enc.size_bytes() < PlainEncoding(data=arr).size_bytes() / 2


class TestRunLength:
    def test_round_trip(self):
        arr = np.array([1, 1, 1, 2, 2, 3])
        enc = RunLengthEncoding.encode(arr)
        assert enc.decode().tolist() == arr.tolist()
        assert enc.n_runs() == 3

    def test_empty(self):
        enc = RunLengthEncoding.encode(np.array([], dtype=np.int64))
        assert len(enc) == 0
        assert enc.decode().tolist() == []

    def test_single_run(self):
        enc = RunLengthEncoding.encode(np.array([7] * 100))
        assert enc.n_runs() == 1
        assert len(enc) == 100

    def test_object_dtype(self):
        arr = np.array(["a", "a", "b"], dtype=object)
        enc = RunLengthEncoding.encode(arr)
        assert enc.decode().tolist() == ["a", "a", "b"]

    def test_compresses_sorted_data(self):
        arr = np.repeat(np.arange(10), 100)
        enc = RunLengthEncoding.encode(arr)
        assert enc.size_bytes() < arr.nbytes / 10


class TestBitPacked:
    def test_round_trip(self):
        arr = np.array([1000, 1001, 1005, 1002])
        enc = BitPackedEncoding.encode(arr)
        assert enc.decode().tolist() == arr.tolist()
        assert enc.offsets.dtype == np.uint8

    def test_wider_ranges_pick_wider_dtypes(self):
        enc16 = BitPackedEncoding.encode(np.array([0, 60_000]))
        assert enc16.offsets.dtype == np.uint16
        enc32 = BitPackedEncoding.encode(np.array([0, 2**20]))
        assert enc32.offsets.dtype == np.uint32

    def test_negative_base(self):
        arr = np.array([-50, -48, -49])
        enc = BitPackedEncoding.encode(arr)
        assert enc.decode().tolist() == arr.tolist()

    def test_take(self):
        enc = BitPackedEncoding.encode(np.array([100, 200, 150]))
        assert enc.take(np.array([1])).tolist() == [200]

    def test_empty(self):
        enc = BitPackedEncoding.encode(np.array([], dtype=np.int64))
        assert len(enc) == 0


class TestChooser:
    def test_repetitive_strings_get_dictionary(self):
        arr = np.array(["a", "b"] * 500, dtype=object)
        assert choose_encoding(arr).name in ("dictionary",)

    def test_unique_strings_stay_plain(self):
        arr = np.array([f"unique-{i}" for i in range(100)], dtype=object)
        assert choose_encoding(arr).name == "plain"

    def test_small_range_ints_get_packed_or_rle(self):
        arr = np.array([5, 6, 7] * 100)
        assert choose_encoding(arr).name in ("bitpack", "rle", "dictionary")

    def test_chooser_minimizes_size(self):
        arr = np.repeat(np.arange(4), 256)
        chosen = choose_encoding(arr)
        for name in ("plain", "rle", "bitpack", "dictionary"):
            other = encoding_for_name(name, arr)
            assert chosen.size_bytes() <= other.size_bytes()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            encoding_for_name("snappy", np.array([1]))


@settings(max_examples=80, deadline=None)
@given(values=st.lists(st.integers(-10_000, 10_000), max_size=300))
def test_all_int_codecs_round_trip(values):
    arr = np.array(values, dtype=np.int64)
    for name in ("plain", "dictionary", "rle", "bitpack"):
        enc = encoding_for_name(name, arr)
        assert enc.decode().tolist() == values
        assert len(enc) == len(values)


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.sampled_from(["a", "bb", "ccc", ""]), max_size=200))
def test_string_codecs_round_trip(values):
    arr = np.array(values, dtype=object)
    for name in ("plain", "dictionary", "rle"):
        enc = encoding_for_name(name, arr)
        assert enc.decode().tolist() == values


# ---------------------------------------------------------- point access
#
# A row-granular gather touches positions, never the column: take(p)
# must equal decode()[p] on every codec.

CODECS = ("plain", "dictionary", "rle", "bitpack")

#: Runs of repeated values, so RLE segments have real runs to bisect
#: and every shape the issue names shows up: empty, one row, one run
#: (all equal), many runs.
_runs = st.lists(st.tuples(st.integers(0, 6), st.integers(1, 40)), max_size=12)
_INT_POOL = [-(2**62), -3, 0, 1, 7, 2**40, 255]
_FLOAT_POOL = [float("nan"), -1.5, 0.0, 0.25, 3.0, float("nan"), 1e300]
_STR_POOL = ["", "a", "bb", None, "ccc", "a ", "z"]


def _column(runs, pool, dtype):
    values = [pool[v] for v, n in runs for _ in range(n)]
    return np.array(values, dtype=dtype)


def _segments(runs):
    """(codec name, encoding, decoded reference) for every codec that
    applies to each of the three dtypes."""
    for pool, dtype, names in (
        (_INT_POOL, np.int64, CODECS),
        (_FLOAT_POOL, np.float64, CODECS[:3]),
        (_STR_POOL, object, CODECS[:3]),
    ):
        arr = _column(runs, pool, dtype)
        if dtype is object and None in arr.tolist():
            # A sorted dictionary cannot order None against str.
            names = tuple(n for n in names if n != "dictionary")
        for name in names:
            enc = encoding_for_name(name, arr)
            yield name, enc, enc.decode()


def _same_cell(got, want) -> bool:
    if isinstance(want, float) and want != want:
        return got != got
    return got == want


@settings(max_examples=60, deadline=None)
@given(runs=_runs, data=st.data())
def test_take_equals_decode_at_positions(runs, data):
    n = sum(length for _v, length in runs)
    index = st.integers(0, max(n - 1, 0))
    shapes = {
        "sparse": st.lists(index, max_size=3),
        "dense": st.just(list(range(n))),
        "unsorted": st.lists(index, max_size=2 * n + 1),
        "repeated": st.lists(index, max_size=4).map(lambda p: p * 3),
    }
    for shape, strategy in shapes.items():
        picked = data.draw(strategy, label=shape) if n else []
        positions = np.array(picked, dtype=np.int64)
        for name, enc, decoded in _segments(runs):
            got = enc.take(positions)
            want = decoded[positions]
            assert got.dtype == want.dtype, (name, shape)
            assert len(got) == len(want), (name, shape)
            assert all(map(_same_cell, got.tolist(), want.tolist())), (name, shape)


@pytest.mark.parametrize("name", CODECS)
@pytest.mark.parametrize("n", [0, 1, 50])
def test_out_of_range_positions_raise(name, n):
    enc = encoding_for_name(name, np.repeat(np.arange(n // 10 + 1), 10)[:n])
    with pytest.raises(IndexError):
        enc.take(np.array([0, n], dtype=np.int64))


def test_base_encoding_has_no_decoding_defaults():
    """A codec that forgets ``take`` must fail loudly, not fall back to
    decoding the column behind a few-cell gather."""
    from repro.storage.compression import Encoding

    with pytest.raises(NotImplementedError):
        Encoding().take(np.array([0]))


# ---------------------------------------------------------- the chooser
#
# The reference chooser builds every candidate codec and keeps the
# smallest (min() keeps the first of equal sizes, in the order plain,
# bit-packed, RLE, dictionary).  Production may size candidates any
# way it likes, but must return the same codec with the same bytes.


def reference_choose_encoding(values: np.ndarray):
    n = len(values)
    if n == 0:
        return PlainEncoding(data=values)
    candidates = [PlainEncoding(data=values)]
    if values.dtype == object:
        unique = len(set(values.tolist()))
        if unique <= max(1, n // 2):
            try:
                candidates.append(DictionaryEncoding.encode(values))
            except TypeError:
                pass
    else:
        if np.issubdtype(values.dtype, np.integer):
            candidates.append(BitPackedEncoding.encode(values))
        n_runs = 1 + int(np.count_nonzero(values[1:] != values[:-1]))
        if n_runs <= n // 3:
            candidates.append(RunLengthEncoding.encode(values))
        if len(np.unique(values)) <= n // 4:
            candidates.append(DictionaryEncoding.encode(values))
    return min(candidates, key=lambda e: e.size_bytes())


def same_array(got: np.ndarray, want: np.ndarray) -> bool:
    if got.dtype != want.dtype or got.shape != want.shape:
        return False
    if want.dtype == object:
        return [(type(v), v) for v in got.tolist()] == [
            (type(v), v) for v in want.tolist()
        ]
    return got.tobytes() == want.tobytes()


def assert_same_codec(got, want) -> None:
    """Same codec class, every field byte for byte (``data``,
    ``dictionary``/``codes``, ``values``/``run_ends``, ``base``/``offsets``)."""
    assert type(got) is type(want), (got.name, want.name)
    for field in dataclasses.fields(want):
        mine, theirs = getattr(got, field.name), getattr(want, field.name)
        if isinstance(theirs, np.ndarray):
            assert same_array(mine, theirs), field.name
        else:
            assert type(mine) is type(theirs) and mine == theirs, field.name


#: A NaN with a payload other than the default quiet NaN's.
_PAYLOAD_NAN = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0001))[0]


@st.composite
def _chooser_columns(draw):
    """A column built from runs over a small pool: int64 with spans
    from 1 to 2**40 (and the NULL sentinel), float64 with NaN, -0.0 and
    repeats, bool, or strings with None; optionally sorted."""
    kind = draw(st.sampled_from(["int", "float", "bool", "str"]))
    if kind == "int":
        span = 2 ** draw(st.integers(0, 40))
        base = draw(st.integers(-(2**41), 2**41))
        pool = [base + o for o in draw(st.lists(st.integers(0, span), min_size=1, max_size=9))]
        if draw(st.booleans()):
            pool.append(NULL_INT)
        dtype = np.int64
    elif kind == "float":
        pool = draw(st.lists(
            st.sampled_from([float("nan"), _PAYLOAD_NAN, -0.0, 0.0, 1.5, -2.25, 1e300]),
            min_size=1, max_size=7,
        ))
        dtype = np.float64
    elif kind == "bool":
        pool, dtype = [False, True], np.bool_
    else:
        pool, dtype = ["", "a", "bb", None, "ccc"], object
    runs = draw(st.lists(
        st.tuples(st.integers(0, len(pool) - 1), st.integers(1, 30)), max_size=16
    ))
    values = [pool[v] for v, length in runs for _ in range(length)]
    if draw(st.booleans()) and None not in values:
        values.sort()
    return np.array(values, dtype=dtype)


@settings(max_examples=300, deadline=None)
@given(values=_chooser_columns())
def test_chooser_matches_reference(values):
    assert_same_codec(choose_encoding(values), reference_choose_encoding(values))


def _boundary_column(n: int, runs: int, distinct: int, pool: list, dtype):
    """``n`` values in exactly ``runs`` runs over ``distinct`` values."""
    lengths = [n // runs + (i < n % runs) for i in range(runs)]
    return np.array(
        [pool[i % distinct] for i, length in enumerate(lengths) for _ in range(length)],
        dtype=dtype,
    )


@pytest.mark.parametrize("n", range(8, 40))
def test_chooser_matches_reference_at_the_offer_boundaries(n):
    """RLE is offered at runs <= n//3 and a dictionary at distinct <=
    n//4: one either side of each, for every dtype the chooser sizes."""
    pools = [
        ([i * 2**40 for i in range(n)], np.int64),  # bit-packing loses
        (list(range(n)), np.int64),
        ([-0.0, 0.0, float("nan")] + [float(i) for i in range(n)], np.float64),
        ([False, True], np.bool_),
        ([f"s{i}" for i in range(n)], object),
    ]
    for pool, dtype in pools:
        for runs in {n // 3 - 1, n // 3, n // 3 + 1, n // 4, n // 4 + 1, n}:
            for distinct in {1, 2, n // 4, n // 4 + 1, runs}:
                distinct = min(distinct, runs, len(pool))
                if runs < 1 or (distinct < 2 and runs > 1):
                    continue
                values = _boundary_column(n, runs, distinct, pool, dtype)
                assert_same_codec(
                    choose_encoding(values), reference_choose_encoding(values)
                )
