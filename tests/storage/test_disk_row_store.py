"""``DiskRowStore`` against a dict model, plus a pin of what it charges.

The store is a heap of slotted pages behind an LRU buffer pool and a
primary index.  Whatever the index is built from, the store must answer
every ``insert`` / ``update`` / ``delete`` / ``read`` / ``contains_key``
/ ``iter_rows`` exactly as a plain ``key -> row`` dict does, reuse the
slots deletes free, refuse a tuple offered where the key is one column,
and fetch and charge page for page what it charged when its index was a
B+-tree.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import Column, DataType, DuplicateKeyError, KeyNotFoundError, Schema
from repro.storage.disk_row_store import DiskRowStore
from repro.storage.pages import PAGE_CAPACITY

from ..oracle import logged_cost

SCALAR = Schema(
    "t",
    [Column("id", DataType.INT64), Column("v", DataType.FLOAT64)],
    ["id"],
)
COMPOSITE = Schema(
    "t",
    [
        Column("w", DataType.INT64),
        Column("d", DataType.STRING),
        Column("v", DataType.FLOAT64),
    ],
    ["w", "d"],
)

_scalar_keys = st.integers(0, 150)
_composite_keys = st.tuples(st.integers(0, 12), st.sampled_from(["a", "b", "c", "dd"]))


def _row(schema: Schema, key, value: float):
    return (key, value) if schema is SCALAR else (*key, value)


def _ops(keys):
    value = st.floats(-1e6, 1e6, allow_nan=False)
    return st.lists(
        st.one_of(
            st.tuples(st.sampled_from(["insert", "update"]), keys, value),
            st.tuples(st.sampled_from(["delete", "read", "contains"]), keys),
            st.tuples(st.just("fill"), keys, st.integers(1, 2 * PAGE_CAPACITY)),
            st.tuples(st.just("iter")),
        ),
        max_size=60,
    )


def _run(schema: Schema, ops, buffer_capacity: int) -> None:
    store = DiskRowStore(schema, buffer_capacity=buffer_capacity)
    model: dict = {}
    peak = 0
    for ts, op in enumerate(ops, start=1):
        kind = op[0]
        if kind == "fill":  # bulk inserts: pages fill up, then deletes free slots
            for i in range(op[2]):
                key = op[1] + i if schema is SCALAR else (op[1][0] + 100 + i, op[1][1])
                if key not in model:
                    row = _row(schema, key, float(i))
                    assert store.insert(row, ts) == key
                    model[key] = row
        elif kind == "insert":
            row = _row(schema, op[1], op[2])
            if op[1] in model:
                with pytest.raises(DuplicateKeyError):
                    store.insert(row, ts)
            else:
                assert store.insert(row, ts) == op[1]
                model[op[1]] = row
        elif kind == "update":
            row = _row(schema, op[1], op[2])
            if op[1] in model:
                store.update(op[1], row, ts)
                model[op[1]] = row
            else:
                with pytest.raises(KeyNotFoundError):
                    store.update(op[1], row, ts)
        elif kind == "delete":
            if op[1] in model:
                store.delete(op[1], ts)
                del model[op[1]]
            else:
                with pytest.raises(KeyNotFoundError):
                    store.delete(op[1], ts)
        elif kind == "read":
            assert store.read(op[1]) == model.get(op[1])
        elif kind == "contains":
            assert store.contains_key(op[1]) == (op[1] in model)
        else:
            assert list(store.iter_rows()) == sorted(model.items())
        peak = max(peak, len(model))
        assert len(store) == len(model)
        # A page is added only when every page is full: freed slots are
        # always reused first.
        assert store.page_count() == -(-peak // PAGE_CAPACITY)
    if schema is SCALAR:
        # A tuple offered on a one-column key is nobody's key.
        for key in list(model)[:5]:
            assert store.read((key,)) is None
            assert not store.contains_key((key,))
            with pytest.raises(KeyNotFoundError):
                store.update((key,), model[key], len(ops) + 1)
    assert list(store.iter_rows()) == sorted(model.items())
    assert sorted(store.scan()) == sorted(model.values())


@settings(max_examples=80, deadline=None)
@given(ops=_ops(_scalar_keys), capacity=st.integers(1, 4))
def test_scalar_key_store_matches_dict(ops, capacity):
    _run(SCALAR, ops, capacity)


@settings(max_examples=80, deadline=None)
@given(ops=_ops(_composite_keys), capacity=st.integers(1, 4))
def test_composite_key_store_matches_dict(ops, capacity):
    _run(COMPOSITE, ops, capacity)


# ------------------------------------------------------------ charge pin


def _charge_script():
    """One fixed script over four pages with a two-page buffer pool:
    ``[charges, simulated us]`` per call, then the pool's counters."""
    cost, log = logged_cost()
    store = DiskRowStore(SCALAR, cost, buffer_capacity=2)
    calls = []

    def call(fn, *args):
        calls.append(log.call(fn, *args)[1])

    for i in range(4 * PAGE_CAPACITY):
        call(store.insert, ((i * 37) % 256, float(i)), 1)
    for key in (0, 255, 3, 3, 128, 64, 999):
        call(store.read, key)
    for key in (5, 200, 70):
        call(store.update, key, (key, -1.0), 2)
    for key in (1, 130, 250, 2):
        call(store.delete, key, 3)
    for key in (1000, 1001, 130):
        call(store.insert, (key, 0.5), 4)
    call(store.contains_key, 7)
    call(lambda: list(store.iter_rows()))
    call(store.scan)
    pool = store.buffer_pool
    return calls, [pool.hits, pool.misses, pool.evictions]


#: Recorded with the store's index as a B+-tree.  The inserts as runs of
#: ``([charges, us], repeat)``: a buffer hit is 0.8 us, a miss 120, a
#: dirty page's write-back on eviction 150, an index descent 1.2.
_PINNED_INSERTS = [
    ([0, 0.0], 1), ([1, 0.8], 127), ([2, 150.8], 1), ([1, 0.8], 63),
    ([2, 150.8], 1), ([1, 0.8], 63),
]
_PINNED_TAIL = [
    [3, 271.2], [3, 271.2], [2, 2.0], [2, 2.0], [2, 121.2], [2, 121.2],
    [0, 0.0],  # a missing key charges nothing
    [2, 2.0], [2, 121.2], [2, 2.0],
    [3, 271.2], [3, 271.2], [2, 2.0], [3, 271.2],
    [1, 0.8], [3, 270.8], [3, 270.8],
    [0, 0.0],
    [257, 30303.999999999996],
    [5, 607.5],
]
_PINNED_POOL = [268, 264, 266]  # hits, misses, evictions


def test_fetches_and_charges_are_pinned():
    calls, pool = _charge_script()
    inserts = [c for c, n in _PINNED_INSERTS for _ in range(n)]
    assert calls[: len(inserts)] == inserts
    assert calls[len(inserts):] == _PINNED_TAIL
    assert pool == _PINNED_POOL
