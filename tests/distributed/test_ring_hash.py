"""Ring points against the recursive reference hash (``tests/oracle/hashing``).

Every point a row can be placed at — ``hash_point``, ``placement_point``
and ``PlacementPolicy.point_of`` — must equal the recursive definition
for every key shape a table can hand it: ints of any size and sign,
``bool`` and ``IntEnum`` (int subclasses), floats including ``-0.0``,
NaN and the infinities, non-ASCII and subclassed strings, ``None``,
bytes, and tuples nesting any of those.
"""

import enum

from hypothesis import given, settings, strategies as st

from repro.distributed import PlacementPolicy, hash_point, placement_point
from repro.distributed.partitioner import _stable_hash
from ..oracle import hashing


class Color(enum.IntEnum):
    RED = 1
    BIG = 2**70


class Name(str):
    """A ``str`` subclass: hashed by its UTF-8 bytes like any string."""


scalars = st.one_of(
    st.integers(),
    st.integers(min_value=2**64, max_value=2**80),
    st.integers(max_value=-1),
    st.booleans(),
    st.sampled_from(list(Color)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")]),
    st.text(),
    st.text(alphabet="éß字🙂a").map(Name),
    st.none(),
    st.binary(max_size=8),
)
keys = st.recursive(scalars, lambda inner: st.lists(inner, max_size=4).map(tuple), max_leaves=12)
tables = st.one_of(st.text(min_size=1), st.sampled_from(["acct", "order_line", "ß表"]))


@settings(max_examples=120, deadline=None)
@given(key=keys)
def test_stable_hash_matches_reference(key):
    assert _stable_hash(key) == hashing._stable_hash(key)


@settings(max_examples=80, deadline=None)
@given(table=tables, key=keys)
def test_hash_point_matches_reference(table, key):
    assert hash_point(table, key) == hashing.hash_point(table, key)


@settings(max_examples=80, deadline=None)
@given(group=tables, prefix=st.lists(keys, max_size=4).map(tuple))
def test_placement_point_matches_reference(group, prefix):
    assert placement_point(group, prefix) == hashing.placement_point(group, prefix)


@settings(max_examples=80, deadline=None)
@given(
    group=tables,
    prefix_len=st.integers(min_value=1, max_value=3),
    key=st.one_of(scalars, st.lists(keys, min_size=3, max_size=5).map(tuple)),
)
def test_policy_point_matches_reference(group, prefix_len, key):
    policy = PlacementPolicy()
    policy.declare("placed", group, prefix_len)
    prefix = key if isinstance(key, tuple) else (key,)
    if len(prefix) >= prefix_len:
        expected = hashing.placement_point(group, prefix[:prefix_len])
        assert policy.point_of("placed", key) == expected
    assert policy.point_of("free", key) == hashing.hash_point("free", key)


def test_constants_are_pinned():
    """A handful of literal values, so the reference itself cannot drift."""
    assert hashing.hash_point("acct", 7) == 15700393017822597322
    assert hash_point("acct", 7) == 15700393017822597322
    assert hashing.placement_point("district", (1, 2)) == 935569488888656670
    assert placement_point("district", (1, 2)) == 935569488888656670
    assert _stable_hash((True, -0.0, "é")) == hashing._stable_hash((True, -0.0, "é"))
