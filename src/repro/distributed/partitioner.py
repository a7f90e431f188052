"""Ring points: where a row lands on the 64-bit hash ring.

Architecture (b) tiles the ring with shard intervals
(:class:`~repro.distributed.metadata.ShardMap`); a row's point is a
stable hash of ``(table, key)``, or of ``("placement", group, prefix)``
when its table declares a placement key.  The hash is FNV-style over a
tuple's members and a string's UTF-8 bytes, so it is the same in every
process (Python's own ``hash`` is salted per process).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any


def hash_point(table: str, key: Any) -> int:
    """Ring position of one row: stable across processes and runs."""
    return (_leading_state(table) ^ _stable_hash(key)) * 1099511628211 % (2**64)


def placement_point(group: str, prefix: tuple) -> int:
    """Ring position of a placement-group prefix.

    Placement-driven co-location: every row whose table declares a
    placement key hashes only ``(group, key-prefix)`` instead of the
    full ``(table, key)``, so rows sharing the prefix — a district's
    customers and their history appends, an order and its lines — land
    on the *same* ring point and therefore the same shard, under any
    shard map.  The namespace tag keeps placement points from ever
    colliding semantically with plain ``hash_point`` values for
    unrelated tables.
    """
    state = _leading_state("placement", group)
    return (state ^ _stable_hash(prefix)) * 1099511628211 % (2**64)


@lru_cache(maxsize=None, typed=True)
def _leading_state(*tags: str) -> int:
    """The hash of a tuple whose leading members are ``tags``, stopped
    before its last member: a table or group name is hashed once per
    process, not once per row.  The cache holds one int per name."""
    return _stable_hash(tags)


def _stable_hash(key: Any) -> int:
    """Deterministic across processes (no PYTHONHASHSEED dependence).

    Exact ``int`` keys and tuple members are hashed inline; subclasses
    (``bool``, ``IntEnum``, ``str`` and tuple subclasses) take the
    ``isinstance`` chain, which gives the same value."""
    if type(key) is int:
        return key * 2654435761 % (2**64)
    if isinstance(key, tuple):
        acc = 1469598103934665603
        for part in key:
            part_hash = (
                part * 2654435761 % (2**64) if type(part) is int else _stable_hash(part)
            )
            acc = (acc ^ part_hash) * 1099511628211 % (2**64)
        return acc
    if isinstance(key, str):
        acc = 1469598103934665603
        for ch in key.encode("utf-8"):
            acc = (acc ^ ch) * 1099511628211 % (2**64)
        return acc
    if isinstance(key, bool):
        return int(key)
    if isinstance(key, int):
        return key * 2654435761 % (2**64)
    return _stable_hash(repr(key))
