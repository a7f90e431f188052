"""Reference ring hash: the recursive definition every placement point
must equal, kept verbatim from before the type-exact fast paths."""

from __future__ import annotations

from typing import Any


def _stable_hash(key: Any) -> int:
    """Deterministic across processes (no PYTHONHASHSEED dependence)."""
    if isinstance(key, tuple):
        acc = 1469598103934665603
        for part in key:
            acc = (acc ^ _stable_hash(part)) * 1099511628211 % (2**64)
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
    if isinstance(key, float):
        return _stable_hash(repr(key))
    return _stable_hash(repr(key))


def hash_point(table: str, key: Any) -> int:
    return _stable_hash((table, key))


def placement_point(group: str, prefix: tuple) -> int:
    return _stable_hash(("placement", group, prefix))
