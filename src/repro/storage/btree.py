"""An in-memory B+-tree.

Used two ways in the testbed, both where range probes are the point:

* secondary indexes of the in-memory MVCC row store;
* the multi-version (MV-PBT-style) secondary index.

Leaves are chained for range scans.  Keys must be mutually comparable;
values are opaque.  Duplicate keys overwrite (the tree is a map).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterator

from ..common.errors import KeyNotFoundError

_DEFAULT_ORDER = 32


class _Node:
    __slots__ = ("keys", "children", "values", "next_leaf", "is_leaf")

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        self.keys: list[Any] = []
        self.children: list[_Node] = []   # internal nodes only
        self.values: list[Any] = []       # leaves only
        self.next_leaf: _Node | None = None


class BPlusTree:
    """Classic order-``m`` B+-tree map with linked leaves."""

    def __init__(self, order: int = _DEFAULT_ORDER):
        if order < 4:
            raise ValueError("order must be >= 4")
        self._order = order
        self._root = _Node(is_leaf=True)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @classmethod
    def from_sorted(
        cls, items: list[tuple[Any, Any]], order: int = _DEFAULT_ORDER
    ) -> "BPlusTree":
        """Bottom-up bulk build from key-sorted, duplicate-free pairs.

        O(n) node construction instead of n top-down inserts; produces
        the same map (packed leaves, chained left to right).  Callers
        must pre-sort and de-duplicate — violations corrupt lookups.
        """
        tree = cls(order)
        if not items:
            return tree
        level: list[_Node] = []
        mins: list[Any] = []
        for i in range(0, len(items), order):
            chunk = items[i : i + order]
            leaf = _Node(is_leaf=True)
            leaf.keys = [k for k, _v in chunk]
            leaf.values = [v for _k, v in chunk]
            if level:
                level[-1].next_leaf = leaf
            level.append(leaf)
            mins.append(leaf.keys[0])
        tree._size = len(items)
        while len(level) > 1:
            parents: list[_Node] = []
            parent_mins: list[Any] = []
            for i in range(0, len(level), order):
                node = _Node(is_leaf=False)
                node.children = level[i : i + order]
                node.keys = mins[i + 1 : i + len(node.children)]
                parents.append(node)
                parent_mins.append(mins[i])
            level, mins = parents, parent_mins
        tree._root = level[0]
        return tree

    def __contains__(self, key: Any) -> bool:
        return self.get(key, default=_MISSING) is not _MISSING

    # ------------------------------------------------------------- lookups

    def _find_leaf(self, key: Any) -> _Node:
        node = self._root
        while not node.is_leaf:
            idx = bisect_right(node.keys, key)
            node = node.children[idx]
        return node

    def get(self, key: Any, default: Any = None) -> Any:
        leaf = self._find_leaf(key)
        idx = bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return leaf.values[idx]
        return default

    def lookup(self, key: Any) -> Any:
        """Like :meth:`get` but raises when the key is absent."""
        value = self.get(key, default=_MISSING)
        if value is _MISSING:
            raise KeyNotFoundError(f"key {key!r} not in B+-tree")
        return value

    def range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[tuple[Any, Any]]:
        """Yield (key, value) pairs with low <= key <= high, in key order."""
        if low is None:
            leaf: _Node | None = self._leftmost_leaf()
            idx = 0
        else:
            leaf = self._find_leaf(low)
            idx = bisect_left(leaf.keys, low)
            if include_low is False:
                while idx < len(leaf.keys) and leaf.keys[idx] == low:
                    idx += 1
        while leaf is not None:
            while idx < len(leaf.keys):
                key = leaf.keys[idx]
                if high is not None:
                    if key > high or (key == high and not include_high):
                        return
                yield key, leaf.values[idx]
                idx += 1
            leaf = leaf.next_leaf
            idx = 0

    def items(self) -> Iterator[tuple[Any, Any]]:
        return self.range()

    def keys(self) -> Iterator[Any]:
        for key, _value in self.items():
            yield key

    def min_key(self) -> Any:
        leaf = self._leftmost_leaf()
        if not leaf.keys:
            raise KeyNotFoundError("tree is empty")
        return leaf.keys[0]

    def max_key(self) -> Any:
        node = self._root
        while not node.is_leaf:
            node = node.children[-1]
        if not node.keys:
            raise KeyNotFoundError("tree is empty")
        return node.keys[-1]

    def _leftmost_leaf(self) -> _Node:
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        return node

    # ------------------------------------------------------------- writes

    def insert(self, key: Any, value: Any) -> None:
        """Insert or overwrite ``key``."""
        split = self._insert_into(self._root, key, value)
        if split is not None:
            sep_key, right = split
            new_root = _Node(is_leaf=False)
            new_root.keys = [sep_key]
            new_root.children = [self._root, right]
            self._root = new_root

    def _insert_into(self, node: _Node, key: Any, value: Any):
        if node.is_leaf:
            idx = bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                node.values[idx] = value
                return None
            node.keys.insert(idx, key)
            node.values.insert(idx, value)
            self._size += 1
            if len(node.keys) > self._order:
                return self._split_leaf(node)
            return None
        idx = bisect_right(node.keys, key)
        split = self._insert_into(node.children[idx], key, value)
        if split is None:
            return None
        sep_key, right = split
        node.keys.insert(idx, sep_key)
        node.children.insert(idx + 1, right)
        if len(node.children) > self._order:
            return self._split_internal(node)
        return None

    def _split_leaf(self, node: _Node):
        mid = len(node.keys) // 2
        right = _Node(is_leaf=True)
        right.keys = node.keys[mid:]
        right.values = node.values[mid:]
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        right.next_leaf = node.next_leaf
        node.next_leaf = right
        return right.keys[0], right

    def _split_internal(self, node: _Node):
        mid = len(node.keys) // 2
        sep_key = node.keys[mid]
        right = _Node(is_leaf=False)
        right.keys = node.keys[mid + 1:]
        right.children = node.children[mid + 1:]
        node.keys = node.keys[:mid]
        node.children = node.children[:mid + 1]
        return sep_key, right

    def delete(self, key: Any) -> None:
        """Remove ``key``; raises :class:`KeyNotFoundError` when absent.

        Uses lazy deletion for internal balance (no rebalancing of
        internal separators), which keeps the tree correct for lookups
        and ranges — sufficient for an index whose workload is
        insert/lookup heavy, and far simpler to verify.
        """
        leaf = self._find_leaf(key)
        idx = bisect_left(leaf.keys, key)
        if idx >= len(leaf.keys) or leaf.keys[idx] != key:
            raise KeyNotFoundError(f"key {key!r} not in B+-tree")
        leaf.keys.pop(idx)
        leaf.values.pop(idx)
        self._size -= 1

    def depth(self) -> int:
        depth = 1
        node = self._root
        while not node.is_leaf:
            depth += 1
            node = node.children[0]
        return depth

    def check_invariants(self) -> None:
        """Assert structural invariants; used by property tests."""
        previous = None
        count = 0
        for key, _value in self.items():
            if previous is not None and not previous < key:
                raise AssertionError(f"keys out of order: {previous!r} !< {key!r}")
            previous = key
            count += 1
        if count != self._size:
            raise AssertionError(f"size mismatch: iterated {count}, size {self._size}")


_MISSING = object()
