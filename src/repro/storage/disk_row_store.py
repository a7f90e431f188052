"""A disk-based row store: slotted pages + buffer pool + primary index.

The primary store of architecture (c) ("Disk Row Store + Distributed
Column Store", MySQL Heatwave in the survey).  The primary index is a
hash directory (key -> page and slot), priced per probe as the B+-tree
descent a disk RDBMS makes (``index_lookup_us``); key-ordered iteration
sorts it.  It is a current-state store: the engine's transaction
manager serializes commits, so readers always see the latest committed
row.  Every change is also offered to a registered change listener, the
hook the engine uses for threshold-based change propagation into the
in-memory column-store cluster.
"""

from __future__ import annotations

from typing import Callable, Iterator

from ..common.clock import Timestamp
from ..common.cost import CostModel
from ..common.errors import DuplicateKeyError, KeyNotFoundError
from ..common.predicate import ALWAYS_TRUE, Predicate
from ..common.types import Key, Row, Schema
from .pages import Page, BufferPool

ChangeListener = Callable[[str, Key, Row | None, Timestamp], None]
"""(kind, key, row_or_none, commit_ts) — kind in {'insert','update','delete'}."""


class DiskRowStore:
    """Heap-file row store behind an LRU buffer pool."""

    def __init__(
        self,
        schema: Schema,
        cost: CostModel | None = None,
        buffer_capacity: int = 128,
    ):
        self.schema = schema
        self._cost = cost or CostModel()
        self._disk: dict[int, Page] = {}
        self._pool = BufferPool(self._disk, buffer_capacity, self._cost)
        self._index: dict[Key, tuple[int, int]] = {}  # key -> (page_id, slot)
        self._next_page_id = 0
        self._free_pages: list[int] = []  # pages known to have space
        self._listeners: list[ChangeListener] = []
        self._count = 0
        self.last_commit_ts: Timestamp = 0
        #: Monotone write-version (insert/update/delete); scan caches
        #: key on it to fence stale batches.
        self.mutations = 0

    # ------------------------------------------------------------- plumbing

    @property
    def buffer_pool(self) -> BufferPool:
        return self._pool

    def add_change_listener(self, listener: ChangeListener) -> None:
        self._listeners.append(listener)

    def _notify(self, kind: str, key: Key, row: Row | None, ts: Timestamp) -> None:
        for listener in self._listeners:
            listener(kind, key, row, ts)

    def __len__(self) -> int:
        return self._count

    def page_count(self) -> int:
        return len(self._disk)

    def disk_bytes(self) -> int:
        from .pages import PAGE_CAPACITY

        width = max(1, len(self.schema.columns))
        return len(self._disk) * PAGE_CAPACITY * width * 16

    # ------------------------------------------------------------- writes

    def insert(self, row: Row, commit_ts: Timestamp) -> Key:
        return self.insert_validated(self.schema.validate_row(row), commit_ts)

    def insert_validated(self, row: Row, commit_ts: Timestamp) -> Key:
        """:meth:`insert` of a row that ``Schema.validate_row`` already
        returned: an engine's commit, bulk load and WAL replay install
        the tuple its session or loader validated."""
        key = self.schema.key_of(row)
        if self.contains_key(key):
            raise DuplicateKeyError(f"key {key!r} already in {self.schema.table_name!r}")
        page = self._page_with_space()
        slot = page.free_slot()
        assert slot is not None
        page.slots[slot] = row
        page.dirty = True
        self._index[key] = (page.page_id, slot)
        self._count += 1
        self.mutations += 1
        self.last_commit_ts = max(self.last_commit_ts, commit_ts)
        self._notify("insert", key, row, commit_ts)
        return key

    def update(self, key: Key, row: Row, commit_ts: Timestamp) -> None:
        self.update_validated(key, self.schema.validate_row(row), commit_ts)

    def update_validated(self, key: Key, row: Row, commit_ts: Timestamp) -> None:
        """:meth:`update` of a validated row (see :meth:`insert_validated`)."""
        page_id, slot = self._locate(key)
        page = self._pool.fetch(page_id)
        page.slots[slot] = row
        page.dirty = True
        self.mutations += 1
        self.last_commit_ts = max(self.last_commit_ts, commit_ts)
        self._notify("update", key, row, commit_ts)

    def delete(self, key: Key, commit_ts: Timestamp) -> None:
        page_id, slot = self._locate(key)
        page = self._pool.fetch(page_id)
        page.slots[slot] = None
        page.dirty = True
        del self._index[key]
        if page_id not in self._free_pages:
            self._free_pages.append(page_id)
        self._count -= 1
        self.mutations += 1
        self.last_commit_ts = max(self.last_commit_ts, commit_ts)
        self._notify("delete", key, None, commit_ts)

    def _locate(self, key: Key) -> tuple[int, int]:
        loc = self._index.get(key)
        if loc is None:
            raise KeyNotFoundError(f"key {key!r} not in {self.schema.table_name!r}")
        self._cost.charge(self._cost.index_lookup_us)
        return loc

    def _page_with_space(self) -> Page:
        while self._free_pages:
            page = self._pool.fetch(self._free_pages[-1])
            if page.free_slot() is not None:
                return page
            self._free_pages.pop()
        page = Page(page_id=self._next_page_id)
        self._next_page_id += 1
        self._disk[page.page_id] = page
        self._free_pages.append(page.page_id)
        self._pool._admit(page)  # freshly created pages are hot
        return page

    # ------------------------------------------------------------- reads

    def contains_key(self, key: Key) -> bool:
        """Index-only existence probe: no page fetch, no charge."""
        return key in self._index

    def read(self, key: Key) -> Row | None:
        loc = self._index.get(key)
        if loc is None:
            return None
        self._cost.charge(self._cost.index_lookup_us)
        page_id, slot = loc
        page = self._pool.fetch(page_id)
        return page.slots[slot]

    def scan(self, predicate: Predicate = ALWAYS_TRUE) -> list[Row]:
        """Full heap scan through the buffer pool (the slow path the
        in-memory column-store cluster exists to avoid)."""
        out: list[Row] = []
        for page_id in sorted(self._disk):
            page = self._pool.fetch(page_id)
            for row in page.slots:
                if row is not None and predicate.matches(row, self.schema):
                    out.append(row)
        self._cost.charge_rows(self._cost.row_scan_per_row_us, max(self._count, 1))
        return out

    def iter_rows(self) -> Iterator[tuple[Key, Row]]:
        """Key-ordered iteration (no predicate, pays the same I/O)."""
        for key, (page_id, slot) in sorted(self._index.items()):
            yield key, self._pool.fetch(page_id).slots[slot]
