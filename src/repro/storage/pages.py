"""Slotted pages and an LRU buffer pool.

The substrate for the "Disk Row Store" of architecture (c): a classic
disk-based RDBMS layout where rows live in fixed-capacity slotted pages,
reads go through a buffer pool, and a miss costs two orders of magnitude
more than any in-memory operation.  That cost gap is the entire reason
Heatwave-style systems bolt a distributed in-memory column store on top.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from ..common.cost import CostModel
from ..common.types import Row

PAGE_CAPACITY = 64  # rows per page


@dataclass
class Page:
    """A slotted heap page; ``None`` slots are free."""

    page_id: int
    slots: list[Row | None] = field(default_factory=lambda: [None] * PAGE_CAPACITY)
    dirty: bool = False

    def free_slot(self) -> int | None:
        """The lowest free slot, or None on a full page."""
        try:
            return self.slots.index(None)
        except ValueError:
            return None

    def live_rows(self) -> int:
        return sum(1 for s in self.slots if s is not None)


class BufferPool:
    """LRU cache of pages over a simulated disk, with cost accounting."""

    def __init__(self, disk: dict[int, Page], capacity: int, cost: CostModel):
        if capacity < 1:
            raise ValueError("buffer pool needs capacity >= 1")
        self._disk = disk
        self._capacity = capacity
        self._cost = cost
        self._resident: OrderedDict[int, Page] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def fetch(self, page_id: int) -> Page:
        """Pin ``page_id`` resident, paying hit or miss cost."""
        page = self._resident.get(page_id)
        if page is not None:
            self._resident.move_to_end(page_id)
            self._cost.charge(self._cost.buffer_hit_us)
            self.hits += 1
            return page
        self.misses += 1
        self._cost.charge(self._cost.page_read_us)
        page = self._disk[page_id]
        self._admit(page)
        return page

    def _admit(self, page: Page) -> None:
        self._resident[page.page_id] = page
        self._resident.move_to_end(page.page_id)
        while len(self._resident) > self._capacity:
            evicted_id, evicted = self._resident.popitem(last=False)
            self.evictions += 1
            if evicted.dirty:
                self._cost.charge(self._cost.page_write_us)
                evicted.dirty = False

    def flush_all(self) -> int:
        """Write back every dirty resident page; returns pages written."""
        written = 0
        for page in self._resident.values():
            if page.dirty:
                self._cost.charge(self._cost.page_write_us)
                page.dirty = False
                written += 1
        return written

    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
