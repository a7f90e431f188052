"""Disk row store (pages + buffer pool) and Oracle-style IMCU/SMU."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import (
    Column,
    Comparison,
    CostModel,
    DataType,
    DuplicateKeyError,
    KeyNotFoundError,
    Schema,
)
from repro.common.types import rows_to_columns
from repro.storage.column_store import seal_segment
from repro.storage.disk_row_store import DiskRowStore
from repro.storage.imcu import InMemoryColumnUnit
from repro.storage.pages import PAGE_CAPACITY, BufferPool, Page
from repro.storage.row_store import MVCCRowStore
from tests.oracle import logged_cost
from tests.storage.test_compression import assert_same_codec, same_array


def make_schema():
    return Schema(
        "t",
        [Column("id", DataType.INT64), Column("v", DataType.FLOAT64)],
        ["id"],
    )


def test_free_slot_is_the_lowest_free_slot_and_none_on_a_full_page():
    page = Page(page_id=0)
    assert page.free_slot() == 0
    page.slots = [(i, float(i)) for i in range(PAGE_CAPACITY)]
    assert page.free_slot() is None
    for slot in (40, 7, 63):
        page.slots[slot] = None
    assert page.free_slot() == 7
    page.slots[7] = (7, 7.0)
    assert page.free_slot() == 40
    page.slots[40] = (40, 40.0)
    assert page.free_slot() == 63


class TestBufferPool:
    def test_hit_miss_accounting(self):
        cost = CostModel()
        disk = {i: Page(page_id=i) for i in range(10)}
        pool = BufferPool(disk, capacity=3, cost=cost)
        pool.fetch(0)
        pool.fetch(1)
        pool.fetch(0)
        assert pool.hits == 1
        assert pool.misses == 2

    def test_eviction_lru(self):
        cost = CostModel()
        disk = {i: Page(page_id=i) for i in range(10)}
        pool = BufferPool(disk, capacity=2, cost=cost)
        pool.fetch(0)
        pool.fetch(1)
        pool.fetch(2)  # evicts 0
        assert pool.evictions == 1
        pool.fetch(0)  # miss again
        assert pool.misses == 4

    def test_dirty_eviction_pays_write(self):
        cost = CostModel()
        disk = {i: Page(page_id=i) for i in range(3)}
        pool = BufferPool(disk, capacity=1, cost=cost)
        page = pool.fetch(0)
        page.dirty = True
        before = cost.now_us()
        pool.fetch(1)
        assert cost.now_us() - before >= cost.page_write_us

    def test_flush_all(self):
        cost = CostModel()
        disk = {0: Page(page_id=0)}
        pool = BufferPool(disk, capacity=2, cost=cost)
        pool.fetch(0).dirty = True
        assert pool.flush_all() == 1
        assert pool.flush_all() == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BufferPool({}, capacity=0, cost=CostModel())


class TestDiskRowStore:
    def test_insert_read(self):
        store = DiskRowStore(make_schema())
        store.insert((1, 1.5), commit_ts=1)
        assert store.read(1) == (1, 1.5)
        assert store.read(2) is None

    def test_duplicate_rejected(self):
        store = DiskRowStore(make_schema())
        store.insert((1, 1.0), 1)
        with pytest.raises(DuplicateKeyError):
            store.insert((1, 2.0), 2)

    def test_update_delete(self):
        store = DiskRowStore(make_schema())
        store.insert((1, 1.0), 1)
        store.update(1, (1, 9.0), 2)
        assert store.read(1) == (1, 9.0)
        store.delete(1, 3)
        assert store.read(1) is None
        assert len(store) == 0

    def test_delete_missing_raises(self):
        store = DiskRowStore(make_schema())
        with pytest.raises(KeyNotFoundError):
            store.delete(1, 1)

    def test_slot_reuse_after_delete(self):
        store = DiskRowStore(make_schema())
        for i in range(PAGE_CAPACITY):
            store.insert((i, float(i)), 1)
        pages_before = store.page_count()
        store.delete(0, 2)
        store.insert((999, 9.0), 3)
        assert store.page_count() == pages_before

    def test_pages_allocated_as_needed(self):
        store = DiskRowStore(make_schema())
        n = PAGE_CAPACITY * 3 + 1
        for i in range(n):
            store.insert((i, float(i)), 1)
        assert store.page_count() == 4

    def test_scan(self):
        store = DiskRowStore(make_schema())
        for i in range(100):
            store.insert((i, float(i)), 1)
        rows = store.scan(Comparison("v", ">=", 95.0))
        assert sorted(r[0] for r in rows) == [95, 96, 97, 98, 99]

    def test_iter_rows_index_order(self):
        store = DiskRowStore(make_schema())
        for i in [5, 1, 9, 3]:
            store.insert((i, float(i)), 1)
        assert [k for k, _r in store.iter_rows()] == [1, 3, 5, 9]

    def test_change_listener(self):
        store = DiskRowStore(make_schema())
        events = []
        store.add_change_listener(lambda kind, key, row, ts: events.append((kind, key)))
        store.insert((1, 1.0), 1)
        store.update(1, (1, 2.0), 2)
        store.delete(1, 3)
        assert events == [("insert", 1), ("update", 1), ("delete", 1)]

    def test_buffer_misses_on_cold_scan(self):
        store = DiskRowStore(make_schema(), buffer_capacity=2)
        for i in range(PAGE_CAPACITY * 8):
            store.insert((i, float(i)), 1)
        store.scan()
        assert store.buffer_pool.misses > 0


class TestImcu:
    def _store_with_rows(self, n=20):
        cost = CostModel()
        store = MVCCRowStore(make_schema(), cost)
        for i in range(n):
            store.install_insert((i, float(i)), commit_ts=1)
        return store, cost

    def test_populate_and_scan(self):
        store, cost = self._store_with_rows()
        imcu = InMemoryColumnUnit(make_schema(), store, cost)
        assert imcu.populate(snapshot_ts=1) == 20
        result = imcu.scan(1, ["v"], Comparison("id", "<", 5))
        assert sorted(result.arrays["v"].tolist()) == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_stale_key_patched_from_row_store(self):
        store, cost = self._store_with_rows()
        imcu = InMemoryColumnUnit(make_schema(), store, cost)
        imcu.populate(1)
        store.install_update(3, (3, 99.0), 5)
        imcu.on_change(3)
        result = imcu.scan(5, ["v"], Comparison("id", "=", 3))
        assert result.arrays["v"].tolist() == [99.0]

    def test_new_key_patched(self):
        store, cost = self._store_with_rows()
        imcu = InMemoryColumnUnit(make_schema(), store, cost)
        imcu.populate(1)
        store.install_insert((100, 100.0), 5)
        imcu.on_change(100)
        result = imcu.scan(5, ["id"])
        assert 100 in result.arrays["id"].tolist()

    def test_unpatched_scan_is_stale(self):
        store, cost = self._store_with_rows()
        imcu = InMemoryColumnUnit(make_schema(), store, cost)
        imcu.populate(1)
        store.install_update(3, (3, 99.0), 5)
        imcu.on_change(3)
        result = imcu.scan(1, ["v"], patch=False)
        # The stale key is dropped, not patched.
        assert 99.0 not in result.arrays["v"].tolist()
        assert len(result) == 19

    def test_staleness_and_repopulate(self):
        store, cost = self._store_with_rows(10)
        imcu = InMemoryColumnUnit(make_schema(), store, cost)
        imcu.populate(1)
        for i in range(5):
            store.install_update(i, (i, -1.0), 2 + i)
            imcu.on_change(i)
        assert imcu.staleness() == pytest.approx(0.5)
        imcu.populate(10)
        assert imcu.staleness() == 0.0
        assert imcu.populations == 2

    def test_deleted_key_disappears_after_patch(self):
        store, cost = self._store_with_rows(5)
        imcu = InMemoryColumnUnit(make_schema(), store, cost)
        imcu.populate(1)
        store.install_delete(2, 5)
        imcu.on_change(2)
        result = imcu.scan(5, ["id"])
        assert 2 not in result.arrays["id"].tolist()
        assert len(result) == 4


# ---------------------------------------------------------- repopulation
#
# However the row store got to its state — writes the SMU never heard
# of, a key deleted and reinserted, a vacuum, a populate at an older ts
# — a populate must leave the image a full rebuild from the row store
# at that ts would: the same keys in order, positions, codecs byte for
# byte and zone maps, for the same charges.

#: -0.0, 0.0 and NaN repeat often enough that ``f`` seals as a
#: dictionary or RLE, which fold signed zeros and NaN payloads.
_F = [-0.0, 0.0, float("nan"), -0.0, 0.0, float("nan"), None, 2.5]
_S = ["x", "yy", None, ""]


def _repopulate_schema():
    return Schema(
        "r",
        [
            Column("id", DataType.INT64),
            Column("f", DataType.FLOAT64, nullable=True),
            Column("s", DataType.STRING, nullable=True),
            Column("b", DataType.BOOL),
            Column("n", DataType.INT64, nullable=True),
        ],
        ["id"],
    )


def _row(key, cells):
    f, s, b, n = cells
    return (key, _F[f], _S[s], b, n)


_cells = st.tuples(
    st.integers(0, len(_F) - 1),
    st.integers(0, len(_S) - 1),
    st.booleans(),
    st.one_of(st.none(), st.integers(-3, 3)),
)


def _assert_full_rebuild(imcu, store, cost, log, snapshot_ts):
    n, charges = log.call(imcu.populate, snapshot_ts)
    schema = imcu.schema
    rows = store.snapshot_rows(snapshot_ts)
    keys = list(map(schema.key_of, rows))
    assert n == len(rows)
    scan, rebuild = cost.row_scan_per_row_us, cost.rebuild_per_row_us
    assert charges == [2, sum([scan * max(n, 1), rebuild * max(n, 1)], 0.0)]
    assert imcu._position == dict(zip(keys, range(n)))
    assert imcu.smu.populate_ts == snapshot_ts and imcu.staleness() == 0.0
    # The arrays kept for the next populate are the pivot's, bit for bit.
    pivot = rows_to_columns(schema, rows)
    assert all(same_array(imcu._arrays[name], column) for name, column in pivot.items())
    if not rows:
        assert imcu._segment is None
        return
    want = seal_segment(schema, rows_to_columns(schema, rows), keys, snapshot_ts)
    got = imcu._segment
    assert got.keys == want.keys
    assert got.n_rows == want.n_rows and got.max_commit_ts == want.max_commit_ts
    assert not got.delete_mask.any() and got.dead_count == 0
    assert got.encodings.keys() == want.encodings.keys()
    for name, encoding in want.encodings.items():
        assert_same_codec(got.encodings[name], encoding)
    # repr tells -0.0 from 0.0, which == does not.
    assert repr(got.zone_maps) == repr(want.zone_maps)


def test_float_column_seals_as_a_folding_codec():
    schema = _repopulate_schema()
    cost = CostModel()
    store = MVCCRowStore(schema, cost)
    for key in range(12):
        store.install_insert(_row(key, (key % 6, 0, True, None)), 1)
    imcu = InMemoryColumnUnit(schema, store, cost)
    imcu.populate(1)
    assert imcu._segment.encodings["f"].name in ("dictionary", "rle")


#: What a step between two populates can do to the row store.  Each
#: names a case a repopulation must get right: ``write`` inserts a new
#: key, updates one or deletes one; ``silent`` does so without telling
#: the unit; ``reinsert`` deletes an image key and inserts it again at
#: the same ts or a later one; ``return`` re-inserts a deleted key,
#: whose chain is older than the image; ``ephemeral`` creates a chain
#: and deletes it again; ``vacuum`` may drop whole chains; ``other``
#: populates a second unit over the same store.
_STEPS = [
    "write", "write", "write", "silent", "reinsert", "return", "ephemeral",
    "vacuum", "populate", "other",
]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_repopulate_equals_full_rebuild(data):
    schema = _repopulate_schema()
    cost, log = logged_cost()
    store = MVCCRowStore(schema, cost)
    imcu = InMemoryColumnUnit(schema, store, cost)
    other = InMemoryColumnUnit(schema, store, cost)
    ts = 1
    for key in range(data.draw(st.integers(0, 16), label="seed rows")):
        store.install_insert(_row(key, (key % 6, key % 4, key % 2 == 0, key)), ts)
    _assert_full_rebuild(imcu, store, cost, log, ts)
    last_populate = ts
    next_new_key = 100  # ephemeral chains take keys no other step draws
    for _ in range(data.draw(st.integers(1, 30), label="steps")):
        op = data.draw(st.sampled_from(_STEPS))
        if op == "vacuum":
            store.vacuum(data.draw(st.integers(0, ts), label="horizon"))
            continue
        if op == "populate":
            when = data.draw(st.sampled_from(["now", "twice", "older"]))
            at = ts
            if when == "older" and last_populate > 0:
                at = data.draw(st.integers(0, last_populate - 1), label="older ts")
            _assert_full_rebuild(imcu, store, cost, log, at)
            if when == "twice":
                _assert_full_rebuild(imcu, store, cost, log, at)
            last_populate = at
            continue
        if op == "other":
            _assert_full_rebuild(other, store, cost, log, ts)
            continue
        ts += 1
        if op == "ephemeral":
            key, next_new_key = next_new_key, next_new_key + 1
            store.install_insert(_row(key, data.draw(_cells)), ts)
            imcu.on_change(key)
            ts += 1
            store.install_delete(key, ts)
            imcu.on_change(key)
            continue
        if op == "return":
            dead = [k for k in range(25) if k in store._chains and not store.contains_key(k)]
            if not dead:
                continue
            key = data.draw(st.sampled_from(dead), label="returning key")
            store.install_insert(_row(key, data.draw(_cells)), ts)
            imcu.on_change(key)
            continue
        key = data.draw(st.integers(0, 24), label="key")
        live = store.contains_key(key)
        if op == "reinsert":
            if not live:
                continue
            store.install_delete(key, ts)
            if data.draw(st.booleans(), label="reinsert later"):
                ts += 1
            store.install_insert(_row(key, data.draw(_cells)), ts)
        elif not live:
            store.install_insert(_row(key, data.draw(_cells)), ts)
        elif data.draw(st.booleans(), label="delete"):
            store.install_delete(key, ts)
        else:
            store.install_update(key, _row(key, data.draw(_cells)), ts)
        if op != "silent":
            imcu.on_change(key)
    _assert_full_rebuild(imcu, store, cost, log, ts)


def test_repopulate_reads_only_the_fed_chains(monkeypatch):
    """After 2 000 populated rows, 20 updates and 10 inserts, a populate
    visits those 30 chains and no other; a deleted image key leaves by
    the feed, its re-insert (a chain older than the feed) walks, and so
    does the populate after a vacuum that dropped a chain."""
    schema = make_schema()
    cost = CostModel()
    store = MVCCRowStore(schema, cost)
    for key in range(2000):
        store.install_insert((key, float(key)), 1)
    imcu = InMemoryColumnUnit(schema, store, cost)
    assert imcu.populate(1) == 2000
    visits = []
    snapshot_since = store.snapshot_since

    def spy(snapshot_ts, since_ts, keys=None):
        visits.append(None if keys is None else list(keys))
        return snapshot_since(snapshot_ts, since_ts, keys)

    monkeypatch.setattr(store, "snapshot_since", spy)
    updated, inserted = list(range(0, 2000, 100)), list(range(2000, 2010))
    for key in updated:
        store.install_update(key, (key, -1.0), 2)
        imcu.on_change(key)
    for key in inserted:
        store.install_insert((key, float(key)), 2)
        imcu.on_change(key)
    assert imcu.populate(2) == 2010
    assert visits == [updated + inserted]

    store.install_delete(5, 3)
    imcu.on_change(5)
    assert imcu.populate(3) == 2009
    store.install_insert((5, 5.5), 4)
    imcu.on_change(5)
    assert imcu.populate(4) == 2010
    assert visits[1:] == [[5], [5], None]
    store.install_delete(7, 5)
    imcu.on_change(7)
    assert store.vacuum(6) > 0 and 7 not in store._chains
    assert imcu.populate(6) == 2009
    assert visits[4:] == [None]
    keys = list(store.keys())
    assert imcu._keys == keys == imcu._segment.keys
    assert imcu._position == dict(zip(keys, range(len(keys))))
    values = dict(zip(keys, imcu._arrays["v"].tolist()))
    assert values[5] == 5.5 and values[100] == -1.0 and values[2003] == 2003.0
