"""In-memory delta store and log-based delta files."""

import pytest

from repro.common import Column, CostModel, DataType, Schema
from repro.storage.delta_log import DeltaLogFile, LogDeltaManager
from repro.storage.delta_store import (
    DeltaEntry,
    DeltaKind,
    InMemoryDeltaStore,
    collapse_entries,
)


def make_schema():
    return Schema(
        "t",
        [Column("id", DataType.INT64), Column("v", DataType.FLOAT64)],
        ["id"],
    )


class TestInMemoryDelta:
    def test_append_order_enforced(self):
        delta = InMemoryDeltaStore(make_schema())
        delta.record_insert((1, 1.0), commit_ts=5)
        with pytest.raises(ValueError):
            delta.record_insert((2, 2.0), commit_ts=4)

    def test_effective_rows_collapse(self):
        delta = InMemoryDeltaStore(make_schema())
        delta.record_insert((1, 1.0), 1)
        delta.record_update((1, 2.0), 2)
        delta.record_insert((2, 5.0), 3)
        delta.record_delete(2, 4)
        live, tombstones = delta.effective_rows(snapshot_ts=10)
        assert live == {1: (1, 2.0)}
        assert tombstones == {2}

    def test_effective_rows_respects_snapshot(self):
        delta = InMemoryDeltaStore(make_schema())
        delta.record_insert((1, 1.0), 1)
        delta.record_update((1, 2.0), 5)
        live, _ = delta.effective_rows(snapshot_ts=3)
        assert live == {1: (1, 1.0)}

    def test_delete_then_reinsert(self):
        delta = InMemoryDeltaStore(make_schema())
        delta.record_insert((1, 1.0), 1)
        delta.record_delete(1, 2)
        delta.record_insert((1, 9.0), 3)
        live, tombstones = delta.effective_rows(10)
        assert live == {1: (1, 9.0)}
        assert tombstones == set()

    def test_drain_up_to(self):
        delta = InMemoryDeltaStore(make_schema())
        for ts in range(1, 11):
            delta.record_insert((ts, float(ts)), ts)
        drained = delta.drain_up_to(5)
        assert len(drained) == 5
        assert len(delta) == 5
        assert delta.min_commit_ts() == 6

    def test_drain_rebuilds_latest_index(self):
        delta = InMemoryDeltaStore(make_schema())
        delta.record_insert((1, 1.0), 1)
        delta.record_insert((2, 1.0), 2)
        delta.drain_up_to(1)
        assert delta.updated_keys() == {2}

    def test_timestamps(self):
        delta = InMemoryDeltaStore(make_schema())
        assert delta.max_commit_ts() == 0
        delta.record_insert((1, 1.0), 7)
        assert delta.min_commit_ts() == 7
        assert delta.max_commit_ts() == 7


class TestCollapse:
    def test_collapse_entries(self):
        entries = [
            DeltaEntry(DeltaKind.INSERT, 1, (1, 1.0), 1),
            DeltaEntry(DeltaKind.DELETE, 1, None, 2),
            DeltaEntry(DeltaKind.INSERT, 2, (2, 2.0), 3),
            DeltaEntry(DeltaKind.UPDATE, 2, (2, 3.0), 4),
        ]
        live, tombstones = collapse_entries(entries)
        assert live == {2: (2, 3.0)}
        assert tombstones == {1}


def land(log):
    """Let every file ``log`` has sealed land: move its clock to the
    newest one's ship time."""
    log._cost.clock.advance_to(log.landing_us())


class TestLogDelta:
    def test_seal_threshold(self):
        log = LogDeltaManager(make_schema(), seal_threshold=4)
        for i in range(10):
            log.record_insert((i, float(i)), i + 1)
        assert len(log.files) == 2
        assert log.unsealed_entries() == 2
        assert log.sealed_entries() == 8

    def test_unsealed_entries_invisible(self):
        log = LogDeltaManager(make_schema(), seal_threshold=100)
        log.record_insert((1, 1.0), 1)
        live, _ = log.effective_rows()
        assert live == {}
        log.seal()
        live, _ = log.effective_rows()
        assert live == {}  # sealed, still shipping
        land(log)
        live, _ = log.effective_rows()
        assert live == {1: (1, 1.0)}

    def test_indexed_key_count(self):
        log = LogDeltaManager(make_schema(), seal_threshold=100)
        for i in range(20):
            log.record_insert((i % 15, float(i)), i + 1)
        sealed = log.seal()
        assert sealed is not None
        assert sealed.indexed_key_count() == 15
        cols = DeltaLogFile.from_columns(0, *sealed.columns())
        assert cols.indexed_key_count() == 15

    def test_newest_entry_wins_within_file(self):
        log = LogDeltaManager(make_schema(), seal_threshold=100)
        log.record_insert((1, 1.0), 1)
        log.record_update((1, 2.0), 2)
        log.seal()
        land(log)
        live, _ = log.effective_rows()
        assert live == {1: (1, 2.0)}

    def test_drain_files(self):
        log = LogDeltaManager(make_schema(), seal_threshold=2)
        for i in range(6):
            log.record_insert((i, float(i)), i + 1)
        files = log.drain_files()
        assert len(files) == 3
        assert log.files == []

    def test_effective_rows_up_to_ts(self):
        log = LogDeltaManager(make_schema(), seal_threshold=1)
        log.record_insert((1, 1.0), 5)
        log.record_insert((2, 2.0), 9)
        land(log)
        live, _ = log.effective_rows(up_to_ts=6)
        assert set(live) == {1}

    def test_seal_charges_io_and_shipping(self):
        cost = CostModel()
        log = LogDeltaManager(make_schema(), cost=cost, seal_threshold=100)
        log.record_insert((1, 1.0), 1)
        before = cost.now_us()
        sealed = log.seal()
        # The page write is charged; shipping is time in flight.
        assert cost.now_us() - before == cost.page_write_us
        assert sealed.shipped_at_us == cost.now_us() + log.ship_latency_us
        assert log.in_flight() == 1
        cost.clock.advance(log.ship_latency_us)
        assert log.in_flight() == 0

    def test_scan_charges_page_reads(self):
        cost = CostModel()
        log = LogDeltaManager(make_schema(), cost=cost, seal_threshold=10)
        for i in range(30):
            log.record_insert((i, float(i)), i + 1)
        land(log)
        before = cost.now_us()
        log.scan_sealed()
        assert cost.now_us() - before >= 3 * cost.page_read_us

    def test_seal_empty_returns_none(self):
        log = LogDeltaManager(make_schema())
        assert log.seal() is None


class TestColumnarBatchDelta:
    def test_partial_drain_reindexes_latest(self):
        """Regression: after a cut-timestamp drain (merge phase 1), the
        residual entries' latest-index must be re-derived, not shifted —
        commits that landed during phase 1 would otherwise resolve to
        the wrong positions."""
        delta = InMemoryDeltaStore(make_schema())
        delta.record_insert((1, 1.0), 1)
        delta.record_insert((2, 2.0), 2)
        delta.record_update((2, 2.5), 3)
        # Phase 1 drains the prefix; the ts=3 update stays resident.
        delta.drain_up_to(2)
        # Interleaved commits land while phase 2 has not yet run.
        delta.record_insert((3, 3.0), 4)
        delta.record_update((3, 3.5), 5)
        live, tombstones = delta.effective_rows(snapshot_ts=10)
        assert live == {2: (2, 2.5), 3: (3, 3.5)}
        assert tombstones == set()
        assert delta.updated_keys() == {2, 3}
        # And the next drain moves exactly the residual batch.
        batch = delta.drain_batch_up_to(10)
        collapsed = batch.collapse()
        assert dict(zip(collapsed.live_keys, collapsed.live_rows)) == {
            2: (2, 2.5),
            3: (3, 3.5),
        }
        assert len(delta) == 0

    def test_record_insert_batch(self):
        delta = InMemoryDeltaStore(make_schema())
        delta.record_insert_batch([(1, 1.0), (2, 2.0)], commit_ts=3)
        live, _ = delta.effective_rows(10)
        assert live == {1: (1, 1.0), 2: (2, 2.0)}
        assert delta.max_commit_ts() == 3
        with pytest.raises(ValueError):
            delta.record_insert_batch([(9, 9.0)], commit_ts=2)

    def test_record_delete_batch(self):
        delta = InMemoryDeltaStore(make_schema())
        delta.record_insert_batch([(1, 1.0), (2, 2.0), (3, 3.0)], commit_ts=1)
        delta.record_delete_batch([1, 3], commit_ts=2)
        live, tombstones = delta.effective_rows(10)
        assert live == {2: (2, 2.0)}
        assert tombstones == {1, 3}

    def test_drain_batch_matches_scalar_drain(self):
        ops = [
            ("i", 1, 1.0), ("u", 1, 1.5), ("i", 2, 2.0), ("d", 2, 0.0),
            ("i", 3, 3.0), ("d", 4, 0.0), ("i", 2, 9.0),
        ]

        def fill(delta):
            for ts, (kind, key, val) in enumerate(ops, start=1):
                if kind == "i":
                    delta.record_insert((key, val), ts)
                elif kind == "u":
                    delta.record_update((key, val), ts)
                else:
                    delta.record_delete(key, ts)

        a = InMemoryDeltaStore(make_schema())
        fill(a)
        entries = a.drain_up_to(len(ops))
        live_scalar, tomb_scalar = collapse_entries(entries)

        b = InMemoryDeltaStore(make_schema())
        fill(b)
        live_vec, tomb_vec = b.drain_batch_up_to(len(ops)).collapse().as_dicts()
        assert live_vec == live_scalar
        assert tomb_vec == tomb_scalar

    def test_clear_batch_returns_everything(self):
        delta = InMemoryDeltaStore(make_schema())
        delta.record_insert((1, 1.0), 1)
        delta.record_delete(1, 2)
        batch = delta.clear_batch()
        assert len(batch) == 2
        assert len(delta) == 0
        collapsed = batch.collapse()
        assert collapsed.live_keys == []
        assert collapsed.tombstones == [1]

    def test_log_append_batch_seals_like_scalar(self):
        entries = [
            DeltaEntry(DeltaKind.INSERT, i, (i, float(i)), i + 1)
            for i in range(10)
        ]
        scalar = LogDeltaManager(make_schema(), seal_threshold=4)
        for e in entries:
            scalar.record_insert(e.row, e.commit_ts)
        batched = LogDeltaManager(make_schema(), seal_threshold=4)
        batched.append_batch(entries)
        assert len(batched.files) == len(scalar.files) == 2
        assert batched.unsealed_entries() == scalar.unsealed_entries() == 2
        assert [len(f) for f in batched.files] == [len(f) for f in scalar.files]
        assert batched.effective_rows() == scalar.effective_rows()
