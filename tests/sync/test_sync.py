"""Data-synchronization techniques: merges and rebuild."""

import pytest

from repro.common import Column, CostModel, DataType, Schema
from repro.storage.column_store import ColumnStore
from repro.storage.delta_log import LogDeltaManager
from repro.storage.delta_store import InMemoryDeltaStore
from repro.storage.row_store import MVCCRowStore
from repro.sync import ColumnStoreRebuilder, InMemoryDeltaMerger, LogDeltaMerger


def make_schema():
    return Schema(
        "t",
        [Column("id", DataType.INT64), Column("v", DataType.FLOAT64)],
        ["id"],
    )


class TestInMemoryDeltaMerge:
    def _setup(self, threshold=5):
        schema = make_schema()
        cost = CostModel()
        delta = InMemoryDeltaStore(schema, cost)
        main = ColumnStore(schema, cost)
        merger = InMemoryDeltaMerger(delta, main, cost, threshold_rows=threshold)
        return delta, main, merger

    def test_threshold_gate(self):
        delta, main, merger = self._setup(threshold=5)
        for ts in range(1, 4):
            delta.record_insert((ts, float(ts)), ts)
        assert merger.maybe_merge() == 0
        delta.record_insert((4, 4.0), 4)
        delta.record_insert((5, 5.0), 5)
        assert merger.maybe_merge() == 5
        assert len(main) == 5

    def test_merge_collapses_versions(self):
        delta, main, merger = self._setup(threshold=1)
        delta.record_insert((1, 1.0), 1)
        delta.record_update((1, 2.0), 2)
        delta.record_insert((2, 5.0), 3)
        delta.record_delete(2, 4)
        merged = merger.merge()
        assert merged == 1
        assert sorted(main.all_rows()) == [(1, 2.0)]

    def test_two_phase_cut_leaves_newer_entries(self):
        delta, main, merger = self._setup(threshold=1)
        for ts in range(1, 11):
            delta.record_insert((ts, float(ts)), ts)
        merger.merge(up_to_ts=5)
        assert len(main) == 5
        assert len(delta) == 5  # entries after the cut stayed
        assert main.max_commit_ts() == 5

    def test_merge_applies_deletes_to_main(self):
        delta, main, merger = self._setup(threshold=1)
        main.append_rows([(1, 1.0), (2, 2.0)], commit_ts=1)
        delta.record_delete(1, 5)
        merger.merge()
        assert sorted(main.all_rows()) == [(2, 2.0)]
        assert main.max_commit_ts() == 5

    def test_stats_recorded(self):
        delta, _main, merger = self._setup(threshold=1)
        delta.record_insert((1, 1.0), 1)
        merger.merge()
        assert merger.stats.merges == 1
        assert merger.stats.rows_merged == 1
        assert merger.stats.merge_time_us > 0

    def test_empty_merge_is_noop(self):
        _delta, _main, merger = self._setup(threshold=1)
        assert merger.merge() == 0
        assert merger.stats.merges == 0


class TestLogDeltaMerge:
    def _setup(self, threshold_files=2):
        schema = make_schema()
        cost = CostModel()
        log = LogDeltaManager(schema, cost, seal_threshold=4)
        main = ColumnStore(schema, cost)
        merger = LogDeltaMerger(log, main, cost, threshold_files=threshold_files)
        return log, main, merger

    def test_merge_folds_files(self):
        log, main, merger = self._setup()
        for i in range(10):
            log.record_insert((i, float(i)), i + 1)
        log.seal()
        assert merger.should_merge()
        merged = merger.merge()
        assert merged == 10
        assert len(main) == 10
        assert log.files == []

    def test_newest_file_wins(self):
        log, main, merger = self._setup(threshold_files=1)
        log.record_insert((1, 1.0), 1)
        log.seal()
        log.record_update((1, 99.0), 2)
        log.seal()
        merger.merge()
        assert main.all_rows() == [(1, 99.0)]
        assert merger.stats.entries_superseded == 1

    def test_deletes_reach_main(self):
        log, main, merger = self._setup(threshold_files=1)
        main.append_rows([(5, 5.0)], commit_ts=1)
        log.record_delete(5, 7)
        log.seal()
        merger.merge()
        assert main.all_rows() == []
        assert main.max_commit_ts() == 7

    def test_pages_read_accounted(self):
        log, _main, merger = self._setup(threshold_files=1)
        for i in range(20):
            log.record_insert((i, float(i)), i + 1)
        log.seal()
        merger.merge()
        assert merger.stats.pages_read >= 1

    def test_maybe_merge_respects_threshold(self):
        log, _main, merger = self._setup(threshold_files=3)
        log.record_insert((1, 1.0), 1)
        log.seal()
        assert merger.maybe_merge() == 0


class TestRebuild:
    def _setup(self, threshold=0.5):
        schema = make_schema()
        cost = CostModel()
        rows = MVCCRowStore(schema, cost)
        main = ColumnStore(schema, cost)
        rebuilder = ColumnStoreRebuilder(rows, main, cost, staleness_threshold=threshold)
        return rows, main, rebuilder

    def test_rebuild_copies_snapshot(self):
        rows, main, rebuilder = self._setup()
        for i in range(10):
            rows.install_insert((i, float(i)), commit_ts=1)
        loaded = rebuilder.rebuild(snapshot_ts=1)
        assert loaded == 10
        assert sorted(main.all_rows()) == sorted(rows.snapshot_rows(1))

    def test_threshold_logic(self):
        rows, _main, rebuilder = self._setup(threshold=0.5)
        for i in range(10):
            rows.install_insert((i, float(i)), commit_ts=1)
        rebuilder.rebuild(1)
        for _ in range(4):
            rebuilder.on_change()
        assert not rebuilder.should_rebuild()
        rebuilder.on_change()
        assert rebuilder.should_rebuild()
        assert rebuilder.maybe_rebuild(2) == 10
        assert rebuilder.staleness() == 0.0

    def test_rebuild_replaces_stale_image(self):
        rows, main, rebuilder = self._setup()
        rows.install_insert((1, 1.0), 1)
        rebuilder.rebuild(1)
        rows.install_update(1, (1, 42.0), 2)
        rows.install_insert((2, 2.0), 3)
        rebuilder.rebuild(3)
        assert sorted(main.all_rows()) == [(1, 42.0), (2, 2.0)]

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            self._setup(threshold=0.0)
