"""Batch-vectorized sync vs the dict table model.

Every Table 2 DS technique is driven with a randomized
insert/update/delete mix (tombstones included) and must leave the main
store holding exactly what ``tests/oracle``'s ``TableModel`` — a dict,
written in commit order, last writer wins — holds, at the same
freshness timestamp.

The collapse emits winners in commit order, so raw segment layout is
an implementation detail — equality is asserted on the sorted logical
row set plus ``max_commit_ts`` and live counts, which is exactly what
every reader (scan, zone-map pruning aside) observes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common import Column, CostModel, DataType, Schema
from repro.distributed.cluster import WriteKind, WriteOp
from repro.distributed.replica import ColumnarReplica
from repro.engines.disk_row_imcs import DiskRowIMCSEngine
from repro.storage.column_store import ColumnStore
from repro.storage.delta_batch import KIND_DELETE, KIND_INSERT, KIND_UPDATE, DeltaBatch
from repro.storage.delta_log import LogDeltaManager
from repro.storage.delta_store import InMemoryDeltaStore
from repro.storage.row_store import MVCCRowStore
from repro.sync import ColumnStoreRebuilder, InMemoryDeltaMerger, LogDeltaMerger

from ..oracle import TableModel, logged_cost, store_state


def make_schema():
    return Schema(
        "t",
        [Column("id", DataType.INT64), Column("v", DataType.FLOAT64)],
        ["id"],
    )


# One op: (kind, key, value).  Deletes of absent keys are legal delta
# entries (pure tombstones); repeated keys exercise last-writer-wins.
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete"]),
        st.integers(min_value=0, max_value=15),
        st.floats(min_value=-100, max_value=100, allow_nan=False, width=32),
    ),
    min_size=0,
    max_size=60,
)


def apply_ops(target, ops, start_ts=1):
    """Feed ops into anything with record_insert/update/delete."""
    ts = start_ts
    for kind, key, value in ops:
        if kind == "insert":
            target.record_insert((key, float(value)), ts)
        elif kind == "update":
            target.record_update((key, float(value)), ts)
        else:
            target.record_delete(key, ts)
        ts += 1
    return ts - 1


def model_ops(ops, start_ts=1):
    """The same ops as ``(kind, key, row, ts)`` for the table model."""
    return [
        (kind, key, (key, float(value)), ts)
        for ts, (kind, key, value) in enumerate(ops, start_ts)
    ]


class TestDeltaMergeDifferential:
    @settings(max_examples=40, deadline=None)
    @given(ops=ops_strategy)
    def test_matches_model(self, ops):
        # Pre-existing main rows so merge-applied deletes matter.
        base = [(k, -1.0) for k in range(3)]
        model = TableModel(base).apply_all(model_ops(ops))
        schema = make_schema()
        cost = CostModel()
        delta = InMemoryDeltaStore(schema, cost)
        main = ColumnStore(schema, cost)
        main.append_rows(base, commit_ts=0)
        merger = InMemoryDeltaMerger(delta, main, cost, threshold_rows=1)
        apply_ops(delta, ops)
        merger.merge()
        assert store_state(main) == model.state()

    @settings(max_examples=20, deadline=None)
    @given(ops=ops_strategy, cut=st.integers(min_value=0, max_value=60))
    def test_partial_cut_matches_model(self, ops, cut):
        merged = model_ops(ops)[:cut]  # op i commits at ts i + 1
        residual = ops[cut:]
        model = TableModel().apply_all(merged)
        # The horizon advances to the cut itself, if anything drained.
        expect = model.state(ts=cut if merged else 0)
        schema = make_schema()
        cost = CostModel()
        delta = InMemoryDeltaStore(schema, cost)
        main = ColumnStore(schema, cost)
        merger = InMemoryDeltaMerger(delta, main, cost, threshold_rows=1)
        apply_ops(delta, ops)
        merger.merge(up_to_ts=cut)
        assert store_state(main) == expect
        assert len(delta) == len(residual)
        assert delta.updated_keys() == {key for _, key, _ in residual}


class TestLogMergeDifferential:
    @settings(max_examples=40, deadline=None)
    @given(ops=ops_strategy)
    def test_matches_model(self, ops):
        base = [(k, -1.0) for k in range(3)]
        model = TableModel(base).apply_all(model_ops(ops))
        # A file seals every 7 entries and indexes each key once; an
        # indexed key is superseded when a newer file rewrote it.
        files = [ops[i:i + 7] for i in range(0, len(ops), 7)]
        indexed = sum(len({key for _, key, _ in f}) for f in files)
        superseded = indexed - len({key for _, key, _ in ops})
        schema = make_schema()
        cost = CostModel()
        log = LogDeltaManager(schema, cost, seal_threshold=7)
        main = ColumnStore(schema, cost)
        main.append_rows(base, commit_ts=0)
        merger = LogDeltaMerger(log, main, cost, threshold_files=1)
        apply_ops(log, ops)
        log.seal()
        merger.merge()
        assert store_state(main) == model.state()
        assert merger.stats.entries_read == len(ops)
        assert merger.stats.entries_superseded == superseded


class TestRebuildDifferential:
    @settings(max_examples=30, deadline=None)
    @given(ops=ops_strategy)
    def test_matches_model(self, ops):
        model = TableModel([(100, -1.0)]).apply_all(model_ops(ops))
        schema = make_schema()
        cost = CostModel()
        rows = MVCCRowStore(schema, cost)
        main = ColumnStore(schema, cost)
        main.append_rows([(100, -1.0)], commit_ts=0)  # survives rebuild
        rebuilder = ColumnStoreRebuilder(rows, main, cost)
        ts = 1
        for kind, key, value in ops:
            live = rows.read(key, snapshot_ts=ts) is not None
            if kind == "delete":
                if live:
                    rows.install_delete(key, ts)
            elif live:
                rows.install_update(key, (key, float(value)), ts)
            else:
                rows.install_insert((key, float(value)), ts)
            ts += 1
        rebuilder.rebuild(snapshot_ts=ts)
        assert store_state(main) == model.state(ts=ts)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_freshness_timestamp_matches_model(seed):
    """A merge advances the main store's sync horizon to the newest op."""
    rng = np.random.default_rng(seed)
    ops = [
        (
            ["insert", "update", "delete"][int(rng.integers(0, 3))],
            int(rng.integers(0, 10)),
            float(rng.integers(-50, 50)),
        )
        for _ in range(40)
    ]
    model = TableModel().apply_all(model_ops(ops))
    schema = make_schema()
    cost = CostModel()
    delta = InMemoryDeltaStore(schema, cost)
    main = ColumnStore(schema, cost)
    merger = InMemoryDeltaMerger(delta, main, cost, threshold_rows=1)
    apply_ops(delta, ops)
    merger.merge()
    assert main.max_commit_ts() == model.max_ts == len(ops)


# --------------------------------------------------------------- the fold
#
# Every synchronizer ends in the same step, ``ColumnStore.fold``: a
# collapsed batch lands in a column image.  Named batches, each through
# the method itself and through the mergers that call it.

BASE = [(k, -1.0) for k in range(4)]  # keys 0-1 and 2-3 in two older segments

FOLD_CASES = {
    "tombstone_only": [("delete", 1, 0.0), ("delete", 7, 0.0)],  # 7 was never there
    "live_only": [("insert", 5, 1.0), ("insert", 6, 2.0)],
    "upsert_over_sealed_keys": [("update", 0, 9.0), ("update", 3, 8.0)],
    "insert_then_delete_in_batch": [
        ("insert", 5, 1.0), ("delete", 5, 0.0), ("insert", 6, 1.0)
    ],
    "delete_then_reinsert_in_batch": [("delete", 2, 0.0), ("insert", 2, 4.0)],
}


def seeded(main):
    """``BASE`` sealed as two older segments."""
    main.append_rows(BASE[:2], commit_ts=0)
    main.append_rows(BASE[2:], commit_ts=0)
    return main


# Each arm: ``(cost, ops) -> (the image, the call that folds into it)``.


def fold_by_delta_merge(cost, ops):
    main = seeded(ColumnStore(make_schema(), cost))
    delta = InMemoryDeltaStore(main.schema, cost)
    apply_ops(delta, ops)
    return main, InMemoryDeltaMerger(delta, main, cost, threshold_rows=1).merge


def fold_by_log_merge(cost, ops):
    main = seeded(ColumnStore(make_schema(), cost))
    log = LogDeltaManager(main.schema, cost, seal_threshold=2)
    apply_ops(log, ops)
    cost.clock.advance_to(log.landing_us())  # the sealed files land
    merger = LogDeltaMerger(log, main, cost, threshold_files=1)
    return main, lambda: merger.merge(seal_first=True)


def fold_directly(cost, ops):
    main = seeded(ColumnStore(make_schema(), cost))
    entries = model_ops(ops)
    batch = DeltaBatch.from_columns(
        [KIND[kind] for kind, _key, _row, _ts in entries],
        [key for _kind, key, _row, _ts in entries],
        [None if kind == "delete" else row for kind, _key, row, _ts in entries],
        [ts for _kind, _key, _row, ts in entries],
    )
    return main, lambda: main.fold(batch.collapse(), batch.max_commit_ts())


def fold_by_engine_c(cost, ops):
    """Architecture (c): the disk row store's change listener fills the
    table's delta, ``_propagate`` folds it into the IMCS."""
    engine = DiskRowIMCSEngine(cost=cost)
    engine.create_table(make_schema())
    main = seeded(engine.imcs_store("t"))
    listener = engine._make_listener("t")
    for kind, key, row, ts in model_ops(ops):
        listener(kind, key, None if kind == "delete" else row, ts)
    return main, lambda: engine._propagate("t")


def fold_by_replica(cost, ops):
    """Architecture (b): one learner batch fills the table's delta log,
    ``merge_deltas`` seals and folds it into the learner's store."""
    replica = ColumnarReplica({"t": make_schema()}, cost, seal_threshold=2)
    main = seeded(replica.column_stores["t"])
    replica.learner_apply_batch(0, 0, [
        ("commit1p", ts, [WriteOp(WriteKind(kind), "t", key,
                                  None if kind == "delete" else row)], ts)
        for kind, key, row, ts in model_ops(ops)
    ])
    cost.clock.advance_to(replica.landing_us())  # the sealed files land
    return main, replica.merge_deltas


KIND = {"insert": KIND_INSERT, "update": KIND_UPDATE, "delete": KIND_DELETE}
FOLDS = {
    "column_store_fold": fold_directly,
    "delta_merge": fold_by_delta_merge,
    "log_merge": fold_by_log_merge,
    "engine_c_propagate": fold_by_engine_c,
    "replica_merge_deltas": fold_by_replica,
}
#: case -> [charges, simulated us] of the folding call alone
#: (``ChargeLog.call``).  The engine arms' pins were recorded at the
#: parent of the commit that made (c) and the learner replica run the
#: ``repro.sync`` mergers; a stand-alone merger and the engine that
#: owns one charge the same, so each pair shares its pins.
FOLD_ONLY = {
    "tombstone_only": [0, 0.0],
    "live_only": [1, 0.6449999999999999],
    "upsert_over_sealed_keys": [1, 0.6449999999999999],
    "insert_then_delete_in_batch": [1, 0.3],
    "delete_then_reinsert_in_batch": [1, 0.3],
}
IN_MEMORY_MERGE = {
    "tombstone_only": [1, 0.0],
    "live_only": [2, 2.245],
    "upsert_over_sealed_keys": [2, 2.245],
    "insert_then_delete_in_batch": [2, 1.1],
    "delete_then_reinsert_in_batch": [2, 1.1],
}
#: ``LogDeltaMerger`` alone charged one ``index_lookup_us`` (1.2) more
#: per indexed key — 2, 2, 2, 2 and 1 keys here — for an index walk it
#: does not perform, until the replica's charges became its charges.
LOG_MERGE = {
    "tombstone_only": [2, 120.0],
    "live_only": [3, 122.24499999999999],
    "upsert_over_sealed_keys": [3, 122.24499999999999],
    "insert_then_delete_in_batch": [6, 2391.1000000000004],
    "delete_then_reinsert_in_batch": [3, 121.1],
}
#: The learner's merge seals its open buffer on the learner node's own
#: clock, so where a stand-alone merger charges that page write and then
#: waits out the shipping (two charges), the replica's merge waits once
#: for both; the other cases seal nothing inside the call.
REPLICA_MERGE = {**LOG_MERGE, "insert_then_delete_in_batch": [5, 2391.1000000000004]}
FOLD_CHARGES = {
    "column_store_fold": FOLD_ONLY,
    "delta_merge": IN_MEMORY_MERGE,
    "log_merge": LOG_MERGE,
    "engine_c_propagate": IN_MEMORY_MERGE,
    "replica_merge_deltas": REPLICA_MERGE,
}


@pytest.mark.parametrize("case", FOLD_CASES)
@pytest.mark.parametrize("fold", FOLDS)
def test_fold_matches_model(fold, case):
    ops = FOLD_CASES[case]
    model = TableModel(BASE).apply_all(model_ops(ops))
    cost, log = logged_cost()
    main, land = FOLDS[fold](cost, ops)
    landed, charged = log.call(land)
    assert store_state(main) == model.state()  # rows, horizon, live count
    written = {key for _, key, _ in ops}
    assert landed == sum(1 for row in model.rows() if row[0] in written)
    assert charged == FOLD_CHARGES[fold][case]


def test_hana_l1_merge_keeps_each_key_in_one_columnar_layer():
    """(d)'s invariant: after an L1→L2 merge a key lives in at most one
    of {Main, L2} — an update of a Main-resident key moves it to L2, a
    delete leaves it in neither."""
    from repro.engines.column_delta import HanaTable

    table = HanaTable(make_schema(), CostModel())
    table.apply_insert_batch(BASE, commit_ts=1)
    table.merge_l1_to_l2()
    table.merge_l2_to_main()
    assert all(table.main.contains_key(k) for k in range(4))
    table.apply_update((0, 9.0), commit_ts=2)
    table.apply_delete(1, commit_ts=3)
    table.apply_insert((5, 5.0), commit_ts=4)
    assert table.merge_l1_to_l2() == 2
    model = TableModel(BASE).apply_all(
        [("update", 0, (0, 9.0), 2), ("delete", 1, None, 3), ("insert", 5, (5, 5.0), 4)]
    )
    for key in (*range(4), 5):
        assert table.main.contains_key(key) + table.l2.contains_key(key) <= 1, key
    assert table.l2.contains_key(0) and not table.main.contains_key(0)
    assert table.read_latest(1) is None
    assert sorted(table.all_latest_rows()) == model.rows()
    assert table.main.max_commit_ts() == table.l2.max_commit_ts() == model.max_ts
