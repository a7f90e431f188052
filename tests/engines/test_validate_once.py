"""A written row is validated once, when the session stages it.

Engines (a) and (c) install the tuple ``Schema.validate_row`` returned
at staging through the stores' validated entry points
(``MVCCRowStore.install_validated_insert`` / ``_update``,
``DiskRowStore.insert_validated`` / ``update_validated``); the stores'
public ``install_insert`` / ``install_update`` / ``insert`` / ``update``
still check a row handed to them directly.
"""

import pytest

from repro.bench.tpcc import TpccLoader, TpccScale, TpccWorkload
from repro.common import Column, CostModel, DataType, Schema, SchemaError
from repro.engines import DiskRowIMCSEngine, RowIMCSEngine
from repro.engines.base import WriteSetSession
from repro.storage.disk_row_store import DiskRowStore
from repro.storage.row_store import MVCCRowStore

SCHEMA = Schema(
    "stock",
    [Column("s_id", DataType.INT64), Column("s_qty", DataType.INT64)],
    ["s_id"],
)

BAD_ROWS = [(1, "many"), (1,), (None, 3)]


@pytest.mark.parametrize("bad", BAD_ROWS)
def test_direct_mvcc_store_calls_still_validate(bad):
    store = MVCCRowStore(SCHEMA, CostModel())
    with pytest.raises(SchemaError):
        store.install_insert(bad, commit_ts=1)
    store.install_insert((1, 5), commit_ts=1)
    with pytest.raises(SchemaError):
        store.install_update(1, bad, commit_ts=2)
    assert store.read(1, 3) == (1, 5)


@pytest.mark.parametrize("bad", BAD_ROWS)
def test_direct_disk_store_calls_still_validate(bad):
    store = DiskRowStore(SCHEMA, CostModel())
    with pytest.raises(SchemaError):
        store.insert(bad, commit_ts=1)
    store.insert((1, 5), commit_ts=1)
    with pytest.raises(SchemaError):
        store.update(1, bad, commit_ts=2)
    assert store.read(1) == (1, 5)


@pytest.mark.parametrize("engine_cls", [RowIMCSEngine, DiskRowIMCSEngine], ids=["a", "c"])
def test_a_new_order_commit_validates_each_written_row_once(engine_cls, monkeypatch):
    engine = engine_cls()
    scale = TpccScale(warehouses=1, districts=2, customers=10, items=30, initial_orders=5)
    TpccLoader(scale).load(engine)
    workload = TpccWorkload(engine, scale, seed=3)

    validated, staged = [], []
    validate_row = Schema.validate_row
    stage = WriteSetSession._stage

    def counting_validate(schema, row):
        validated.append((schema.table_name, tuple(row)))
        return validate_row(schema, row)

    def counting_stage(session, kind, table, key, row):
        if row is not None:
            staged.append((table, row))
        return stage(session, kind, table, key, row)

    monkeypatch.setattr(Schema, "validate_row", counting_validate)
    monkeypatch.setattr(WriteSetSession, "_stage", counting_stage)
    commits = engine.commits
    for _ in range(3):
        workload.txn_new_order()
    assert engine.commits > commits
    assert staged, "NewOrder wrote nothing"
    assert sorted(validated) == sorted(staged)
