"""Redo recovery: rebuild row stores from the write-ahead log.

A deliberately simple ARIES-style redo pass (no undo needed: the
testbed's stores only install at commit, so the log never contains
effects of losers).  Replays committed transactions in LSN order into
fresh stores and verifies the WAL contract end to end.
"""

from __future__ import annotations

from ..common.cost import CostModel
from ..common.types import Schema
from ..storage.row_store import MVCCRowStore
from .wal import WalKind, WriteAheadLog


def recover(
    wal: WriteAheadLog,
    schemas: dict[str, Schema],
    cost: CostModel | None = None,
    include_unforced: bool = False,
) -> dict[str, MVCCRowStore]:
    """Replay ``wal`` into brand-new stores; returns table -> store.

    Applies :meth:`WriteAheadLog.redo`: winners only, and only durable
    ones unless ``include_unforced`` (a crash loses the unforced
    group-commit tail, exactly as a real engine would).
    """
    cost = cost or CostModel()
    stores = {name: MVCCRowStore(schema, cost=cost) for name, schema in schemas.items()}
    for record in wal.redo(include_unforced):
        if record.kind is WalKind.INSERT:
            stores[record.table].install_insert(record.row, record.commit_ts)
        elif record.kind is WalKind.UPDATE:
            stores[record.table].install_update(record.key, record.row, record.commit_ts)
        elif record.kind is WalKind.DELETE:
            stores[record.table].install_delete(record.key, record.commit_ts)
    return stores


def verify_recovery(
    wal: WriteAheadLog,
    live_stores: dict[str, MVCCRowStore],
    as_of_ts: int,
) -> bool:
    """Check that replaying the WAL reproduces the live stores' snapshot.

    The live stores include commits still sitting in the group-commit
    tail, so the contract check replays the full log
    (``include_unforced=True``) — it verifies logging completeness, not
    crash durability.
    """
    schemas = {name: store.schema for name, store in live_stores.items()}
    recovered = recover(wal, schemas, include_unforced=True)
    for name, live in live_stores.items():
        want = sorted(map(repr, live.snapshot_rows(as_of_ts)))
        got = sorted(map(repr, recovered[name].snapshot_rows(as_of_ts)))
        if want != got:
            return False
    return True
