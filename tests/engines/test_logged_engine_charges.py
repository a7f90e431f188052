"""Engines (c) and (d)'s transactions, pinned call by call.

The script has the shape of ``test_row_imcs_charges.py``'s: a bulk
load, committed reads, a NewOrder-shaped transaction that writes one
``stock`` key twice, insert-delete-insert and delete-then-insert of one
key, a commit refused because its update lost to a concurrent delete,
and a read-only abort.  For each step it pins ``[charges, simulated
us, TP node busy us after the step]`` (``ChargeLog.call``); at the end,
the WAL as plain ``(lsn, txn_id, kind, table, key, row, commit_ts)``
tuples and every ledger node's busy time.  A change to the accounting
path must leave every number where it was, compared with ``==``.
"""

import dataclasses

import pytest

from repro.common import (
    Column,
    Comparison,
    DataType,
    Schema,
    TransactionAborted,
)
from repro.engines import ColumnDeltaEngine, DiskRowIMCSEngine

from ..oracle import ChargeLog, logged_cost

SCHEMA = Schema(
    "stock",
    [
        Column("s_id", DataType.INT64),
        Column("s_qty", DataType.INT64),
        Column("s_tag", DataType.STRING),
    ],
    ["s_id"],
)

ENGINES = {"c": DiskRowIMCSEngine, "d": ColumnDeltaEngine}

#: engine -> step -> [charges, simulated us, TP node busy us after the
#: step], recorded before redo records became tuples and before the
#: cost model bound its charge to the clock.
PINS: dict[str, dict[str, list]] = {
    "c": {
        "bulk_load": [16, 37.599999999999994, 37.599999999999994],
        "read_committed": [2, 2.0, 39.599999999999994],
        "neworder.read": [2, 2.0, 41.599999999999994],
        "neworder.update": [2, 2.0, 43.599999999999994],
        "neworder.read_own": [0, 0.0, 43.599999999999994],
        "neworder.update_again": [0, 0.0, 43.599999999999994],
        "neworder.insert": [0, 0.0, 43.599999999999994],
        "neworder.scan": [2, 4.8, 48.39999999999999],
        "neworder.commit": [9, 13.8, 62.19999999999999],
        "ins_del_ins.insert": [0, 0.0, 62.19999999999999],
        "ins_del_ins.delete": [0, 0.0, 62.19999999999999],
        "ins_del_ins.insert_again": [0, 0.0, 62.19999999999999],
        "ins_del_ins.commit": [5, 8.3, 70.49999999999999],
        "del_ins.delete": [2, 2.0, 72.49999999999999],
        "del_ins.insert": [0, 0.0, 72.49999999999999],
        "del_ins.commit": [6, 9.5, 81.99999999999999],
        "refused.loser_update": [2, 2.0, 83.99999999999999],
        "refused.winner_delete": [2, 2.0, 85.99999999999999],
        "refused.winner_commit": [6, 9.5, 95.49999999999999],
        "refused.loser_commit": [1, 2.0, 97.49999999999999],
        "readonly.read": [2, 2.0, 99.49999999999999],
        "readonly.scan": [2, 5.3, 104.79999999999998],
        "readonly.abort": [1, 2.0, 106.79999999999998],
    },
    "d": {
        "bulk_load": [2, 32.0, 32.0],
        "read_committed": [1, 1.3, 33.3],
        "neworder.read": [1, 1.3, 34.599999999999994],
        "neworder.update": [1, 1.3, 35.89999999999999],
        "neworder.read_own": [0, 0.0, 35.89999999999999],
        "neworder.update_again": [0, 0.0, 35.89999999999999],
        "neworder.insert": [0, 0.0, 35.89999999999999],
        "neworder.scan": [4, 6.0, 41.89999999999999],
        "neworder.commit": [9, 13.3, 55.19999999999999],
        "ins_del_ins.insert": [0, 0.0, 55.19999999999999],
        "ins_del_ins.delete": [0, 0.0, 55.19999999999999],
        "ins_del_ins.insert_again": [0, 0.0, 55.19999999999999],
        "ins_del_ins.commit": [7, 9.8, 64.99999999999999],
        "del_ins.delete": [1, 1.3, 66.29999999999998],
        "del_ins.insert": [0, 0.0, 66.29999999999998],
        "del_ins.commit": [4, 7.5, 73.79999999999998],
        "refused.loser_update": [1, 1.3, 75.09999999999998],
        "refused.winner_delete": [1, 1.3, 76.39999999999998],
        "refused.winner_commit": [4, 7.5, 83.89999999999998],
        "refused.loser_commit": [1, 2.0, 85.89999999999998],
        "readonly.read": [1, 1.3, 87.19999999999997],
        "readonly.scan": [4, 9.15, 96.34999999999997],
        "readonly.abort": [1, 2.0, 98.34999999999997],
    },
}

#: The WAL after the script, one plain tuple per record; both
#: engines log the same records.
WAL: list[tuple] = [
    (1, 1, 'begin', None, None, None, None),
    (2, 1, 'insert', 'stock', 0, (0, 50, 't0'), 2),
    (3, 1, 'insert', 'stock', 1, (1, 50, 't1'), 2),
    (4, 1, 'insert', 'stock', 2, (2, 50, 't2'), 2),
    (5, 1, 'insert', 'stock', 3, (3, 50, 't0'), 2),
    (6, 1, 'insert', 'stock', 4, (4, 50, 't1'), 2),
    (7, 1, 'insert', 'stock', 5, (5, 50, 't2'), 2),
    (8, 1, 'insert', 'stock', 6, (6, 50, 't0'), 2),
    (9, 1, 'insert', 'stock', 7, (7, 50, 't1'), 2),
    (10, 1, 'commit', None, None, None, 2),
    (11, 3, 'begin', None, None, None, None),
    (12, 3, 'update', 'stock', 3, (3, 48, 't0'), 3),
    (13, 3, 'insert', 'stock', 100, (100, 7, 'new'), 3),
    (14, 3, 'commit', None, None, None, 3),
    (15, 4, 'begin', None, None, None, None),
    (16, 4, 'insert', 'stock', 200, (200, 2, 'y'), 4),
    (17, 4, 'commit', None, None, None, 4),
    (18, 5, 'begin', None, None, None, None),
    (19, 5, 'update', 'stock', 5, (5, 9, 'z'), 5),
    (20, 5, 'commit', None, None, None, 5),
    (21, 7, 'begin', None, None, None, None),
    (22, 7, 'delete', 'stock', 6, None, 6),
    (23, 7, 'commit', None, None, None, 6),
    (24, 6, 'abort', None, None, None, None),
    (25, 8, 'abort', None, None, None, None),
]

#: engine -> every ledger node's busy us after the script.
LEDGER: dict[str, dict[str, float]] = {
    "c": {'mysql': 106.79999999999998},
    "d": {'node0': 98.34999999999997},
}

#: engine -> (logical clock, simulated us) after the script.
END: dict[str, tuple] = {
    "c": (6, 106.79999999999998),
    "d": (6, 98.34999999999997),
}


def run_script(category: str):
    cost, log = logged_cost()
    engine = ENGINES[category](cost=cost)
    engine.create_table(SCHEMA)
    node = engine.tp_nodes()[0]
    steps: dict[str, list] = {}

    def step(name, fn, *args):
        result, charged = log.call(fn, *args)
        steps[name] = charged + [engine.ledger.busy(node)]
        return result

    step("bulk_load", engine.bulk_load, "stock", [(i, 50, f"t{i % 3}") for i in range(8)])
    step("read_committed", engine.session().read, "stock", 2)

    s = engine.session()
    qty = step("neworder.read", s.read, "stock", 3)[1]
    step("neworder.update", s.update, "stock", (3, qty - 1, "t0"))
    step("neworder.read_own", s.read, "stock", 3)
    step("neworder.update_again", s.update, "stock", (3, qty - 2, "t0"))
    step("neworder.insert", s.insert, "stock", (100, 7, "new"))
    step("neworder.scan", s.scan, "stock", Comparison("s_qty", "<", 50))
    step("neworder.commit", s.commit)

    s = engine.session()
    step("ins_del_ins.insert", s.insert, "stock", (200, 1, "x"))
    step("ins_del_ins.delete", s.delete, "stock", 200)
    step("ins_del_ins.insert_again", s.insert, "stock", (200, 2, "y"))
    step("ins_del_ins.commit", s.commit)

    s = engine.session()
    step("del_ins.delete", s.delete, "stock", 5)
    step("del_ins.insert", s.insert, "stock", (5, 9, "z"))
    step("del_ins.commit", s.commit)

    loser, winner = engine.session(), engine.session()
    step("refused.loser_update", loser.update, "stock", (6, 1, "l"))
    step("refused.winner_delete", winner.delete, "stock", 6)
    step("refused.winner_commit", winner.commit)

    def refused():
        with pytest.raises(TransactionAborted):
            loser.commit()

    step("refused.loser_commit", refused)

    s = engine.session()
    step("readonly.read", s.read, "stock", 7)
    step("readonly.scan", s.scan, "stock")
    step("readonly.abort", s.abort)

    wal = [
        (r.lsn, r.txn_id, r.kind.value, r.table, r.key, r.row, r.commit_ts)
        for r in engine.wal.records
    ]
    end = (engine.clock.now(), log.now_us())
    return steps, wal, engine.ledger.snapshot(), end


@pytest.mark.parametrize("category", sorted(ENGINES))
def test_transactions_charge_as_pinned(category):
    steps, wal, ledger, end = run_script(category)
    assert steps == PINS[category]
    assert wal == WAL
    assert ledger == LEDGER[category]
    assert end == END[category]


def test_cost_model_and_its_fork_record_every_charge_on_their_clocks():
    cost, log = logged_cost()
    cost.charge(1.5)
    cost.charge_rows(0.25, 4)
    cost.clock.advance(3.0)
    assert log._advances == [1.5, 1.0, 3.0]
    assert cost.now_us() == log.now_us() == 5.5

    # The fork charges its own fresh clock, never the original's.
    fork = cost.fork_detached()
    assert fork.clock is not log
    fork.charge(2.0)
    fork.charge_rows(0.5, 2)
    fork.clock.advance(0.125)
    assert fork.now_us() == fork.clock.now_us() == 3.125
    assert log._advances == [1.5, 1.0, 3.0]
    assert cost.now_us() == 5.5

    # A fork rebuilt on a ChargeLog records every call made through it.
    fork_log = ChargeLog()
    refork = dataclasses.replace(fork, clock=fork_log)
    assert refork.wal_fsync_us == cost.wal_fsync_us
    refork.charge(2.0)
    refork.charge_rows(0.5, 2)
    refork.clock.advance(0.125)
    assert fork_log._advances == [2.0, 1.0, 0.125]
    assert refork.now_us() == 3.125
    assert fork.now_us() == 3.125
