"""Engine (a)'s transactions, pinned call by call.

One fixed script covers every shape (a)'s commit path takes: a
NewOrder-shaped transaction that writes one ``stock`` key twice,
insert-delete-insert and delete-then-insert of one key, a read-only
rollback, a first-committer-wins refusal, ``bulk_load``, and
``time_travel_query`` after ``vacuum`` with a session still open.  For
each step it pins ``[charges, simulated us]`` (``ChargeLog.call``) and
node0's ledger busy time; at the end, the logical clock, the
simulated clock, the WAL's record kinds, the WAL itself as plain
tuples and every ledger node's busy time.  A refactor of (a)'s
transaction must leave every number where it was.
"""

from collections import Counter

import pytest

from repro.common import Column, Comparison, DataType, Schema, WriteConflictError
from repro.engines import RowIMCSEngine

from ..oracle import logged_cost

SCHEMA = Schema(
    "stock",
    [
        Column("s_id", DataType.INT64),
        Column("s_qty", DataType.INT64),
        Column("s_tag", DataType.STRING),
    ],
    ["s_id"],
)

#: step -> [charges, simulated us, node0 busy us after the step],
#: recorded at the parent of the commit that moved (a) onto
#: ``LoggedEngine``, then with an insert's key read (one charge, 1 us)
#: moved from the insert to the commit: ``neworder.insert`` 1 -> 0
#: charges and ``neworder.commit`` 6 -> 7 (11 -> 12 us), node0's busy
#: time 1 us lower in between; ``ins_del_ins.insert`` 1 -> 0 and
#: ``ins_del_ins.commit`` 4 -> 5 (7.5 -> 8.5 us).  Every transaction's
#: total is what it was.
PINS: dict[str, list] = {
    "bulk_load": [21, 74.0, 74.0],
    "neworder.read": [1, 1.0, 75.0],
    "neworder.update": [1, 1.0, 76.0],
    "neworder.read_own": [0, 0.0, 76.0],
    "neworder.update_again": [0, 0.0, 76.0],
    "neworder.insert": [0, 0.0, 76.0],
    "neworder.scan": [1, 10.0, 86.0],
    "neworder.commit": [7, 12.0, 98.0],
    "ins_del_ins.insert": [0, 0.0, 98.0],
    "ins_del_ins.delete": [0, 0.0, 98.0],
    "ins_del_ins.insert_again": [0, 0.0, 98.0],
    "ins_del_ins.commit": [5, 8.5, 106.5],
    "del_ins.delete": [1, 1.0, 107.5],
    "del_ins.insert": [0, 0.0, 107.5],
    "del_ins.commit": [4, 7.5, 115.0],
    "readonly.read": [1, 1.0, 116.0],
    "readonly.scan": [1, 11.0, 127.0],
    "readonly.abort": [1, 2.0, 129.0],
    "fcw.loser_update": [1, 1.0, 130.0],
    "fcw.winner_update": [1, 1.0, 131.0],
    "fcw.winner_commit": [4, 7.5, 138.5],
    "fcw.loser_commit": [1, 2.0, 140.5],
    "vacuum.open_read": [1, 1.0, 141.5],
    "vacuum.update_10": [5, 8.5, 150.0],
    "vacuum.update_11": [5, 8.5, 158.5],
    "vacuum.update_12": [6, 33.5, 192.0],
    "vacuum": [0, 0.0, 192.0],
    "time_travel": [4, 25.52, 206.52],
    "vacuum.reader_abort": [1, 2.0, 208.52],
}

#: (logical clock, simulated us, WAL record count) after the script.
END = (9, 220.52, 47)

#: WAL record kind -> count after the script.
WAL_KINDS = {"abort": 3, "begin": 8, "commit": 8, "insert": 22, "update": 6}

#: The WAL after the script, one plain tuple per record.
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
    (10, 1, 'insert', 'stock', 8, (8, 50, 't2'), 2),
    (11, 1, 'insert', 'stock', 9, (9, 50, 't0'), 2),
    (12, 1, 'insert', 'stock', 10, (10, 50, 't1'), 2),
    (13, 1, 'insert', 'stock', 11, (11, 50, 't2'), 2),
    (14, 1, 'insert', 'stock', 12, (12, 50, 't0'), 2),
    (15, 1, 'insert', 'stock', 13, (13, 50, 't1'), 2),
    (16, 1, 'insert', 'stock', 14, (14, 50, 't2'), 2),
    (17, 1, 'insert', 'stock', 15, (15, 50, 't0'), 2),
    (18, 1, 'insert', 'stock', 16, (16, 50, 't1'), 2),
    (19, 1, 'insert', 'stock', 17, (17, 50, 't2'), 2),
    (20, 1, 'insert', 'stock', 18, (18, 50, 't0'), 2),
    (21, 1, 'insert', 'stock', 19, (19, 50, 't1'), 2),
    (22, 1, 'commit', None, None, None, 2),
    (23, 2, 'begin', None, None, None, None),
    (24, 2, 'update', 'stock', 3, (3, 48, 't0'), 3),
    (25, 2, 'insert', 'stock', 100, (100, 7, 'new'), 3),
    (26, 2, 'commit', None, None, None, 3),
    (27, 3, 'begin', None, None, None, None),
    (28, 3, 'insert', 'stock', 200, (200, 2, 'y'), 4),
    (29, 3, 'commit', None, None, None, 4),
    (30, 4, 'begin', None, None, None, None),
    (31, 4, 'update', 'stock', 5, (5, 9, 'z'), 5),
    (32, 4, 'commit', None, None, None, 5),
    (33, 5, 'abort', None, None, None, None),
    (34, 6, 'begin', None, None, None, None),
    (35, 6, 'update', 'stock', 8, (8, 2, 'w'), 6),
    (36, 6, 'commit', None, None, None, 6),
    (37, 7, 'abort', None, None, None, None),
    (38, 9, 'begin', None, None, None, None),
    (39, 9, 'update', 'stock', 9, (9, 10, 'v'), 7),
    (40, 9, 'commit', None, None, None, 7),
    (41, 10, 'begin', None, None, None, None),
    (42, 10, 'update', 'stock', 9, (9, 11, 'v'), 8),
    (43, 10, 'commit', None, None, None, 8),
    (44, 11, 'begin', None, None, None, None),
    (45, 11, 'update', 'stock', 9, (9, 12, 'v'), 9),
    (46, 11, 'commit', None, None, None, 9),
    (47, 8, 'abort', None, None, None, None),
]

#: Every ledger node's busy us after the script.
LEDGER: dict[str, float] = {'node0': 208.52}


def run_script():
    cost, log = logged_cost()
    engine = RowIMCSEngine(cost=cost)
    engine.create_table(SCHEMA)
    steps: dict[str, list] = {}

    def step(name, fn, *args):
        result, charged = log.call(fn, *args)
        steps[name] = charged + [engine.ledger.busy("node0")]
        return result

    step("bulk_load", engine.bulk_load, "stock", [(i, 50, f"t{i % 3}") for i in range(20)])

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

    s = engine.session()
    step("readonly.read", s.read, "stock", 7)
    step("readonly.scan", s.scan, "stock")
    step("readonly.abort", s.abort)

    winner, loser = engine.session(), engine.session()
    step("fcw.loser_update", loser.update, "stock", (8, 1, "l"))
    step("fcw.winner_update", winner.update, "stock", (8, 2, "w"))
    step("fcw.winner_commit", winner.commit)

    def refused():
        with pytest.raises(WriteConflictError):
            loser.commit()

    step("fcw.loser_commit", refused)

    reader = engine.session()
    step("vacuum.open_read", reader.read, "stock", 9)
    as_of = engine.clock.now()
    for qty in (10, 11, 12):
        step(f"vacuum.update_{qty}", engine.update, "stock", (9, qty, "v"))
    reclaimed = step("vacuum", engine.vacuum)
    past = step(
        "time_travel", engine.time_travel_query, "SELECT SUM(s_qty) FROM stock", as_of
    )
    step("vacuum.reader_abort", reader.abort)
    wal = engine.wal
    end = (engine.clock.now(), log.now_us(), len(wal))
    kinds = Counter(r.kind.value for r in wal.records)
    records = [
        (r.lsn, r.txn_id, r.kind.value, r.table, r.key, r.row, r.commit_ts)
        for r in wal.records
    ]
    return (
        steps,
        end,
        dict(sorted(kinds.items())),
        (reclaimed, past.scalar()),
        (records, engine.ledger.snapshot()),
    )


def test_row_imcs_transactions_charge_as_pinned():
    steps, end, kinds, (reclaimed, past_sum), (records, ledger) = run_script()
    # Versions ended at or before the open reader's snapshot go: key 3's
    # and key 5's first and key 8's.
    assert reclaimed == 3
    # As of the reader's snapshot the table held 20 rows of 50, less
    # NewOrder's 2, plus key 100's 7, key 200's 2, key 5 at 9 (was 50)
    # and key 8 at 2 (was 50): vacuum kept the versions it can see.
    assert past_sum == 20 * 50 - 2 + 7 + 2 + (9 - 50) + (2 - 50)
    assert steps == PINS
    assert end == END
    assert kinds == WAL_KINDS
    assert records == WAL
    assert ledger == LEDGER
