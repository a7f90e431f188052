"""Interleaved sessions on four engines, judged by an Adya-style search.

Generated schedules run 2–4 sessions over at most five keys of one
table, some of them absent at the start, interleaved statement by
statement: reads, scans, blind updates, read-modify-writes (TPC-C's
``d_next_o_id`` shape), inserts and deletes, every insert or update
writing a value no other write uses, each session ending in a commit
or a rollback.  A statement the session refuses (an update or delete
of a key it sees absent, an insert of a key it has written) is left
out of the history.  ``tests/oracle/history.py`` maps every read of a
present key to its writer and reports G0, G1a/b/c and lost updates;
write skew is permitted.  ROADMAP item 2's two-session lost-update
probe is a named case.

The same schedules are replayed commit by commit: on every engine, the
committed transactions taken in commit order must each find their
inserted keys absent and their updated or deleted keys present, and
must end in the state the table holds.  So when two sessions insert one
key, exactly one commits; the two-session insert race is the named
case.

All four engines commit by one rule, first-committer-wins at the
session's read ts (``repro.txn.transaction.first_committer_wins``), so
two sessions that read one version of a key cannot both write it.
(a) reads its snapshot at the read ts; (b), (c) and (d) read the latest
committed row, and a write of a key committed after the read ts is
refused even when the session read that newer row (a false abort, no
anomaly).  Named probes pin the cases the rule must refuse: a key
deleted and re-inserted after the read (ABA), (b)'s lost update through
its one-shard and its cross-shard commit path, and a (b) key whose
shard splits between the read and the commit.  The commit rule's stamp
map on (a), (c) and (d) stays bounded: it is empty once no session is
open.
"""

import itertools
import random

import pytest

from repro.common import (
    Column,
    DataType,
    DuplicateKeyError,
    KeyNotFoundError,
    Schema,
    TransactionAborted,
    WriteConflictError,
)
from repro.distributed import ReshardPhase, ShardSplit
from repro.engines import make_engine
from repro.obs import get_registry

from ..oracle.history import TxnRecord, anomalies

ALL = ["a", "b", "c", "d"]
SCHEMA = Schema(
    "t", [Column("id", DataType.INT64), Column("v", DataType.INT64)], ["id"]
)
SCHEDULES = 60
OPS = ("read", "write", "rmw", "rmw", "scan", "insert", "delete")


def build(cat):
    engine = make_engine(cat, **({"seed": 5} if cat == "b" else {}))
    engine.create_table(SCHEMA)
    return engine


def generate(rng: random.Random):
    """One schedule: ``(n_keys, absent, steps)``, where ``absent`` holds
    the keys missing at the start and a step is ``(session, op, key)``
    with op one of read / scan / write / rmw / insert / delete / commit
    / abort, and each session's last step ends it."""
    n_keys = rng.randint(1, 5)
    absent = {key for key in range(n_keys) if rng.random() < 0.3}
    scripts = []
    for _ in range(rng.randint(2, 4)):
        body = [(rng.choice(OPS), rng.randrange(n_keys)) for _ in range(rng.randint(1, 4))]
        body.append(("abort" if rng.random() < 0.15 else "commit", None))
        scripts.append(body)
    steps = []
    cursors = [0] * len(scripts)
    while any(c < len(s) for c, s in zip(cursors, scripts)):
        live = [i for i, s in enumerate(scripts) if cursors[i] < len(s)]
        i = rng.choice(live)
        steps.append((i, *scripts[i][cursors[i]]))
        cursors[i] += 1
    return n_keys, absent, steps


def run_schedule(engine, n_keys, absent, steps, values):
    """Run one schedule; ``(history, initial, final, committed)`` as the
    client saw it, where ``committed`` lists each committed session's
    writes ``(kind, key, value)`` in commit order (a delete's value is
    None)."""
    initial = {key: next(values) for key in range(n_keys) if key not in absent}
    with engine.session() as setup:
        for key in range(n_keys):
            present = setup.read("t", key) is not None
            if key in initial and present:
                setup.update("t", (key, initial[key]))
            elif key in initial:
                setup.insert("t", (key, initial[key]))
            elif present:
                setup.delete("t", key)
    sessions, history, writes, committed = {}, {}, {}, []
    commits = itertools.count()
    for i, op, key in steps:
        if i not in sessions:
            sessions[i], history[i], writes[i] = engine.session(), TxnRecord(f"T{i}"), []
        session, record = sessions[i], history[i]
        row = None
        if op in ("read", "rmw"):
            row = session.read("t", key)
            if row is not None:
                record.read(key, row[1])
        elif op == "scan":
            for k, v in sorted(session.scan("t")):
                if k < n_keys:
                    record.read(k, v)
        if op in ("write", "insert") or (op == "rmw" and row is not None):
            value = next(values)
            try:
                if op == "insert":
                    session.insert("t", (key, value))
                else:
                    session.update("t", (key, value))
            except (DuplicateKeyError, KeyNotFoundError):
                continue
            record.write(key, value)
            writes[i].append((op if op == "insert" else "update", key, value))
        elif op == "delete":
            try:
                session.delete("t", key)
            except KeyNotFoundError:
                continue
            record.write(key, -next(values))  # a value no read can see
            writes[i].append(("delete", key, None))
        elif op == "abort":
            session.abort()
        elif op == "commit":
            try:
                session.commit()
            except (TransactionAborted, DuplicateKeyError):
                continue
            record.committed_at = next(commits)
            committed.append(writes[i])
    with engine.session() as check:
        rows = {key: check.read("t", key) for key in range(n_keys)}
    final = {key: row[1] for key, row in rows.items() if row is not None}
    return [history[i] for i in sorted(history)], initial, final, committed


def replay(initial, committed):
    """The committed write sets applied in commit order to ``initial``:
    ``(refusals, state)``, where ``refusals`` lists each write that
    found its key in the wrong state (an insert of a present key, an
    update or delete of an absent one) — judged, as a commit validates,
    at the first write of each key in its transaction."""
    state, refusals = dict(initial), []
    for n, writes in enumerate(committed):
        seen = set()
        for kind, key, value in writes:
            if key not in seen and (key in state) == (kind == "insert"):
                refusals.append((n, kind, key))
            seen.add(key)
            if kind == "delete":
                state.pop(key, None)
            else:
                state[key] = value
    return refusals, state


@pytest.mark.parametrize("cat", ALL)
def test_generated_schedules_show_no_anomaly(cat):
    engine = build(cat)
    rng = random.Random(2024)
    values = itertools.count(1)
    failures = []
    for n in range(SCHEDULES):
        schedule = generate(rng)
        history, initial, final, _committed = run_schedule(engine, *schedule, values)
        found = anomalies(history, initial, final)
        if found:
            failures.append((n, schedule, found))
    assert not failures, failures[0]


@pytest.mark.parametrize("cat", ALL)
def test_two_session_lost_update(cat):
    """ROADMAP item 2's probe: two sessions each read ``t[1]`` = 10 and
    write back ``v + 1``.  Either the second commit is refused, or both
    increments land."""
    engine = build(cat)
    engine.insert("t", (1, 10))
    first, second = engine.session(), engine.session()
    reads = [s.read("t", 1)[1] for s in (first, second)]
    assert reads == [10, 10]
    for s, v in zip((first, second), reads):
        s.update("t", (1, v + 1))
    committed = 0
    for s in (first, second):
        try:
            s.commit()
            committed += 1
        except TransactionAborted:
            pass
    with engine.session() as check:
        assert check.read("t", 1)[1] == 10 + committed


def refused_as_conflict(engine, session):
    """Commit ``session``; it must lose first-committer-wins, counted
    once in ``txn.conflicts`` and once in ``engine.tp_aborts``."""
    labels = {"engine": engine.info.name}
    registry = get_registry()
    conflicts = registry.counter("txn.conflicts", **labels)
    aborts = registry.counter("engine.tp_aborts", **labels)
    before = conflicts.value, aborts.value
    with pytest.raises(WriteConflictError):
        session.commit()
    assert (conflicts.value, aborts.value) == (before[0] + 1, before[1] + 1)


@pytest.mark.parametrize("cat", ALL)
def test_aba_update_is_refused(cat):
    """S1 reads ``t[1]``; S2 deletes it and commits; S3 re-inserts it
    and commits.  The key exists again, but not as S1 read it, so S1's
    update is refused and S3's row stays."""
    engine = build(cat)
    engine.insert("t", (1, 10))
    s1 = engine.session()
    assert s1.read("t", 1) == (1, 10)
    engine.delete("t", 1)
    engine.insert("t", (1, 20))
    s1.update("t", (1, 11))
    refused_as_conflict(engine, s1)
    with engine.session() as check:
        assert check.read("t", 1) == (1, 20)


def keys_on_distinct_shards(engine, n):
    """``n`` keys of ``t``, each owned by a different shard of (b)."""
    by_shard = {}
    for key in range(1000):
        by_shard.setdefault(engine.cluster.region_of("t", key), key)
        if len(by_shard) == n:
            return sorted(by_shard.values())
    raise AssertionError(f"fewer than {n} shards own keys of t")


@pytest.mark.parametrize("n_shards", [1, 2], ids=["commit1p", "intent"])
def test_b_lost_update_is_refused_on_both_commit_paths(n_shards):
    """Two (b) sessions read the same keys and write back ``v + 1``:
    on one shard the second commit is refused by the leader before its
    ``"commit1p"`` is proposed, across two shards by the ``"intent"``
    votes.  The first commit's increments stay."""
    engine = build("b")
    cluster = engine.cluster
    keys = keys_on_distinct_shards(engine, n_shards)
    for key in keys:
        engine.insert("t", (key, 10))
    first, second = engine.session(), engine.session()
    for s in (first, second):
        for key in keys:
            s.update("t", (key, s.read("t", key)[1] + 1))
    paths = cluster.commits_single_shard, cluster.commits_piggybacked
    first.commit()
    moved = (cluster.commits_single_shard - paths[0], cluster.commits_piggybacked - paths[1])
    assert moved == ((1, 0) if n_shards == 1 else (0, 1))
    aborts = cluster.aborts
    refused_as_conflict(engine, second)
    assert cluster.aborts == aborts + 1
    with engine.session() as check:
        assert [check.read("t", key)[1] for key in keys] == [11] * n_shards


@pytest.mark.parametrize("written", ["before_split", "during_catch_up", "deleted"])
def test_b_stamp_survives_a_split(written):
    """S1 reads a (b) key and stages an update; S2 overwrites the key
    before the split's snapshot (its row reaches the new shard by
    ``"install"``), between snapshot and flip (by ``"tail"``), or
    deletes it before the snapshot; the flip moves the key to the new
    shard by ``"rehome"`` and drops the old shard's row and stamp.
    S1's commit is refused on the new shard."""
    engine = build("b")
    cluster = engine.cluster
    for key in range(40):
        engine.insert("t", (key, 10))
    split = ShardSplit(cluster, 0)
    lo, hi = split._moving_range()
    key = next(
        k for k in range(40)
        if cluster.region_of("t", k) == 0 and lo <= cluster.point_of("t", k) < hi
    )
    s1 = engine.session()
    s1.update("t", (key, s1.read("t", key)[1] + 1))
    if written == "during_catch_up":
        while split.phase is not ReshardPhase.CATCH_UP:
            split.step()
    if written == "deleted":
        engine.delete("t", key)
    else:
        engine.update("t", (key, 20))
    while split.phase is not ReshardPhase.FLIP:
        split.step()
    assert split.tail_writes == (written == "during_catch_up")
    target = cluster._leader_sm(split.target_sid).written["t"]
    if written != "deleted":  # no row moves, and an absent key refuses the update
        assert target[key] > s1.read_ts
    split.step()
    assert cluster.region_of("t", key) == split.target_sid
    assert key not in cluster._leader_sm(0).written["t"]
    refused_as_conflict(engine, s1)
    assert cluster.read("t", key) == (None if written == "deleted" else (key, 20))


@pytest.mark.parametrize("cat", ["a", "c", "d"])
def test_commit_stamps_stay_bounded(cat):
    """The commit rule's stamps on a redo-log engine: while one old
    session stays open, one entry per written key; once the last
    session ends and one more commit runs, none."""
    engine = build(cat)
    engine.bulk_load("t", [(k, 0) for k in range(8)])
    assert engine._written == {}  # no session was open
    old = engine.session()
    rng = random.Random(7)
    written = set()
    for n in range(60):
        session = engine.session()
        key = rng.randrange(12)
        row = session.read("t", key)
        if row is None:
            session.insert("t", (key, n))
        elif n % 3:
            session.update("t", (key, n))
        else:
            session.delete("t", key)
        if n % 5 == 0:
            session.abort()
        else:
            session.commit()
            written.add(key)
    engine.bulk_load("t", [(100, 0), (101, 0)])
    written |= {100, 101}
    assert set(engine._written["t"]) == written
    old.abort()
    assert engine._written  # cleared lazily, by the next commit
    engine.insert("t", (200, 0))
    assert engine._written == {}


@pytest.mark.parametrize("cat", ALL)
def test_generated_schedules_replay_in_commit_order(cat):
    """Every engine validates an insert, update or delete against the
    key's committed state, so its commits replay in commit order with
    no refusal, and end in the state the table holds."""
    engine = build(cat)
    rng = random.Random(2024)
    values = itertools.count(1)
    failures = []
    for n in range(SCHEDULES):
        _history, initial, final, committed = run_schedule(
            engine, *generate(rng), values
        )
        refusals, state = replay(initial, committed)
        if refusals or state != final:
            failures.append((n, refusals, state, final))
    assert not failures, failures[0]


@pytest.mark.parametrize("cat", ALL)
def test_two_session_insert_race(cat):
    """Two sessions insert the absent ``t[1]`` and both commit: exactly
    one commit goes through, and the row holds its value."""
    engine = build(cat)
    first, second = engine.session(), engine.session()
    for s, v in ((first, 10), (second, 20)):
        assert s.read("t", 1) is None
        s.insert("t", (1, v))
    outcomes = []
    for s in (first, second):
        try:
            s.commit()
            outcomes.append(True)
        except TransactionAborted:
            outcomes.append(False)
    assert outcomes == [True, False]
    with engine.session() as check:
        assert check.read("t", 1) == (1, 10)


class TestChecker:
    """The checker finds each anomaly it names, and passes write skew."""

    def test_lost_update(self):
        t1, t2 = TxnRecord("T1"), TxnRecord("T2")
        for n, t in enumerate((t1, t2)):
            t.read("x", 0)
            t.write("x", 10 + n)
            t.committed_at = n
        kinds = [a.kind for a in anomalies([t1, t2], {"x": 0})]
        assert kinds == ["lost update"]

    def test_aborted_read(self):
        t1, t2 = TxnRecord("T1"), TxnRecord("T2")
        t1.write("x", 1)
        t2.read("x", 1)
        t2.committed_at = 0
        assert [a.kind for a in anomalies([t1, t2], {"x": 0})] == ["G1a"]

    def test_intermediate_read(self):
        t1, t2 = TxnRecord("T1"), TxnRecord("T2")
        t1.write("x", 1)
        t1.write("x", 2)
        t1.committed_at = 0
        t2.read("x", 1)
        t2.committed_at = 1
        assert [a.kind for a in anomalies([t1, t2], {"x": 0})] == ["G1b"]

    def test_circular_information_flow(self):
        # T2 reads T1's x and T1 reads T2's y: each saw the other.
        t1, t2 = TxnRecord("T1"), TxnRecord("T2")
        t1.write("x", 1)
        t2.write("y", 2)
        t1.read("y", 2)
        t2.read("x", 1)
        t1.committed_at, t2.committed_at = 0, 1
        assert [a.kind for a in anomalies([t1, t2], {"x": 0, "y": 0})] == ["G1c"]

    def test_write_cycle(self):
        # Both write x and y; x ends at T1's value although T2
        # committed after it, so x's versions run T2 -> T1 and y's
        # T1 -> T2.
        t1, t2 = TxnRecord("T1"), TxnRecord("T2")
        t1.write("x", 1)
        t1.write("y", 2)
        t2.write("x", 3)
        t2.write("y", 4)
        t1.committed_at, t2.committed_at = 0, 1
        initial = {"x": 0, "y": 5}
        assert anomalies([t1, t2], initial, {"x": 3, "y": 4}) == []
        kinds = [a.kind for a in anomalies([t1, t2], initial, {"x": 1, "y": 4})]
        assert kinds == ["G0"]

    def test_write_skew_is_permitted(self):
        t1, t2 = TxnRecord("T1"), TxnRecord("T2")
        for t in (t1, t2):
            t.read("x", 0)
            t.read("y", 3)
        t1.write("x", 1)
        t2.write("y", 2)
        t1.committed_at, t2.committed_at = 0, 1
        assert anomalies([t1, t2], {"x": 0, "y": 3}, {"x": 1, "y": 2}) == []

    def test_values_must_be_unique(self):
        t1 = TxnRecord("T1")
        t1.write("x", 0)
        with pytest.raises(ValueError):
            anomalies([t1], {"x": 0})
