"""Session conformance: four engines, one transaction semantics.

Every architecture and a dict-backed reference session built on
``tests/oracle``'s ``TableModel`` are driven with the same generated
operation sequences — insert / update / delete / read / predicate scan
/ commit / abort / use-after-finish, keys drawn from a range small
enough that same-key-twice, update-out-of-predicate and
delete-then-reinsert all occur — and must agree on every read, every
scan row set, the *type* of every error, the committed state after
every commit, and, after ``force_sync()``, what the analytical path
returns.  Sessions never interleave here, so snapshot reads (a) and
latest reads (b, c, d) are indistinguishable by design, and no commit
meets first-committer-wins; interleaved sessions and the races they
lose are ``test_interleaving.py``'s, and the atomicity of a refused
commit ``test_engines.py::test_failed_commit_is_atomic``'s.
"""

import random

import pytest

from repro.common import (
    ALWAYS_TRUE,
    Column,
    Comparison,
    DataType,
    DuplicateKeyAborted,
    DuplicateKeyError,
    KeyNotFoundError,
    Schema,
    SchemaError,
    TransactionError,
)
from repro.engines import make_engine

from ..oracle import TableModel

ALL = ["a", "b", "c", "d"]
TABLES = ("t", "u")
SCHEMAS = {
    name: Schema(
        name,
        [
            Column("id", DataType.INT64),
            Column("v", DataType.FLOAT64),
            Column("tag", DataType.STRING),
        ],
        ["id"],
    )
    for name in TABLES
}
PREDICATES = (ALWAYS_TRUE, Comparison("v", ">=", 5.0), Comparison("tag", "=", "a"))
WRITES = ("insert", "update", "delete")


class ModelSession:
    """The reference: a private copy of each table's committed rows
    takes the writes; commit replays them into the ``TableModel``s in
    staged order, abort forgets them.  An insert is refused when staged
    only if the key is live among the session's own writes; commit
    refuses, with ``DuplicateKeyAborted`` and nothing applied, a session
    whose first write of some key inserts a committed key."""

    def __init__(self, models: dict[str, TableModel], ts: int):
        self._models = models
        self._ts = ts
        self._rows = {t: {r[0]: r for r in m.rows()} for t, m in models.items()}
        self._staged: list[tuple] = []
        self.finished = False

    def _open(self) -> None:
        if self.finished:
            raise TransactionError("transaction already finished")

    def read(self, table, key):
        self._open()
        return self._rows[table].get(key)

    def scan(self, table, predicate=ALWAYS_TRUE):
        self._open()
        schema = SCHEMAS[table]
        return [r for r in self._rows[table].values() if predicate.matches(r, schema)]

    def insert(self, table, row):
        self._open()
        SCHEMAS[table].validate_row(row)
        written = {(t, key) for t, _kind, key, _row in self._staged}
        if (table, row[0]) in written and row[0] in self._rows[table]:
            raise DuplicateKeyError(f"key {row[0]!r} exists")
        self._rows[table][row[0]] = row
        self._staged.append((table, "insert", row[0], row))
        return row[0]

    def update(self, table, row):
        self._open()
        SCHEMAS[table].validate_row(row)
        if row[0] not in self._rows[table]:
            raise KeyNotFoundError(f"key {row[0]!r} not found")
        self._rows[table][row[0]] = row
        self._staged.append((table, "update", row[0], row))

    def delete(self, table, key):
        self._open()
        if key not in self._rows[table]:
            raise KeyNotFoundError(f"key {key!r} not found")
        del self._rows[table][key]
        self._staged.append((table, "delete", key, None))

    def prefetch(self, pairs):
        """A hint: the reference has no round trip to save."""

    def commit(self):
        self._open()
        self.finished = True
        first = {}
        for table, kind, key, _row in self._staged:
            first.setdefault((table, key), kind)
        for (table, key), kind in first.items():
            if kind == "insert" and key in {r[0] for r in self._models[table].rows()}:
                raise DuplicateKeyAborted(0, f"key {key!r} exists")
        for table, kind, key, row in self._staged:
            self._models[table].apply(kind, key, row, self._ts)

    def abort(self):
        self._open()
        self.finished = True


def outcome(session, op):
    """``op`` applied to ``session``: its comparable result, or the
    type of the error it raised."""
    name, *args = op
    try:
        result = getattr(session, name)(*args)
    except (DuplicateKeyError, KeyNotFoundError, SchemaError, TransactionError) as err:
        return type(err)
    if name == "scan":
        return sorted(result)
    return None if name == "commit" else result  # commit timestamps differ


def generate(seed: int, repeat_keys: bool, n_txns: int = 24):
    """Transactions as op lists.  Without ``repeat_keys`` a transaction
    writes each key at most once (reads and scans still revisit it)."""
    rng = random.Random(seed)
    for _ in range(n_txns):
        ops, written = [], set()
        for _ in range(rng.randint(1, 7)):
            kind = rng.choice(WRITES + WRITES + ("read", "scan"))
            table, key = rng.choice(TABLES), rng.randrange(5)
            if kind == "scan":
                ops.append(("scan", table, rng.choice(PREDICATES)))
                continue
            if kind in WRITES:
                if not repeat_keys and (table, key) in written:
                    kind = "read"
                written.add((table, key))
            if kind in ("insert", "update"):
                row = (key, float(rng.randrange(10)), rng.choice("ab"))
                ops.append((kind, table, row))
            else:
                ops.append((kind, table, key))
        ops.append((rng.choice(("commit", "commit", "commit", "abort")),))
        if rng.random() < 0.25:  # use after finish
            ops.append(rng.choice([("read", "t", 0), ("delete", "t", 0), ("commit",), ("abort",)]))
        yield ops


class Harness:
    """One engine beside the reference, fed the same transactions."""

    def __init__(self, cat: str):
        self.engine = make_engine(cat, **({"seed": 5} if cat == "b" else {}))
        for schema in SCHEMAS.values():
            self.engine.create_table(schema)
        self.models = {t: TableModel() for t in TABLES}
        self.txns = 0

    def run(self, ops) -> None:
        self.txns += 1
        session, model = self.engine.session(), ModelSession(self.models, self.txns)
        for step, op in enumerate(ops):
            got, want = outcome(session, op), outcome(model, op)
            assert got == want, f"txn {self.txns} step {step}: {op!r}"
        assert session.finished and model.finished
        self.check_committed()

    def check_committed(self) -> None:
        with self.engine.session() as s:
            for table in TABLES:
                assert sorted(s.scan(table)) == self.models[table].rows(), table

    def check_analytical(self) -> None:
        self.engine.force_sync()
        for table in TABLES:
            result = self.engine.query(f"SELECT id, v, tag FROM {table}")
            assert sorted(result.rows) == self.models[table].rows(), table


def sweep(harness: Harness, seed: int, repeat_keys: bool) -> None:
    for i, ops in enumerate(generate(seed, repeat_keys)):
        harness.run(ops)
        if i == 11:
            harness.check_analytical()
    harness.check_analytical()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("cat", ALL)
def test_generated_sequences_distinct_keys(cat, seed):
    sweep(Harness(cat), seed, repeat_keys=False)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("cat", ALL)
def test_generated_sequences_repeated_keys(cat, seed):
    sweep(Harness(cat), seed, repeat_keys=True)


ROW, ROW2 = (1, 7.0, "a"), (1, 2.0, "b")
LIVE = [[("insert", "t", ROW)]]
GONE = [*LIVE, [("delete", "t", 1)]]
#: name -> (transactions committed first, the writes of the one under test)
SAME_KEY_TWICE = {
    "insert_update": ([], [("insert", "t", ROW), ("update", "t", ROW2)]),
    "insert_delete": ([], [("insert", "t", ROW), ("delete", "t", 1)]),
    "reinsert_delete": (GONE, [("insert", "t", ROW), ("delete", "t", 1)]),
    "delete_insert": (LIVE, [("delete", "t", 1), ("insert", "t", ROW2)]),
    "update_delete": (LIVE, [("update", "t", ROW2), ("delete", "t", 1)]),
    "update_update": (LIVE, [("update", "t", ROW2), ("update", "t", ROW)]),
    "delete_insert_delete": (
        LIVE, [("delete", "t", 1), ("insert", "t", ROW2), ("delete", "t", 1)]
    ),
}


@pytest.mark.parametrize("pattern", SAME_KEY_TWICE)
@pytest.mark.parametrize("cat", ALL)
def test_same_key_twice(cat, pattern):
    """Each pattern commits, reads its own writes on the way (the scan
    sees the update leave the ``v >= 5`` predicate), and the learner /
    delta stream that carries both writes folds to the model's state."""
    history, writes = SAME_KEY_TWICE[pattern]
    harness = Harness(cat)
    for ops in history:
        harness.run([*ops, ("commit",)])
    probes = [("read", "t", 1), ("scan", "t", PREDICATES[1])]
    ops = [step for write in writes for step in (write, *probes)]
    harness.run([*ops, ("commit",)])
    harness.check_analytical()


@pytest.mark.parametrize("cat", ALL)
def test_bool_column_round_trips(cat):
    """A BOOL column reads back as the bools written, through a session
    read after ``force_sync()`` (engine (d) rebuilds the row from its
    column image) and through the analytical path, beside a NULL."""
    engine = make_engine(cat, **({"seed": 5} if cat == "b" else {}))
    engine.create_table(Schema(
        "f",
        [
            Column("id", DataType.INT64),
            Column("flag", DataType.BOOL),
            Column("note", DataType.STRING, nullable=True),
        ],
        ["id"],
    ))
    rows = [(1, True, None), (2, False, "x"), (3, True, "y")]
    with engine.session() as s:
        for row in rows:
            s.insert("f", row)
    engine.force_sync()
    with engine.session() as s:
        got = [s.read("f", row[0]) for row in rows]
    assert got == rows
    assert [type(r[1]) for r in got] == [bool] * 3
    result = engine.query("SELECT id, flag, note FROM f")
    assert sorted(result.rows) == rows
    result = engine.query("SELECT id, flag FROM f WHERE id >= 2")
    assert sorted(result.rows) == [(2, False), (3, True)]


@pytest.mark.parametrize("cat", ALL)
def test_one_tuple_is_not_the_scalar_key(cat):
    """``(1,)`` on a single-column key names no row: reads miss, deletes
    and updates are refused, and key ``1`` is untouched — on (c) too,
    whose disk row store indexes scalar keys as 1-tuples."""
    harness = Harness(cat)
    harness.run([("insert", "t", ROW), ("commit",)])
    harness.run([
        ("read", "t", (1,)),
        ("delete", "t", (1,)),
        ("update", "t", ((1,), 2.0, "b")),
        ("read", "t", 1),
        ("commit",),
    ])
    harness.check_analytical()
