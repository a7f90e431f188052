"""Point statements against the oracle, on every architecture.

A *point statement* pins a table's whole primary key by equality, so the
planner may answer it with one index probe.  This battery generates
such statements — and their neighbours that only look like one — over
``"abcd"`` and compares every answer with ``tests/oracle`` evaluated
over a plain dict of the committed rows:

* cold ``engine.query`` and ``execute_prepared``, the latter across
  plan-cache misses (first use, a dropped entry) and hits;
* a key that is present, absent, deleted, re-inserted or updated since
  the statement last ran;
* a composite key whose WHERE order differs from key order, one pinned
  half by a literal and half by ``?``, a residual conjunct beyond the
  key that rejects the row, and two equalities on one key column that
  contradict each other (the first names the probe, the second can only
  empty the answer);
* NULLs in INT64 / FLOAT64 / STRING output columns, ``SELECT *``, an
  aggregate that names no column;
* the probe as the base side and as the joined side of a hash join;
* on (a), the same probe AS OF earlier commit timestamps.
"""

import pytest

from repro.common import Column, DataType, Schema
from repro.common.rng import make_rng
from repro.engines import make_engine

from ..oracle import assert_matches

ALL = ["a", "b", "c", "d"]

ACCT = Schema(
    "acct",
    [
        Column("a_w", DataType.INT64),
        Column("a_d", DataType.INT64),
        Column("a_id", DataType.INT64),
        Column("a_tier", DataType.INT64),
        Column("a_n", DataType.INT64, nullable=True),
        Column("a_bal", DataType.FLOAT64, nullable=True),
        Column("a_name", DataType.STRING, nullable=True),
    ],
    ["a_w", "a_d", "a_id"],
)
TIER = Schema(
    "tier",
    [
        Column("t_id", DataType.INT64),
        Column("t_label", DataType.STRING, nullable=True),
        Column("t_rate", DataType.FLOAT64, nullable=True),
    ],
    ["t_id"],
)
N_W, N_D, N_ID, N_TIER = 2, 3, 30, 6

_KEY = "a_w = ? AND a_d = ? AND a_id = ?"


def _literal(value):
    return repr(value) if not isinstance(value, str) else f"'{value}'"


def inline(sql, params):
    """``sql`` with each ``?`` replaced by its literal, left to right."""
    parts = sql.split("?")
    assert len(parts) == len(params) + 1
    out = parts[0]
    for value, rest in zip(params, parts[1:]):
        out += _literal(value) + rest
    return out


def _tier_of(row, rng):
    return row[3] if row is not None else rng.randrange(N_TIER)


#: name -> (template, params from (key, row-or-None, rng)).  ``row`` is
#: what the model holds under ``key``; a statement that wants a value
#: the row does not have (absent key) draws one.
STATEMENTS = {
    "key_order": (
        f"SELECT a_n, a_bal, a_name FROM acct WHERE {_KEY}",
        lambda k, row, rng: k,
    ),
    "where_order_differs": (
        "SELECT a_id, a_name, a_bal FROM acct "
        "WHERE a_id = ? AND a_w = ? AND a_d = ?",
        lambda k, row, rng: (k[2], k[0], k[1]),
    ),
    "half_literal": (
        "SELECT a_n, a_name FROM acct WHERE a_w = 1 AND a_d = ? AND a_id = ?",
        lambda k, row, rng: (k[1], k[2]),
    ),
    "residual_accepts": (
        f"SELECT a_id, a_bal FROM acct WHERE {_KEY} AND a_tier = ?",
        lambda k, row, rng: k + (_tier_of(row, rng),),
    ),
    "residual_rejects": (
        f"SELECT a_id, a_bal FROM acct WHERE {_KEY} AND a_tier = ?",
        lambda k, row, rng: k + (_tier_of(row, rng) + 1,),
    ),
    "range_residual": (
        f"SELECT a_id, a_n FROM acct WHERE {_KEY} AND a_tier < ?",
        lambda k, row, rng: k + (rng.randrange(N_TIER + 1),),
    ),
    "conflicting_equalities": (
        f"SELECT a_id, a_name FROM acct WHERE {_KEY} AND a_id = ?",
        lambda k, row, rng: k + (k[2] + rng.choice([0, 1]),),
    ),
    "conflict_names_the_other_row": (
        # The second equality is a live key too: the first still wins.
        "SELECT a_id, a_name FROM acct "
        "WHERE a_id = ? AND a_w = ? AND a_d = ? AND a_id = ?",
        lambda k, row, rng: (k[2], k[0], k[1], (k[2] + 1) % N_ID),
    ),
    "star": (
        f"SELECT * FROM acct WHERE {_KEY}",
        lambda k, row, rng: k,
    ),
    "count_only": (
        f"SELECT COUNT(*) AS n FROM acct WHERE {_KEY}",
        lambda k, row, rng: k,
    ),
    "single_column_key": (
        "SELECT t_label, t_rate FROM tier WHERE t_id = ?",
        lambda k, row, rng: (_tier_of(row, rng),),
    ),
    "probe_is_join_base": (
        "SELECT a_id, a_name, t_label, t_rate FROM acct "
        f"JOIN tier ON t_id = a_tier WHERE {_KEY}",
        lambda k, row, rng: k,
    ),
    "probe_is_joined_side": (
        # Both sides are one row; the planner bases on the first (tier)
        # and the probe of acct is the joined side.
        "SELECT a_id, a_bal, t_label FROM tier "
        f"JOIN acct ON a_tier = t_id WHERE t_id = ? AND {_KEY}",
        lambda k, row, rng: (_tier_of(row, rng),) + k,
    ),
}


def acct_row(rng, key):
    """A row under ``key`` with each nullable cell NULL one time in four."""
    return key + (
        rng.randrange(N_TIER),
        None if rng.random() < 0.25 else rng.randrange(1000),
        None if rng.random() < 0.25 else round(rng.uniform(-50.0, 50.0), 2),
        None if rng.random() < 0.25 else rng.choice(["ann", "bo", "cy", "di"]),
    )


class Battery:
    """One engine beside a dict of what has been committed to it."""

    def __init__(self, cat, seed):
        kwargs = {"seed": 5} if cat == "b" else {}
        self.cat = cat
        self.rng = make_rng(seed)
        self.engine = make_engine(cat, **kwargs)
        self.engine.create_table(ACCT)
        self.engine.create_table(TIER)
        keys = [
            (w, d, i)
            for w in range(1, N_W + 1)
            for d in range(1, N_D + 1)
            for i in range(N_ID)
        ]
        self.acct = {k: acct_row(self.rng, k) for k in keys if k[2] % 5 != 4}
        self.tier = {
            t: (t, None if t == 2 else f"tier{t}", None if t == 4 else t / 8)
            for t in range(N_TIER)
        }
        self.engine.load_rows("acct", list(self.acct.values()), batch=50)
        self.engine.load_rows("tier", list(self.tier.values()), batch=50)
        self.engine.force_sync()
        #: The keys the schedule keeps coming back to, absent ones too.
        self.hot = self.rng.sample(keys, 12)
        #: (commit ts, rows then) marks for the AS OF probes on (a).
        self.marks = []

    def tables(self, acct=None):
        rows = self.acct if acct is None else acct
        return {
            "acct": (ACCT, list(rows.values())),
            "tier": (TIER, list(self.tier.values())),
        }

    # ------------------------------------------------------------- writes

    def write(self):
        """One committed change to a hot key: delete it if present (else
        insert it), or update it — sometimes as delete + re-insert."""
        key = self.rng.choice(self.hot)
        row = acct_row(self.rng, key)
        kind = self.rng.choice(["toggle", "update", "reinsert"])
        with self.engine.session() as s:
            if key not in self.acct:
                s.insert("acct", row)
                self.acct[key] = row
            elif kind == "toggle":
                s.delete("acct", key)
                del self.acct[key]
            elif kind == "update":
                s.update("acct", row)
                self.acct[key] = row
            else:
                s.delete("acct", key)
                s.insert("acct", row)
                self.acct[key] = row
        if self.cat == "b":
            # (b)'s column path (the join's full side) reads the image.
            self.engine.force_sync()
        elif self.rng.random() < 0.3:
            self.engine.sync()
        self.marks.append((self.engine.clock.now(), dict(self.acct)))

    # ------------------------------------------------------------- reads

    def check(self, name, key):
        sql, make_params = STATEMENTS[name]
        params = tuple(make_params(key, self.acct.get(key), self.rng))
        literal, tables = inline(sql, params), self.tables()
        assert_matches(self.engine.execute_prepared(sql, params), literal, tables)
        assert_matches(self.engine.query(sql, params=params), literal, tables)
        assert_matches(self.engine.query(literal), literal, tables)

    def sweep(self, names=None):
        for name in names or STATEMENTS:
            key = self.rng.choice(self.hot)
            if name == "half_literal":
                key = (1,) + key[1:]
            self.check(name, key)


@pytest.mark.parametrize("cat", ALL)
@pytest.mark.parametrize("seed", [1, 2])
def test_point_statements_match_the_oracle(cat, seed):
    battery = Battery(cat, seed)
    cache = battery.engine.plan_cache
    battery.sweep()  # every template's first use: a plan-cache miss
    assert cache.misses >= len(set(sql for sql, _ in STATEMENTS.values()))
    hits = cache.hits
    for step in range(25):
        battery.write()
        if step % 8 == 7:
            cache.invalidate()  # the next sweep plans again, mid-stream
        battery.sweep()
    assert cache.hits > hits
    # Every hot key was both present and absent at some check.
    assert {k in rows for _, rows in battery.marks for k in battery.hot} == {
        True, False
    }


@pytest.mark.parametrize("cat", ALL)
def test_the_canonical_statement_plans_as_an_index_probe(cat):
    """What the battery above is about: on every architecture a
    statement that pins the whole key runs as ``index_lookup``, alone
    and as either side of a join."""
    battery = Battery(cat, 4)
    key = next(iter(battery.acct))
    for name in ("key_order", "where_order_differs", "star", "count_only"):
        sql, make_params = STATEMENTS[name]
        plan = battery.engine.explain(inline(sql, make_params(key, None, None)))
        assert "via index_lookup" in plan.splitlines()[0], plan
    for name, line in (("probe_is_join_base", 0), ("probe_is_joined_side", 1)):
        sql, make_params = STATEMENTS[name]
        plan = battery.engine.explain(
            inline(sql, make_params(key, battery.acct[key], None))
        )
        assert "acct via index_lookup" in plan.splitlines()[line], plan


@pytest.mark.parametrize("seed", [1, 2])
def test_time_travel_probe_on_a(seed):
    """AS OF reads run on the row path of the version store; a point
    statement there equals the oracle over the rows as of that commit."""
    battery = Battery("a", seed)
    for _ in range(20):
        battery.write()
    for as_of, rows in battery.marks:
        for name in ("key_order", "star", "probe_is_join_base"):
            sql, make_params = STATEMENTS[name]
            key = battery.rng.choice(battery.hot)
            literal = inline(sql, make_params(key, rows.get(key), battery.rng))
            result = battery.engine.time_travel_query(literal, as_of)
            assert_matches(result, literal, battery.tables(rows))


def test_a_prepared_point_statement_costs_a_point_read(monkeypatch):
    """1 000 executions of a cached point plan never touch the scan
    cache, derive no key from a predicate, and pivot exactly the columns
    the statement returns."""
    from repro.query import executor, optimizer, plan_cache
    from repro.query.scan_cache import ScanCache

    battery = Battery("a", 1)
    engine = battery.engine
    sql, _ = STATEMENTS["key_order"]
    keys = list(battery.acct)
    engine.execute_prepared(sql, keys[0])  # plans, and compiles the key
    plan = engine.plan_cache.lookup(sql, ("int",) * 3, engine._stats_epoch_of).plan
    assert plan.base.path.value == "index_lookup"

    calls = {"cache": 0, "key_equality": 0, "arrays": 0}

    def counted(name, fn, amount=lambda result: 1):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[name] += amount(result)
            return result
        return wrapper

    monkeypatch.setattr(ScanCache, "get", counted("cache", ScanCache.get))
    monkeypatch.setattr(ScanCache, "put", counted("cache", ScanCache.put))
    for module in (optimizer, plan_cache):
        monkeypatch.setattr(
            module, "key_equality", counted("key_equality", module.key_equality)
        )
    monkeypatch.setattr(
        executor, "rows_to_columns", counted("arrays", executor.rows_to_columns, len)
    )
    for i in range(1000):
        assert len(engine.execute_prepared(sql, keys[i % len(keys)]).rows) == 1
    assert plan.base.needed == ["a_bal", "a_n", "a_name"]
    assert calls == {"cache": 0, "key_equality": 0, "arrays": 3000}
