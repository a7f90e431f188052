"""``EngineSession.prefetch`` changes no answer, on any engine.

A prefetch is a BatchGet hint: on (b) it fetches the keys in one round
trip and the session serves its later reads from them; everywhere else
it does nothing.  Either way a session must read, refuse and commit
exactly what it would have without the hint.  Each generated case is
one session over at most six keys (three per table, some committed
beforehand): reads, inserts, updates and deletes, with prefetches of
random key subsets in between — absent keys, duplicates, and keys the
session has already written among them.  Every step must match the dict
model (the same read, or the same ``DuplicateKeyError`` /
``KeyNotFoundError`` at stage time), and so must the commit outcome and
the state a fresh session then reads.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engines import make_engine

from ..oracle import TableModel
from .test_session_conformance import SCHEMAS, TABLES, ModelSession, outcome

ALL = ["a", "b", "c", "d"]
KEYS = range(3)
PAIRS = [(table, key) for table in TABLES for key in KEYS]

pairs = st.sampled_from(PAIRS)
rows = st.tuples(st.floats(0, 9).map(round).map(float), st.sampled_from("ab"))
steps = st.one_of(
    pairs.map(lambda p: ("read", *p)),
    pairs.map(lambda p: ("delete", *p)),
    st.tuples(st.sampled_from(("insert", "update")), pairs, rows).map(
        lambda s: (s[0], s[1][0], (s[1][1], *s[2]))
    ),
    st.lists(pairs, max_size=8).map(lambda ps: ("prefetch", ps)),
)
cases = st.tuples(
    st.sets(pairs),  # committed before the case
    st.lists(steps, min_size=1, max_size=12),
    st.sampled_from(("commit", "abort")),
)


def make(cat):
    engine = make_engine(cat, **({"seed": 5} if cat == "b" else {}))
    for schema in SCHEMAS.values():
        engine.create_table(schema)
    return engine


def committed(engine):
    with engine.session() as s:
        return {table: sorted(s.scan(table)) for table in TABLES}


@pytest.mark.parametrize("cat", ALL)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=cases)
def test_prefetch_changes_no_answer(cat, case):
    preload, ops, finish = case
    engine = make(cat)
    models = {table: TableModel() for table in TABLES}
    if preload:
        with engine.session() as s:
            for table, key in sorted(preload):
                s.insert(table, (key, 1.0, "a"))
                models[table].apply("insert", key, (key, 1.0, "a"), 1)
    session, model = engine.session(), ModelSession(models, 2)
    for step, op in enumerate([*ops, (finish,)]):
        assert outcome(session, op) == outcome(model, op), f"step {step}: {op!r}"
    assert committed(engine) == {t: models[t].rows() for t in TABLES}
