"""The cluster's commit paths against classic 2PC (``tests/oracle/two_phase``).

Generated sequences of 1-4-shard transactions over at most eight keys
run on a production cluster (1PC on one shard, the piggybacked round on
more) and on a cluster with the 2PC oracle attached; a second battery
kills one participant's leader in the middle of every 3-4-shard intent
round, and a third kills or deposes one right after the decision, with
a batched read of every key before the next transaction.  Duplicate inserts
and updates or deletes of missing keys make participants vote NO, so
single-shard refusals and multi-shard aborts both occur.  The two must
agree op by op with the planned outcome, on the rows every leader
serves, and on the learner's columnar image after ``sync()``.

The oracle is the classic protocol, cost included: for one fixed
sequence it leaves the busy ledger that the cluster's former
``commit_protocol="baseline"`` path left, pinned below, and the
simulated clock it left less 1 200 µs: the boot's elections no longer
fail and retry (a candidate's timeout after the first is no longer
shorter than the round trip its votes take).
"""

import random

from hypothesis import example, given, settings, strategies as st

from repro.common import Column, DataType, Schema, TransactionAborted
from repro.distributed import AppendEntries, DistributedCluster, WriteKind, WriteOp
from ..oracle.two_phase import attach_two_phase

ACCT = Schema(
    "acct",
    [Column("id", DataType.INT64), Column("bal", DataType.FLOAT64)],
    ["id"],
)
KEYS = range(8)


def make_cluster():
    cluster = DistributedCluster(n_storage_nodes=4, n_regions=4, seed=5)
    cluster.create_table(ACCT)
    return cluster


def oracle_cluster():
    cluster = make_cluster()
    attach_two_phase(cluster)
    return cluster


#: (key, balance, valid, shape): a valid write is an insert of an absent
#: key or an update / delete of a present one, an invalid one the reverse.
drafts = st.tuples(
    st.sampled_from(KEYS),
    st.integers(min_value=-5, max_value=5).map(float),
    st.sampled_from([True] * 3 + [False]),
    st.sampled_from(["update", "delete"]),
)
transactions = st.lists(
    st.lists(drafts, min_size=1, max_size=4, unique_by=lambda w: w[0]),
    min_size=1,
    max_size=12,
)


def plan(load, txns):
    """Concrete write lists, the outcome each must have, and the rows
    left behind: a transaction commits iff every write is valid against
    the rows its predecessors left."""
    rows = {key: (key, 1.0) for key in load}
    planned = [[WriteOp(WriteKind.INSERT, "acct", k, v)] for k, v in sorted(rows.items())]
    expected = [True] * len(planned)
    for txn in txns:
        ops = []
        for key, bal, valid, shape in txn:
            if (key in rows) != valid:
                kind = WriteKind.INSERT
            else:
                kind = WriteKind.DELETE if shape == "delete" else WriteKind.UPDATE
            ops.append(
                WriteOp(kind, "acct", key, None if kind is WriteKind.DELETE else (key, bal))
            )
        ok = all(valid for _key, _bal, valid, _shape in txn)
        if ok:
            for op in ops:
                if op.kind is WriteKind.DELETE:
                    del rows[op.key]
                else:
                    rows[op.key] = op.row
        planned.append(ops)
        expected.append(ok)
    return planned, expected, sorted(rows.values())


def run(cluster, planned):
    """Commit each transaction; the per-op outcomes (committed or not)."""
    outcomes = []
    for ops in planned:
        try:
            cluster.execute_transaction(ops)
            outcomes.append(True)
        except TransactionAborted:
            outcomes.append(False)
    return outcomes


def columnar(cluster):
    cluster.sync()
    arrays = cluster.analytic_scan("acct", ["id", "bal"]).arrays
    return sorted(zip(arrays["id"].tolist(), arrays["bal"].tolist()))


@settings(max_examples=60, deadline=None)
@given(load=st.sets(st.sampled_from(KEYS)), txns=transactions)
def test_production_commits_what_two_phase_commits(load, txns):
    planned, expected, rows = plan(load, txns)
    prod, oracle = make_cluster(), oracle_cluster()
    assert run(prod, planned) == run(oracle, planned) == expected
    assert sorted(prod.row_scan("acct")) == sorted(oracle.row_scan("acct")) == rows
    assert (prod.commits, prod.aborts) == (oracle.commits, oracle.aborts)
    assert columnar(prod) == columnar(oracle) == rows


def test_oracle_costs_what_the_baseline_cost():
    """Thirty generated transactions over four pre-loaded keys; the
    busy ledger and clock are what a ``commit_protocol="baseline"``
    cluster left for the same sequence."""
    rng = random.Random(11)
    txns = [
        [
            (key, float(rng.randint(-5, 5)), rng.random() < 0.75, rng.choice(["update", "delete"]))
            for key in rng.sample(list(KEYS), rng.randint(1, 4))
        ]
        for _ in range(30)
    ]
    planned, expected, rows = plan({0, 2, 4, 6}, txns)
    oracle = oracle_cluster()
    assert run(oracle, planned) == expected
    assert sum(expected) == 18
    assert oracle.ledger.snapshot() == {"n0": 1015.0, "n1": 1275.5, "n2": 713.0, "n3": 1191.5}
    assert oracle.cost.now_us() == 124760.0
    assert columnar(oracle) == rows


def test_generated_shapes_reach_every_fan_out():
    """The key space spans four shards, so the battery's 1-4-write
    transactions can touch one to four participants."""
    cluster = make_cluster()
    assert {cluster.region_of("acct", key) for key in KEYS} == {0, 1, 2, 3}


# ------------------------------------------------ a participant's leader dies


def kill_on(cluster, sid, carries, depose=False):
    """Crash shard ``sid``'s leader the moment it sends the first
    AppendEntries with an entry for which ``carries(command)`` holds —
    or, with ``depose``, cut it off from its fellow voters: the entry
    sits in its log alone, every copy in flight is dropped, and the
    group has to elect a successor before it commits."""
    network = cluster.network
    send = network.send
    killed = []

    def send_then_kill(src, dst, message):
        send(src, dst, message)
        hit = isinstance(message, AppendEntries) and any(
            entry.command is not None and carries(entry.command)
            for entry in message.entries
        )
        if not killed and hit and src.startswith(f"r{sid}."):
            killed.append(src)
            if not depose:
                network.crash(src)
                return
            for node_id in cluster._groups[sid].nodes:
                if node_id != src and not node_id.endswith(".learner"):
                    network.partition(src, node_id)

    network.send = send_then_kill
    return killed


def kill_on_intent(cluster, sid):
    """Kill ``sid``'s leader in the middle of the intent round."""
    return kill_on(cluster, sid, lambda command: command[0] == "intent")


def kill_on_resolve(cluster, sid, depose=False):
    """Kill (or depose) ``sid``'s leader right after the next
    transaction's decision: its resolve is proposed and has reached no
    follower."""
    txn_id = cluster.piggyback._next_txn_id
    return kill_on(
        cluster, sid, lambda command: command[:2] == ("resolve", txn_id), depose
    )


SHARD_OF = {key: make_cluster().region_of("acct", key) for key in KEYS}


@st.composite
def wide_transactions(draw):
    """A 3-4-shard transaction (one key per participant) and the index,
    among its sorted participants, of the one whose leader dies."""
    shards = draw(st.lists(st.sampled_from(range(4)), min_size=3, max_size=4, unique=True))
    txn = [
        (
            draw(st.sampled_from([k for k in KEYS if SHARD_OF[k] == sid])),
            draw(st.integers(min_value=-5, max_value=5).map(float)),
            draw(st.sampled_from([True] * 3 + [False])),
            draw(st.sampled_from(["update", "delete"])),
        )
        for sid in shards
    ]
    return txn, draw(st.integers(min_value=0, max_value=len(shards) - 1))


@settings(max_examples=25, deadline=None)
@given(
    load=st.sets(st.sampled_from(KEYS)),
    txns=st.lists(wide_transactions(), min_size=1, max_size=5),
)
def test_leader_killed_mid_round(load, txns):
    """Every multi-shard commit loses one participant's leader in the
    middle of its intent round: the round re-proposes on the successor,
    and the cluster still commits exactly what the 2PC oracle commits,
    with the same rows on every leader and in the columnar image."""
    planned, expected, rows = plan(load, [txn for txn, _victim in txns])
    prod, oracle = make_cluster(), oracle_cluster()
    n_load = len(planned) - len(txns)
    outcomes = run(prod, planned[:n_load])
    for ops, (_txn, victim) in zip(planned[n_load:], txns):
        participants = sorted({prod.region_of("acct", op.key) for op in ops})
        killed = kill_on_intent(prod, participants[victim])
        outcomes += run(prod, [ops])
        del prod.network.send  # the class's send again
        assert len(killed) == 1
        prod.network.restart_all()
    assert outcomes == run(oracle, planned) == expected
    assert sorted(prod.row_scan("acct")) == sorted(oracle.row_scan("acct")) == rows
    assert (prod.commits, prod.aborts) == (oracle.commits, oracle.aborts)
    assert columnar(prod) == columnar(oracle) == rows


def zeroed(*keys):
    """Valid updates of ``keys`` to a zero balance, as ``drafts`` draws them."""
    return [(key, 0.0, True, "update") for key in keys]


@settings(max_examples=25, deadline=None)
@given(
    load=st.sets(st.sampled_from(KEYS)),
    txns=st.lists(
        st.tuples(wide_transactions(), st.booleans()), min_size=1, max_size=5
    ),
)
# A deposed leader's stale log makes the group elect twice; the second
# leader must not serve, nor count as drained, before it commits in its
# own term (the learner missed the last delete when it did).
@example(
    load=set(KEYS),
    txns=[
        ((zeroed(2, 0, 4), 0), False),
        ((zeroed(2, 0, 4, 3), 0), False),
        ((zeroed(2, 4) + [(3, 0.0, True, "delete")], 2), True),
    ],
)
def test_leader_killed_after_the_decision(load, txns):
    """Every multi-shard commit loses one participant's leader right
    after the decision, before its resolve is replicated — crashed, or
    cut off from its voters until a successor is elected — and a
    batched read of every key follows: the cluster answers what the
    2PC oracle answers, commits what it commits, and ends with the same
    rows on every leader and in the columnar image."""
    planned, expected, rows = plan(load, [txn for (txn, _victim), _ in txns])
    prod, oracle = make_cluster(), oracle_cluster()
    n_load = len(planned) - len(txns)
    assert run(prod, planned[:n_load]) == run(oracle, planned[:n_load])
    pairs = [("acct", key) for key in KEYS]
    for ops, ok, ((_txn, victim), depose) in zip(
        planned[n_load:], expected[n_load:], txns
    ):
        participants = sorted({prod.region_of("acct", op.key) for op in ops})
        killed = kill_on_resolve(prod, participants[victim], depose)
        assert run(prod, [ops]) == run(oracle, [ops]) == [ok]
        del prod.network.send  # the class's send again
        assert len(killed) == 1
        if depose:
            prod.advance(30_000)  # a successor is elected
        assert prod.read_many(pairs) == oracle.read_many(pairs)
        prod.network.heal_all()
        prod.network.restart_all()
    assert sorted(prod.row_scan("acct")) == sorted(oracle.row_scan("acct")) == rows
    assert (prod.commits, prod.aborts) == (oracle.commits, oracle.aborts)
    assert columnar(prod) == columnar(oracle) == rows


# ------------------------------------------------ back to back, no time between


@settings(max_examples=40, deadline=None)
@given(load=st.sets(st.sampled_from(KEYS)), txns=transactions)
def test_back_to_back_commits_read_decided_rows(load, txns):
    """No simulated time passes between one commit and the next read:
    after every transaction, a batched read of every key on the
    production cluster answers what the 2PC oracle's answers, and both
    are the rows the planned prefix leaves."""
    planned, expected, _rows = plan(load, txns)
    prod, oracle = make_cluster(), oracle_cluster()
    rows: dict = {}
    pairs = [("acct", key) for key in KEYS]
    for ops, ok in zip(planned, expected):
        assert run(prod, [ops]) == run(oracle, [ops]) == [ok]
        if ok:
            for op in ops:
                rows[op.key] = op.row
        want = {("acct", key): rows.get(key) for key in KEYS}
        assert prod.read_many(pairs) == oracle.read_many(pairs) == want
