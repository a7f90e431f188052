"""Analytical reads see whole transactions: the read-atomicity probes.

Two probes run an OLTP stream and, after every transaction, an
analytical aggregate that a fractured read would get wrong.

- **Transfers.** Sixteen accounts at 100 each; each transaction moves
  money between two of them, so every ``SELECT SUM(bal)`` must read
  1 600.  On engine (b) the accounts span four shards, the cluster
  advances 0, 200, 1 000 or 5 000 µs after each transfer, and nothing
  syncs; on (a), (c) and (d) a sync runs every seven transfers.
- **TPC-C condition 1.** A Payment adds the same amount to one
  ``W_YTD`` and one ``D_YTD``, so after every ``run_one`` the change in
  ``SUM(w_ytd)`` since the load must equal the change in
  ``SUM(d_ytd)``.

Both probes cover fault-free schedules only: no crash, partition or
resharding runs while they read.  On (b) the transfers probe holds
because each shard's half of a decided transaction is proposed at the
decision, so the halves reach the learner together; it would fail if
the commit round waited in a queue for the next operation on each
shard.  The strict xfails on (b) name what is still missing: each
table's delta log seals on its own every 64 entries, wherever they
fall, and a scan reads every sealed entry of its table, so a seal can
cut one transaction apart and two scans in one query can read two
different prefixes of the commits.  Closing that needs a read
timestamp per query from per-shard closed timestamps and per-table
seals.
"""

import random

import pytest

from repro.bench import TpccLoader, TpccScale, TpccWorkload
from repro.common import Column, DataType, Schema
from repro.engines import make_engine

ACCT = Schema(
    "acct",
    [Column("id", DataType.INT64), Column("bal", DataType.FLOAT64)],
    ["id"],
)
N_ACCOUNTS, N_TRANSFERS = 16, 300
ADVANCES_US = (0, 200, 1_000, 5_000)


def build(cat: str, seed: int):
    if cat == "b":
        return make_engine("b", n_regions=4, seed=seed)
    return make_engine(cat)


def fractured_sums(cat: str, seed: int) -> list[int]:
    """Indices of the transfers after which ``SUM(bal)`` was not 1 600."""
    engine = build(cat, seed)
    engine.create_table(ACCT)
    engine.bulk_load("acct", [(i, 100.0) for i in range(N_ACCOUNTS)])
    engine.force_sync()
    rng = random.Random(seed)
    wrong = []
    for i in range(N_TRANSFERS):
        src, dst = rng.sample(range(N_ACCOUNTS), 2)
        amount = float(rng.randint(1, 5))
        with engine.session() as s:
            s.update("acct", (src, s.read("acct", src)[1] - amount))
            s.update("acct", (dst, s.read("acct", dst)[1] + amount))
        if cat == "b":
            engine.cluster.advance(rng.choice(ADVANCES_US))
        elif i % 7 == 6:
            engine.sync()
        total = engine.query("SELECT SUM(bal) FROM acct").rows[0][0]
        if total != 100.0 * N_ACCOUNTS:
            wrong.append(i)
    return wrong


def ytd_mismatches(cat: str, n_txns: int = 400) -> list[int]:
    """Indices of the ``run_one`` calls after which the analytical
    path's change in ``SUM(w_ytd)`` differs from its change in
    ``SUM(d_ytd)``."""
    engine = build(cat, 1)
    TpccLoader(TpccScale(), seed=7).load(engine)
    engine.force_sync()
    workload = TpccWorkload(engine, TpccScale(), seed=7)

    def sums() -> tuple[float, float]:
        w_ytd = engine.query("SELECT SUM(w_ytd) FROM warehouse").rows[0][0]
        d_ytd = engine.query("SELECT SUM(d_ytd) FROM district").rows[0][0]
        return w_ytd, d_ytd

    w0, d0 = sums()
    wrong = []
    for i in range(n_txns):
        workload.run_one()
        if cat == "b":
            engine.cluster.advance(500)
        elif i % 7 == 6:
            engine.sync()
        w, d = sums()
        if round(w - w0, 6) != round(d - d0, 6):
            wrong.append(i)
    return wrong


SEAL_CUT = pytest.mark.xfail(
    strict=True,
    reason="the delta log seals every 64 entries wherever they fall: after "
    "one shard's half of transfer 287 reached the learner before the "
    "other's, the seal cut transfer 288's two writes apart; needs item 3's "
    "per-table seals and a per-query read ts",
)
TRANSFER_RUNS = [
    ("b", 1),
    pytest.param("b", 2, marks=SEAL_CUT),
    ("b", 3),
] + [(cat, seed) for cat in "acd" for seed in (1, 2, 3)]


@pytest.mark.parametrize("cat,seed", TRANSFER_RUNS)
def test_transfers_never_read_a_fractured_sum(cat, seed):
    assert fractured_sums(cat, seed) == []


TPCC_ENGINES = [
    pytest.param(
        "b",
        marks=pytest.mark.xfail(
            strict=True,
            reason="each table's delta log seals on its own, so two scans "
            "read two prefixes; needs a per-query read ts over per-shard "
            "closed timestamps and per-table seals",
        ),
    ),
    "a",
    "c",
    "d",
]


@pytest.mark.parametrize("cat", TPCC_ENGINES)
def test_warehouse_ytd_tracks_district_ytd(cat):
    assert ytd_mismatches(cat) == []
