"""Sync-pipeline microbench: absolute seconds of OLTP→OLAP movement.

Times the four batch paths — in-memory delta merge (technique (i)),
Raft learner log replay + log-based merge (technique (ii)), an IMCU's
rebuild from the primary row store (technique (iii): first population,
then a repopulation after 5 % of the rows changed), and the TPC-C
bulk-load fixture path (against per-row sessions, both production
APIs) — and writes ``BENCH_sync.json`` at the repo root (schema 2:
absolute ``*_s`` and ``*_per_s`` only) so CI can archive the numbers.
Post-sync state is checked against ``tests/oracle``'s dict table model,
and the repopulated IMCU against a fresh full build; regression
protection for these kernels is the ``oltp_sync`` bound in
``BENCHMARK.json``.

Row count defaults to 100k; CI sets ``SYNC_BENCH_ROWS`` smaller.
"""

from __future__ import annotations

import gc
import json
import os
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.bench import TpccLoader, TpccScale
from repro.common import Column, CostModel, DataType, Schema
from repro.distributed.cluster import ColumnarReplica, WriteKind, WriteOp
from repro.engines import make_engine
from repro.engines.base import HTAPEngine
from repro.obs import get_registry
from repro.storage.column_store import ColumnStore
from repro.storage.delta_store import InMemoryDeltaStore
from repro.storage.imcu import InMemoryColumnUnit
from repro.storage.row_store import MVCCRowStore
from repro.sync import InMemoryDeltaMerger

from conftest import assert_absolute_report, print_table
from tests.oracle import TableModel, store_state

N_ROWS = int(os.environ.get("SYNC_BENCH_ROWS", "100000"))
FULL_SIZE = N_ROWS >= 100_000
BEST_OF = 5
REPORT_PATH = Path(__file__).resolve().parents[1] / "BENCH_sync.json"

TPCC_SCALE = TpccScale(
    warehouses=1,
    districts=2,
    customers=120,
    items=150,
    initial_orders=60,
    suppliers=10,
)


@contextmanager
def quiesced_gc():
    """Whole-heap collector sweeps mid-trial are the dominant timing
    noise at 100k-object churn.  Freeze the pre-trial heap so GC stays
    *enabled* — each path still pays for the garbage it creates — but
    collections triggered inside the timed region only scan
    trial-allocated objects, not the accumulated fixtures."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def make_schema():
    return Schema(
        "t",
        [
            Column("id", DataType.INT64),
            Column("v", DataType.FLOAT64),
            Column("tag", DataType.STRING),
        ],
        ["id"],
    )


def delta_ops(n: int):
    """Insert n keys, update 1.5x (TP churn between merge cycles means
    several versions per hot key), delete a tenth — a merge-heavy mix
    whose collapse has real work to do (superseded versions and
    tombstones)."""
    rng = random.Random(7)
    ops = [("insert", i, (i, float(i), f"tag{i % 5}")) for i in range(n)]
    ops += [
        ("update", k, (k, float(k) * 2, "upd"))
        for k in (rng.randrange(n) for _ in range(n * 3 // 2))
    ]
    ops += [("delete", rng.randrange(n), None) for _ in range(n // 10)]
    return ops


def fill_delta(delta: InMemoryDeltaStore, ops) -> None:
    for ts, (kind, key, row) in enumerate(ops, start=1):
        if kind == "insert":
            delta.record_insert(row, ts)
        elif kind == "update":
            delta.record_update(row, ts)
        else:
            delta.record_delete(key, ts)


def bench_delta_merge(ops):
    """Best merge time over fresh stores; the last trial's post-merge
    state is checked against the table model."""
    best = float("inf")
    for _ in range(BEST_OF):
        cost = CostModel()
        delta = InMemoryDeltaStore(make_schema(), cost)
        main = ColumnStore(make_schema(), cost)
        merger = InMemoryDeltaMerger(delta, main, cost, threshold_rows=1)
        fill_delta(delta, ops)
        with quiesced_gc():
            start = time.perf_counter()
            merger.merge()
            elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    model = TableModel().apply_all(
        (kind, key, row, ts) for ts, (kind, key, row) in enumerate(ops, start=1)
    )
    assert store_state(main) == model.state()
    return best


def replay_commands(n: int, writes_per_txn: int = 20):
    """Cross-shard learner stream: intent/resolve pairs carrying n writes,
    ~40% of them updates of earlier keys (TP churn, not pure load)."""
    rng = random.Random(11)
    commands = []
    ts = 1
    next_key = 0
    for txn in range(n // writes_per_txn):
        writes = []
        for _ in range(writes_per_txn):
            if next_key and rng.random() < 0.4:
                k = rng.randrange(next_key)
                writes.append(
                    WriteOp(WriteKind.UPDATE, "t", k, (k, float(k) * 2, "upd"))
                )
            else:
                k = next_key
                next_key += 1
                writes.append(
                    WriteOp(WriteKind.INSERT, "t", k, (k, float(k), f"tag{k % 5}"))
                )
        commands.append(("intent", txn, writes, ts, ts - 1))
        commands.append(("resolve", txn, True))
        ts += 1
    return commands


def bench_raft_replay(commands):
    intents = [c for c in commands if c[0] == "intent"]
    total_writes = sum(len(c[2]) for c in intents)
    best = float("inf")
    for _ in range(BEST_OF):
        cost = CostModel()
        replica = ColumnarReplica({"t": make_schema()}, cost)
        with quiesced_gc():
            start = time.perf_counter()
            replica.learner_apply_batch(0, 1, commands)
            replica.merge_deltas()
            elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    # Every intent in the stream commits: its writes land at its ts.
    model = TableModel().apply_all(
        ("insert", w.key, w.row, ts)
        for _op, _txn, writes, ts, _read_ts in intents
        for w in writes
    )
    assert store_state(replica.column_stores["t"]) == model.state()
    assert replica.applied_ts == model.max_ts
    return best, total_writes


def repopulate_changes(n: int):
    """5 % of an n-row table: updates, inserts and deletes, a third each."""
    rng = random.Random(13)
    third = n // 60
    touched = rng.sample(range(n), 2 * third)
    ops = [("update", k, (k, float(k) * 2, "upd")) for k in touched[:third]]
    ops += [("insert", k, (k, float(k), f"tag{k % 5}")) for k in range(n, n + third)]
    ops += [("delete", k, None) for k in touched[third:]]
    rng.shuffle(ops)
    return ops


def bench_imcu_repopulate(n: int):
    """Best first population of an n-row IMCU and best repopulation
    after :func:`repopulate_changes`, over fresh stores; the last
    trial's image is checked against a fresh unit's full build."""
    changes = repopulate_changes(n)
    best = {"populate": float("inf"), "repopulate": float("inf")}
    for _ in range(BEST_OF):
        cost = CostModel()
        store = MVCCRowStore(make_schema(), cost)
        for i in range(n):
            store.install_insert((i, float(i), f"tag{i % 5}"), 1)
        imcu = InMemoryColumnUnit(make_schema(), store, cost)
        with quiesced_gc():
            start = time.perf_counter()
            imcu.populate(1)
            best["populate"] = min(best["populate"], time.perf_counter() - start)
        for ts, (kind, key, row) in enumerate(changes, start=2):
            if kind == "insert":
                store.install_insert(row, ts)
            elif kind == "update":
                store.install_update(key, row, ts)
            else:
                store.install_delete(key, ts)
            imcu.on_change(key)
        with quiesced_gc():
            start = time.perf_counter()
            imcu.populate(ts)
            best["repopulate"] = min(best["repopulate"], time.perf_counter() - start)
    full = InMemoryColumnUnit(make_schema(), store, CostModel())
    full.populate(ts)
    (got,), (want,) = imcu.segments, full.segments
    assert got.keys == want.keys
    for name, encoding in want.encodings.items():
        assert type(got.encodings[name]) is type(encoding)
        assert got.encodings[name].decode().tolist() == encoding.decode().tolist()
    return best


def bench_tpcc_load():
    best = {True: float("inf"), False: float("inf")}
    rows = {}
    for trial in range(BEST_OF + 1):  # first round is warmup
        for bulk in (True, False):
            engine = make_engine("a")
            if not bulk:
                # The comparison arm: route the loader's bulk_load
                # calls back through row-at-a-time sessions.
                engine.bulk_load = lambda table, rows: HTAPEngine.load_rows(
                    engine, table, rows
                )
            loader = TpccLoader(scale=TPCC_SCALE, seed=1)
            with quiesced_gc():
                start = time.perf_counter()
                loader.load(engine)
                elapsed = time.perf_counter() - start
            if trial > 0:
                best[bulk] = min(best[bulk], elapsed)
            rows[bulk] = sum(
                engine.query(f"SELECT COUNT(*) FROM {t}").rows[0][0]
                for t in ("orders", "order_line", "stock", "customer")
            )
    return best, rows


@pytest.fixture(scope="module")
def report():
    get_registry().reset()
    results: dict[str, dict] = {}

    # --- technique (i): in-memory delta merge ----------------------------
    ops = delta_ops(N_ROWS)
    merge_t = bench_delta_merge(ops)
    results["delta_merge"] = {
        "rows": len(ops),
        "merge_s": merge_t,
        "rows_per_s": len(ops) / merge_t,
    }

    # --- technique (ii): Raft learner replay + log merge -----------------
    commands = replay_commands(N_ROWS)
    replay_t, n_writes = bench_raft_replay(commands)
    results["raft_replay"] = {
        "rows": n_writes,
        "replay_s": replay_t,
        "rows_per_s": n_writes / replay_t,
    }

    # --- technique (iii): IMCU rebuild from the primary row store -------
    imcu_t = bench_imcu_repopulate(N_ROWS)
    results["imcu_repopulate"] = {
        "rows": N_ROWS,
        "populate_s": imcu_t["populate"],
        "repopulate_s": imcu_t["repopulate"],
    }

    # --- fixture path: TPC-C bulk load vs per-row sessions ---------------
    load_t, load_rows = bench_tpcc_load()
    assert load_rows[True] == load_rows[False]
    results["tpcc_load"] = {
        "rows": load_rows[True],
        "bulk_s": load_t[True],
        "per_row_s": load_t[False],
        "bulk_rows_per_s": load_rows[True] / load_t[True],
        "per_row_rows_per_s": load_rows[True] / load_t[False],
    }

    payload = {
        "bench": "sync_pipeline",
        "schema": 2,
        "rows": N_ROWS,
        "full_size": FULL_SIZE,
        "best_of": BEST_OF,
        "workloads": results,
        "extras": {"obs": get_registry().snapshot()},
    }
    REPORT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    print_table(
        f"Sync pipeline ({N_ROWS} rows, best of {BEST_OF})",
        ["workload", "rows", "ms", "rows/s"],
        [
            [label, rows, seconds * 1e3, rows / seconds]
            for label, rows, seconds in (
                ("delta_merge", len(ops), merge_t),
                ("raft_replay", n_writes, replay_t),
                ("imcu populate", N_ROWS, imcu_t["populate"]),
                ("imcu repopulate", N_ROWS, imcu_t["repopulate"]),
                ("tpcc_load bulk", load_rows[True], load_t[True]),
                ("tpcc_load per-row", load_rows[False], load_t[False]),
            )
        ],
        widths=[20, 10, 12, 14],
    )
    return payload


def test_tpcc_bulk_load_not_slower(report):
    load = report["workloads"]["tpcc_load"]
    assert load["bulk_s"] <= load["per_row_s"]


def test_batch_obs_recorded(report):
    histograms = report["extras"]["obs"].get("histograms", {})
    names = " ".join(histograms)
    assert "sync.batch_rows" in names
    assert "sync.merge_latency_us" in names
    assert "raft.apply_batch_commands" in names


def test_report_written(report):
    on_disk = json.loads(REPORT_PATH.read_text())
    assert on_disk["workloads"].keys() == report["workloads"].keys()
    assert_absolute_report(on_disk)
