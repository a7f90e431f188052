"""Executor-kernel microbench: absolute seconds per query, cold vs cached.

Times the four hot query shapes on their physical plans, and the
snapshot-scan cache against a forced row-store rescan.  Writes
``BENCH_executor.json`` at the repo root (schema 2: absolute ``*_s``
and ``*_per_s`` only) so CI can archive the numbers.  Correctness is
checked against ``tests/oracle`` on a catalog of ``ORACLE_ROWS`` rows
from the same generator (the oracle's nested-loop join is quadratic);
regression protection for these kernels is the ``olap_suite`` bound in
``BENCHMARK.json``.

Row count defaults to 100k; CI sets ``EXECUTOR_BENCH_ROWS`` smaller.
The ≥2x cached-rescan gate (warm vs cold, both production paths) only
applies at full size — at reduced size the fixed per-query overhead
dominates and the assert relaxes to "not slower".
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

import pytest

from repro.common import Column, CostModel, DataType, Schema
from repro.obs import get_registry
from repro.query import (
    AccessPath,
    DualStoreTableAccess,
    Executor,
    Planner,
    ScanCache,
    parse,
)
from repro.storage.column_store import ColumnStore
from repro.storage.row_store import MVCCRowStore

from conftest import (
    assert_absolute_report,
    assert_workloads_match_oracle,
    best_of,
    print_table,
)

N_ROWS = int(os.environ.get("EXECUTOR_BENCH_ROWS", "100000"))
FULL_SIZE = N_ROWS >= 100_000
BEST_OF = 5
ORACLE_ROWS = 2_000
REPORT_PATH = Path(__file__).resolve().parents[1] / "BENCH_executor.json"

WORKLOADS = {
    "join_aggregate": (
        "SELECT c_tier, COUNT(*), SUM(o_amount) FROM orders "
        "JOIN customer ON o_c_id = c_id GROUP BY c_tier"
    ),
    "order_limit": "SELECT o_amount, o_id FROM orders ORDER BY o_amount DESC LIMIT 10",
    "distinct": "SELECT DISTINCT o_region, o_qty FROM orders",
    "group_having": (
        "SELECT o_region, SUM(o_qty) FROM orders GROUP BY o_region "
        "HAVING COUNT(*) > 10"
    ),
}


def build_catalog(n_orders: int):
    rng = random.Random(42)
    n_customers = max(n_orders // 100, 10)
    orders = Schema(
        "orders",
        [
            Column("o_id", DataType.INT64),
            Column("o_c_id", DataType.INT64),
            Column("o_amount", DataType.FLOAT64),
            Column("o_qty", DataType.INT64),
            Column("o_region", DataType.STRING),
        ],
        ["o_id"],
    )
    customer = Schema(
        "customer",
        [
            Column("c_id", DataType.INT64),
            Column("c_tier", DataType.INT64),
            Column("c_name", DataType.STRING),
        ],
        ["c_id"],
    )
    order_rows = [
        (
            i,
            rng.randrange(n_customers),
            round(rng.uniform(1.0, 100.0), 2),
            rng.randrange(1, 50),
            rng.choice(["east", "west", "north", "south"]),
        )
        for i in range(n_orders)
    ]
    customer_rows = [(i, i % 5, f"cust{i % 97}") for i in range(n_customers)]
    cost = CostModel()
    catalog = {}
    tables = {}
    for schema, rows in ((orders, order_rows), (customer, customer_rows)):
        tables[schema.table_name] = (schema, rows)
        store = MVCCRowStore(schema, cost)
        for row in rows:
            store.install_insert(row, commit_ts=1)
        col = ColumnStore(schema, cost)
        for start in range(0, len(rows), 50_000):
            col.append_rows(rows[start : start + 50_000], commit_ts=1)
        catalog[schema.table_name] = DualStoreTableAccess(store, col, cost)
    return catalog, tables


@pytest.fixture(scope="module")
def report():
    get_registry().reset()
    assert_workloads_match_oracle(*build_catalog(ORACLE_ROWS), WORKLOADS.values())

    catalog, _tables = build_catalog(N_ROWS)
    planner = Planner(catalog, CostModel())
    results: dict[str, dict] = {}
    for name, sql in WORKLOADS.items():
        plan = planner.plan(parse(sql))
        executor = Executor(catalog, CostModel())
        exec_t, _result = best_of(lambda: executor.execute(plan), BEST_OF)
        results[name] = {
            "rows": N_ROWS,
            "exec_s": exec_t,
            "ops_per_s": 1.0 / exec_t,
        }

    # --- cached rescan: forced row-store scan, cold vs warm --------------
    cache = ScanCache()
    cached_exec = Executor(catalog, CostModel(), scan_cache=cache)
    row_planner = Planner(catalog, CostModel(), force_path=AccessPath.ROW_SCAN)
    rescan_plan = row_planner.plan(
        parse("SELECT o_qty, o_amount FROM orders WHERE o_amount > 50")
    )
    cold_t, cold_r = best_of(
        lambda: (cache.invalidate(), cached_exec.execute(rescan_plan))[1], BEST_OF
    )
    warm_t, warm_r = best_of(lambda: cached_exec.execute(rescan_plan), BEST_OF)
    assert warm_r.rows == cold_r.rows
    results["cached_rescan"] = {
        "rows": N_ROWS,
        "cold_s": cold_t,
        "warm_s": warm_t,
        "cold_ops_per_s": 1.0 / cold_t,
        "warm_ops_per_s": 1.0 / warm_t,
    }

    reg = get_registry()
    payload = {
        "bench": "executor_kernels",
        "schema": 2,
        "rows": N_ROWS,
        "full_size": FULL_SIZE,
        "best_of": BEST_OF,
        "workloads": results,
        "extras": {
            "scan_cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "obs_hits_total": reg.counter_total("scan_cache.hits"),
                "obs_misses_total": reg.counter_total("scan_cache.misses"),
            }
        },
    }
    REPORT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    print_table(
        f"Executor kernels ({N_ROWS} rows, best of {BEST_OF})",
        ["workload", "ms/query", "ops/s"],
        [
            [label, seconds * 1e3, 1.0 / seconds]
            for label, seconds in (
                *((name, results[name]["exec_s"]) for name in WORKLOADS),
                ("cached_rescan cold", cold_t),
                ("cached_rescan warm", warm_t),
            )
        ],
        widths=[20, 12, 12],
    )
    return payload


def test_cached_rescan_faster_than_cold(report):
    rescan = report["workloads"]["cached_rescan"]
    assert rescan["cold_s"] / rescan["warm_s"] >= (2.0 if FULL_SIZE else 1.0)


def test_cache_counters_recorded(report):
    cache_stats = report["extras"]["scan_cache"]
    assert cache_stats["hits"] >= BEST_OF - 1  # warm runs hit
    assert cache_stats["misses"] >= 1
    assert cache_stats["obs_hits_total"] >= cache_stats["hits"]


def test_report_written(report):
    on_disk = json.loads(REPORT_PATH.read_text())
    assert on_disk["workloads"].keys() == report["workloads"].keys()
    assert_absolute_report(on_disk)
