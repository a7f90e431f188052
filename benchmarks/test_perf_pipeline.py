"""Compressed-execution microbench: absolute seconds of code-space
joins, GROUP BY, and DISTINCT.

Times the executor's compressed mode (dictionary codes flow past the
scan boundary; materialization deferred to result emit) on four query
shapes.  Writes ``BENCH_pipeline.json`` at the repo root (schema 2:
absolute ``*_s`` and ``*_per_s`` only) so CI can archive the numbers.
Correctness is checked against ``tests/oracle`` on a catalog of
``ORACLE_ROWS`` rows from the same generator (the oracle's nested-loop
join is quadratic); regression protection for these kernels is the
``olap_suite`` bound in ``BENCHMARK.json``.

Row count defaults to 100k; CI sets ``PIPELINE_BENCH_ROWS`` smaller.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

import pytest

from repro.common import Column, CostModel, DataType, Schema
from repro.obs import get_registry
from repro.query import DualStoreTableAccess, Executor, Planner, parse
from repro.storage import ColumnStore
from repro.storage.row_store import MVCCRowStore

from conftest import (
    assert_absolute_report,
    assert_workloads_match_oracle,
    best_of,
    obs_report,
    print_table,
)

N_ROWS = int(os.environ.get("PIPELINE_BENCH_ROWS", "100000"))
FULL_SIZE = N_ROWS >= 100_000
BEST_OF = 5
N_SEGMENTS = 20
ORACLE_ROWS = 2_000
REPORT_PATH = Path(__file__).resolve().parents[1] / "BENCH_pipeline.json"

PRIORITIES = ["high", "low", "mid"]

#: The series the compressed pipeline must report into.
PIPELINE_METRICS = [
    "exec.code_space_joins",
    "exec.code_space_groups",
    "exec.code_space_distincts",
]

WORKLOADS = {
    # String-keyed aggregate-heavy GROUP BY on the packed int codes.
    "groupby_strings": (
        "SELECT o_region, o_priority, COUNT(*), SUM(o_cust) FROM orders "
        "GROUP BY o_region, o_priority"
    ),
    # The GROUP BY + join mix: a dictionary-code equi-join feeding a
    # grouped aggregate.
    "join_groupby": (
        "SELECT r_zone, COUNT(*), SUM(o_cust) FROM orders "
        "JOIN regions ON o_region = r_name GROUP BY r_zone"
    ),
    # Multi-column DISTINCT entirely on codes.
    "distinct_codes": "SELECT DISTINCT o_region, o_priority FROM orders",
    # Code-space equality filter + late materialization: ~1/3 of the
    # table survives the filter, but only the LIMITed rows decode.
    "filter_topn": (
        "SELECT o_id, o_region, o_priority FROM orders "
        "WHERE o_priority = 'high' ORDER BY o_id LIMIT 50"
    ),
}


def build_catalog(n_rows: int):
    rng = random.Random(42)
    # Distinct region names: 512 at full size so string-space grouping
    # has real work, scaled down with the row count so each orders
    # segment still clears the codec's per-segment cardinality bar (a
    # column only dictionary-encodes when ``unique <= segment_rows //
    # 2``) at reduced sizes.
    region_names = [
        f"region_{i:03d}" for i in range(min(512, max(8, n_rows // 64)))
    ]
    orders = Schema(
        "orders",
        [
            Column("o_id", DataType.INT64),
            Column("o_cust", DataType.INT64),
            Column("o_region", DataType.STRING),
            Column("o_priority", DataType.STRING),
            Column("o_amount", DataType.FLOAT64),
        ],
        ["o_id"],
    )
    regions = Schema(
        "regions",
        [
            Column("r_id", DataType.INT64),
            Column("r_name", DataType.STRING),
            Column("r_zone", DataType.STRING),
        ],
        ["r_id"],
    )
    order_rows = [
        (
            i,
            rng.randrange(1000),
            region_names[rng.randrange(len(region_names))],
            PRIORITIES[rng.randrange(len(PRIORITIES))],
            round(rng.uniform(1.0, 100.0), 2),
        )
        for i in range(n_rows)
    ]
    # Region names repeat across branch rows so the name column clears
    # the codec's per-segment cardinality bar and the join stays in
    # code space; the dimension table loads as ONE segment for the same
    # reason (chopping it up would leave each piece nearly all-unique).
    # A fixed 2048 rows keeps the dimension big enough that the planner
    # picks a COLUMN_SCAN at every bench size.
    region_rows = [
        (
            i,
            region_names[i % len(region_names)],
            f"zone_{(i % len(region_names)) // 32}",
        )
        for i in range(2048)
    ]
    cost = CostModel()
    catalog = {}
    tables = {}
    for schema, rows, n_segments in (
        (orders, order_rows, N_SEGMENTS),
        (regions, region_rows, 1),
    ):
        tables[schema.table_name] = (schema, rows)
        row_store = MVCCRowStore(schema, cost)
        column_store = ColumnStore(schema, cost)
        for row in rows:
            row_store.install_insert(row, commit_ts=1)
        seg_rows = max(len(rows) // n_segments, 1)
        for start in range(0, len(rows), seg_rows):
            column_store.append_rows(rows[start : start + seg_rows], commit_ts=1)
        catalog[schema.table_name] = DualStoreTableAccess(
            row_store, column_store, cost
        )
    return catalog, cost, tables


@pytest.fixture(scope="module")
def report():
    get_registry().reset()
    # Differential first, on the small catalog: rows, columns, types.
    small_catalog, _cost, small_tables = build_catalog(ORACLE_ROWS)
    assert_workloads_match_oracle(small_catalog, small_tables, WORKLOADS.values())

    catalog, cost, _tables = build_catalog(N_ROWS)
    planner = Planner(catalog, cost)
    compressed = Executor(catalog, cost)
    results: dict[str, dict] = {}
    for name, sql in WORKLOADS.items():
        plan = planner.plan(parse(sql))
        exec_t, result = best_of(lambda p=plan: compressed.execute(p), BEST_OF)
        results[name] = {
            "rows": N_ROWS,
            "result_rows": len(result),
            "exec_s": exec_t,
            "ops_per_s": 1.0 / exec_t,
        }

    bench = obs_report("compressed_pipeline")
    payload = {
        "bench": "compressed_pipeline",
        "schema": 2,
        "rows": N_ROWS,
        "full_size": FULL_SIZE,
        "best_of": BEST_OF,
        "workloads": results,
        "extras": {
            "obs": {
                "counters": {
                    k: v
                    for k, v in bench.extras["obs"]["counters"].items()
                    if k.startswith(("exec.", "scan."))
                }
            }
        },
    }
    REPORT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    print_table(
        f"Compressed execution ({N_ROWS} rows, best of {BEST_OF})",
        ["workload", "result rows", "ms/query", "ops/s"],
        [
            [name, r["result_rows"], r["exec_s"] * 1e3, r["ops_per_s"]]
            for name, r in results.items()
        ],
        widths=[18, 14, 12, 12],
    )
    payload["report"] = bench
    return payload


def test_pipeline_metrics_in_obs_report(report):
    """Every code-space series shows nonzero activity in the snapshot."""
    counters = report["report"].extras["obs"]["counters"]
    for name in PIPELINE_METRICS:
        assert counters.get(name, 0) > 0, name


def test_report_written(report):
    on_disk = json.loads(REPORT_PATH.read_text())
    assert on_disk["bench"] == "compressed_pipeline"
    assert on_disk["rows"] == N_ROWS
    assert_absolute_report(on_disk, counts=("rows", "result_rows"))
    for name in ("exec.code_space_joins", "exec.code_space_groups"):
        assert name in on_disk["extras"]["obs"]["counters"]
