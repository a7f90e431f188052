"""Segment-skipping scan microbench: pruned vs full-decode, code-space
vs decoded predicates, serial vs pooled.

Times the predicate-aware scan pipeline against the retained pre-PR
reference path (``scan_mode(prune=False, code_space=False)`` — decode
every needed column of every segment, then mask) on identical stores
and predicates, asserting zero differential divergence on every
workload.  Writes ``BENCH_scan.json`` at the repo root with ops/s and
speedups so CI can archive the numbers.

Row count defaults to 100k; CI sets ``SCAN_BENCH_ROWS`` smaller.  The
≥4x acceptance gate on the selective range scan (≤10% selectivity, 90%
of segments zone-map-pruned) only applies at full size — at reduced
size the fixed per-scan overhead dominates and the asserts relax to
"not slower".
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

from repro.common import Column, CostModel, DataType, Schema
from repro.common.predicate import Between, Comparison, InList
from repro.obs import get_registry
from repro.parallel import scan_parallel
from repro.storage import ColumnStore, scan_mode

from conftest import obs_report, print_table
from tests.oracle import reference_scan

N_ROWS = int(os.environ.get("SCAN_BENCH_ROWS", "100000"))
FULL_SIZE = N_ROWS >= 100_000
BEST_OF = 5
N_SEGMENTS = 20
REPORT_PATH = Path(__file__).resolve().parents[1] / "BENCH_scan.json"

REGIONS = [f"r{i}" for i in range(8)]

#: The five series the scan pipeline must report into (satellite: they
#: have to show up in the BenchReport obs snapshot, not just exist).
SCAN_METRICS = [
    "scan.segments_scanned",
    "scan.segments_pruned",
    "scan.code_space_filters",
    "parallel.tasks",
    "parallel.merge_ns",
]


def build_store(n_rows: int) -> ColumnStore:
    """Sequential primary keys appended in segment-sized batches, so
    segments carry disjoint ``id`` ranges — the zone-map-friendly shape
    every append-mostly HTAP workload converges to."""
    rng = random.Random(42)
    schema = Schema(
        "orders",
        [
            Column("id", DataType.INT64),
            Column("amount", DataType.FLOAT64),
            Column("region", DataType.STRING),
        ],
        ["id"],
    )
    rows = [
        (i, round(rng.uniform(1.0, 100.0), 2), REGIONS[rng.randrange(len(REGIONS))])
        for i in range(n_rows)
    ]
    store = ColumnStore(schema, CostModel())
    seg_rows = max(n_rows // N_SEGMENTS, 1)
    for start in range(0, n_rows, seg_rows):
        store.append_rows(rows[start : start + seg_rows], commit_ts=1)
    return store


def best_of_pair(fast_fn, base_fn, k=BEST_OF):
    """Interleaved best-of-``k``: alternate the two paths within each
    trial so allocator/cache drift from earlier benches in the same
    process hits both equally, and take each path's minimum."""
    fast_fn()  # warmup: decode caches, allocator, branch predictors
    base_fn()
    fast_best = base_best = float("inf")
    for _ in range(k):
        start = time.perf_counter()
        fast_fn()
        fast_best = min(fast_best, time.perf_counter() - start)
        start = time.perf_counter()
        base_fn()
        base_best = min(base_best, time.perf_counter() - start)
    return fast_best, base_best


def assert_no_divergence(fast, ref, name):
    arrays, keys = ref
    assert set(fast.arrays) == set(arrays), name
    for col in fast.arrays:
        assert fast.arrays[col].dtype == arrays[col].dtype, (name, col)
        np.testing.assert_array_equal(fast.arrays[col], arrays[col], err_msg=name)
    assert fast.keys == keys, name


@pytest.fixture(scope="module")
def report():
    get_registry().reset()
    store = build_store(N_ROWS)
    results: dict[str, dict] = {}

    # Predicates chosen to exercise each pipeline stage: zone-map
    # pruning (disjoint id ranges), dictionary code-space rewrites
    # (low-cardinality region strings), and an all-segment float
    # range that pruning cannot help with.
    workloads = {
        # ≤10% selectivity, entirely inside 2 of 20 segments: the
        # zone-map showcase and the gated workload.
        "selective_range": Between("id", 0, N_ROWS // 10 - 1),
        # ~1/8 selectivity, hits every segment: wins come from
        # evaluating equality in dictionary code space.
        "dict_equality": Comparison("region", "=", "r3"),
        # IN over two dictionary members, again on every segment.
        "dict_inlist": InList("region", ["r1", "r5"]),
    }

    for name, pred in workloads.items():
        # Differential first, with keys: pruned + code-space scan must
        # match the full-decode reference byte for byte.
        fast_r = store.scan(predicate=pred, parallel=False)
        with scan_mode(prune=False, code_space=False, parallel=False):
            ref_r = store.scan(predicate=pred)
        oracle = reference_scan(store, None, pred)
        assert_no_divergence(fast_r, oracle, name)
        assert_no_divergence(ref_r, oracle, name)  # temporary: arm == oracle

        def baseline(p=pred):
            with scan_mode(prune=False, code_space=False, parallel=False):
                return store.scan(predicate=p, with_keys=False)

        fast_t, base_t = best_of_pair(
            lambda p=pred: store.scan(predicate=p, with_keys=False, parallel=False),
            baseline,
        )
        results[name] = {
            "rows": N_ROWS,
            "selectivity": len(fast_r) / max(len(store), 1),
            "pruned_s": fast_t,
            "full_decode_s": base_t,
            "pruned_ops_per_s": 1.0 / fast_t,
            "full_decode_ops_per_s": 1.0 / base_t,
            "speedup": base_t / fast_t,
        }

    # --- serial vs pooled on an unprunable all-segment scan ----------
    pool_pred = Comparison("amount", ">", 90.0)
    serial_r = store.scan(predicate=pool_pred, parallel=False)
    with scan_parallel(workers=4) as pool:
        pooled_r = store.scan(predicate=pool_pred)
        pooled_t, serial_t = best_of_pair(
            lambda: store.scan(predicate=pool_pred, with_keys=False),
            lambda: store.scan(
                predicate=pool_pred, with_keys=False, parallel=False
            ),
        )
        tasks_run = pool.tasks_run
    oracle = reference_scan(store, None, pool_pred)
    assert_no_divergence(pooled_r, oracle, "parallel_scan")
    assert_no_divergence(serial_r, oracle, "parallel_scan")
    results["parallel_scan"] = {
        "rows": N_ROWS,
        "selectivity": len(serial_r) / max(len(store), 1),
        "pruned_s": pooled_t,
        "full_decode_s": serial_t,
        "pruned_ops_per_s": 1.0 / pooled_t,
        "full_decode_ops_per_s": 1.0 / serial_t,
        "speedup": serial_t / pooled_t,
        "pool_tasks": tasks_run,
    }

    bench = obs_report("scan_pipeline")
    payload = {
        "bench": "segment_skipping_scans",
        "rows": N_ROWS,
        "segments": store.segment_count(),
        "full_size": FULL_SIZE,
        "best_of": BEST_OF,
        "workloads": results,
        "extras": {
            "obs": {
                "counters": {
                    k: v
                    for k, v in bench.extras["obs"]["counters"].items()
                    if k.startswith(("scan.", "parallel."))
                },
                "histograms": {
                    k: v
                    for k, v in bench.extras["obs"]["histograms"].items()
                    if k.startswith("parallel.")
                },
            }
        },
    }
    REPORT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    print_table(
        f"Segment-skipping scans ({N_ROWS} rows, {store.segment_count()} "
        f"segments, best of {BEST_OF})",
        ["workload", "full-decode ops/s", "pruned ops/s", "speedup"],
        [
            [
                name,
                r["full_decode_ops_per_s"],
                r["pruned_ops_per_s"],
                r["speedup"],
            ]
            for name, r in results.items()
        ],
        widths=[18, 20, 16, 10],
    )
    payload["report"] = bench
    return payload


def test_selective_range_speedup(report):
    """The acceptance gate: ≤10% selectivity at 100k rows must beat the
    pre-PR full-decode path by ≥4x."""
    workload = report["workloads"]["selective_range"]
    assert workload["selectivity"] <= 0.10
    assert workload["speedup"] >= (4.0 if FULL_SIZE else 1.0)


def test_dict_equality_speedup(report):
    assert report["workloads"]["dict_equality"]["speedup"] >= (
        1.0 if FULL_SIZE else 0.5
    )


def test_dict_inlist_speedup(report):
    assert report["workloads"]["dict_inlist"]["speedup"] >= (
        1.0 if FULL_SIZE else 0.5
    )


def test_parallel_pool_ran_tasks(report):
    # The wall-clock ratio is load-dependent (GIL); the contract is
    # determinism plus visible pool activity, not a speedup gate.
    assert report["workloads"]["parallel_scan"]["pool_tasks"] >= 2


def test_scan_metrics_in_obs_report(report):
    """Satellite: every scan-pipeline series appears in the BenchReport
    obs snapshot with nonzero activity."""
    obs = report["report"].extras["obs"]
    counters = obs["counters"]
    histograms = obs["histograms"]
    for name in SCAN_METRICS:
        assert name in counters or name in histograms, name
    assert counters["scan.segments_scanned"] > 0
    assert counters["scan.segments_pruned"] > 0
    assert counters["scan.code_space_filters"] > 0
    assert counters["parallel.tasks"] >= 2
    assert histograms["parallel.merge_ns"]["count"] > 0


def test_report_written(report):
    on_disk = json.loads(REPORT_PATH.read_text())
    assert on_disk["bench"] == "segment_skipping_scans"
    assert on_disk["rows"] == N_ROWS
    for name in ("scan.segments_pruned", "scan.code_space_filters"):
        assert name in on_disk["extras"]["obs"]["counters"]
