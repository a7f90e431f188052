"""Segment-skipping scan microbench: absolute seconds of a zone-map
pruned range scan and two dictionary code-space filters, plus the point
path — seconds per ``ColumnStore.get_row`` on one segment of each codec,
cold (the first pass over a freshly sealed segment, which decodes its
columns once) and warm (best of ``BEST_OF`` later passes).

Times ``ColumnStore.scan`` on three predicates and writes
``BENCH_scan.json`` at the repo root (schema 2: absolute ``*_s`` and
``*_per_s`` plus deterministic counts) so CI can archive the numbers.
Every result is checked byte for byte against the full-decode
``reference_scan`` in ``tests/oracle``; every point read against its
``TableModel``.  The gates are structural, not wall-clock ratios: the
selective range must prune 18 of 20 segments and the dictionary
predicates must be answered in code space; regression
protection for the scan's speed is the ``olap_suite`` bound in
``BENCHMARK.json``, for the point path ``oltp_sync``'s — ``point_read``
is the number to read when one of them moves (the cold figure carries
a segment's one-time decode spread over ``POINT_READS`` reads; the warm
one does not grow with the row count).

Row count defaults to 100k; CI sets ``SCAN_BENCH_ROWS`` smaller.
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
from repro.storage import ColumnStore

from conftest import assert_absolute_report, best_of, obs_report, print_table
from tests.oracle import TableModel, reference_scan

N_ROWS = int(os.environ.get("SCAN_BENCH_ROWS", "100000"))
FULL_SIZE = N_ROWS >= 100_000
BEST_OF = 5
N_SEGMENTS = 20
POINT_READS = 2000
CODECS = ("plain", "dictionary", "rle", "bitpack")
REPORT_PATH = Path(__file__).resolve().parents[1] / "BENCH_scan.json"

REGIONS = [f"r{i}" for i in range(8)]

#: The series the scan pipeline must report into (they have to show up
#: in the BenchReport obs snapshot, not just exist).
SCAN_METRICS = [
    "scan.segments_scanned",
    "scan.segments_pruned",
    "scan.code_space_filters",
]

#: Per-workload count fields of the schema-2 report.
COUNTS = (
    "rows", "result_rows", "segments_scanned", "segments_pruned",
    "code_space_filters", "reads",
)


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


def point_read_workload(n_rows: int) -> dict:
    """Seconds per ``get_row`` on one ``n_rows`` segment sealed with
    each codec (all-integer columns, so every codec applies): the same
    ``POINT_READS`` keys, hits and misses, each answer checked against
    the dict model.  The cold pass is timed once, before ``best_of``'s
    warm-up would hide the segment's one-time decode."""
    rng = random.Random(43)
    schema = Schema(
        "stock",
        [
            Column("id", DataType.INT64),
            Column("warehouse", DataType.INT64),  # long runs
            Column("quantity", DataType.INT64),   # small range, no runs
            Column("ytd", DataType.INT64),
        ],
        ["id"],
    )
    rows = [
        (i, i // 1000, rng.randrange(100), rng.randrange(10**6))
        for i in range(n_rows)
    ]
    held = {row[0]: row for row in TableModel(rows).rows()}
    keys = [rng.randrange(n_rows + n_rows // 10) for _ in range(POINT_READS)]
    out: dict = {"rows": n_rows, "reads": POINT_READS}
    for codec in CODECS:
        store = ColumnStore(schema, CostModel(), forced_encoding=codec)
        store.append_rows(rows, commit_ts=1)
        assert {e.name for e in store.segments[0].encodings.values()} == {codec}
        start = time.perf_counter()
        cold = [store.get_row(k) for k in keys]
        out[f"{codec}_get_row_cold_s"] = (time.perf_counter() - start) / POINT_READS
        assert cold == [held.get(k) for k in keys], codec
        seconds, got = best_of(lambda s=store: [s.get_row(k) for k in keys], BEST_OF)
        assert got == [held.get(k) for k in keys], codec
        out[f"{codec}_get_row_s"] = seconds / POINT_READS
    return out


def assert_no_divergence(got, store, pred, name):
    arrays, keys = reference_scan(store, None, pred)
    assert set(got.arrays) == set(arrays), name
    for col in arrays:
        assert got.arrays[col].dtype == arrays[col].dtype, (name, col)
        np.testing.assert_array_equal(got.arrays[col], arrays[col], err_msg=name)
    assert got.keys == keys, name


@pytest.fixture(scope="module")
def report():
    get_registry().reset()
    store = build_store(N_ROWS)
    results: dict[str, dict] = {}

    # Predicates chosen to exercise each pipeline stage: zone-map
    # pruning (disjoint id ranges) and dictionary code-space rewrites
    # (low-cardinality region strings).
    workloads = {
        # ≤10% selectivity, entirely inside 2 of 20 segments: the
        # zone-map showcase.
        "selective_range": Between("id", 0, N_ROWS // 10 - 1),
        # ~1/8 selectivity, hits every segment: equality evaluated in
        # dictionary code space.
        "dict_equality": Comparison("region", "=", "r3"),
        # IN over two dictionary members, again on every segment.
        "dict_inlist": InList("region", ["r1", "r5"]),
    }

    for name, pred in workloads.items():
        # Differential first, with keys: the pruned + code-space scan
        # must match the full-decode reference byte for byte.
        checked = store.scan(predicate=pred)
        assert_no_divergence(checked, store, pred, name)
        scan_t, _ = best_of(
            lambda p=pred: store.scan(predicate=p, with_keys=False), BEST_OF
        )
        results[name] = {
            "rows": N_ROWS,
            "result_rows": len(checked),
            "segments_scanned": checked.segments_scanned,
            "segments_pruned": checked.segments_pruned,
            "code_space_filters": checked.code_space_filters,
            "scan_s": scan_t,
            "ops_per_s": 1.0 / scan_t,
        }

    point = point_read_workload(N_ROWS)

    bench = obs_report("scan_pipeline")
    payload = {
        "bench": "segment_skipping_scans",
        "schema": 2,
        "rows": N_ROWS,
        "segments": store.segment_count(),
        "full_size": FULL_SIZE,
        "best_of": BEST_OF,
        "workloads": {**results, "point_read": point},
        "extras": {
            "obs": {
                "counters": {
                    k: v
                    for k, v in bench.extras["obs"]["counters"].items()
                    if k.startswith("scan.")
                }
            }
        },
    }
    REPORT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    print_table(
        f"Segment-skipping scans ({N_ROWS} rows, {store.segment_count()} "
        f"segments, best of {BEST_OF})",
        ["workload", "result rows", "pruned", "code filters", "ms/scan", "ops/s"],
        [
            [
                name,
                r["result_rows"],
                f"{r['segments_pruned']}/{store.segment_count()}",
                r["code_space_filters"],
                r["scan_s"] * 1e3,
                r["ops_per_s"],
            ]
            for name, r in results.items()
        ],
        widths=[18, 14, 10, 14, 10, 12],
    )
    print_table(
        f"Point reads ({N_ROWS}-row segment per codec, {POINT_READS} "
        f"get_row calls, cold and best of {BEST_OF})",
        ["codec", "cold us/get_row", "us/get_row"],
        [
            [codec, point[f"{codec}_get_row_cold_s"] * 1e6, point[f"{codec}_get_row_s"] * 1e6]
            for codec in CODECS
        ],
        widths=[18, 18, 12],
    )
    payload["report"] = bench
    return payload


def test_selective_range_prunes(report):
    """≤10% selectivity touches 2 of 20 segments; zone maps skip the
    other 18 before any decode."""
    workload = report["workloads"]["selective_range"]
    assert report["segments"] == N_SEGMENTS
    assert workload["result_rows"] <= N_ROWS // 10
    assert workload["segments_pruned"] == 18
    assert workload["segments_scanned"] == 2


@pytest.mark.parametrize("name", ["dict_equality", "dict_inlist"])
def test_dictionary_predicates_run_in_code_space(report, name):
    workload = report["workloads"][name]
    assert workload["segments_pruned"] == 0
    assert workload["code_space_filters"] > 0


def test_point_read_reported_per_codec(report):
    """Absolute seconds per ``get_row`` for every codec, cold and warm;
    answers were checked against the model while the fixture timed them."""
    point = report["workloads"]["point_read"]
    assert point["rows"] == N_ROWS and point["reads"] == POINT_READS
    for codec in CODECS:
        assert point[f"{codec}_get_row_cold_s"] > 0
        assert point[f"{codec}_get_row_s"] > 0


def test_scan_metrics_in_obs_report(report):
    """Every scan-pipeline series appears in the BenchReport obs
    snapshot with nonzero activity."""
    counters = report["report"].extras["obs"]["counters"]
    for name in SCAN_METRICS:
        assert counters.get(name, 0) > 0, name


def test_report_written(report):
    on_disk = json.loads(REPORT_PATH.read_text())
    assert on_disk["bench"] == "segment_skipping_scans"
    assert on_disk["rows"] == N_ROWS
    assert_absolute_report(on_disk, counts=COUNTS)
    for name in ("scan.segments_pruned", "scan.code_space_filters"):
        assert name in on_disk["extras"]["obs"]["counters"]
