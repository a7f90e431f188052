"""Ablations of the design choices DESIGN.md calls out.

Not a paper artifact — these isolate the mechanisms the testbed's
engines rely on, so regressions in any one mechanism show up as a
changed ratio here rather than a mysterious shift in Table 1.

1. group commit: WAL fsyncs amortized over commit batches;
2. zone maps: segment pruning vs always-decode;
3. compression codecs: scan cost vs memory on real TPC-C columns;
4. multi-version index vs latest-only index + verification reads.
"""

from __future__ import annotations

import pytest

from repro.common import Between, Column, CostModel, DataType, Schema
from repro.storage.column_store import ColumnStore
from repro.engines import RowIMCSEngine
from repro.storage.row_store import MVCCRowStore

from conftest import print_table


# ------------------------------------------------------------- 1. group commit


def measure_group_commit(group_size: int, n_txns: int = 200) -> float:
    cost = CostModel()
    engine = RowIMCSEngine(cost=cost, group_commit_size=group_size)
    engine.create_table(
        Schema("t", [Column("id", DataType.INT64), Column("v", DataType.FLOAT64)], ["id"])
    )
    before = cost.now_us()
    for i in range(n_txns):
        engine.insert("t", (i, float(i)))
    return (cost.now_us() - before) / n_txns


@pytest.fixture(scope="module")
def group_commit_results():
    return {size: measure_group_commit(size) for size in (1, 4, 16, 64)}


def test_print_group_commit(group_commit_results):
    print_table(
        "Ablation: group commit (us per single-insert txn)",
        ["batch size", "us/txn"],
        [[size, round(us, 2)] for size, us in group_commit_results.items()],
        widths=[12, 10],
    )


def test_group_commit_amortizes_fsync(group_commit_results):
    r = group_commit_results
    assert r[4] < r[1]
    assert r[16] < r[4]
    # Diminishing returns: the gap closes as fsync cost vanishes.
    assert (r[1] - r[4]) > (r[16] - r[64])


# ------------------------------------------------------------- 2. zone maps


def measure_zone_maps(n_segments: int = 20, rows_per_segment: int = 500):
    schema = Schema(
        "t", [Column("id", DataType.INT64), Column("v", DataType.FLOAT64)], ["id"]
    )
    cost = CostModel()
    store = ColumnStore(schema, cost)
    for s in range(n_segments):
        base = s * rows_per_segment
        store.append_rows(
            [(base + i, float(base + i)) for i in range(rows_per_segment)],
            commit_ts=s + 1,
        )
    # Range hitting one segment.
    predicate = Between("id", 3 * rows_per_segment, 3 * rows_per_segment + 50)
    before = cost.now_us()
    pruned_result = store.scan(["v"], predicate)
    pruned_cost = cost.now_us() - before
    # Disable pruning by clearing the zone maps.
    for segment in store.segments:
        segment.zone_maps.clear()
    before = cost.now_us()
    full_result = store.scan(["v"], predicate)
    full_cost = cost.now_us() - before
    assert pruned_result.arrays["v"].tolist() == full_result.arrays["v"].tolist()
    return {
        "pruned_cost": pruned_cost,
        "full_cost": full_cost,
        "segments_pruned": pruned_result.segments_pruned,
    }


@pytest.fixture(scope="module")
def zone_map_results():
    return measure_zone_maps()


def test_print_zone_maps(zone_map_results):
    r = zone_map_results
    print_table(
        "Ablation: zone-map pruning (selective range over 20 segments)",
        ["config", "scan cost us", "segments pruned"],
        [
            ["zone maps on", round(r["pruned_cost"], 1), r["segments_pruned"]],
            ["zone maps off", round(r["full_cost"], 1), 0],
        ],
        widths=[16, 14, 17],
    )


def test_zone_maps_prune(zone_map_results):
    r = zone_map_results
    assert r["segments_pruned"] >= 18
    assert r["pruned_cost"] < r["full_cost"] / 5


# ------------------------------------------------------------- 3. codecs


def measure_codecs():
    import random

    rng = random.Random(3)
    schema = Schema(
        "t",
        [
            Column("id", DataType.INT64),
            Column("qty", DataType.INT64),      # small range: bitpack-friendly
            Column("status", DataType.STRING),  # low cardinality: dict-friendly
        ],
        ["id"],
    )
    rows = [
        (i, rng.randrange(1, 11), rng.choice(["open", "paid", "shipped"]))
        for i in range(5_000)
    ]
    out = {}
    for codec in ("plain", "dictionary", "rle", "bitpack"):
        cost = CostModel()
        try:
            store = ColumnStore(schema, cost, forced_encoding=codec)
            store.append_rows(rows, commit_ts=1)
        except Exception:
            continue
        before = cost.now_us()
        store.scan(["qty"], Between("qty", 3, 7))
        out[codec] = {
            "scan_us": cost.now_us() - before,
            "memory": store.memory_bytes(),
        }
    return out


@pytest.fixture(scope="module")
def codec_results():
    return measure_codecs()


def test_print_codecs(codec_results):
    print_table(
        "Ablation: forced codecs on a TPC-C-like table (5k rows)",
        ["codec", "scan us", "memory B"],
        [[name, round(r["scan_us"], 1), r["memory"]] for name, r in codec_results.items()],
        widths=[13, 10, 12],
    )


def test_adaptive_chooser_not_worse_than_plain(codec_results):
    cost = CostModel()
    import random

    rng = random.Random(3)
    schema = Schema(
        "t",
        [
            Column("id", DataType.INT64),
            Column("qty", DataType.INT64),
            Column("status", DataType.STRING),
        ],
        ["id"],
    )
    rows = [
        (i, rng.randrange(1, 11), rng.choice(["open", "paid", "shipped"]))
        for i in range(5_000)
    ]
    store = ColumnStore(schema, cost)  # adaptive choose_encoding
    store.append_rows(rows, commit_ts=1)
    assert store.memory_bytes() <= codec_results["plain"]["memory"]


# ------------------------------------------------------------- 4. mv index


def measure_mv_index(n_keys: int = 500, churn: int = 2_000):
    """Snapshot lookup cost: MV index vs latest-index + verify reads."""
    schema = Schema(
        "t", [Column("id", DataType.INT64), Column("grp", DataType.INT64)], ["id"]
    )
    cost = CostModel()
    store = MVCCRowStore(schema, cost)
    store.create_index("grp")
    store.create_mv_index("grp")
    ts = 0
    import random

    rng = random.Random(9)
    for i in range(n_keys):
        ts += 1
        store.install_insert((i, i % 10), commit_ts=ts)
    snapshot = ts  # freeze a snapshot, then churn heavily
    for _ in range(churn):
        ts += 1
        key = rng.randrange(n_keys)
        store.install_update(key, (key, rng.randrange(10)), commit_ts=ts)
    # Latest-only index: probe, then verify each hit at the snapshot.
    before = cost.now_us()
    candidate_keys = store.index_lookup_range("grp", 3, 3)
    verified = [
        k for k in candidate_keys
        if (row := store.read(k, snapshot)) is not None and row[1] == 3
    ]
    latest_cost = cost.now_us() - before
    # The latest index also *misses* keys that matched at the snapshot
    # but changed since — correctness, not just cost:
    truth = sorted(r[0] for r in store.snapshot_rows(snapshot) if r[1] == 3)
    before = cost.now_us()
    mv_hits = sorted(store.mv_lookup("grp", 3, snapshot))
    mv_cost = cost.now_us() - before
    return {
        "latest_cost": latest_cost,
        "latest_found": sorted(verified),
        "mv_cost": mv_cost,
        "mv_found": mv_hits,
        "truth": truth,
    }


@pytest.fixture(scope="module")
def mv_results():
    return measure_mv_index()


def test_print_mv_index(mv_results):
    r = mv_results
    print_table(
        "Ablation: snapshot index lookup after heavy churn",
        ["index", "lookup cost us", "keys found", "correct"],
        [
            ["latest-only + verify", round(r["latest_cost"], 1),
             len(r["latest_found"]), r["latest_found"] == r["truth"]],
            ["multi-version (MV-PBT)", round(r["mv_cost"], 1),
             len(r["mv_found"]), r["mv_found"] == r["truth"]],
        ],
        widths=[24, 16, 13, 9],
    )


def test_mv_index_is_snapshot_correct(mv_results):
    r = mv_results
    assert r["mv_found"] == r["truth"]
    # The latest-only index misses keys whose group changed after the
    # snapshot — the correctness gap MV indexing closes.
    assert r["latest_found"] != r["truth"]


@pytest.mark.benchmark(group="ablations")
def test_bench_zone_map_scan(benchmark):
    benchmark.pedantic(measure_zone_maps, rounds=3, iterations=1)
