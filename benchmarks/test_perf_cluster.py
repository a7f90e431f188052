"""Cluster scale-out perf gate: elastic multi-Raft throughput.

Runs :class:`repro.bench.cluster_scaleout.ClusterScaleoutDriver` over
``CLUSTER_NODES`` storage-node counts (default the full 4 -> 16 -> 64
ladder; CI shrinks to ``4,8``) with placement-driven co-location and
the fast commit paths (single-shard 1PC + piggybacked prepare+commit)
on, plus the mid-bench shard-split arm, and gates on:

- **scaling efficiency** at 16 nodes vs 4 of at least 0.85, measured
  as makespan-based TP throughput (busiest row node's BusyLedger time)
  on a fixed operation count — the "near-linear TP scale-out" claim,
  with the gate raised from 0.7 now that co-located transactions skip
  the cross-shard prepare round;
- **co-location effectiveness**: with placement keys declared for the
  TPC-C-style mix, at least 0.8 of commits must take the single-shard
  1PC path (the measured single-shard fraction, reported per arm);
- **fan-out tax**: the fast-path arm must beat a classic-2PC baseline
  arm at identical work and simulated-cost parity.  The baseline is the
  base arm with placement off and every commit routed through the 2PC
  test oracle (``tests/oracle/two_phase``);
- **exactly-once elasticity**: every write acknowledged across the
  mid-bench shard split is present exactly once afterwards (zero lost,
  zero duplicated) on the row path *and* the re-homed columnar replica,
  while CH-benCHmark reads keep completing mid-split;
- **bounded, observable staleness**: the split makes router caches
  stale, so stale-epoch retries must be observed (> 0) and none may
  exhaust their retry budget.

The largest arm is reported but not gated: with the work held fixed,
64 shards get only a few transactions per leader and discretization
(not the architecture) dominates the busiest-leader makespan.  The
weak-scaling arms (work/node held constant) are reported alongside for
exactly that reason.

Writes ``BENCH_cluster.json`` at the repo root.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from repro.bench.cluster_scaleout import (
    ClusterScaleoutConfig,
    ClusterScaleoutDriver,
    ScaleoutArm,
)
from repro.obs import get_registry
from tests.oracle.two_phase import attach_two_phase

from conftest import obs_report, print_table

NODE_COUNTS = tuple(
    int(n) for n in os.environ.get("CLUSTER_NODES", "4,16,64").split(",")
)
WRITE_TXNS = int(os.environ.get("CLUSTER_WRITES", "600"))
FULL_SIZE = 16 in NODE_COUNTS and WRITE_TXNS >= 600
#: The gate applies at 16 nodes; reduced CI ladders gate their largest.
GATE_NODES = 16 if 16 in NODE_COUNTS else NODE_COUNTS[-1]
EFFICIENCY_FLOOR = 0.85 if FULL_SIZE else 0.6
#: Fraction of commits that must take the single-shard 1PC path with
#: placement keys declared for the TPC-C-style mix.
SINGLE_SHARD_FLOOR = 0.8
#: The fast paths must beat classic 2PC at identical simulated cost.
PROTOCOL_SPEEDUP_FLOOR = 1.2
REPORT_PATH = Path(__file__).resolve().parents[1] / "BENCH_cluster.json"

#: Router/resharding/commit-path series the cluster must report into.
CLUSTER_METRICS = [
    "router.routes",
    "router.stale_retries",
    "shardmap.epoch",
    "reshard.splits",
    "reshard.rows_moved",
    "commit.single_shard",
    "commit.piggybacked",
]


def roll_up(series: dict, prefixes: tuple[str, ...]) -> dict[str, float]:
    """Sum labeled series (``name{labels}``) into per-name totals;
    histogram summaries contribute their sample count."""
    totals: dict[str, float] = {}
    for key, value in series.items():
        name = key.split("{", 1)[0]
        if not name.startswith(prefixes):
            continue
        amount = value["count"] if isinstance(value, dict) else value
        totals[name] = totals.get(name, 0.0) + amount
    return totals


class TwoPhaseDriver(ClusterScaleoutDriver):
    """The scale-out driver with every commit of its engines routed
    through classic two-round 2PC."""

    def _build(self, n_nodes: int, audit: bool = False):
        engine, frontdoor = super()._build(n_nodes, audit)
        attach_two_phase(engine.cluster)
        return engine, frontdoor


def protocol_comparison(fast: ScaleoutArm, baseline: ScaleoutArm) -> dict:
    """The fan-out tax in one number: the base arm with the fast paths
    and co-location against classic 2PC on the raw hash ring, at
    identical work and simulated-cost parity."""
    return {
        "fast_tp_per_sim_s": fast.tp_per_sim_s,
        "baseline_tp_per_sim_s": baseline.tp_per_sim_s,
        "fast_single_shard_fraction": fast.single_shard_fraction,
        "speedup": fast.tp_per_sim_s / baseline.tp_per_sim_s,
    }


def arm_payload(arm: ScaleoutArm) -> dict:
    return {
        **asdict(arm),
        "tp_per_sim_s": arm.tp_per_sim_s,
        "single_shard_fraction": arm.single_shard_fraction,
    }


@pytest.fixture(scope="module")
def report():
    get_registry().reset()
    config = ClusterScaleoutConfig(
        node_counts=NODE_COUNTS,
        write_txns=WRITE_TXNS,
        ch_reads=max(1, WRITE_TXNS // 4),
        weak_write_txns=min(75, WRITE_TXNS),
    )
    driver = ClusterScaleoutDriver(config)
    # The 2PC arm runs first so the split arm stays the last writer of
    # the obs gauges reported below.
    baseline = TwoPhaseDriver(replace(config, placement=False)).run_arm(NODE_COUNTS[0])
    walls: list[float] = []
    last = time.perf_counter()

    def on_arm(_arm) -> None:
        nonlocal last
        now = time.perf_counter()
        walls.append(now - last)
        last = now

    result = driver.run(on_arm=on_arm)

    base = result.arms[0]
    protocols = protocol_comparison(base, baseline)
    payload = {
        "bench": "cluster_scaleout",
        "node_counts": list(NODE_COUNTS),
        "write_txns": WRITE_TXNS,
        "ch_reads": result.config.ch_reads,
        "weak_write_txns": result.config.weak_write_txns,
        "full_size": FULL_SIZE,
        "gate_nodes": GATE_NODES,
        "efficiency_floor": EFFICIENCY_FLOOR,
        "single_shard_floor": SINGLE_SHARD_FLOOR,
        "placement": result.config.placement,
        "arms": [
            {**arm_payload(arm), "wall_s": wall}
            for arm, wall in zip(result.arms, walls)
        ],
        "efficiency": {str(n): e for n, e in result.efficiency.items()},
        "weak_arms": [arm_payload(arm) for arm in result.weak_arms],
        "weak_efficiency": {
            str(n): e for n, e in result.weak_efficiency.items()
        },
        "protocols": protocols,
        "split": {
            **asdict(result.split),
            "exactly_once": result.split.exactly_once,
            "wall_s": walls[-1],
        },
    }

    bench = obs_report(
        "cluster_scaleout",
        tp_per_sec=base.tp_per_sim_s,
        ap_per_sec=base.ch_reads,
    )
    payload["extras"] = {
        "obs": {
            "counters": roll_up(
                bench.extras["obs"]["counters"],
                ("router.", "reshard.", "shardmap.", "commit."),
            ),
            "gauges": roll_up(
                bench.extras["obs"]["gauges"], ("shardmap.", "router.")
            ),
            "histograms": roll_up(
                bench.extras["obs"]["histograms"], ("commit.",)
            ),
        }
    }
    REPORT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    print_table(
        f"Cluster scale-out, {WRITE_TXNS} write txns + "
        f"{result.config.ch_reads} CH reads per arm",
        ["nodes", "shards", "tp/sim-s", "efficiency", "1shard frac"],
        [
            [
                arm.nodes,
                arm.shards,
                arm.tp_per_sim_s,
                result.efficiency[arm.nodes],
                arm.single_shard_fraction,
            ]
            for arm in result.arms
        ],
        widths=[8, 8, 14, 12, 12],
    )
    payload["result"] = result
    return payload


def test_scaling_efficiency_gate(report):
    """The tentpole gate: >= 0.85 throughput-scaling efficiency at 16
    nodes vs 4 (makespan-based), relaxed on reduced CI ladders."""
    assert report["efficiency"][str(GATE_NODES)] >= EFFICIENCY_FLOOR


def test_throughput_grows_with_nodes(report):
    """Scale-out must help monotonically: the same fixed work finishes
    with strictly higher makespan-based throughput on every step up."""
    tps = [arm.tp_per_sim_s for arm in report["result"].arms]
    assert all(b > a for a, b in zip(tps, tps[1:]))


def test_fixed_work_completes_everywhere(report):
    """Identical committed work on every arm — the arms are comparable
    and the admission policy shed nothing."""
    for arm in report["result"].arms:
        assert arm.committed == WRITE_TXNS
        assert arm.ch_reads == report["ch_reads"]
        assert arm.aborted == 0


def test_single_shard_fraction_gate(report):
    """Placement keys co-locate the TPC-C-style mix: at least 0.8 of
    commits must take the single-shard 1PC path, on every arm."""
    for arm in report["result"].arms:
        assert arm.single_shard_fraction >= SINGLE_SHARD_FLOOR, arm.nodes
        assert arm.single_shard + arm.piggybacked == arm.committed


def test_protocol_comparison_gate(report):
    """The fan-out tax is real and the fast paths collect it: the
    co-located fast-path arm beats classic 2PC on the raw hash ring at
    identical work and simulated-cost parity."""
    protocols = report["protocols"]
    assert protocols["speedup"] >= PROTOCOL_SPEEDUP_FLOOR
    assert protocols["fast_single_shard_fraction"] >= SINGLE_SHARD_FLOOR


def test_weak_scaling_reported(report):
    """Weak-scaling arms (work/node constant) are measured alongside
    the strong ladder; committed work scales with the node ratio."""
    weak = report["result"].weak_arms
    assert [arm.nodes for arm in weak] == list(NODE_COUNTS)
    base_nodes = NODE_COUNTS[0]
    for arm in weak:
        factor = max(1, arm.nodes // base_nodes)
        assert arm.work_factor == factor
        assert arm.committed == report["weak_write_txns"] * factor
        assert arm.aborted == 0
    for eff in report["weak_efficiency"].values():
        assert eff > 0.0


def test_split_zero_lost_zero_duplicated(report):
    """The elasticity gate: every write acknowledged across the
    mid-bench split is present exactly once, on both tiers."""
    split = report["split"]
    assert split["exactly_once"]
    assert split["lost"] == 0
    assert split["duplicates"] == 0
    assert split["present"] == split["expected"] > 0
    assert split["columnar_rows"] == split["expected"]
    assert split["epoch"] == 1
    assert split["rows_moved"] > 0


def test_ch_reads_keep_executing_during_split(report):
    """Resharding is online: OLAP rounds completed work while the
    split was mid-flight."""
    assert report["split"]["ch_reads_during_split"] > 0


def test_stale_retries_bounded_and_observed(report):
    """The split invalidates router caches: stale-epoch retries must
    show up (the protocol ran) and every retry must converge within
    its budget (none exhausted)."""
    split = report["split"]
    assert split["stale_retries"] >= 1
    assert split["retries_exhausted"] == 0


def test_cluster_metrics_in_obs_report(report):
    obs = report["extras"]["obs"]
    merged = {**obs["counters"], **obs["gauges"]}
    for name in CLUSTER_METRICS:
        assert name in merged, name
    assert merged["reshard.splits"] >= 1
    assert merged["router.routes"] > 0
    # The commit-path split must be visible in obs, not just in the
    # arms: the fast arms take the 1PC path, and every production
    # commit lands in the fan-out histogram (the 2PC oracle's baseline
    # arm records in neither).
    assert merged["commit.single_shard"] > 0
    fanout = obs["histograms"].get("commit.participant_fanout", 0.0)
    total_commits = merged["commit.single_shard"] + merged["commit.piggybacked"]
    assert fanout == total_commits > 0


def test_report_written(report):
    on_disk = json.loads(REPORT_PATH.read_text())
    assert on_disk["bench"] == "cluster_scaleout"
    assert on_disk["node_counts"] == list(NODE_COUNTS)
    assert on_disk["efficiency"] == report["efficiency"]
    assert on_disk["weak_efficiency"] == report["weak_efficiency"]
    assert on_disk["protocols"]["speedup"] >= PROTOCOL_SPEEDUP_FLOOR
    assert on_disk["split"]["exactly_once"]
    assert "router.stale_retries" in on_disk["extras"]["obs"]["counters"]
    assert "commit.single_shard" in on_disk["extras"]["obs"]["counters"]
