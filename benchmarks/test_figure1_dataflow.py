"""Experiment F1 — Figure 1: each architecture's data path behaves as drawn.

Figure 1 is a diagram, not a measurement; reproducing it means proving
structurally that data flows through each panel's boxes in the drawn
order.  For every architecture we insert one marked row and track where
it becomes visible, in which representation, and after which event —
then print the observed flow next to the figure's description.
"""

from __future__ import annotations

import pytest

from repro.common import Column, DataType, Schema
from repro.engines import ColumnDeltaEngine, make_engine

from conftest import build_engine, print_table


def schema():
    return Schema(
        "t",
        [Column("id", DataType.INT64), Column("v", DataType.FLOAT64)],
        ["id"],
    )


@pytest.fixture(scope="module")
def flows():
    return {
        "a": flow_a(),
        "b": flow_b(),
        "c": flow_c(),
        "d": flow_d(),
    }


def flow_a() -> list[str]:
    """(a): memory row store is primary; IMCU populated from it; SMU
    tracks changes; scans patch from the primary."""
    engine = make_engine("a")
    engine.create_table(schema())
    steps = []
    engine.insert("t", (1, 1.0))
    store = engine.store("t")
    assert store.read(1, engine.clock.now()) == (1, 1.0)
    steps.append("insert -> primary row store (memory)")
    imcu = engine.imcu("t")
    assert 1 in imcu.smu.new_keys
    steps.append("commit listener -> SMU records the new key")
    result = imcu.scan(engine.clock.now(), ["v"])
    assert result.arrays["v"].tolist() == [1.0]
    steps.append("scan -> IMCU + patch from row store (fresh)")
    engine.force_sync()
    assert imcu.smu.new_keys == set() and imcu.populated_rows() == 1
    steps.append("sync -> IMCU repopulated from primary row store")
    return steps


def flow_b() -> list[str]:
    """(b): leader log -> follower row replicas; learner -> columnar."""
    engine = build_engine("b")
    steps = []
    marked = (1, 1, 9_999, 1, 1, None, 5, 1)  # full TPC-C orders row
    key = (1, 1, 9_999)
    engine.insert("orders", marked)
    cluster = engine.cluster
    region = cluster.region_of("orders", key)
    group = cluster._groups[region]
    leader = group.elect_leader()
    steps.append(f"commit -> raft leader of region{region} ({leader.node_id})")
    cluster.drain_replication()
    followers_have = [
        sm.rows["orders"].get(key) is not None
        for node_id, sm in cluster._region_sms[region].items()
    ]
    assert all(followers_have)
    steps.append("raft log -> row replicas on follower nodes")
    pending = cluster.columnar.delta_logs["orders"].pending_entries()
    assert pending > 0
    steps.append("raft log -> learner -> columnar delta log (async)")
    cluster.sync()
    assert cluster.columnar.column_stores["orders"].contains_key(key)
    steps.append("delta merge -> column store on analytics node")
    return steps


def flow_c() -> list[str]:
    """(c): disk row store is primary; hot columns extracted to IMCS."""
    engine = make_engine("c", propagation_threshold=1)
    engine.create_table(schema())
    steps = []
    engine.insert("t", (1, 1.0))
    assert engine.store("t").read(1) == (1, 1.0)
    steps.append("insert -> disk row store (pages + buffer pool)")
    assert engine.pending_changes("t") == 1
    steps.append("change listener -> propagation delta buffered")
    engine.sync()
    assert engine.imcs_store("t").contains_key(1)
    steps.append("threshold propagation -> IMCS cluster column store")
    result = engine.query("SELECT SUM(v) FROM t")
    assert result.rows[0][0] == 1.0
    assert engine.pushdowns >= 1
    steps.append("query -> pushed down to IMCS (columns loaded)")
    return steps


def flow_d() -> list[str]:
    """(d): L1 row-wise delta -> L2 columnar -> Main (sorted dicts)."""
    engine = ColumnDeltaEngine(l1_threshold=4, l2_threshold=10**9)
    engine.create_table(schema())
    steps = []
    engine.insert("t", (1, 1.0))
    table = engine.table("t")
    assert len(table.l1) == 1 and len(table.l2) == 0 and len(table.main) == 0
    steps.append("insert -> L1 delta (row-wise, in memory)")
    table.merge_l1_to_l2()
    assert len(table.l1) == 0 and len(table.l2) == 1
    steps.append("threshold -> L1 appended to L2 (columnar)")
    table.merge_l2_to_main()
    assert len(table.l2) == 0 and len(table.main) == 1
    steps.append("merge -> Main column store (dictionary re-sorted)")
    result = engine.query("SELECT SUM(v) FROM t")
    assert result.rows[0][0] == 1.0
    steps.append("scan -> Main + L2 + visible L1")
    return steps


def test_print_figure1(flows):
    for cat, steps in flows.items():
        print_table(
            f"Figure 1({cat}) data path, observed",
            ["step"],
            [[s] for s in steps],
            widths=[64],
        )


class TestFigure1:
    def test_a_path(self, flows):
        assert len(flows["a"]) == 4

    def test_b_path(self, flows):
        assert len(flows["b"]) == 4

    def test_c_path(self, flows):
        assert len(flows["c"]) == 4

    def test_d_path(self, flows):
        assert len(flows["d"]) == 4

    def test_all_paths_reach_columnar_form(self, flows):
        """Every panel of Figure 1 makes data readable in columnar
        form — the shared premise of the taxonomy."""
        for steps in flows.values():
            text = " ".join(steps).lower()
            assert "column" in text or "imcu" in text


@pytest.mark.benchmark(group="figure1")
def test_bench_insert_to_columnar_visibility(benchmark):
    """Wall-clock of insert -> sync -> columnar visibility on (a)."""

    def roundtrip():
        engine = make_engine("a")
        engine.create_table(schema())
        engine.insert("t", (1, 1.0))
        engine.force_sync()
        assert engine.imcu("t").populated_rows() == 1

    benchmark(roundtrip)
