"""Smoke test of the end-to-end benchmark at ``--smoke`` sizes.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; tier-1
(``testpaths = tests``) does not collect it.  It runs the real command,
one process per workload and pass, exactly as a user would.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
from tracing import LAYERS, span_targets  # noqa: E402


@pytest.fixture(scope="module")
def run(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("e2e")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--traced", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    (combined,) = out.glob("run-*.json")
    assert not (out / "history.jsonl").exists(), "smoke runs are not part of the trajectory"
    return json.loads(combined.read_text())


def _finite(result: dict, names: list[dict]) -> None:
    for spec in names:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"], spec["name"]
        assert math.isfinite(metric["value"]), spec["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_present_with_its_unit(run, workload):
    entry = run["workloads"][workload]
    _finite(entry["e2e"], SPEC["end_to_end"])
    _finite(entry["traced"], SPEC["per_layer"])
    assert set(entry["e2e"]["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(entry["traced"]["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["end_to_end"]:
        assert entry["e2e"]["metrics"][spec["name"]]["value"] != 0, spec["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_are_correct_and_repeat(run, workload):
    """The run itself asserts that simulated metrics and the result
    digest are equal across its repetitions (two untraced; one untraced
    and one traced in the traced pass) and reports any difference as a
    failed check."""
    for mode in ("e2e", "traced"):
        result = run["workloads"][workload][mode]
        assert result["correct"] and result["failed"] == 0, result["check_failures"]
        assert result["attempted"] > 0
    e2e, traced = (run["workloads"][workload][m] for m in ("e2e", "traced"))
    assert e2e["repetitions"] == 2
    assert e2e["digest"] == traced["digest"], "tracing changed a result"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_fractions_sum_to_one(run, workload):
    metrics = run["workloads"][workload]["traced"]["metrics"]
    for clock in ("wall", "sim"):
        total = sum(metrics[f"{layer}.self_{clock}_frac"]["value"] for layer in LAYERS)
        assert total == pytest.approx(1.0, abs=0.01), clock


def test_distributed_layers_only_run_on_the_cluster(run):
    for workload in WORKLOADS:
        metrics = run["workloads"][workload]["traced"]["metrics"]
        share = sum(
            metrics[f"{layer}.self_wall_frac"]["value"]
            for layer in LAYERS
            if layer.startswith("distributed.")
        )
        if workload == "ch_cluster":
            assert share > 0.3
        else:
            assert share == 0.0


def test_every_wrapper_target_exists(run):
    """A renamed entry point must show up here, not as a silent gap in
    the attribution."""
    for workload in WORKLOADS:
        assert run["workloads"][workload]["traced"]["unwrapped"] == []
    assert set(span_targets()) == set(LAYERS)


def test_summary_ends_with_a_null_claim(run):
    assert list(run)[-1] == "claim" and run["claim"] is None


def test_benchmark_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert len(SPEC["per_layer"]) <= 128


def test_compare_reports_same_on_identical_runs(run, tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(run))
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "compare", str(path), str(path)],
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "worse" not in done.stdout and "same" in done.stdout


def test_files_pass_ruff():
    """CI installs ruff; the container does not."""
    pytest.importorskip("ruff")
    done = subprocess.run(
        [sys.executable, "-m", "ruff", "check", str(ROOT / "benchmarks")],
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert done.returncode == 0, done.stdout
