"""``benchmarks/pairs.py``.  At smoke size, one pair of HEAD against
HEAD, each side in a ``git worktree`` of its own, agrees on every
simulated metric and the digest, and the JSON holds both runs and the
summary.  On hand-made runs, the verdicts, the simulated-difference
check with and without ``--declare``, and ``main``'s exit codes."""

import argparse
import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SCRIPT = ROOT / "benchmarks" / "pairs.py"


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)


needs_a_commit = pytest.mark.skipif(
    _git("rev-parse", "--verify", "HEAD").returncode != 0,
    reason="needs a git checkout with a commit to check out",
)


@needs_a_commit
def test_one_smoke_pair_of_head_against_head(tmp_path):
    worktrees_before = _git("worktree", "list", "--porcelain").stdout
    done = subprocess.run(
        [
            sys.executable, str(SCRIPT),
            "--base", "HEAD", "--head", "HEAD",
            "--workload", "olap_suite", "--seeds", "1-1", "--smoke",
            "--out", str(tmp_path),
        ],
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "every sim_* metric and digest identical at every seed" in done.stdout
    (path,) = tmp_path.glob("pairs-*.json")
    report = json.loads(path.read_text())
    assert report["base"] == report["head"]
    entry = report["workloads"]["olap_suite"]
    (run,) = entry["runs"]
    assert run["seed"] == 1 and run["order"] == ["base", "head"]
    assert run["base"]["correct"] and run["head"]["correct"]
    assert run["base"]["digest"] == run["head"]["digest"]
    sims = {k: v for k, v in run["base"]["metrics"].items() if k.startswith("sim_")}
    assert sims and all(run["head"]["metrics"][k] == v for k, v in sims.items())
    assert entry["simulated_differences"] == []
    assert {"ops_per_s", "query_p50_ms", "sim_qph"} <= set(entry["metrics"])
    assert entry["metrics"]["sim_qph"]["verdict"] == "identical"
    # The worktrees are gone and unregistered.
    assert _git("worktree", "list", "--porcelain").stdout == worktrees_before


@needs_a_commit
@pytest.mark.parametrize("moment", ["adding", "running"])
def test_a_sigterm_removes_the_worktree_and_the_temporary_directories(tmp_path, moment):
    """SIGTERM while ``git worktree add`` runs (the tree is registered
    and locked), or once the tree is checked out and a run is under way."""
    worktrees_before = _git("worktree", "list", "--porcelain").stdout
    temp = tmp_path / "tmp"
    temp.mkdir()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["TMPDIR"] = str(temp)
    run = subprocess.Popen(
        [
            sys.executable, str(SCRIPT), "--base", "HEAD", "--workload", "olap_suite",
            "--seeds", "1-1", "--smoke", "--out", str(tmp_path / "out"),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        deadline = time.monotonic() + 120
        while True:
            listed = _git("worktree", "list", "--porcelain").stdout
            entry = listed[listed.find(str(temp)):]
            if str(temp) in listed and (moment == "adding" or "locked" not in entry):
                break
            assert run.poll() is None, run.stderr.read()
            assert time.monotonic() < deadline, "no worktree was checked out"
            time.sleep(0.05)
        if moment == "running":
            time.sleep(1.0)
        run.send_signal(signal.SIGTERM)
        run.wait(timeout=120)
    finally:
        if run.poll() is None:
            run.kill()
            run.wait()
    assert _git("worktree", "list", "--porcelain").stdout == worktrees_before
    assert list(temp.iterdir()) == []
    assert not (tmp_path / "out").exists()


@needs_a_commit
def test_main_prunes_a_worktree_whose_directory_is_gone(monkeypatch, tmp_path):
    tree = tmp_path / "gone"
    assert _git("worktree", "add", "--detach", "--quiet", str(tree), "HEAD").returncode == 0
    shutil.rmtree(tree)
    assert str(tree) in _git("worktree", "list", "--porcelain").stdout

    @contextmanager
    def checkout(rev):
        raise RuntimeError("stop after the prune")
        yield

    monkeypatch.setattr(pairs, "checkout", checkout)
    with pytest.raises(RuntimeError, match="stop after the prune"):
        pairs.main([
            "--base", "HEAD", "--workload", "olap_suite", "--seeds", "1-1",
            "--out", str(tmp_path / "out"),
        ])
    assert str(tree) not in _git("worktree", "list", "--porcelain").stdout


# --- the comparison itself, on hand-made runs (no subprocess) ---------------

def _load_pairs():
    spec = importlib.util.spec_from_file_location("pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs = _load_pairs()

OPS = {"name": "ops_per_s", "better": "higher", "bound": 0.25}
P50 = {"name": "query_p50_ms", "better": "lower", "bound": 0.25}
QPH = {"name": "sim_qph", "better": "higher", "bound": 0.12}


def _run(metrics, digest="d0", correct=True):
    return {"correct": correct, "exit": 0, "digest": digest, "metrics": metrics, "wall_s": 1.0}


def _runs(name, base, head):
    return [
        {"seed": seed, "order": ["base", "head"],
         "base": _run({name: b}), "head": _run({name: h})}
        for seed, b, h in zip(range(1, len(base) + 1), base, head)
    ]


BASE_OPS = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]


def test_nine_wins_and_a_gain_past_the_base_iqr_is_better():
    head = [b + 10 for b in BASE_OPS[:9]] + [95]
    (s,) = pairs.summarize(_runs("ops_per_s", BASE_OPS, head), [OPS]).values()
    assert (s["wins"], s["pairs"]) == (9, 10)
    assert s["base_median"] == 100 and s["head_median"] == 110
    assert s["gain_over_base_iqr"] > 1
    assert s["verdict"] == "better"


def test_eight_wins_is_not_better():
    head = [b + 10 for b in BASE_OPS[:8]] + [95, 95]
    (s,) = pairs.summarize(_runs("ops_per_s", BASE_OPS, head), [OPS]).values()
    assert s["wins"] == 8
    assert s["verdict"] == "same"


def test_a_gain_inside_the_base_iqr_is_not_better():
    head = [b + 0.5 for b in BASE_OPS]
    (s,) = pairs.summarize(_runs("ops_per_s", BASE_OPS, head), [OPS]).values()
    assert s["wins"] == 10
    assert s["gain_over_base_iqr"] < 1
    assert s["verdict"] == "same"


def test_a_loss_past_the_bound_is_worse_for_either_direction():
    head = [b * 0.7 for b in BASE_OPS]
    (s,) = pairs.summarize(_runs("ops_per_s", BASE_OPS, head), [OPS]).values()
    assert s["verdict"] == "worse"
    base_ms = [2.0, 2.02, 1.98, 2.0, 2.01]
    (s,) = pairs.summarize(_runs("query_p50_ms", base_ms, [m * 1.3 for m in base_ms]),
                           [P50]).values()
    assert s["wins"] == 0
    assert s["verdict"] == "worse"


def test_a_lower_is_better_metric_wins_by_going_down():
    base_ms = [2.0, 2.02, 1.98, 2.0, 2.01, 1.99, 2.0, 2.0, 2.01, 1.99]
    (s,) = pairs.summarize(_runs("query_p50_ms", base_ms, [m - 0.2 for m in base_ms]),
                           [P50]).values()
    assert s["wins"] == 10 and s["ratio"] < 1
    assert s["verdict"] == "better"


WIDE = [50, 150, 60, 140, 100]


def test_a_spread_past_the_bound_with_overlapping_runs_is_unresolved():
    # Head wins every pair, but its runs overlap the base's.
    head = [w + 5 for w in WIDE]
    (s,) = pairs.summarize(_runs("ops_per_s", WIDE, head), [OPS]).values()
    assert s["base_iqr"] / s["base_median"] > OPS["bound"]
    assert s["wins"] == 5
    assert s["verdict"] == "unresolved"


def test_a_spread_past_the_bound_is_resolved_when_every_head_run_wins():
    head = [200, 300, 210, 290, 250]
    (s,) = pairs.summarize(_runs("ops_per_s", WIDE, head), [OPS]).values()
    assert s["base_iqr"] / s["base_median"] > OPS["bound"]
    assert s["verdict"] == "better"


def test_a_simulated_metric_is_identical_only_when_equal_at_every_seed():
    qph = [1000.0, 1100.0, 900.0]
    (s,) = pairs.summarize(_runs("sim_qph", qph, qph), [QPH]).values()
    assert s["verdict"] == "identical"
    (s,) = pairs.summarize(_runs("sim_qph", qph, [1000.0, 1100.0, 900.5]), [QPH]).values()
    assert s["verdict"] != "identical"


def test_pairs_without_metrics_are_left_out_of_the_summary():
    runs = _runs("ops_per_s", BASE_OPS[:3], BASE_OPS[:3])
    runs[1]["head"] = {"correct": False, "exit": 1, "error": [], "wall_s": 1.0}
    (s,) = pairs.summarize(runs, [OPS]).values()
    assert s["pairs"] == 2


def _sim_runs():
    return [
        {"seed": seed, "order": ["base", "head"],
         "base": _run({"ops_per_s": 100.0, "sim_qph": 7.0}, digest=f"d{seed}"),
         "head": _run({"ops_per_s": 120.0, "sim_qph": 7.0}, digest=f"d{seed}")}
        for seed in (1, 2, 3)
    ]


def test_wall_metrics_may_differ_but_simulated_ones_may_not():
    assert pairs.simulated_differences("w", _sim_runs(), set()) == []


def test_a_differing_digest_is_reported_and_marked_declared_when_named():
    runs = _sim_runs()
    runs[1]["head"]["digest"] = "other"
    expected = {"workload": "w", "seed": 2, "metric": "digest", "base": "d2", "head": "other"}
    (found,) = pairs.simulated_differences("w", runs, set())
    assert found == {**expected, "declared": False}
    (found,) = pairs.simulated_differences("w", runs, {"digest"})
    assert found == {**expected, "declared": True}
    (found,) = pairs.simulated_differences("w", runs, {"sim_qph"})
    assert found["declared"] is False


def test_a_simulated_metric_differing_at_one_seed_is_reported():
    runs = _sim_runs()
    runs[2]["head"]["metrics"]["sim_qph"] = 7.000001
    (found,) = pairs.simulated_differences("w", runs, set())
    assert (found["seed"], found["metric"], found["declared"]) == (3, "sim_qph", False)
    runs[0]["head"]["metrics"].pop("sim_qph")
    assert [(f["seed"], f["head"]) for f in pairs.simulated_differences("w", runs, set())] == [
        (1, None), (3, 7.000001)
    ]


def test_seed_range_takes_a_to_b_only():
    assert pairs.seed_range("801-810") == list(range(801, 811))
    assert pairs.seed_range("5-5") == [5]
    for bad in ("5", "3-2", "a-b", "-4", "1-"):
        with pytest.raises(argparse.ArgumentTypeError):
            pairs.seed_range(bad)


# --- main()'s exit code, with the checkouts and run.py faked ----------------

@pytest.fixture
def fake_trees(monkeypatch, tmp_path):
    """``main`` over two fake trees: ``results[side]`` maps a seed to
    what that side's run returns (default: an identical good run)."""
    results = {"base": {}, "head": {}}

    @contextmanager
    def checkout(rev):
        yield tmp_path / ("base" if rev.startswith("b") else "head")

    def run_once(tree, workload, seed, out, smoke):
        good = _run({"ops_per_s": 100.0, "sim_qph": 7.0}, digest=f"d{seed}")
        return results[tree.name].get(seed, good)

    monkeypatch.setattr(pairs, "git", lambda *args: args[-1][0] * 40)
    monkeypatch.setattr(pairs, "checkout", checkout)
    monkeypatch.setattr(pairs, "run_once", run_once)
    return results


def _main(tmp_path, *extra):
    return pairs.main([
        "--base", "b", "--head", "h", "--workload", "olap_suite", "--seeds", "1-3",
        "--out", str(tmp_path / "out"), *extra,
    ])


def test_main_exits_0_when_every_simulated_number_agrees(fake_trees, tmp_path):
    assert _main(tmp_path) == 0
    (path,) = (tmp_path / "out").glob("pairs-*.json")
    report = json.loads(path.read_text())
    assert report["seeds"] == [1, 2, 3] and report["failed_runs"] == []
    orders = [r["order"] for r in report["workloads"]["olap_suite"]["runs"]]
    assert orders == [["base", "head"], ["head", "base"], ["base", "head"]]


def test_main_exits_1_on_an_undeclared_simulated_difference(fake_trees, tmp_path):
    fake_trees["head"][2] = _run({"ops_per_s": 100.0, "sim_qph": 7.5}, digest="d2")
    assert _main(tmp_path) == 1
    assert _main(tmp_path, "--declare", "digest") == 1
    assert _main(tmp_path, "--declare", "sim_qph") == 0


def test_main_exits_1_on_an_undeclared_digest_difference(fake_trees, tmp_path):
    fake_trees["head"][3] = _run({"ops_per_s": 100.0, "sim_qph": 7.0}, digest="other")
    assert _main(tmp_path) == 1
    assert _main(tmp_path, "--declare", "digest") == 0


@pytest.mark.parametrize("side", ["base", "head"])
def test_main_exits_2_when_a_run_fails_its_checks(fake_trees, tmp_path, side):
    fake_trees[side][2] = _run({"ops_per_s": 100.0, "sim_qph": 7.0}, digest="d2", correct=False)
    assert _main(tmp_path) == 2
    (path,) = (tmp_path / "out").glob("pairs-*.json")
    assert json.loads(path.read_text())["failed_runs"] == [f"olap_suite seed 2 {side}"]


def test_main_exits_2_when_a_run_writes_no_result(fake_trees, tmp_path):
    fake_trees["head"][1] = {"correct": False, "exit": 1, "error": ["boom"], "wall_s": 0.1}
    assert _main(tmp_path) == 2


def test_main_needs_a_seed_range(fake_trees, tmp_path):
    for seeds in ([], ["--seeds", "10"]):
        with pytest.raises(SystemExit):
            pairs.main(["--base", "b", "--workload", "olap_suite", *seeds])
