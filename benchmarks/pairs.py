"""Alternating base/head pairs of the end-to-end benchmark, as one command.

    python benchmarks/pairs.py --base REV [--head REV] --workload W[,W...]
        --seeds A-B [--first base|head] [--declare METRIC]... [--smoke]
        [--out DIR]

Checks ``--base`` out with ``git worktree add`` into a temporary
directory (a local checkout; nothing is fetched) after ``git worktree
prune`` drops the registration of any tree whose directory is gone, and
``--head`` too when it is given; without ``--head`` the head is this
working tree as it stands.  Each tree's own ``benchmarks/e2e/run.py --workload W --seed
S`` measures that tree's ``src/``, one process per run, with that
tree's own time budget.  There is one pair per seed from ``A`` to ``B``
(a claim runs ten, on seeds no earlier measurement used); ``--first``
says which tree runs first in the pair at ``A``, and the order swaps
every pair, so a drift of the machine's speed over the session falls
on both sides alike.

Per workload and ``BENCHMARK.json`` end-to-end metric it prints both
medians and IQRs, the ratio head / base, the pairs head won, and the
median's gain as a multiple of the base's IQR.  The verdict is
``unresolved`` where either side's IQR / median exceeds the metric's
bound (as ``run.py compare`` says it) and not every head run beat every
base run, ``worse`` where the median lost
more than the bound, ``better`` where head won at least 9 in 10 pairs
and the median gained more than the base's IQR, else ``same``; a
``sim_*`` metric equal at every seed is ``identical``.

The simulated metrics (``sim_*``) and the result digest repeat to the
last digit per seed, so they are compared pair by pair: any difference
exits 1 unless ``--declare`` names that metric (``digest`` for the
digest).  A declaration excuses the metric at every seed, whatever its
value; the JSON's ``simulated_differences`` list every value to check
against the change's own account.  A run that fails its own checks exits 2.  One JSON per
invocation (every run's metrics and digest, and the summary) goes to
``--out``.  A SIGTERM unwinds as Ctrl-C does: the runs in flight are
killed, the worktrees removed and the temporary directories deleted.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNNER = Path("benchmarks") / "e2e" / "run.py"
#: Share of pairs head must win for a ``better`` verdict.
WIN_SHARE = 0.9


def git(*args: str) -> str:
    done = subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


@contextmanager
def checkout(rev: str):
    """A detached ``git worktree`` of ``rev`` in a temporary directory,
    removed (and unregistered) on exit, also when the exit cut its
    ``git worktree add`` short."""
    parent = Path(tempfile.mkdtemp(prefix="pairs-"))
    tree = parent / "tree"
    try:
        git("worktree", "add", "--detach", "--quiet", str(tree), rev)
        yield tree
    finally:
        # Forced twice: an add cut short leaves its tree locked.  It may
        # also have registered nothing, which fails here harmlessly.
        subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "remove", "--force", "--force", str(tree)],
            capture_output=True,
        )
        shutil.rmtree(parent, ignore_errors=True)
        git("worktree", "prune")


def interrupt(signum, frame):
    """A SIGTERM handler: unwind as Ctrl-C does."""
    raise KeyboardInterrupt


def run_once(tree: Path, workload: str, seed: int, out: Path, smoke: bool) -> dict:
    """One ``run.py`` process in ``tree``: its metrics, its digest and
    whether its own checks passed."""
    command = [
        sys.executable, str(tree / RUNNER),
        "--workload", workload, "--seed", str(seed), "--out", str(out),
        *(["--smoke"] if smoke else []),
    ]
    # The tree's runner puts its own src/ on the path; an inherited
    # PYTHONPATH must not put another tree's in front of it.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    started = time.perf_counter()
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    wall_s = time.perf_counter() - started
    result_file = out / f"{workload}-seed{seed}-e2e.json"
    if not result_file.exists():
        tail = (done.stdout + done.stderr).strip().splitlines()[-5:]
        return {"correct": False, "exit": done.returncode, "error": tail, "wall_s": wall_s}
    result = json.loads(result_file.read_text())
    return {
        "correct": bool(result["correct"]) and done.returncode == 0,
        "exit": done.returncode,
        "digest": result["digest"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
        "wall_s": wall_s,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    # Inclusive, like the harness: a handful of runs must not extrapolate.
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list[dict], spec: list[dict]) -> dict:
    """Per metric: medians, IQRs, ratio, wins, gain over the base's IQR
    and a verdict, over the pairs whose two runs both produced metrics."""
    ok = [r for r in runs if "metrics" in r["base"] and "metrics" in r["head"]]
    summary = {}
    for m in spec:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        base = [r["base"]["metrics"][name] for r in ok if name in r["base"]["metrics"]]
        head = [r["head"]["metrics"][name] for r in ok if name in r["head"]["metrics"]]
        if not base or len(base) != len(head):
            continue
        b1, b_med, b3 = quartiles(base)
        h1, h_med, h3 = quartiles(head)
        ratio = h_med / b_med if b_med else float("inf") if h_med else 1.0
        gain = (b_med - h_med) if lower else (h_med - b_med)
        b_iqr, h_iqr = b3 - b1, h3 - h1
        wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        spread = max(
            b_iqr / abs(b_med) if b_med else 0.0, h_iqr / abs(h_med) if h_med else 0.0
        )
        loss = -gain / abs(b_med) if b_med else 0.0
        every_run_better = max(head) < min(base) if lower else min(head) > max(base)
        if name.startswith("sim_") and base == head:
            verdict = "identical"
        elif spread > bound and not every_run_better and not name.startswith("sim_"):
            # A simulated metric's spread is the seeds', not noise.
            verdict = "unresolved"
        elif loss > bound:
            verdict = "worse"
        elif wins >= WIN_SHARE * len(base) and gain > b_iqr:
            verdict = "better"
        else:
            verdict = "same"
        summary[name] = {
            "base_median": b_med,
            "base_iqr": b_iqr,
            "head_median": h_med,
            "head_iqr": h_iqr,
            "ratio": ratio,
            "wins": wins,
            "pairs": len(base),
            "gain_over_base_iqr": gain / b_iqr if b_iqr else None,
            "bound": bound,
            "verdict": verdict,
        }
    return summary


def simulated_differences(workload: str, runs: list[dict], declared: set[str]) -> list[dict]:
    """Every ``sim_*`` metric and digest that differs between the trees
    at one seed, marked declared or not."""
    found = []
    for r in runs:
        base, head = r["base"], r["head"]
        if "metrics" not in base or "metrics" not in head:
            continue
        compared = [
            ("digest", base["digest"], head["digest"]),
            *(
                (k, v, head["metrics"].get(k))
                for k, v in base["metrics"].items()
                if k.startswith("sim_")
            ),
        ]
        for name, b, h in compared:
            if b != h:
                found.append({
                    "workload": workload, "seed": r["seed"], "metric": name,
                    "base": b, "head": h, "declared": name in declared,
                })
    return found


def seed_range(text: str) -> list[int]:
    """``A-B`` as the seeds ``A`` to ``B``, both included."""
    first, dash, last = text.partition("-")
    if not (dash and first.isdigit() and last.isdigit() and int(first) <= int(last)):
        raise argparse.ArgumentTypeError(f"expected A-B with A <= B, got {text!r}")
    return list(range(int(first), int(last) + 1))


def fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the base tree")
    parser.add_argument("--head", help="git revision of the head tree (default: this working tree)")
    parser.add_argument("--workload", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="A-B: one pair per seed from A to B")
    parser.add_argument("--first", choices=["base", "head"], default="base")
    parser.add_argument("--declare", action="append", default=[], metavar="METRIC",
                        help="a sim_* metric (or 'digest') the change is declared to move")
    parser.add_argument("--smoke", action="store_true", help="run.py --smoke sizes")
    parser.add_argument("--out", type=Path, default=HERE / "pairs_results")
    args = parser.parse_args(argv)
    seeds = args.seeds
    workloads = args.workload.split(",")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    unknown = set(workloads) - {w["name"] for w in spec["workloads"]}
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(sorted(unknown))}")
    declared = set(args.declare)

    base_sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    head_sha = git("rev-parse", "--verify", f"{args.head}^{{commit}}") if args.head else None
    report: dict = {
        "base": base_sha,
        "head": head_sha or f"working tree at {git('rev-parse', 'HEAD')}",
        "seeds": seeds,
        "first": args.first,
        "smoke": args.smoke,
        "declared": sorted(declared),
        "workloads": {},
    }
    git("worktree", "prune")
    with ExitStack() as stack, tempfile.TemporaryDirectory(prefix="pairs-out-") as scratch:
        trees = {"base": stack.enter_context(checkout(base_sha))}
        trees["head"] = stack.enter_context(checkout(head_sha)) if head_sha else ROOT
        for workload in workloads:
            runs = []
            for i, seed in enumerate(seeds):
                base_first = (i % 2 == 0) == (args.first == "base")
                order = ["base", "head"] if base_first else ["head", "base"]
                pair: dict = {"seed": seed, "order": order}
                for side in order:
                    out = Path(scratch) / side
                    pair[side] = run_once(trees[side], workload, seed, out, args.smoke)
                    print(f"[{workload} seed {seed}] {side}: "
                          f"ops_per_s={fmt(pair[side].get('metrics', {}).get('ops_per_s'))} "
                          f"({pair[side]['wall_s']:.1f} s)", flush=True)
                runs.append(pair)
            report["workloads"][workload] = {
                "runs": runs,
                "metrics": summarize(runs, spec["end_to_end"]),
                "simulated_differences": simulated_differences(workload, runs, declared),
            }

    print(f"\nbase {report['base'][:12]}  head {report['head'][:40]}  "
          f"seeds {seeds[0]}-{seeds[-1]}  first {args.first}")
    print(f"{'workload':<16} {'metric':<18} {'base med':>12} {'base IQR':>10} "
          f"{'head med':>12} {'head IQR':>10} {'ratio':>7} {'wins':>6} {'gain/IQR':>9}  verdict")
    for workload, entry in report["workloads"].items():
        for name, s in entry["metrics"].items():
            print(f"{workload:<16} {name:<18} {fmt(s['base_median']):>12} "
                  f"{fmt(s['base_iqr']):>10} {fmt(s['head_median']):>12} "
                  f"{fmt(s['head_iqr']):>10} {s['ratio']:>7.4f} {s['wins']:>3}/{s['pairs']:<2} "
                  f"{fmt(s['gain_over_base_iqr']):>9}  {s['verdict']}")
    differences = [d for e in report["workloads"].values() for d in e["simulated_differences"]]
    undeclared = [d for d in differences if not d["declared"]]
    failed = [
        f"{w} seed {r['seed']} {side}"
        for w, e in report["workloads"].items()
        for r in e["runs"]
        for side in ("base", "head")
        if not r[side]["correct"]
    ]
    for d in differences:
        tag = "declared" if d["declared"] else "SIMULATED DIFFERS"
        print(f"{tag}: {d['workload']} seed {d['seed']} {d['metric']}: "
              f"{d['base']} -> {d['head']}")
    for f in failed:
        print(f"RUN FAILED: {f}")
    if not differences:
        print("every sim_* metric and digest identical at every seed")
    report["failed_runs"] = failed

    args.out.mkdir(parents=True, exist_ok=True)
    head_tag = (head_sha or "worktree")[:12]
    path = args.out / (
        f"pairs-{base_sha[:12]}-{head_tag}-{'+'.join(workloads)}-seeds{seeds[0]}-{seeds[-1]}.json"
    )
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")
    if undeclared:
        return 1
    return 2 if failed else 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, interrupt)
    sys.exit(main())
