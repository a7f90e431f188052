"""The repo's end-to-end benchmark, on both clocks.

    PYTHONPATH=src python benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--traced | --trace 0|1] [--smoke] [--out DIR]
    python benchmarks/e2e/run.py compare A.json B.json

With ``--workload`` it measures that workload in this process, prints
every metric by name with its unit, writes one JSON result and ends its
standard output with the one-line JSON object the driver reads.
Without it, each workload runs in a process of its own (fresh
interpreter, so neither RSS nor the process-global metrics registry
carries residue), the results are combined into one file and the run is
appended to ``results/history.jsonl``.  The exit code is non-zero when
an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"
SCHEMA = 1

#: The measuring process's environment.  Hash randomisation off makes
#: set order — and with it float summation order and the result digest —
#: repeat across processes.  The malloc settings keep freed arenas
#: mapped: the executor's large NumPy temporaries otherwise fault
#: ~25k fresh pages per join query, and on this VM a burst of faults
#: costs anywhere from 0.08 s to 1.2 s of system time.
PROCESS_ENV = {
    "PYTHONHASHSEED": "0",
    "MALLOC_MMAP_THRESHOLD_": str(32 * 1024 * 1024),
    "MALLOC_TRIM_THRESHOLD_": str(4 * 1024 * 1024 * 1024),
    "MALLOC_TOP_PAD_": str(256 * 1024 * 1024),
}

MIN_REPS = 3

#: ``compare`` on two runs of one seed: the simulated metrics repeat to
#: the last digit, so half a percent is already a change.  The bounds in
#: BENCHMARK.json are wider because they must cover different seeds.
EQUAL_SEED_SIM_BOUND = 0.005


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


# ----------------------------------------------------------- one workload


def measure(args: argparse.Namespace) -> int:
    """Measure one workload in this process; returns the exit code."""
    sys.path.insert(0, str(SRC))
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    sizes = harness.SIZES["smoke" if args.smoke else "full"][args.workload]
    traced_mode = args.trace == 1

    harness.run_repetition(workload, args.seed, sizes, traced=False)  # warm-up, discarded
    untraced: list[harness.RepResult] = []
    traced: list[harness.RepResult] = []
    # A traced pass needs one untraced/traced pair; smoke sizes take a
    # fixed two repetitions and ignore the time budget.
    min_reps = 1 if traced_mode else (2 if args.smoke else MIN_REPS)
    budget = 0.0 if args.smoke else args.seconds
    started = time.perf_counter()

    def another() -> bool:
        done = len(untraced)
        if done < min_reps:
            return True
        elapsed = time.perf_counter() - started
        # Start a repetition that would end at most half of itself past
        # the budget; a traced pass only one that fits, its pairs are long.
        overrun = 1.0 if traced_mode else 0.5
        return elapsed + overrun * elapsed / done < budget

    while another():
        untraced.append(harness.run_repetition(workload, args.seed, sizes, traced=False))
        if traced_mode:
            traced.append(harness.run_repetition(workload, args.seed, sizes, traced=True))

    reps = untraced + traced
    unrepeatable = harness.check_repeatable(reps)
    failures = unrepeatable + [f for rep in reps for f in rep.rec.check_failures]
    attempted = sum(r.rec.submitted for r in reps)
    failed = sum(r.rec.failed for r in reps) + len(unrepeatable)
    correct = failed == 0

    if traced_mode:
        metrics = harness.per_layer(traced, untraced)
    else:
        metrics = harness.end_to_end(untraced)
    payload = {
        "schema": SCHEMA,
        "workload": args.workload,
        "seed": args.seed,
        "mode": "traced" if traced_mode else "e2e",
        "smoke": args.smoke,
        "sizes": sizes,
        "calib_ref_s": harness.CALIB_REF_S,
        "repetitions": len(untraced),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "check_failures": failures,
        "errors": [e for r in reps for e in r.rec.errors][:5],
        "digest": reps[0].rec.digest,
        "samples": {
            "txn": len(untraced[0].rec.wall_ns["txn"]),
            "query": len(untraced[0].rec.wall_ns["query"]),
        },
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "per_rep": {
            "ops_per_s": [r.ops_per_s() for r in untraced],
            "raw_ops_per_s": [r.rec.completed / r.run_raw_s for r in untraced],
            "txn_p50_ms": [r.wall_ms("txn", 50) for r in untraced],
            "query_p50_ms": [r.wall_ms("query", 50) for r in untraced],
            "setup_s": [r.setup_s() for r in untraced],
            "raw_setup_s": [r.setup_raw_s for r in untraced],
            "calib_s": [r.calib_s for r in untraced],
        },
        "obs": reps[-1].obs,
    }
    if traced_mode:
        payload["unwrapped"] = traced[-1].tracer.missing
        traced[-1].tracer.write(args.out / f"{args.workload}-seed{args.seed}.trace.json")

    args.out.mkdir(parents=True, exist_ok=True)
    suffix = "traced" if traced_mode else "e2e"
    (args.out / f"{args.workload}-seed{args.seed}-{suffix}.json").write_text(
        json.dumps(payload, indent=1) + "\n"
    )

    print(f"== {args.workload} seed={args.seed} {suffix} repetitions={len(untraced)} "
          f"samples/rep txn={payload['samples']['txn']} query={payload['samples']['query']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<52} {value:>16.6g} {unit}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    for error in payload["errors"]:
        print(error, file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": payload["metrics"],
            }
        )
    )
    return 0 if correct else 1


# ------------------------------------------------------------ every workload


def run_all(args: argparse.Namespace) -> int:
    """One child process per workload and pass; combine and record."""
    spec = benchmark_spec()
    combined: dict = {
        "schema": SCHEMA,
        "git_sha": git_sha(),
        "seed": args.seed,
        "smoke": args.smoke,
        "workloads": {},
    }
    exit_code = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        entry = combined["workloads"][workload] = {}
        for trace in ([0, 1] if args.trace == 1 else [0]):
            command = [
                sys.executable,
                str(HERE / "run.py"),
                "--workload", workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(trace),
                "--out", str(args.out),
                *(["--smoke"] if args.smoke else []),
            ]
            done = subprocess.run(command, env={**os.environ, **PROCESS_ENV}, check=False)
            exit_code = exit_code or done.returncode
            suffix = "traced" if trace else "e2e"
            result = args.out / f"{workload}-seed{args.seed}-{suffix}.json"
            if result.exists():
                entry[suffix] = json.loads(result.read_text())
    combined["claim"] = None
    out = args.out / f"run-{combined['git_sha'][:12]}-seed{args.seed}.json"
    out.write_text(json.dumps(combined, indent=1) + "\n")
    if not args.smoke:
        line = {
            "git_sha": combined["git_sha"],
            "seed": args.seed,
            "metrics": {
                w: {k: m["value"] for k, m in entry["e2e"]["metrics"].items()}
                for w, entry in combined["workloads"].items()
                if "e2e" in entry
            },
        }
        with (args.out / "history.jsonl").open("a") as history:
            history.write(json.dumps(line) + "\n")
    print(f"wrote {out}")
    return exit_code


# ------------------------------------------------------------------- compare


def _e2e_of(doc: dict) -> dict[str, dict]:
    """workload -> its untraced result, from a combined or single file."""
    if "workloads" in doc:
        return {w: e["e2e"] for w, e in doc["workloads"].items() if "e2e" in e}
    return {doc["workload"]: doc}


def compare(base_path: Path, new_path: Path) -> int:
    sys.path.insert(0, str(SRC))
    from harness import iqr_over_median

    spec = {m["name"]: m for m in benchmark_spec()["end_to_end"]}
    base = _e2e_of(json.loads(base_path.read_text()))
    new = _e2e_of(json.loads(new_path.read_text()))

    def bound_of(metric: str, workload: str) -> float:
        same_seed = base[workload]["seed"] == new[workload]["seed"]
        if same_seed and metric.startswith("sim_"):
            return EQUAL_SEED_SIM_BOUND
        return spec[metric]["bound"]

    def spread(result: dict, metric: str) -> float:
        return iqr_over_median(result["per_rep"].get(metric, []))

    worse = 0
    print(f"{'workload':<16} {'metric':<18} {'base':>14} {'new':>14} {'ratio':>8} "
          f"{'bound':>6}  verdict")
    for workload in base:
        if workload not in new:
            continue
        for metric, m in spec.items():
            b = base[workload]["metrics"][metric]["value"]
            n = new[workload]["metrics"][metric]["value"]
            ratio = n / b if b else float("inf")
            loss = (ratio - 1.0) if m["better"] == "lower" else (1.0 - ratio)
            noise = max(spread(base[workload], metric), spread(new[workload], metric))
            bound = bound_of(metric, workload)
            if noise > bound:
                verdict = "unresolved"
            elif loss > bound:
                verdict = "worse"
                worse += 1
            elif loss < -bound:
                verdict = "better"
            else:
                verdict = "same"
            print(f"{workload:<16} {metric:<18} {b:>14.6g} {n:>14.6g} {ratio:>8.4f} "
                  f"{bound:>6.3f}  {verdict}")
    return 1 if worse else 0


# ---------------------------------------------------------------------- main


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            sys.exit("usage: run.py compare A.json B.json")
        return compare(Path(sys.argv[2]), Path(sys.argv[3]))

    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path, default=RESULTS)
    args = parser.parse_args()

    if not (SRC / "repro").is_dir():
        sys.exit(f"{SRC}/repro not found: the benchmark measures the repo's own source")
    if args.workload is None:
        return run_all(args)
    if any(os.environ.get(k) != v for k, v in PROCESS_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PROCESS_ENV})
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
