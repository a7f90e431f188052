"""Sampling profile of one phase of an end-to-end workload.

    PYTHONPATH=src python benchmarks/sample_profile.py --workload W
        [--phase setup|run|check] [--reps N] [--seed S] [--smoke] [--top K]

Runs ``benchmarks/e2e``'s repetitions of workload ``W`` in this process
(the benchmark's sizes, seeds and checks, untraced) and samples the
Python stack on ``SIGPROF``: ``signal.setitimer(ITIMER_PROF)`` fires on
this process's CPU time only.  A sample is kept only while the chosen
phase runs (default ``run``, the measured region), and never inside the
harness's calibration slices.  The report gives, per function, its
*self* share (the function on top of the stack; time in a C call such as
a NumPy kernel counts to the Python function that made it) and its
*inclusive* share (anywhere on the stack, counted once per sample).

Why sampling and not ``cProfile``: a deterministic profiler pays for
every Python call it traces, so it inflates call-heavy code and moves
the shares it reports.  It stretched ``ch_cluster``'s run phase about
5.5x (2.9 s against 0.53 s per repetition), and it counts set-up and
check work into the same table as the measured region.  A sample costs
one stack walk per interval, whatever the code does between samples.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
E2E = HERE / "e2e"
PHASES = ("setup", "run", "check")
#: CPU seconds between samples asked of the timer (the kernel may round
#: it up to its tick).
INTERVAL_S = 0.001


def _label(code) -> str:
    path = Path(code.co_filename)
    try:
        path = path.resolve().relative_to(ROOT)
    except ValueError:
        pass
    name = getattr(code, "co_qualname", code.co_name)
    return f"{path}:{code.co_firstlineno}({name})"


class Sampler:
    """Counts the code objects on the stack at each ``SIGPROF`` taken
    while :attr:`active` is set, from the top of the stack down to the
    sampled phase (the harness frames above it are left out)."""

    def __init__(self) -> None:
        self.active = False
        self.samples = 0
        self._phase_code = None
        #: Wall seconds with sampling on.
        self.sampled_s = 0.0
        self.self_counts: Counter = Counter()
        self.inclusive_counts: Counter = Counter()

    def _on_signal(self, _signum, frame) -> None:
        if not self.active or frame is None:
            return
        self.samples += 1
        self.self_counts[frame.f_code] += 1
        seen = set()
        stop = self._phase_code
        while frame is not None and frame.f_code is not stop:
            seen.add(frame.f_code)
            frame = frame.f_back
        self.inclusive_counts.update(seen)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def sampling(self, fn):
        """``fn`` with sampling switched on for the length of each call."""

        def sampled(*args, **kwargs):
            was, self.active = self.active, True
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.active = was
                if not was:
                    self.sampled_s += time.perf_counter() - t0

        self._phase_code = sampled.__code__
        return sampled

    def paused(self, fn):
        """``fn`` with sampling switched off for the length of each call."""

        def unsampled(*args, **kwargs):
            was, self.active = self.active, False
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.active = was
                if was:
                    self.sampled_s -= time.perf_counter() - t0

        return unsampled

    def table(self, counts: Counter, top: int) -> list[str]:
        return [
            f"{100.0 * n / self.samples:6.1f} % {n:7d}  {_label(code)}"
            for code, n in counts.most_common(top)
        ]


def profile(workload_name: str, phase: str, reps: int, seed: int, smoke: bool) -> tuple:
    """Sample ``phase`` of ``reps`` repetitions; ``(sampler, check
    failures)``."""
    sys.path[:0] = [str(ROOT / "src"), str(E2E)]
    import harness
    from workloads import WORKLOADS

    sampler = Sampler()
    sizes = harness.SIZES["smoke" if smoke else "full"][workload_name]
    harness.calibration_slice = sampler.paused(harness.calibration_slice)
    failures: list[str] = []
    with sampler:
        for rep in range(reps):
            workload = WORKLOADS[workload_name]()
            setattr(workload, phase, sampler.sampling(getattr(workload, phase)))
            result = harness.run_repetition(workload, seed + rep, sizes, traced=False)
            failures += result.rec.check_failures + result.rec.errors
    return sampler, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--phase", choices=PHASES, default="run")
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")

    sampler, failures = profile(
        args.workload, args.phase, args.reps, args.seed, args.smoke
    )
    size = "smoke" if args.smoke else "full"
    print(
        f"# {args.workload} ({size}), phase {args.phase}, {args.reps} repetition(s) "
        f"from seed {args.seed}: {sampler.samples} samples (timer asked for every "
        f"{INTERVAL_S * 1e3:g} ms of CPU), {sampler.sampled_s:.3f} s wall in the phase "
        f"(calibration slices excluded)"
    )
    if sampler.samples:
        print("\n## self (top of stack)")
        print("\n".join(sampler.table(sampler.self_counts, args.top)))
        print("\n## inclusive (anywhere on the stack)")
        print("\n".join(sampler.table(sampler.inclusive_counts, args.top)))
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    return 1 if failures or not sampler.samples else 0


if __name__ == "__main__":
    # The benchmark's own process environment (hash seed, malloc), as
    # ``benchmarks/e2e/run.py`` sets it.
    sys.path.insert(0, str(E2E))
    from run import PROCESS_ENV

    if any(os.environ.get(k) != v for k, v in PROCESS_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PROCESS_ENV})
    sys.exit(main())
