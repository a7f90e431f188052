"""Regenerate the benchmark tables and diff every simulated-clock block
against the pinned ``experiment_tables.txt``.

    PYTHONPATH=src python benchmarks/check_tables.py     # ~80 s

Wall-clock blocks (headers containing "best of"), pytest's progress
dots, its failure report and the trailing timing line are dropped
before the diff.  The diff always runs: a benchmark test that fails (a
wall-clock gate reading low on a busy box, say) is reported on a line
of its own and in its own bit of the exit code, so it cannot hide — or
be mistaken for — a moved simulated number.

    exit 0  tables identical, every benchmark test passed
    exit 1  a simulated-clock line differs
    exit 2  tables identical, but a benchmark test failed
    exit 3  both

The run rewrites the ``BENCH_*.json`` files, like any full benchmark run.
"""

from __future__ import annotations

import difflib
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NOISE = re.compile(r"^[.sxEF]+\s*(\[\s*\d+%\])?$|^\d+ passed.* in [\d.]+s")


def pinned_lines(text: str) -> list[str]:
    """Lines of the ``=== ... ===`` blocks that must repeat exactly."""
    lines: list[str] = []
    keep = False
    for line in text.splitlines():
        if line.startswith("===="):  # pytest's FAILURES / summary rules
            keep = False
        elif line.startswith("=== "):
            keep = "best of" not in line
        if keep and not NOISE.match(line):
            lines.append(line)
    return lines


def failed_tests(text: str) -> list[str]:
    """Test ids from pytest's short summary (``FAILED <id> - <why>``)."""
    return [
        line.split(" - ")[0].split(" ", 1)[1]
        for line in text.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]


if __name__ == "__main__":
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks/", "--ignore=benchmarks/e2e",
         "-s", "--benchmark-disable", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True,
    )
    failed = failed_tests(run.stdout)
    if run.returncode and not failed:  # pytest itself broke: nothing to diff
        sys.exit(run.stdout[-3000:] + run.stderr[-3000:])
    want = pinned_lines((ROOT / "experiment_tables.txt").read_text())
    got = pinned_lines(run.stdout)
    diff = list(difflib.unified_diff(
        want, got, "experiment_tables.txt", "regenerated", lineterm=""
    ))
    print("\n".join(diff) or f"{len(got)} simulated-clock lines identical")
    for test in failed:
        print(f"BENCHMARK TEST FAILED (not a table difference): {test}")
    sys.exit((1 if diff else 0) | (2 if failed else 0))
