"""Regenerate the benchmark tables and diff every simulated-clock block
against the pinned ``experiment_tables.txt`` (exit 1 on any difference).

    PYTHONPATH=src python benchmarks/check_tables.py     # ~80 s

Wall-clock blocks (headers containing "best of"), pytest's progress
dots and the trailing timing line are dropped before the diff.  The run
rewrites the ``BENCH_*.json`` files, like any full benchmark run.
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
        if line.startswith("=== "):
            keep = "best of" not in line
        if keep and not NOISE.match(line):
            lines.append(line)
    return lines


if __name__ == "__main__":
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks/", "--ignore=benchmarks/e2e",
         "-s", "--benchmark-disable", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if run.returncode:
        sys.exit(run.stdout[-3000:] + run.stderr[-3000:])
    want = pinned_lines((ROOT / "experiment_tables.txt").read_text())
    got = pinned_lines(run.stdout)
    diff = list(difflib.unified_diff(
        want, got, "experiment_tables.txt", "regenerated", lineterm=""
    ))
    print("\n".join(diff) or f"{len(got)} simulated-clock lines identical")
    sys.exit(1 if diff else 0)
