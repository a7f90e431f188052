"""``benchmarks/sample_profile.py`` at smoke size: one repetition's run
phase of ``oltp_sync``, ``olap_suite`` and ``point_frontdoor``, sampled,
reports both blocks."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "sample_profile.py"


def check_smoke_profile(workload: str, phase_class: str) -> None:
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", workload, "--smoke", "--reps", "1"],
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    out = done.stdout
    header = re.search(r"phase run, 1 repetition\(s\) from seed 1: (\d+) samples", out)
    assert header is not None, out
    assert int(header.group(1)) > 0
    assert "\n## self (top of stack)\n" in out
    assert "\n## inclusive (anywhere on the stack)\n" in out
    # The phase is the root of every stack; nothing above it is counted.
    # Python 3.10's code objects have no ``co_qualname``: the label
    # there is ``(run)``, not ``(OltpSync.run)``.
    assert re.search(rf"workloads\.py:\d+\(({phase_class}\.)?run\)", out), out
    assert "run_repetition" not in out
    assert "CHECK FAILED" not in out


def test_oltp_sync_smoke_profile_reports_self_and_inclusive_shares():
    check_smoke_profile("oltp_sync", "OltpSync")


def test_olap_suite_smoke_profile_reports_self_and_inclusive_shares():
    check_smoke_profile("olap_suite", "OlapSuite")


def test_point_frontdoor_smoke_profile_reports_self_and_inclusive_shares():
    check_smoke_profile("point_frontdoor", "_FrontDoorWorkload")
