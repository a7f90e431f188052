"""``benchmarks/check_tables.py`` keeps a failed benchmark test and a moved
simulated number apart: the failure report never enters the diffed
lines, and the failed test ids are read from pytest's short summary."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "check_tables.py"

OUTPUT = """\
=== T1: simulated table ===
engine  tpmC
a       100.0
.
=== P4: perf (best of 3) ===
ops/s   1234.5
..
=== E1: last simulated table ===
lag     7
F
=================================== FAILURES ===================================
______________________________ test_sustained_ops_gate _________________________
E       assert 1.8 >= 2.0
=========================== short test summary info ============================
FAILED benchmarks/test_perf_frontdoor.py::test_sustained_ops_gate - assert 1.8 >= 2.0
1 failed, 137 passed in 83.21s
"""


def load_script():
    spec = importlib.util.spec_from_file_location("check_tables", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_failure_report_is_not_diffed_and_failed_gate_is_named():
    check_tables = load_script()
    assert check_tables.pinned_lines(OUTPUT) == [
        "=== T1: simulated table ===",
        "engine  tpmC",
        "a       100.0",
        "=== E1: last simulated table ===",
        "lag     7",
    ]
    assert check_tables.failed_tests(OUTPUT) == [
        "benchmarks/test_perf_frontdoor.py::test_sustained_ops_gate"
    ]
