"""Shared helpers for the paper-reproduction benchmarks.

Every ``test_table*`` / ``test_figure*`` module reproduces one artifact
of the paper (see DESIGN.md's experiment index).  Modules compute their
comparison once in a session-scoped fixture, print the paper-style
table, assert the qualitative orderings, and expose representative
kernels to pytest-benchmark for wall-clock measurement.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

from repro.bench import TpccLoader, TpccScale
from repro.common import CostModel
from repro.common.metrics import BenchReport
from repro.engines import make_engine
from repro.obs import get_registry
from repro.query import Executor, Planner, parse

#: ``tests.oracle`` — the brute-force reference the perf benches check
#: against — lives beside this directory; bare ``pytest benchmarks/``
#: does not put the repo root on the path, ``python -m pytest`` does.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

#: One compact scale for all engine benches: big enough for stable
#: shapes, small enough that the distributed engine stays fast.
BENCH_SCALE = TpccScale(
    warehouses=1,
    districts=2,
    customers=20,
    items=60,
    initial_orders=12,
    suppliers=10,
)

ENGINE_SETTINGS: dict[str, dict] = {
    "a": {},
    "b": {"n_storage_nodes": 3, "seed": 5},
    "c": {"buffer_capacity": 64, "propagation_threshold": 256},
    "d": {},
}

ENGINE_LABELS = {
    "a": "(a) row store + in-memory column store",
    "b": "(b) distributed row store + column replica",
    "c": "(c) disk row store + distributed column store",
    "d": "(d) primary column store + delta row store",
}


def build_engine(category: str, scale: TpccScale | None = None, **overrides):
    kwargs = dict(ENGINE_SETTINGS[category])
    kwargs.update(overrides)
    engine = make_engine(category, **kwargs)
    TpccLoader(scale=scale or BENCH_SCALE, seed=1).load(engine)
    return engine


def reset_obs() -> None:
    """Zero every metrics-registry series so the next engine's run
    starts from a clean slate (series bound by live components keep
    working — values are reset in place)."""
    get_registry().reset()


def obs_report(
    label: str,
    tp_per_sec: float = 0.0,
    ap_per_sec: float = 0.0,
    freshness: float = 0.0,
    isolation: float = 0.0,
    **extras,
) -> BenchReport:
    """Bundle the headline metrics with a snapshot of the registry.

    Every Table 1 / Table 2 bench builds its report through this helper
    so ``extras["obs"]`` always carries the per-component cost breakdown
    (WAL fsyncs, network messages, sync/merge events, ...) accumulated
    since the last :func:`reset_obs`.
    """
    report = BenchReport(
        label=label,
        tp_per_sec=tp_per_sec,
        ap_per_sec=ap_per_sec,
        freshness=freshness,
        isolation=isolation,
    )
    report.extras["obs"] = get_registry().snapshot()
    report.extras.update(extras)
    return report


def obs_component_totals(snapshot: dict) -> dict[str, float]:
    """Roll a registry snapshot's counters up by top-level component."""
    totals: dict[str, float] = {}
    for key, value in snapshot.get("counters", {}).items():
        component = key.split(".", 1)[0]
        totals[component] = totals.get(component, 0.0) + value
    return totals


def print_obs_breakdown(label: str, snapshot: dict, top: int = 12) -> None:
    """Render the per-component cost breakdown under a bench table."""
    # Zero-valued series are stale residue of earlier benches in the same
    # process (reset() zeroes in place but never deletes) — skip them.
    counters = {k: v for k, v in snapshot.get("counters", {}).items() if v > 0}
    if not counters:
        return
    print(f"\n--- obs breakdown: {label} ---")
    ranked = sorted(counters.items(), key=lambda kv: (-kv[1], kv[0]))
    for key, value in ranked[:top]:
        print(f"  {key:<52} {value:>12.0f}")
    rest = len(ranked) - top
    if rest > 0:
        print(f"  ... and {rest} more nonzero counter series")


def print_table(title: str, headers: list[str], rows: list[list], widths=None):
    """Render one paper-style comparison table to stdout."""
    widths = widths or [max(14, len(h) + 2) for h in headers]
    print(f"\n=== {title} ===")
    print("".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    print("-" * sum(widths))
    for row in rows:
        print(
            "".join(
                (f"{v:.2f}" if isinstance(v, float) else str(v)).ljust(w)
                for v, w in zip(row, widths)
            )
        )


def best_of(fn, k: int = 5):
    """``(best seconds, last result)`` of ``k`` timed calls after one
    warmup (decode caches, allocator, branch predictors)."""
    fn()
    best = float("inf")
    result = None
    for _ in range(k):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def assert_workloads_match_oracle(catalog, tables, workloads) -> None:
    """Every SQL in ``workloads`` returns the brute-force oracle's rows,
    column names and Python value types on ``catalog``.  The oracle's
    nested-loop join is quadratic: pass a small catalog."""
    from tests.oracle import assert_matches

    planner = Planner(catalog, CostModel())
    executor = Executor(catalog, CostModel())
    for sql in workloads:
        assert_matches(executor.execute(planner.plan(parse(sql))), sql, tables)


def assert_absolute_report(payload: dict, counts=("rows",)) -> None:
    """``BENCH_*.json`` schema 2: per-workload fields are row counts,
    ``*_s`` seconds or ``*_per_s`` rates — no ratio columns."""
    assert payload["schema"] == 2
    for name, fields in payload["workloads"].items():
        for key in fields:
            assert key in counts or key.endswith(("_s", "_per_s")), (name, key)


@pytest.fixture(scope="session")
def bench_scale() -> TpccScale:
    return BENCH_SCALE
