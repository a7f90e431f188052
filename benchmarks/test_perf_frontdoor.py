"""Front-door perf gate: 1k sessions with and without the plan cache.

Runs :class:`repro.bench.frontdoor.FrontDoorBenchDriver` twice on
identical configs — ``use_plan_cache`` on vs off — and wall-clocks the
whole run plus every scheduling round (via the driver's ``on_round``
hook; the driver itself never touches the wall clock, per HTL001).
Both arms execute byte-identical simulated work: planning charges no
simulated time, so completed/shed counts and simulated latencies must
match exactly, and the wall-clock ratio isolates exactly the parse +
optimize work the cache removes.

Writes ``BENCH_frontdoor.json`` at the repo root.  The acceptance
gates — ≥2x sustained ops/s and a no-worse p95 round tail vs the
no-plan-cache path — apply at the full 1024-session/12-round shape;
CI's reduced sizes (``FRONTDOOR_SESSIONS`` / ``FRONTDOOR_ROUNDS``)
relax them to "meaningfully faster", since fixed per-round overhead
dominates small waves.

The ``point_statement`` workload is the absolute half: microseconds per
prepared primary-key statement and per join whose base side is one, on
engines (a), (c) and (d), with no ratio gate — the figure to read when
``point_frontdoor``'s bound in ``BENCHMARK.json`` moves.  A sample of
the answers is compared with ``tests/oracle``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from pathlib import Path

import pytest

from repro.bench import TpccLoader, TpccScale
from repro.bench.frontdoor import (
    PREPARED_STATEMENTS,
    FrontDoorBenchConfig,
    FrontDoorBenchDriver,
)
from repro.common.predicate import bind_predicate
from repro.common.rng import make_rng
from repro.engines import make_engine
from repro.obs import get_registry
from repro.query import parse

from conftest import obs_report, print_table
from tests.oracle import assert_matches

N_SESSIONS = int(os.environ.get("FRONTDOOR_SESSIONS", "1024"))
N_ROUNDS = int(os.environ.get("FRONTDOOR_ROUNDS", "12"))
FULL_SIZE = N_SESSIONS >= 1024 and N_ROUNDS >= 12
BEST_OF = 3
REPORT_PATH = Path(__file__).resolve().parents[1] / "BENCH_frontdoor.json"
#: The point-statement workload: ``point_frontdoor``'s table sizes.
POINT_SCALE = TpccScale(
    warehouses=1, districts=4, customers=100, items=200, initial_orders=100
)
POINT_STATEMENTS = 2 * N_SESSIONS
POINT_ENGINES = ("a", "c", "d")
POINT_KINDS = {"pk": "customer_profile", "pk_join": "customer_orders"}
POINT_CHECKED = 12
#: One committed single-row write to the probed table per this many
#: statements, untimed: point statements run *between* transactions
#: (``point_frontdoor`` commits once per 31).  A read-only loop over
#: repeating keys measures a scan cache that no commit ever strands.
POINT_WRITE_EVERY = 32

#: Session-tier series the front door must report into.
SESSION_METRICS = [
    "session.opened",
    "session.admitted",
    "session.completed",
    "session.shed",
    "session.latency_us",
]


def run_arm(use_plan_cache: bool):
    """One full bench run on a fresh engine; returns (total wall s,
    per-round wall s, FrontDoorBenchResult)."""
    driver = FrontDoorBenchDriver(
        make_engine("a"),
        FrontDoorBenchConfig(
            n_sessions=N_SESSIONS,
            rounds=N_ROUNDS,
            use_plan_cache=use_plan_cache,
        ),
    )
    round_walls: list[float] = []
    last = time.perf_counter()

    def on_round(_i: int) -> None:
        nonlocal last
        now = time.perf_counter()
        round_walls.append(now - last)
        last = now

    start = time.perf_counter()
    result = driver.run(on_round=on_round)
    return time.perf_counter() - start, round_walls, result


def point_statement_workload() -> dict:
    """Seconds per prepared statement, by engine and kind: the same
    ``POINT_STATEMENTS`` bindings through a warm plan cache in timed
    chunks of ``POINT_WRITE_EVERY`` with a commit between chunks, every
    ``POINT_STATEMENTS // POINT_CHECKED``-th answer checked against the
    oracle over the loaded tables."""
    by_name = {name: (sql, make) for name, _w, sql, make in PREPARED_STATEMENTS}
    out: dict = {"statements": POINT_STATEMENTS}
    for cat in POINT_ENGINES:
        engine = make_engine(cat)
        TpccLoader(POINT_SCALE, seed=1).load(engine)
        engine.force_sync()
        with engine.session() as s:
            tables = {
                t: (engine.catalog[t].schema(), s.scan(t))
                for t in ("customer", "orders")
            }
        rewritten = tables["customer"][1][0]  # the same values: answers stay put

        def run(sql, bindings):
            seconds, results = 0.0, []
            for at in range(0, len(bindings), POINT_WRITE_EVERY):
                engine.update("customer", rewritten)
                start = time.perf_counter()
                results += [
                    engine.execute_prepared(sql, p)
                    for p in bindings[at : at + POINT_WRITE_EVERY]
                ]
                seconds += time.perf_counter() - start
            return seconds, results

        for kind, name in POINT_KINDS.items():
            sql, make_params = by_name[name]
            rng = make_rng(7)
            bindings = [make_params(rng, POINT_SCALE) for _ in range(POINT_STATEMENTS)]
            run(sql, bindings)  # warm-up: the plan, the allocator
            seconds, results = min(
                (run(sql, bindings) for _ in range(BEST_OF)), key=lambda r: r[0]
            )
            template = parse(sql)
            for i in range(0, POINT_STATEMENTS, POINT_STATEMENTS // POINT_CHECKED):
                where = bind_predicate(template.where, bindings[i])
                assert_matches(
                    results[i],
                    dataclasses.replace(template, where=where, param_count=0),
                    tables,
                )
            out[f"{cat}_{kind}_statement_s"] = seconds / POINT_STATEMENTS
    return out


def p95(samples: list[float]) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]


def roll_up(series: dict, prefixes: tuple[str, ...]) -> dict[str, float]:
    """Sum labeled series (``name{labels}``) into per-name totals;
    histogram summaries contribute their sample count."""
    totals: dict[str, float] = {}
    for key, value in series.items():
        name = key.split("{", 1)[0]
        if not name.startswith(prefixes):
            continue
        amount = value["count"] if isinstance(value, dict) else value
        totals[name] = totals.get(name, 0.0) + amount
    return totals


@pytest.fixture(scope="module")
def report():
    get_registry().reset()
    # Interleaved best-of: alternate arms within each trial so drift
    # from earlier benches in the process hits both equally.  Keep each
    # arm's minimum total wall and per-round minima across trials.
    run_arm(True)  # warmup: allocator, bytecode caches
    run_arm(False)
    best = {True: float("inf"), False: float("inf")}
    rounds_min: dict[bool, list[float]] = {}
    results = {}
    for _ in range(BEST_OF):
        for arm in (True, False):
            wall, round_walls, result = run_arm(arm)
            if wall < best[arm]:
                best[arm] = wall
                results[arm] = result
            rounds_min[arm] = (
                round_walls
                if arm not in rounds_min
                else [min(a, b) for a, b in zip(rounds_min[arm], round_walls)]
            )

    cached, cold = results[True], results[False]
    ratio = best[False] / best[True]
    payload = {
        "bench": "frontdoor_plan_cache",
        "sessions": N_SESSIONS,
        "rounds": N_ROUNDS,
        "full_size": FULL_SIZE,
        "best_of": BEST_OF,
        "submitted": cached.submitted,
        "completed": cached.completed,
        "shed": cached.shed,
        "cached": {
            "wall_s": best[True],
            "ops_per_s": cached.completed / best[True],
            "round_p95_s": p95(rounds_min[True]),
            "plan_cache": cached.report.plan_cache,
        },
        "no_plan_cache": {
            "wall_s": best[False],
            "ops_per_s": cold.completed / best[False],
            "round_p95_s": p95(rounds_min[False]),
            "plan_cache": cold.report.plan_cache,
        },
        "speedup": ratio,
        "sim": {
            "ops_per_sim_s": cached.sim_ops_per_s(),
            "latency_p95_us": cached.report.latency_p95_us,
            "latency_p99_us": cached.report.latency_p99_us,
            "mean_freshness_lag": cached.report.mean_freshness_lag,
            "group_commit_size": cached.report.group_commit_size,
        },
        "admission": {
            "admitted": cached.report.admitted,
            "delayed": cached.report.delayed,
            "shed": cached.report.shed,
        },
    }

    bench = obs_report(
        "frontdoor",
        tp_per_sec=cached.report.completed["oltp"] / best[True],
        ap_per_sec=cached.report.completed["olap"] / best[True],
        freshness=cached.report.mean_freshness_lag,
    )
    payload["extras"] = {
        "obs": {
            "counters": roll_up(
                bench.extras["obs"]["counters"], ("session.", "plan_cache.")
            ),
            "histograms": roll_up(
                bench.extras["obs"]["histograms"], ("session.",)
            ),
        }
    }
    point = payload["point_statement"] = point_statement_workload()
    REPORT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    print_table(
        f"Point statements ({POINT_STATEMENTS} prepared executions per cell, "
        f"best of {BEST_OF})",
        ["engine", "us/pk statement", "us/pk-base join"],
        [
            [cat, *(point[f"{cat}_{kind}_statement_s"] * 1e6 for kind in POINT_KINDS)]
            for cat in POINT_ENGINES
        ],
        widths=[10, 18, 18],
    )
    print_table(
        f"Front door, {N_SESSIONS} sessions x {N_ROUNDS} rounds "
        f"(best of {BEST_OF})",
        ["arm", "ops/s", "round p95 ms", "pc hits", "pc misses"],
        [
            [
                "plan cache",
                payload["cached"]["ops_per_s"],
                payload["cached"]["round_p95_s"] * 1e3,
                cached.report.plan_cache["hits"],
                cached.report.plan_cache["misses"],
            ],
            [
                "cold planning",
                payload["no_plan_cache"]["ops_per_s"],
                payload["no_plan_cache"]["round_p95_s"] * 1e3,
                cold.report.plan_cache["hits"],
                cold.report.plan_cache["misses"],
            ],
        ],
        widths=[16, 14, 14, 10, 10],
    )
    payload["cached_result"] = cached
    payload["cold_result"] = cold
    return payload


def test_sustained_ops_gate(report):
    """The acceptance gate: with 1k sessions the prepared-statement path
    must sustain ≥2x the ops/s of cold per-call planning."""
    assert report["speedup"] >= (2.0 if FULL_SIZE else 1.1)


def test_round_tail_latency(report):
    """p95 per-round wall time: the cached arm's tail must beat the
    cold arm's (the parse/optimize work it removes is per-operation, so
    it shows up in every round, tail included)."""
    cached_p95 = report["cached"]["round_p95_s"]
    cold_p95 = report["no_plan_cache"]["round_p95_s"]
    assert cached_p95 <= cold_p95 / (1.5 if FULL_SIZE else 1.0)


def test_arms_do_equivalent_simulated_work(report):
    """Planning charges no simulated time, so both arms complete the
    same operation stream — the wall-clock ratio above is planning
    overhead, not a different workload.  Simulated aggregates agree
    within a small tolerance rather than exactly: a bind-peeked plan is
    reused for later bindings that cold planning would occasionally
    route differently (classic bind-peek drift — suboptimal, never
    incorrect; ``test_differential.py`` pins byte-exactness for
    repeated bindings)."""
    cached, cold = report["cached_result"], report["cold_result"]
    assert cached.submitted == cold.submitted
    # Drift cascades: a plan that charges differently shifts how many
    # ops fit a round's drain budget, hence queue depths and admission.
    assert cached.completed == pytest.approx(cold.completed, rel=0.01)
    assert cached.shed == pytest.approx(cold.shed, rel=0.05)
    assert cached.sim_makespan_us == pytest.approx(
        cold.sim_makespan_us, rel=0.05
    )
    for cls in cached.report.latency_p95_us:
        assert cached.report.latency_p95_us[cls] == pytest.approx(
            cold.report.latency_p95_us[cls], rel=0.15
        )


def test_plan_cache_hit_rate(report):
    """Steady state: seven statement shapes, thousands of executions —
    the cache must serve nearly everything after first touch."""
    pc = report["cached"]["plan_cache"]
    executions = pc["hits"] + pc["misses"]
    assert executions > 0
    assert pc["hits"] / executions >= (0.95 if FULL_SIZE else 0.5)
    # The cold arm never caches.
    assert report["no_plan_cache"]["plan_cache"]["hits"] == 0


def test_admission_accounting(report):
    """Every submission is admitted, delayed, or shed — and overload at
    full size actually sheds (backpressure is real, not vestigial)."""
    adm = report["admission"]
    total = (
        sum(adm["admitted"].values())
        + sum(adm["delayed"].values())
        + sum(adm["shed"].values())
    )
    assert total == report["submitted"]
    if FULL_SIZE:
        assert sum(adm["shed"].values()) > 0


def test_group_commit_retuned(report):
    """The tuner must have widened the WAL window above the cold-start
    minimum once it saw the OLTP arrival rate."""
    assert report["sim"]["group_commit_size"] > 1


def test_session_metrics_in_obs_report(report):
    obs = report["extras"]["obs"]
    counters, histograms = obs["counters"], obs["histograms"]
    for name in SESSION_METRICS:
        assert name in counters or name in histograms, name
    # 2 warmup + 2*BEST_OF timed runs each opened N_SESSIONS sessions.
    assert counters["session.opened"] >= N_SESSIONS
    assert counters["plan_cache.hits"] > 0
    assert histograms["session.latency_us"] > 0


def test_point_statement_workload_reported(report):
    """Absolute figures, no ratio: one per engine and statement kind."""
    point = report["point_statement"]
    assert point["statements"] == POINT_STATEMENTS
    for cat in POINT_ENGINES:
        for kind in POINT_KINDS:
            assert point[f"{cat}_{kind}_statement_s"] > 0


def test_report_written(report):
    on_disk = json.loads(REPORT_PATH.read_text())
    assert on_disk["bench"] == "frontdoor_plan_cache"
    assert on_disk["sessions"] == N_SESSIONS
    assert on_disk["speedup"] == report["speedup"]
    assert "session.shed" in on_disk["extras"]["obs"]["counters"]
