"""Repetitions, the calibration kernel, and the metric arithmetic.

One *repetition* builds fresh engines from the seed, runs one workload's
measured region and checks the outputs.  The region is bracketed by a
slice of a fixed calibration kernel and interleaved with more of them,
one every quarter second at the workload's own boundaries (a round, a
query, a sync); the slices' time is taken out of the region's.  A wall
figure is reported *calibrated*:

    calibrated seconds = wall seconds * calib_ref_s / mean slice seconds

so a repetition that ran while the box was slow is scaled by how slow
the same box ran a fixed piece of work at a dozen instants during it.
Bracketing alone was not enough here: this VM changes speed by 20-40%
in phases of a few hundred milliseconds, and two samples miss them.
The raw figure is reported beside it (``driver.raw_wall_s``).
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
from statistics import median
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.common.metrics import LatencyRecorder
from repro.obs import get_registry

from tracing import DRIVER, LAYERS, Tracer

HERE = Path(__file__).resolve().parent
SIZES = json.loads((HERE / "sizes.json").read_text())
CALIB_REF_S: float = SIZES["calib_ref_s"]

CH_QUERY_IDS = ["Q1", "Q3", "Q4", "Q5", "Q6", "Q7", "Q12", "Q14a", "Q14b", "Q18", "Q19", "Q22"]

# --------------------------------------------------------------- calibration

_CALIB_ARRAY = np.random.default_rng(12345).random(120_000)

#: A pulse runs a slice only this long after the previous one, so every
#: workload spends about a tenth of its measured region calibrating.
PULSE_EVERY_S = 0.25


def calibration_slice() -> float:
    """One fixed piece of work, ~half pure-Python loop/dict and ~half
    NumPy sort/take; its duration measures the box, not the repo."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(100_000):
        acc += (i * i) & 0xFF
        table[i & 2047] = acc
    order = np.argsort(_CALIB_ARRAY, kind="stable")
    acc += int(_CALIB_ARRAY.take(order)[-1] > 2.0)
    return time.perf_counter() - start


# ----------------------------------------------------------------- recording


@dataclass
class Recorder:
    """What one repetition saw; workloads report into it."""

    tracer: Tracer | None = None
    engine: Any = None
    wall_ns: dict[str, list[int]] = field(default_factory=lambda: {"txn": [], "query": []})
    sim_us: dict[str, list[float]] = field(default_factory=lambda: {"txn": [], "query": []})
    wait_us: float = 0.0           # submit -> execution start, all operations
    latency_us: float = 0.0        # submit -> completion, all operations
    by_query: dict[str, list[int]] = field(default_factory=dict)
    sync_wall_ns: list[int] = field(default_factory=list)
    sync_sim_us: float = 0.0
    sync_rows: int = 0
    lags: list[float] = field(default_factory=list)
    submitted: int = 0
    shed: int = 0
    raised: int = 0
    aborted: int = 0
    new_orders: int = 0
    sim_span_us: float = 0.0       # simulated length of the measured region
    check_failures: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    #: Every analytical statement's rows, in completion order; hashed
    #: into ``digest`` once the measured region is over.
    results: list[list[tuple]] = field(default_factory=list)
    digest: str = ""
    calib_slices: list[float] = field(default_factory=list)
    _last_pulse: float = 0.0

    def use_engine(self, engine: Any) -> None:
        """Point the recorder (and the tracer's sim clock) at ``engine``."""
        self.engine = engine
        if self.tracer is not None:
            self.tracer.use_clock(engine.cost.clock)

    def pulse(self, force: bool = False) -> None:
        """Calibration hook for workload boundaries; runs a slice when
        the last one is ``PULSE_EVERY_S`` old."""
        if force or time.perf_counter() - self._last_pulse >= PULSE_EVERY_S:
            self.calib_slices.append(calibration_slice())
            self._last_pulse = time.perf_counter()

    def op(
        self, kind: str, fn: Callable[..., Any], *args: Any, query_id: str | None = None
    ) -> "Op":
        """One operation of ``kind`` ("txn" | "query") that calls
        ``fn(*args)`` when run; its simulated latency counts from *now*,
        the submit instant."""
        self.submitted += 1
        return Op(self, kind, fn, args, query_id, self.submitted, self.engine.cost.now_us())

    def sync(self, engine: Any) -> int:
        """One timed ``engine.sync()``."""
        s0 = engine.cost.now_us()
        t0 = time.perf_counter_ns()
        moved = engine.sync()
        self.sync_wall_ns.append(time.perf_counter_ns() - t0)
        self.sync_sim_us += engine.cost.now_us() - s0
        self.sync_rows += moved
        return moved

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.check_failures.append(what)

    @property
    def completed(self) -> int:
        return len(self.wall_ns["txn"]) + len(self.wall_ns["query"])

    @property
    def failed(self) -> int:
        return self.shed + self.aborted + self.raised + len(self.check_failures)


class Op:
    """A submitted operation; calling it runs it once, timed on both
    clocks, and keeps a query's rows for the repetition's digest.
    An object with slots rather than a closure: the front-door
    workloads create 12k of these per repetition."""

    __slots__ = ("rec", "kind", "fn", "args", "query_id", "op_id", "submitted_us")

    def __init__(self, rec, kind, fn, args, query_id, op_id, submitted_us):
        self.rec = rec
        self.kind = kind
        self.fn = fn
        self.args = args
        self.query_id = query_id
        self.op_id = op_id
        self.submitted_us = submitted_us

    def __call__(self) -> None:
        rec, kind = self.rec, self.kind
        engine = rec.engine
        if rec.tracer is not None:
            rec.tracer.op_id = self.op_id
        if kind == "query":
            rec.lags.append(float(engine.freshness_lag()))
        started_us = engine.cost.now_us()
        t0 = time.perf_counter_ns()
        try:
            result = self.fn(*self.args)
        except Exception:  # the driver must keep running; the op counts as failed
            rec.raised += 1
            if len(rec.errors) < 5:
                rec.errors.append(traceback.format_exc())
            return
        wall = time.perf_counter_ns() - t0
        done_us = engine.cost.now_us()
        rec.wall_ns[kind].append(wall)
        rec.sim_us[kind].append(done_us - self.submitted_us)
        rec.wait_us += started_us - self.submitted_us
        rec.latency_us += done_us - self.submitted_us
        if kind == "query":
            rec.results.append(result.rows)
            if self.query_id is not None:
                rec.by_query.setdefault(self.query_id, []).append(wall)


@dataclass
class RepResult:
    rec: Recorder
    setup_raw_s: float
    run_raw_s: float
    calib_s: float
    obs: dict
    peak_rss_mb: float
    layers: dict[str, dict[str, float]] | None = None
    tracer: Tracer | None = None

    @property
    def scale(self) -> float:
        return CALIB_REF_S / self.calib_s

    # The repetition's calibrated wall figures; a reported wall metric
    # is the median of one of these over the repetitions.

    def ops_per_s(self) -> float:
        return self.rec.completed / (self.run_raw_s * self.scale)

    def wall_ms(self, kind: str, pct: float) -> float:
        return percentile(self.rec.wall_ns[kind], pct) / 1e6 * self.scale

    def setup_s(self) -> float:
        return self.setup_raw_s * self.scale


def scoped_snapshot() -> dict:
    """The registry's series that this repetition touched, and nothing
    else (reset() zeroes in place and never deletes)."""
    snap = get_registry().snapshot()
    return {
        "counters": {k: v for k, v in snap["counters"].items() if v},
        "gauges": {k: v for k, v in snap["gauges"].items() if v},
        "histograms": {k: v for k, v in snap["histograms"].items() if v["count"]},
    }


def run_repetition(workload, seed: int, sizes: dict, traced: bool) -> RepResult:
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        rec = Recorder(tracer=tracer)
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup(rec, seed, sizes)
        setup_raw = time.perf_counter() - t0
        gc.collect()
        get_registry().reset()
        run = workload.run
        if tracer is not None:
            run = tracer.span(run, tracer.name_id(DRIVER, "driver.measured_region"))
        rec.pulse(force=True)
        t0 = time.perf_counter()
        run(rec, state)
        run_raw = time.perf_counter() - t0 - sum(rec.calib_slices[1:])
        rec.pulse(force=True)
        calib = statistics.fmean(rec.calib_slices)
        obs = scoped_snapshot()
        layers = tracer.self_times() if tracer is not None else None
    finally:
        if tracer is not None:
            tracer.uninstall()
    rec.digest = hashlib.blake2b(repr(rec.results).encode(), digest_size=16).hexdigest()
    rec.results.clear()
    workload.check(rec, state)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return RepResult(rec, setup_raw, run_raw, calib, obs, peak_rss_mb, layers, tracer)


# ------------------------------------------------------------------- metrics


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile, by the repo's own rule."""
    recorder = LatencyRecorder()
    recorder.extend(samples)
    return recorder.percentile(pct)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _total(series: dict, name: str) -> float:
    """Sum of one series over every label set."""
    return sum(v for k, v in series.items() if k.split("{", 1)[0] == name)


def _hist_mean(hists: dict, name: str) -> float:
    picked = [h for k, h in hists.items() if k.split("{", 1)[0] == name]
    count = sum(h["count"] for h in picked)
    return _ratio(sum(h["mean"] * h["count"] for h in picked), count)


def sim_metrics(rec: Recorder) -> dict[str, float]:
    """The simulated-clock figures of one repetition; identical on
    every repetition of one seed, which the output checks assert."""
    span_s = rec.sim_span_us / 1e6
    return {
        "sim_ops_per_s": _ratio(rec.completed, span_s),
        "sim_tpmc": _ratio(rec.new_orders, span_s / 60.0),
        "sim_qph": _ratio(len(rec.sim_us["query"]), span_s / 3600.0),
        "sim_txn_p99_us": percentile(rec.sim_us["txn"], 99),
        "sim_query_p99_us": percentile(rec.sim_us["query"], 99),
        "sim_freshness_lag": statistics.fmean(rec.lags),
    }


SIM_UNITS = {
    "sim_ops_per_s": "1/s",
    "sim_tpmc": "1/min",
    "sim_qph": "1/h",
    "sim_txn_p99_us": "us",
    "sim_query_p99_us": "us",
    "sim_freshness_lag": "ts",
}


def end_to_end(reps: list[RepResult]) -> dict[str, tuple[float, str]]:
    """Medians over the untraced repetitions."""
    first = reps[0].rec
    attempted = sum(r.rec.submitted for r in reps)
    failed = sum(r.rec.failed for r in reps)
    out: dict[str, tuple[float, str]] = {
        "ops_per_s": (median([r.ops_per_s() for r in reps]), "1/s"),
        "txn_p50_ms": (median([r.wall_ms("txn", 50) for r in reps]), "ms"),
        "query_p50_ms": (median([r.wall_ms("query", 50) for r in reps]), "ms"),
    }
    for name, value in sim_metrics(first).items():
        out[name] = (value, SIM_UNITS[name])
    out["setup_s"] = (median([r.setup_s() for r in reps]), "s")
    # The process's high-water mark once the warm-up and the first
    # measured repetition are done: the same work whatever the number
    # of repetitions the time budget then allows.
    out["peak_rss_mb"] = (reps[0].peak_rss_mb, "MB")
    out["success_frac"] = (1.0 - _ratio(failed, attempted), "frac")
    return out


def per_layer(
    traced: list[RepResult], untraced: list[RepResult]
) -> dict[str, tuple[float, str]]:
    """Per-layer attribution from the traced repetitions, plus the
    ratios counted at the same boundaries.  A ratio whose denominator
    is zero on this workload reads 0."""
    out: dict[str, tuple[float, str]] = {}
    last = traced[-1]
    rec, obs, tracer = last.rec, last.obs, last.tracer

    # self time per layer, median over traced repetitions
    for layer in LAYERS:
        wall, sim, calls = [], [], []
        for r in traced:
            total_wall = sum(v["wall_ns"] for v in r.layers.values())
            total_sim = sum(v["sim_us"] for v in r.layers.values())
            wall.append(_ratio(r.layers[layer]["wall_ns"], total_wall))
            sim.append(_ratio(r.layers[layer]["sim_us"], total_sim))
            calls.append(r.layers[layer]["calls"] / max(1, r.rec.completed))
        out[f"{layer}.self_wall_frac"] = (median(wall), "frac")
        out[f"{layer}.self_sim_frac"] = (median(sim), "frac")
        out[f"{layer}.calls_per_op"] = (median(calls), "1/op")

    c, h = obs["counters"], obs["histograms"]
    txns = len(rec.wall_ns["txn"])
    queries = len(rec.wall_ns["query"])
    commits = _total(c, "engine.tp_commits")
    aborts = _total(c, "engine.tp_aborts")
    cluster_commits = (
        _total(c, "commit.single_shard")
        + _total(c, "commit.piggybacked")
        + _total(c, "commit.two_phase")
    )
    offered = rec.submitted

    def put(name: str, value: float, unit: str) -> None:
        out[name] = (float(value), unit)

    put("session.shed_frac", _ratio(_total(c, "session.shed"), offered), "frac")
    put("session.delayed_frac", _ratio(_total(c, "session.delayed"), offered), "frac")
    put("session.queue_wait_sim_frac", _ratio(rec.wait_us, rec.latency_us), "frac")
    hits, misses = _total(c, "plan_cache.hits"), _total(c, "plan_cache.misses")
    put("query.plan_cache.hit_ratio", _ratio(hits, hits + misses), "frac")
    hits, misses = _total(c, "scan_cache.hits"), _total(c, "scan_cache.misses")
    put("query.scan_cache.hit_ratio", _ratio(hits, hits + misses), "frac")
    put(
        "query.scan_cache.invalidations_per_txn",
        _ratio(_total(c, "scan_cache.invalidations"), txns),
        "1/txn",
    )
    for qid in CH_QUERY_IDS:
        per_rep = [
            percentile(r.rec.by_query[qid], 50) / 1e6 * r.scale
            for r in untraced
            if qid in r.rec.by_query
        ]
        put(f"olap.{qid}_p50_ms", median(per_rep) if per_rep else 0.0, "ms")
    pruned, scanned = _total(c, "scan.segments_pruned"), _total(c, "scan.segments_scanned")
    put("storage.column.segments_pruned_frac", _ratio(pruned, pruned + scanned), "frac")
    put(
        "storage.column.code_space_filters_per_query",
        _ratio(_total(c, "scan.code_space_filters"), queries),
        "1/query",
    )
    put("txn.wal.fsyncs_per_commit", _ratio(_total(c, "wal.fsyncs"), commits), "1/commit")
    put("txn.wal.appends_per_commit", _ratio(_total(c, "wal.appends"), commits), "1/commit")
    put("txn.wal.group_commit_batch_mean", _hist_mean(h, "wal.group_commit_batch"), "count")
    put("txn.manager.abort_frac", _ratio(aborts, commits + aborts), "frac")
    put(
        "txn.manager.conflicts_per_commit",
        _ratio(_total(c, "txn.conflicts"), commits),
        "1/commit",
    )
    put("sync.rows_per_call", _ratio(rec.sync_rows, len(rec.sync_wall_ns)), "rows")
    sync_ms = [
        percentile(r.rec.sync_wall_ns, 50) / 1e6 * r.scale
        for r in untraced
        if r.rec.sync_wall_ns
    ]
    put("sync.merge_p50_ms", median(sync_ms) if sync_ms else 0.0, "ms")
    put("sync.sim_us_per_row", _ratio(rec.sync_sim_us, rec.sync_rows), "us/row")

    raft = "repro.distributed.raft:"
    put(
        "distributed.raft.ticks_per_commit",
        _ratio(tracer.calls[raft + "RaftNode.tick"], cluster_commits),
        "1/commit",
    )
    put(
        "distributed.raft.heartbeats_per_commit",
        _ratio(_total(c, "raft.heartbeats"), cluster_commits),
        "1/commit",
    )
    put("distributed.raft.elections", _total(c, "raft.elections"), "count")
    put("distributed.raft.apply_batch_mean", _hist_mean(h, "raft.apply_batch_commands"), "count")
    put(
        "distributed.network.msgs_per_commit",
        _ratio(_total(c, "network.sent"), cluster_commits),
        "1/commit",
    )
    put(
        "distributed.network.advance_calls_per_commit",
        _ratio(tracer.span_calls("SimNetwork.advance"), cluster_commits),
        "1/commit",
    )
    put("distributed.network.dropped", _total(c, "network.dropped"), "count")
    put(
        "distributed.cluster.single_shard_frac",
        _ratio(_total(c, "commit.single_shard"), cluster_commits),
        "frac",
    )
    put("distributed.cluster.fanout_mean", _hist_mean(h, "commit.participant_fanout"), "count")
    put(
        "distributed.router.stale_retry_frac",
        _ratio(_total(c, "router.stale_retries"), _total(c, "router.routes")),
        "frac",
    )
    put("distributed.router.refreshes", _total(c, "router.refreshes"), "count")
    put(
        "distributed.replica.learner_batch_rows_mean",
        _ratio(
            tracer.sizes["repro.storage.delta_log:LogDeltaManager.append_batch_columns"],
            tracer.span_calls("ColumnarReplica.learner_apply_batch"),
        ),
        "rows",
    )
    put(
        "distributed.replica.lag_ts_mean",
        statistics.fmean(rec.lags) if cluster_commits else 0.0,
        "ts",
    )

    put(
        "driver.trace_overhead_frac",
        median([r.run_raw_s * r.scale for r in traced])
        / median([r.run_raw_s * r.scale for r in untraced])
        - 1.0,
        "frac",
    )
    put("driver.calib_s", median([r.calib_s for r in untraced]), "s")
    put("driver.raw_wall_s", median([r.run_raw_s for r in untraced]), "s")
    put("driver.rep_spread", iqr_over_median([r.ops_per_s() for r in untraced]), "frac")
    put("driver.txn_p95_ms", median([r.wall_ms("txn", 95) for r in untraced]), "ms")
    put("driver.query_p95_ms", median([r.wall_ms("query", 95) for r in untraced]), "ms")
    return out


def iqr_over_median(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    # Inclusive: a handful of repetitions must not extrapolate.
    q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return _ratio(q3 - q1, median(values))


def check_repeatable(reps: list[RepResult]) -> list[str]:
    """Simulated metrics and the analytical result digest must be
    identical on every repetition of one seed."""
    failures = []
    first = reps[0].rec
    want_sim, want_digest = sim_metrics(first), first.digest
    for i, rep in enumerate(reps[1:], start=1):
        if sim_metrics(rep.rec) != want_sim:
            failures.append(f"repetition {i}: simulated metrics differ from repetition 0")
        if rep.rec.digest != want_digest:
            failures.append(f"repetition {i}: result digest differs from repetition 0")
    return failures
