"""Workload runners: OLTP-only, OLAP-only, mixed, and scheduler-driven.

The measurement methodology behind every architecture bench:

* *latency* is simulated-clock delta per operation;
* *throughput* is ops / busy-ledger makespan over the nodes that serve
  the workload class (so scale-out and interference both show up);
* *freshness* is sampled at every analytical query;
* *isolation* compares a workload's throughput alone vs co-running
  (the §2.3(2) "performance degradation paid" practice).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engines.base import HTAPEngine
from ..scheduler.resources import (
    ExecutionMode,
    RoundMetrics,
    Scheduler,
    ScheduleTrace,
)
from .chbenchmark import QUERY_IDS, ChBenchmarkDriver
from .metrics import HtapRunMetrics
from .tpcc import TpccScale, TpccWorkload


@dataclass
class MixedRunConfig:
    n_transactions: int = 200
    n_queries: int = 12
    sync_every_txns: int = 50
    query_ids: list[str] = field(default_factory=lambda: list(QUERY_IDS))
    seed: int = 7


class MixedWorkloadRunner:
    """Interleaves TPC-C transactions with CH queries on one engine."""

    def __init__(self, engine: HTAPEngine, scale: TpccScale, config: MixedRunConfig | None = None):
        self.engine = engine
        self.scale = scale
        self.config = config or MixedRunConfig()
        self.workload = TpccWorkload(engine, scale, seed=self.config.seed)
        self.driver = ChBenchmarkDriver(engine)
        # Warm start: fold the initial load into the columnar side so the
        # first measured window reflects steady state, not load shape.
        engine.force_sync()

    # --------------------------------------------------------------- pure

    def run_oltp_only(self, n: int | None = None) -> HtapRunMetrics:
        n = n if n is not None else self.config.n_transactions
        engine = self.engine
        before = {node: engine.ledger.busy(node) for node in engine.tp_nodes()}
        new_orders_before = self.workload.counters.new_order
        synced = 0
        for i in range(n):
            self.workload.run_one()
            if (i + 1) % self.config.sync_every_txns == 0:
                engine.sync()
                synced += 1
        makespan = max(
            engine.ledger.busy(node) - before[node] for node in engine.tp_nodes()
        )
        return HtapRunMetrics(
            label=f"{engine.info.name}/oltp-only",
            tp_ops=n,
            tp_makespan_us=makespan,
            new_orders=self.workload.counters.new_order - new_orders_before,
        )

    def run_olap_only(self, n: int | None = None) -> HtapRunMetrics:
        n = n if n is not None else self.config.n_queries
        engine = self.engine
        before = {node: engine.ledger.busy(node) for node in engine.ap_nodes()}
        metrics = HtapRunMetrics(label=f"{engine.info.name}/olap-only")
        ids = self.config.query_ids
        for i in range(n):
            self.driver.run_query(ids[i % len(ids)])
            metrics.freshness_lags.append(engine.freshness_lag())
            metrics.ap_ops += 1
        metrics.ap_makespan_us = max(
            engine.ledger.busy(node) - before[node] for node in engine.ap_nodes()
        )
        return metrics

    # --------------------------------------------------------------- mixed

    def run_mixed(
        self,
        n_transactions: int | None = None,
        n_queries: int | None = None,
    ) -> HtapRunMetrics:
        """Interleave queries evenly through the transaction stream."""
        n_txn = n_transactions if n_transactions is not None else self.config.n_transactions
        n_q = n_queries if n_queries is not None else self.config.n_queries
        engine = self.engine
        nodes = set(engine.tp_nodes()) | set(engine.ap_nodes())
        before = {node: engine.ledger.busy(node) for node in nodes}
        new_orders_before = self.workload.counters.new_order
        metrics = HtapRunMetrics(label=f"{engine.info.name}/mixed")
        ids = self.config.query_ids
        query_every = max(1, n_txn // max(n_q, 1))
        q_done = 0
        for i in range(n_txn):
            self.workload.run_one()
            metrics.tp_ops += 1
            if (i + 1) % self.config.sync_every_txns == 0:
                engine.sync()
            if (i + 1) % query_every == 0 and q_done < n_q:
                self.driver.run_query(ids[q_done % len(ids)])
                metrics.freshness_lags.append(engine.freshness_lag())
                metrics.ap_ops += 1
                q_done += 1
        while q_done < n_q:
            self.driver.run_query(ids[q_done % len(ids)])
            metrics.freshness_lags.append(engine.freshness_lag())
            metrics.ap_ops += 1
            q_done += 1
        metrics.tp_makespan_us = max(
            engine.ledger.busy(node) - before.get(node, 0.0)
            for node in engine.tp_nodes()
        )
        metrics.ap_makespan_us = max(
            engine.ledger.busy(node) - before.get(node, 0.0)
            for node in engine.ap_nodes()
        )
        metrics.new_orders = self.workload.counters.new_order - new_orders_before
        return metrics


# ------------------------------------------------------------------ scheduled


@dataclass
class ScheduledRunConfig:
    rounds: int = 20
    round_slot_us: float = 4_000.0      # simulated budget per slot per round
    tp_arrivals_per_round: int = 40
    ap_arrivals_per_round: int = 2
    seed: int = 11


@dataclass
class ScheduledRunResult:
    trace: ScheduleTrace
    tp_completed: int = 0
    ap_completed: int = 0
    mean_lag: float = 0.0

    def combined_score(self, lag_target: float) -> float:
        """The adaptive objective: throughputs minus lag penalty."""
        lag_penalty = max(0.0, self.mean_lag / max(lag_target, 1.0) - 1.0)
        return self.tp_completed / 100.0 + self.ap_completed - lag_penalty


class ScheduledWorkloadRunner:
    """Drives an engine under a scheduler's allocations, in rounds.

    Each round the scheduler splits CPU slots between OLTP and OLAP;
    queued arrivals consume their side's simulated budget until it runs
    out (unfinished work stays in the backlog).  The scheduler also
    picks the execution mode (isolated/shared) and whether to sync.
    """

    def __init__(
        self,
        engine: HTAPEngine,
        scheduler: Scheduler,
        scale: TpccScale,
        config: ScheduledRunConfig | None = None,
    ):
        self.engine = engine
        self.scheduler = scheduler
        self.config = config or ScheduledRunConfig()
        self.workload = TpccWorkload(engine, scale, seed=self.config.seed)
        self.driver = ChBenchmarkDriver(engine)

    def run(self) -> ScheduledRunResult:
        cfg = self.config
        engine = self.engine
        trace = ScheduleTrace()
        tp_queue = 0
        ap_queue = 0
        last: RoundMetrics | None = None
        total_tp = 0
        total_ap = 0
        lags: list[float] = []
        q_index = 0
        for _round in range(cfg.rounds):
            alloc = self.scheduler.allocate(last)
            engine.read_fresh = alloc.mode is ExecutionMode.SHARED
            tp_queue += cfg.tp_arrivals_per_round
            ap_queue += cfg.ap_arrivals_per_round
            if alloc.run_sync:
                engine.force_sync()
            # OLTP side: consume the budget.
            tp_budget = alloc.oltp_slots * cfg.round_slot_us
            tp_done = 0
            tp_busy = 0.0
            while tp_queue > 0 and tp_busy < tp_budget:
                before = engine.cost.now_us()
                self.workload.run_one()
                tp_busy += engine.cost.now_us() - before
                tp_queue -= 1
                tp_done += 1
            # OLAP side.
            ap_budget = alloc.olap_slots * cfg.round_slot_us
            ap_done = 0
            ap_busy = 0.0
            while ap_queue > 0 and ap_busy < ap_budget:
                before = engine.cost.now_us()
                self.driver.run_query(QUERY_IDS[q_index % len(QUERY_IDS)])
                ap_busy += engine.cost.now_us() - before
                q_index += 1
                ap_queue -= 1
                ap_done += 1
            lag = engine.image_freshness_lag()
            lags.append(lag)
            last = RoundMetrics(
                oltp_completed=tp_done,
                olap_completed=ap_done,
                oltp_backlog=tp_queue,
                olap_backlog=ap_queue,
                freshness_lag=lag,
                oltp_busy_us=tp_busy,
                olap_busy_us=ap_busy,
                sync_ran=alloc.run_sync,
            )
            trace.record(alloc, last)
            total_tp += tp_done
            total_ap += ap_done
        engine.read_fresh = True
        return ScheduledRunResult(
            trace=trace,
            tp_completed=total_tp,
            ap_completed=total_ap,
            mean_lag=sum(lags) / len(lags) if lags else 0.0,
        )
