"""The front door: multiplex many sessions over one engine.

:class:`FrontDoor` is the glue between the client tier and everything
built in earlier PRs: a scheduler decides the slot split and execution
mode per round (exactly like ``ScheduledWorkloadRunner``), the
:class:`AdmissionController` translates that split into per-class
backpressure, the :class:`GroupCommitTuner` retunes the WAL window from
the observed arrival rate, and queued operations consume their class's
simulated budget when their round comes.

Per-operation latency is measured on the simulated clock from *submit*
to *completion* — queue wait included — so admission control and slot
decisions show up in the tail, not just in throughput.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from ..common.metrics import LatencyRecorder
from ..distributed.router import Router
from ..engines.base import HTAPEngine
from ..obs import get_registry
from ..scheduler.resources import (
    ExecutionMode,
    ResourceAllocation,
    RoundMetrics,
    Scheduler,
    ScheduleTrace,
)
from ..txn.wal import WriteAheadLog
from .admission import AdmissionController, AdmissionDecision, AdmissionPolicy
from .group_commit import GroupCommitTuner
from .session import ClientSession, Operation


def resolve_wal(engine: HTAPEngine) -> WriteAheadLog | None:
    """Find the engine's tunable WAL, if it has one.

    Architectures (a)/(c)/(d) log locally (``engine.wal``); the
    distributed-replica architecture (b) replicates through consensus
    instead and has nothing to tune.
    """
    wal = getattr(engine, "wal", None)
    return wal if isinstance(wal, WriteAheadLog) else None


def resolve_router(engine: HTAPEngine) -> Router | None:
    """Mint this front door's own shard-map router, when the engine is
    distributed.

    The distributed-replica architecture (b) routes every keyed
    operation through a stateless router cache; each front door gets its
    *own* router (its own cache, its own staleness) exactly like one
    TiDB-server node.  Single-node architectures route nothing.
    """
    make = getattr(engine, "make_router", None)
    if make is None:
        return None
    router = make(f"frontdoor{next(_FRONTDOOR_IDS)}")
    return router if isinstance(router, Router) else None


_FRONTDOOR_IDS = itertools.count()


@dataclass(frozen=True)
class FrontDoorConfig:
    """Front-door knobs; defaults mirror the scheduled-runner bench."""

    round_slot_us: float = 4_000.0   # simulated budget per slot per round
    policy: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    group_commit_min: int = 1
    group_commit_max: int = 64
    target_fsyncs_per_round: int = 4


@dataclass
class FrontDoorReport:
    """What the front door saw over a run, per workload class."""

    completed: dict[str, int]
    admitted: dict[str, int]
    delayed: dict[str, int]
    shed: dict[str, int]
    latency_p50_us: dict[str, float]
    latency_p95_us: dict[str, float]
    latency_p99_us: dict[str, float]
    mean_freshness_lag: float
    plan_cache: dict[str, int]
    group_commit_size: int
    trace: ScheduleTrace
    #: Shard-map router cache stats (routes, refreshes, stale retries);
    #: None for single-node engines, which have no router.
    router: dict[str, float] | None = None


class FrontDoor:
    """Session multiplexer: queues in, scheduled rounds out."""

    def __init__(
        self,
        engine: HTAPEngine,
        scheduler: Scheduler,
        config: FrontDoorConfig | None = None,
    ):
        self.engine = engine
        self.scheduler = scheduler
        self.config = config or FrontDoorConfig()
        self.router = resolve_router(engine)
        labels = {"engine": engine.info.name}
        self.admission = AdmissionController(self.config.policy, labels=labels)
        self.tuner = GroupCommitTuner(
            resolve_wal(engine),
            min_batch=self.config.group_commit_min,
            max_batch=self.config.group_commit_max,
            target_fsyncs_per_round=self.config.target_fsyncs_per_round,
            labels=labels,
        )
        self.sessions: list[ClientSession] = []
        self.queues: dict[str, deque[Operation]] = {
            cls: deque() for cls in AdmissionController.WORKLOAD_CLASSES
        }
        self.latency: dict[str, LatencyRecorder] = {
            cls: LatencyRecorder()
            for cls in AdmissionController.WORKLOAD_CLASSES
        }
        self.completed = {
            cls: 0 for cls in AdmissionController.WORKLOAD_CLASSES
        }
        self.trace = ScheduleTrace()
        self._arrivals = {
            cls: 0 for cls in AdmissionController.WORKLOAD_CLASSES
        }
        self._last: RoundMetrics | None = None
        self._lags: list[float] = []
        reg = get_registry()
        self._m_opened = reg.counter("session.opened", **labels)
        self._m_completed = {
            cls: reg.counter("session.completed", workload=cls, **labels)
            for cls in AdmissionController.WORKLOAD_CLASSES
        }
        self._m_depth = {
            cls: reg.gauge("session.queue_depth", workload=cls, **labels)
            for cls in AdmissionController.WORKLOAD_CLASSES
        }
        self._m_latency = {
            cls: reg.histogram("session.latency_us", workload=cls, **labels)
            for cls in AdmissionController.WORKLOAD_CLASSES
        }

    # ----------------------------------------------------------- client side

    def open_session(self, workload_class: str = "oltp") -> ClientSession:
        if workload_class not in self.queues:
            raise ValueError(f"unknown workload class {workload_class!r}")
        session = ClientSession(self, len(self.sessions), workload_class)
        self.sessions.append(session)
        self._m_opened.inc()
        return session

    def submit(
        self,
        session: ClientSession,
        fn: Callable[[], Any],
        kind: str,
    ) -> AdmissionDecision:
        """Admission-checked enqueue; SHED ops never enter the queue."""
        queue = self.queues.get(kind)
        if queue is None:
            raise ValueError(f"unknown workload class {kind!r}")
        session.submitted += 1
        decision = self.admission.admit(kind, len(queue))
        if decision is AdmissionDecision.SHED:
            session.shed += 1
            return decision
        queue.append(
            Operation(
                kind=kind,
                run=fn,
                submitted_at=self.engine.cost.now_us(),
                session_id=session.session_id,
                delayed=decision is AdmissionDecision.DELAY,
            )
        )
        self._arrivals[kind] += 1
        self._m_depth[kind].set(float(len(queue)))
        return decision

    def queue_depth(self, workload_class: str) -> int:
        return len(self.queues[workload_class])

    # ------------------------------------------------------------ scheduling

    def _drain(self, kind: str, budget_us: float) -> tuple[int, float]:
        """Run queued ops of one class until its budget is spent."""
        engine = self.engine
        queue = self.queues[kind]
        recorder = self.latency[kind]
        done = 0
        busy = 0.0
        while queue and busy < budget_us:
            op = queue.popleft()
            before = engine.cost.now_us()
            op.run()
            after = engine.cost.now_us()
            busy += after - before
            recorder.record(after - op.submitted_at)
            self._m_latency[kind].observe(after - op.submitted_at)
            done += 1
        self.completed[kind] += done
        self._m_completed[kind].inc(done)
        self._m_depth[kind].set(float(len(queue)))
        return done, busy

    def run_round(self) -> RoundMetrics:
        """One scheduling round over whatever the sessions queued."""
        cfg = self.config
        engine = self.engine
        alloc: ResourceAllocation = self.scheduler.allocate(self._last)
        self.admission.on_allocation(alloc)
        engine.read_fresh = alloc.mode is ExecutionMode.SHARED
        # Retune group commit from the arrivals the last window saw.
        self.tuner.observe_round(self._arrivals["oltp"])
        self._arrivals = {cls: 0 for cls in self._arrivals}
        if alloc.run_sync:
            engine.force_sync()
        tp_done, tp_busy = self._drain("oltp", alloc.oltp_slots * cfg.round_slot_us)
        ap_done, ap_busy = self._drain("olap", alloc.olap_slots * cfg.round_slot_us)
        lag = engine.image_freshness_lag()
        self._lags.append(float(lag))
        metrics = RoundMetrics(
            oltp_completed=tp_done,
            olap_completed=ap_done,
            oltp_backlog=len(self.queues["oltp"]),
            olap_backlog=len(self.queues["olap"]),
            freshness_lag=lag,
            oltp_busy_us=tp_busy,
            olap_busy_us=ap_busy,
            sync_ran=alloc.run_sync,
        )
        self.trace.record(alloc, metrics)
        self._last = metrics
        return metrics

    def run_rounds(self, n: int) -> FrontDoorReport:
        for _ in range(n):
            self.run_round()
        return self.report()

    def drain_all(self, max_rounds: int = 1_000) -> int:
        """Keep scheduling until every queue is empty; returns rounds run."""
        rounds = 0
        while any(self.queues.values()) and rounds < max_rounds:
            self.run_round()
            rounds += 1
        return rounds

    def report(self) -> FrontDoorReport:
        classes = AdmissionController.WORKLOAD_CLASSES
        return FrontDoorReport(
            completed=dict(self.completed),
            admitted=dict(self.admission.admitted),
            delayed=dict(self.admission.delayed),
            shed=dict(self.admission.shed),
            latency_p50_us={c: self.latency[c].p50() for c in classes},
            latency_p95_us={c: self.latency[c].p95() for c in classes},
            latency_p99_us={c: self.latency[c].p99() for c in classes},
            mean_freshness_lag=(
                sum(self._lags) / len(self._lags) if self._lags else 0.0
            ),
            plan_cache=dict(self.engine.plan_cache.stats),
            group_commit_size=self.tuner.applied_size,
            trace=self.trace,
            router=self.router.stats if self.router is not None else None,
        )
