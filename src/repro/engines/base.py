"""The common engine surface all four architectures implement.

An :class:`HTAPEngine` owns a clock, a cost model, a busy-time ledger,
and a planner/executor pair over its architecture-specific
TableAccess adapters.  Uniform API:

* ``create_table(schema)`` then ``session()`` for interactive OLTP
  (read / insert / update / delete / commit with snapshot semantics as
  the architecture provides them);
* ``query(sql_or_Query)`` for OLAP through the cost-based optimizer;
* ``sync()`` to run the architecture's data-synchronization technique;
* ``freshness_lag()`` / ``memory_report()`` / ``tp_nodes()`` /
  ``ap_nodes()`` for the benches.

Engines charge simulated time to the shared clock (latency) and busy
time to named nodes in the ledger (throughput/makespan); the Table 1
bench derives every metric from those two ledgers.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any

import dataclasses
from typing import Sequence

from ..common.clock import LogicalClock, Timestamp
from ..common.cost import CostModel
from ..common.errors import QueryError, TransactionAborted
from ..common.predicate import ALWAYS_TRUE, Predicate, bind_predicate
from ..common.types import Key, Row, Schema
from ..distributed.cluster import BusyLedger
from ..obs import SimTracer, get_registry
from ..query.access import AccessPath
from ..query.ast import Query, QueryResult
from ..query.executor import Executor
from ..query.optimizer import Planner, PhysicalPlan
from ..query.parser import parse
from ..query.plan_cache import CachedPlan, PlanCache, param_signature
from ..query.scan_cache import ScanCache


@dataclass
class EngineInfo:
    name: str
    category: str          # the Figure 1 panel: "a" | "b" | "c" | "d"
    description: str


class EngineSession(abc.ABC):
    """One interactive transaction against an engine.

    Implementations must set ``finished = True`` in commit/abort so the
    context manager does not double-finish an explicitly closed session.
    """

    finished: bool = False

    @abc.abstractmethod
    def read(self, table: str, key: Key) -> Row | None: ...

    @abc.abstractmethod
    def scan(self, table: str, predicate: Predicate = ALWAYS_TRUE) -> list[Row]: ...

    @abc.abstractmethod
    def insert(self, table: str, row: Row) -> Key: ...

    @abc.abstractmethod
    def update(self, table: str, row: Row) -> None: ...

    @abc.abstractmethod
    def delete(self, table: str, key: Key) -> None: ...

    @abc.abstractmethod
    def commit(self) -> Timestamp: ...

    @abc.abstractmethod
    def abort(self) -> None: ...

    def _validate_writes(self, txn_id: int, writes, exists) -> None:
        """Commit-time validation for sessions that buffer ``(kind,
        table, key, row)`` writes: against committed state as
        ``exists(table, key)`` reports it, an insert needs its key
        absent and an update or delete needs it present.  Only a key's
        first write is checked — later ones were staged against this
        transaction's own view.  On a lost race the session aborts
        before anything is logged or installed."""
        seen: set[tuple[str, Key]] = set()
        for kind, table, key, _row in writes:
            if (table, key) in seen:
                continue
            seen.add((table, key))
            if exists(table, key) == (kind == "insert"):
                self.abort()
                raise TransactionAborted(
                    txn_id,
                    f"{kind} of key {key!r} in {table!r} lost to a concurrent commit",
                )

    def __enter__(self) -> "EngineSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.finished:
            return
        if exc_type is None:
            self.commit()
        else:
            self.abort()


class HTAPEngine(abc.ABC):
    """Base class for the four Figure 1 architectures."""

    info: EngineInfo

    def __init__(self, cost: CostModel | None = None, clock: LogicalClock | None = None):
        self.cost = cost or CostModel()
        self.clock = clock or LogicalClock()
        self.ledger = BusyLedger()
        self._catalog: dict[str, Any] = {}
        self._planner: Planner | None = None
        self._executor: Executor | None = None
        self.queries_run = 0
        #: When False, analytical scans skip delta patching (isolated
        #: execution mode — faster and staler); schedulers toggle this.
        self.read_fresh = True
        #: Sim-time tracer over this engine's clock; disabled (zero
        #: overhead) until a bench or test calls ``tracer.enable()``.
        self.tracer = SimTracer(self.cost.clock)
        #: MVCC-aware snapshot-scan cache shared by this engine's
        #: executor, fenced by the adapters' ``cache_token()`` alone;
        #: no write path touches it.
        self.scan_cache = ScanCache(labels={"engine": self.info.name})
        #: Parameterized plan cache for prepared statements; fenced on
        #: per-table stats epochs and invalidated eagerly on DDL and
        #: sync/merge.
        self.plan_cache = PlanCache(labels={"engine": self.info.name})
        labels = {"engine": self.info.name}
        registry = get_registry()
        self._m_tp_commits = registry.counter("engine.tp_commits", **labels)
        self._m_tp_aborts = registry.counter("engine.tp_aborts", **labels)
        self._m_ap_queries = registry.counter("engine.ap_queries", **labels)
        self._m_sync_calls = registry.counter("engine.sync_calls", **labels)
        self._m_sync_rows = registry.counter("engine.sync_rows", **labels)

    # ------------------------------------------------------------- schema

    @abc.abstractmethod
    def create_table(self, schema: Schema) -> None: ...

    @abc.abstractmethod
    def session(self) -> EngineSession: ...

    def sync(self) -> int:
        """Run the architecture's DS technique; returns rows moved.

        Concrete engines implement :meth:`_sync`; this wrapper charges
        the shared observability layer (sync call/row counters and a
        tracing span) uniformly across all four architectures.
        """
        with self.tracer.span("engine.sync", engine=self.info.name):
            moved = self._sync()
        # Sync replaced the AP image: every batch cached off the old one
        # is dead by its token already, and dropping them here frees
        # their memory at once.  A no-op sync moved no token, so the
        # cache stays warm.
        if moved:
            self.scan_cache.invalidate()
            # Merge/sync replaces the columnar image the cached plans
            # were costed against; drop them with the batches.
            self.plan_cache.invalidate()
        self._m_sync_calls.inc()
        if moved:
            self._m_sync_rows.inc(moved)
        return moved

    @abc.abstractmethod
    def _sync(self) -> int:
        """Architecture-specific data synchronization; returns rows moved."""

    @abc.abstractmethod
    def force_sync(self) -> int:
        """Bring the whole columnar image up to date regardless of
        thresholds; returns rows moved."""

    @abc.abstractmethod
    def freshness_lag(self) -> int:
        """Commit-ts distance between OLTP truth and the AP read path."""

    def image_freshness_lag(self) -> int:
        """Staleness of the columnar *image* itself, ignoring whether
        queries currently patch fresh data in (used by schedulers)."""
        saved = self.read_fresh
        self.read_fresh = False
        try:
            return self.freshness_lag()
        finally:
            self.read_fresh = saved

    @abc.abstractmethod
    def memory_report(self) -> dict[str, int]:
        """Bytes per component (row store, column store, delta, ...)."""

    def tp_nodes(self) -> list[str]:
        """Ledger nodes that serve OLTP (isolation is measured here)."""
        return ["node0"]

    def ap_nodes(self) -> list[str]:
        return ["node0"]

    # ------------------------------------------------------------- catalog

    @property
    def catalog(self) -> dict[str, Any]:
        return self._catalog

    def _register_adapter(self, table: str, adapter: Any) -> None:
        self._catalog[table] = adapter
        self._planner = None
        self._executor = None
        # DDL: plans compiled against the old catalog are void.
        self.plan_cache.invalidate()

    @property
    def planner(self) -> Planner:
        if self._planner is None:
            self._planner = Planner(self._catalog, self.cost)
        return self._planner

    @property
    def executor(self) -> Executor:
        if self._executor is None:
            self._executor = Executor(
                self._catalog, self.cost, scan_cache=self.scan_cache
            )
        return self._executor

    # ------------------------------------------------------------- OLAP

    def query(
        self,
        query: str | Query,
        force_path: AccessPath | None = None,
        params: Sequence[Any] = (),
    ) -> QueryResult:
        """Plan + execute; AP busy time lands on the engine's AP nodes.

        This is the *cold* path: every call parses and optimizes.
        Prepared statements go through :meth:`execute_prepared`, which
        serves repeat shapes from the plan cache.  ``params`` binds
        ``?`` placeholders positionally.
        """
        logical = parse(query) if isinstance(query, str) else query
        if logical.param_count > 0 or params:
            if logical.param_count != len(params):
                raise QueryError(
                    f"statement has {logical.param_count} parameters, "
                    f"{len(params)} bound"
                )
            logical = dataclasses.replace(
                logical,
                where=bind_predicate(logical.where, params),
                param_count=0,
            )
        planner = (
            self.planner
            if force_path is None
            else Planner(self._catalog, self.cost, force_path=force_path)
        )
        return self.run_plan(planner.plan(logical))

    def run_plan(self, plan: PhysicalPlan) -> QueryResult:
        """Execute an already-built plan with uniform AP accounting.

        Both the cold path and the plan-cache hit path funnel through
        here, so a cached plan costs exactly what the same plan costs
        cold — planning itself charges no simulated time.
        """
        before = self.cost.now_us()
        with self.tracer.span("engine.query", engine=self.info.name):
            result = self.executor.execute(plan)
        spent = self.cost.now_us() - before
        ap_nodes = self.ap_nodes()
        for node in ap_nodes:
            self.ledger.charge(node, spent / len(ap_nodes))
        self.queries_run += 1
        self._m_ap_queries.inc()
        return result

    def _stats_epoch_of(self, table: str) -> int | None:
        """Current stats epoch, or None when the adapter has no epoch
        protocol (which opts its statements out of plan caching)."""
        adapter = self._catalog[table]
        epoch_fn = getattr(adapter, "stats_epoch", None)
        return None if epoch_fn is None else epoch_fn()

    def execute_prepared(
        self, statement: str, params: Sequence[Any] = ()
    ) -> QueryResult:
        """The prepared-statement path: parse/optimize once per
        (statement, param-type signature, stats epoch), then re-execute
        the cached plan with each call's parameters rebound."""
        signature = param_signature(params)
        entry = self.plan_cache.lookup(
            statement, signature, self._stats_epoch_of
        )
        if entry is not None:
            if entry.param_count != len(params):
                raise QueryError(
                    f"statement has {entry.param_count} parameters, "
                    f"{len(params)} bound"
                )
            return self.run_plan(entry.bind(params))
        template = parse(statement)
        if template.param_count != len(params):
            raise QueryError(
                f"statement has {template.param_count} parameters, "
                f"{len(params)} bound"
            )
        # Bind-peek: plan with this call's values so selectivity
        # estimation sees concrete literals.
        bound = dataclasses.replace(
            template,
            where=bind_predicate(template.where, params),
            param_count=0,
        )
        plan = self.planner.plan(bound)
        tables = tuple(bound.tables)
        # Epochs are read *after* planning: plan() pulled stats through
        # the same StatsCache, so these are exactly the versions the
        # plan was costed against.
        stats_token = tuple(self._stats_epoch_of(t) for t in tables)
        if None not in stats_token:
            # A table without the epoch protocol cannot be fenced, so
            # statements touching it are never cached.
            self.plan_cache.store(
                statement,
                signature,
                CachedPlan(
                    plan=plan,
                    template_predicates=self.planner.scan_predicates(template),
                    param_count=len(params),
                    tables=tables,
                    stats_token=stats_token,
                ),
            )
        return self.run_plan(plan)

    def explain(self, query: str | Query) -> str:
        logical = parse(query) if isinstance(query, str) else query
        return self.planner.plan(logical).explain()

    # ------------------------------------------------------------- OLTP sugar

    def insert(self, table: str, row: Row) -> Timestamp:
        with self.session() as s:
            s.insert(table, row)
        return self.clock.now()

    def update(self, table: str, row: Row) -> Timestamp:
        with self.session() as s:
            s.update(table, row)
        return self.clock.now()

    def delete(self, table: str, key: Key) -> Timestamp:
        with self.session() as s:
            s.delete(table, key)
        return self.clock.now()

    def load_rows(self, table: str, rows: list[Row], batch: int = 1000) -> None:
        """Bulk load used by benchmark data generators."""
        for start in range(0, len(rows), batch):
            with self.session() as s:
                for row in rows[start : start + batch]:
                    s.insert(table, row)

    def bulk_load(self, table: str, rows: list[Row]) -> None:
        """Load fresh rows on the fast path: one WAL batch and one delta
        batch for the whole set.

        The base implementation falls back to row-at-a-time sessions;
        engines override with their architecture's true bulk ingest.
        The rows must be new (no dup-key checking happens here).
        """
        self.load_rows(table, rows)

    # ------------------------------------------------------------- metrics

    def memory_bytes(self) -> int:
        return sum(self.memory_report().values())

    def reset_meters(self) -> None:
        self.ledger.reset()
