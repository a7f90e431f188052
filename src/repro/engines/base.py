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

What is identical across architectures lives here once, so an engine
module says only what the paper says differs.  An engine supplies:

* its storage layout: ``create_table`` plus one
  :class:`EngineTableAccess` per table (``schema`` / ``stats`` /
  ``cache_token`` / the three scan paths / the two planner hints);
* its data synchronization: ``_sync``, ``force_sync``,
  ``freshness_lag``, ``bulk_load``, ``memory_report``;
* its transactions.  All four share :class:`WriteSetSession`: reads
  see the engine's committed state under the transaction's own writes,
  and writes are buffered until commit.  The session records its read
  ts (``clock.now()`` at begin) and passes it to every hook, so an
  engine supplies ``_schema_of(table)``, ``_read_committed(table, key,
  read_ts)``, ``_scan_committed(table, predicate, read_ts)`` and
  ``_commit_writes(txn_id, writes, read_ts)`` — and (b), whose reads
  cross the network, a batched ``_read_committed_many(pairs)``.  (a)
  reads its MVCC snapshot at that ts; (b), (c), (d) read the latest
  committed state and ignore it;
* one commit rule, :func:`~repro.txn.transaction.first_committer_wins`
  at the read ts.  (a), (c) and (d), whose commit is a redo log on one
  node, get it from :class:`LoggedEngine` (validation, WAL, one
  effective write per key, counters, ``recover``) and supply
  ``_install(kind, table, key, row, ts)``; (b)'s shards apply it in
  their state machines.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass
from typing import Any

import dataclasses
from typing import Iterable, Sequence

from ..common.clock import LogicalClock, Timestamp
from ..common.cost import CostModel
from ..common.errors import (
    DuplicateKeyError,
    KeyNotFoundError,
    QueryError,
    TransactionAborted,
    TransactionError,
    WriteConflictError,
)
from ..common.predicate import ALWAYS_TRUE, Predicate, bind_predicate
from ..common.types import Key, Row, Schema
from ..distributed.cluster import BusyLedger
from ..obs import SimTracer, get_registry
from ..query.access import AccessPath, TableAccess
from ..query.ast import Query, QueryResult
from ..query.executor import Executor
from ..query.optimizer import Planner, PhysicalPlan
from ..query.parser import parse
from ..query.plan_cache import CachedPlan, PlanCache, param_signature
from ..query.scan_cache import ScanCache
from ..txn.transaction import coalesce_writes, first_committer_wins
from ..txn.wal import WalKind, WriteAheadLog

_WAL_KIND = {
    "insert": WalKind.INSERT,
    "update": WalKind.UPDATE,
    "delete": WalKind.DELETE,
}


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

    def prefetch(self, pairs: Iterable[tuple[str, Key]]) -> None:
        """BatchGet: warm this transaction's coming reads of ``pairs``
        (``(table, key)``) in one request.  A hint only — reads return
        what they would have returned without it; an engine with no
        round trip to save ignores it."""

    def __enter__(self) -> "EngineSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.finished:
            return
        if exc_type is None:
            self.commit()
        else:
            self.abort()


class WriteSetSession(EngineSession):
    """The transaction of all four engines: reads see the engine's
    committed state at :attr:`read_ts` under this transaction's own
    writes; writes are staged as ``(kind, table, key, row)`` in order,
    uncoalesced, and handed to the engine at commit.  The engine
    validates them before anything is logged or installed; an insert's
    key meets committed state only there (``DuplicateKeyAborted``), as
    TiDB checks an optimistic transaction's unique keys.  A commit it
    refuses with :class:`TransactionAborted` counts one
    ``engine.tp_aborts``, and one ``txn.conflicts`` too when it lost
    first-committer-wins (:class:`WriteConflictError`); a client's own
    :meth:`abort` counts one ``engine.tp_rollbacks``.

    :meth:`prefetch` keeps what the engine's BatchGet returns in a read
    set, which a point read consults after the transaction's own writes
    (a scan never does)."""

    def __init__(self, engine: "HTAPEngine", txn_id: int):
        self._engine = engine
        self.txn_id = txn_id
        #: The commit ts this transaction reads at: the newest commit
        #: when it began.
        self.read_ts = engine.clock.now()
        self._writes: list[tuple[str, str, Key, Row | None]] = []
        self._view: dict[tuple[str, Key], Row | None] = {}
        self._reads: dict[tuple[str, Key], Row | None] = {}

    def _require_open(self) -> None:
        if self.finished:
            raise TransactionError(f"transaction {self.txn_id} already finished")

    def read(self, table: str, key: Key) -> Row | None:
        self._require_open()
        pair = (table, key)
        if pair in self._view:
            return self._view[pair]
        if pair in self._reads:
            return self._reads[pair]
        return self._engine._read_committed(table, key, self.read_ts)

    def prefetch(self, pairs: Iterable[tuple[str, Key]]) -> None:
        if self.finished:
            return
        view, reads = self._view, self._reads
        reads.update(
            self._engine._read_committed_many(
                p for p in pairs if p not in view and p not in reads
            )
        )

    def scan(self, table: str, predicate: Predicate = ALWAYS_TRUE) -> list[Row]:
        self._require_open()
        schema = self._engine._schema_of(table)
        rows = {
            schema.key_of(r): r
            for r in self._engine._scan_committed(table, predicate, self.read_ts)
        }
        for (t, key), row in self._view.items():
            if t != table:
                continue
            if row is not None and predicate.matches(row, schema):
                rows[key] = row
            else:  # deleted, or updated out of the predicate
                rows.pop(key, None)
        return list(rows.values())

    def _stage(self, kind: str, table: str, key: Key, row: Row | None) -> None:
        """Stage one write.  An insert needs ``key`` absent from this
        transaction's own writes (the engine checks committed state at
        commit); an update or delete needs it present in the view."""
        if kind == "insert":
            if self._view.get((table, key)) is not None:
                raise DuplicateKeyError(f"key {key!r} already exists in {table!r}")
        elif self.read(table, key) is None:
            raise KeyNotFoundError(f"key {key!r} not found in {table!r}")
        self._writes.append((kind, table, key, row))
        self._view[(table, key)] = row

    def insert(self, table: str, row: Row) -> Key:
        self._require_open()
        schema = self._engine._schema_of(table)
        row = schema.validate_row(row)
        key = schema.key_of(row)
        self._stage("insert", table, key, row)
        return key

    def update(self, table: str, row: Row) -> None:
        self._require_open()
        schema = self._engine._schema_of(table)
        row = schema.validate_row(row)
        self._stage("update", table, schema.key_of(row), row)

    def delete(self, table: str, key: Key) -> None:
        self._stage("delete", table, key, None)

    def commit(self) -> Timestamp:
        self._require_open()
        self.finished = True
        engine = self._engine
        try:
            return engine._commit_writes(self.txn_id, self._writes, self.read_ts)
        except TransactionAborted as refused:
            engine._abort_txn(self.txn_id)
            engine._m_tp_aborts.inc()
            if isinstance(refused, WriteConflictError):
                engine._m_conflicts.inc()
            raise

    def abort(self) -> None:
        self._require_open()
        self.finished = True
        self._engine._abort_txn(self.txn_id)
        self._engine._m_tp_rollbacks.inc()


class EngineTableAccess(TableAccess):
    """A catalog adapter bound to one table of one engine."""

    def __init__(self, engine: "HTAPEngine", table: str):
        super().__init__()
        self._engine = engine
        self._table = table


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
        self._m_tp_rollbacks = registry.counter("engine.tp_rollbacks", **labels)
        self._m_conflicts = registry.counter("txn.conflicts", **labels)
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

    def _read_committed_many(
        self, pairs: Iterable[tuple[str, Key]]
    ) -> dict[tuple[str, Key], Row | None]:
        """The BatchGet behind :meth:`WriteSetSession.prefetch`.  A
        local engine has no round trip to save: it fetches nothing (and
        never iterates ``pairs``), so its reads, and what they charge,
        stay as they were."""
        return {}

    def _abort_txn(self, txn_id: int) -> None:
        """End a transaction without committing it.  A write set
        installs nothing before commit, so there is nothing to undo."""

    def tp_nodes(self) -> list[str]:
        """Ledger nodes that serve OLTP (isolation is measured here)."""
        return ["node0"]

    def ap_nodes(self) -> list[str]:
        return ["node0"]

    # ------------------------------------------------------------- catalog

    @property
    def catalog(self) -> dict[str, Any]:
        return self._catalog

    def _register_adapter(self, table: str, adapter: TableAccess) -> None:
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
        logical = self._bound(parse(query) if isinstance(query, str) else query, params)
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

    @staticmethod
    def _bound(template: Query, params: Sequence[Any]) -> Query:
        """``template`` with ``params`` in its ``?`` placeholders."""
        if template.param_count != len(params):
            raise QueryError(
                f"statement has {template.param_count} parameters, {len(params)} bound"
            )
        if not params:
            return template
        return dataclasses.replace(
            template, where=bind_predicate(template.where, params), param_count=0
        )

    def _stats_epoch_of(self, table: str) -> int:
        return self._catalog[table].stats_epoch()

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
        if entry is not None:  # stored under this signature: the arity matches
            return self.run_plan(entry.bind(params))
        template = parse(statement)
        # Bind-peek: plan with this call's values so selectivity
        # estimation sees concrete literals.
        bound = self._bound(template, params)
        plan = self.planner.plan(bound)
        tables = tuple(bound.tables)
        # Epochs are read *after* planning: plan() pulled stats through
        # the same StatsCache, so these are exactly the versions the
        # plan was costed against.
        self.plan_cache.store(
            statement,
            signature,
            CachedPlan(
                plan=plan,
                template_predicates=self.planner.scan_predicates(template),
                param_count=len(params),
                tables=tables,
                stats_token=tuple(self._stats_epoch_of(t) for t in tables),
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


class LoggedEngine(HTAPEngine):
    """What (a), (c) and (d) share: a single-node redo log.  Commit
    validates the staged writes (:func:`first_committer_wins`), then
    logs and installs one effective write per key
    (:func:`coalesce_writes`) under one BEGIN/COMMIT pair; recovery
    replays the same log through the same :meth:`_install`."""

    def __init__(
        self, cost: CostModel | None, clock: LogicalClock | None, group_commit_size: int
    ):
        super().__init__(cost, clock)
        self.wal = WriteAheadLog(
            cost=self.cost,
            group_commit_size=group_commit_size,
            labels={"engine": self.info.name},
        )
        self.commits = 0
        self._next_txn_id = 1
        #: txn id -> read ts of every open session.
        self._open: dict[int, Timestamp] = {}
        #: table -> key -> newest commit ts, while a session is open.
        self._written: dict[str, dict[Key, Timestamp]] = {}

    @abc.abstractmethod
    def _install(
        self, kind: str, table: str, key: Key, row: Row | None, ts: Timestamp
    ) -> None:
        """Apply one logged ``"insert"`` / ``"update"`` / ``"delete"``.
        ``row`` is the tuple ``Schema.validate_row`` returned when the
        session staged it, so the store does not check it again."""

    @abc.abstractmethod
    def _install_batch(self, table: str, rows: list[Row], ts: Timestamp) -> None:
        """Apply :meth:`bulk_load`'s fresh, already validated rows."""

    def _recovered(self) -> None:
        """Called once the redo pass is through (nothing to do here)."""

    @classmethod
    def recover(
        cls,
        wal: WriteAheadLog,
        schemas: list[Schema],
        include_unforced: bool = False,
        **kwargs,
    ) -> "LoggedEngine":
        """Rebuild an engine from a crashed instance's redo log:
        :meth:`WriteAheadLog.redo` replayed through :meth:`_install`."""
        engine = cls(**kwargs)
        for schema in schemas:
            engine.create_table(schema)
        for record in wal.redo(include_unforced):
            engine.clock.advance_to(record.commit_ts)
            engine._install(
                record.kind.value, record.table, record.key, record.row, record.commit_ts
            )
        engine._recovered()
        return engine

    def _allocate_txn_id(self) -> int:
        txn_id = self._next_txn_id
        self._next_txn_id += 1
        return txn_id

    def session(self) -> EngineSession:
        session = WriteSetSession(self, self._allocate_txn_id())
        self._open[session.txn_id] = session.read_ts
        return session

    @functools.cached_property
    def _tp_node(self) -> str:
        """The one node a single-node engine's transactions run on."""
        return self.tp_nodes()[0]

    def _charged(self, fn, *args):
        """``fn(*args)`` with its simulated cost booked to the TP node."""
        now = self.cost.now_us
        before = now()
        try:
            return fn(*args)
        finally:
            self.ledger.charge(self._tp_node, now() - before)

    def _stamps(self) -> dict[str, dict[Key, Timestamp]] | None:
        """The map a commit stamps its keys in; None, and the map cleared,
        when no session is open (a later one reads at a newer ts)."""
        if self._open:
            return self._written
        self._written.clear()
        return None

    def _commit_writes(self, txn_id: int, writes, read_ts: Timestamp) -> Timestamp:
        # An insert's key is probed with a charged point read.  An update
        # or delete was staged on a present key; a delete since is stamped.
        refused = first_committer_wins(
            txn_id, writes, read_ts, self._written,
            lambda kind, table, key: kind != "insert"
            or self._read_committed(table, key, read_ts) is None,
        )
        if refused is not None:
            raise refused
        self._open.pop(txn_id, None)
        stamps = self._stamps()
        before = self.cost.now_us()
        commit_ts = self.clock.tick()
        self.wal.append(txn_id, WalKind.BEGIN)
        for kind, table, key, row in coalesce_writes(writes):
            self.wal.append(txn_id, _WAL_KIND[kind], table, key, row, commit_ts)
            self._install(kind, table, key, row, commit_ts)
            if stamps is not None:
                stamps.setdefault(table, {})[key] = commit_ts
        self.wal.append(txn_id, WalKind.COMMIT, commit_ts=commit_ts)
        self.commits += 1
        self._m_tp_commits.inc()
        self.ledger.charge(self._tp_node, self.cost.now_us() - before)
        return commit_ts

    def _abort_txn(self, txn_id: int) -> None:
        self._open.pop(txn_id, None)
        self._charged(self.wal.append, txn_id, WalKind.ABORT)

    def bulk_load(self, table: str, rows: list[Row]) -> None:
        """Fast load: one WAL batch and one :meth:`_install_batch` for
        the whole set, skipping the per-row session checks (rows must
        be fresh keys)."""
        if not rows:
            return
        schema = self._schema_of(table)
        rows = [schema.validate_row(r) for r in rows]
        stamps = self._stamps()
        before = self.cost.now_us()
        txn_id = self._allocate_txn_id()
        commit_ts = self.clock.tick()
        key_of = schema.key_of
        self.wal.append_batch(
            txn_id,
            [(WalKind.INSERT, table, key_of(row), row) for row in rows],
            commit_ts,
        )
        self._install_batch(table, rows, commit_ts)
        if stamps is not None:
            stamps.setdefault(table, {}).update(dict.fromkeys(map(key_of, rows), commit_ts))
        self.commits += 1
        self._m_tp_commits.inc()
        self.ledger.charge(self._tp_node, self.cost.now_us() - before)
