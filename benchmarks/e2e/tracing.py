"""Boundary tracing installed from the benchmark's own files.

Nothing under ``src/`` knows about this module.  :class:`Tracer` wraps
the public entry points of each layer (``LAYER_SPANS``) at run time so
that every call records a span — name, layer, wall-ns and simulated-µs
start/end, parent span, operation id — and wraps the ultra-hot calls
(``LAYER_COUNTS``) with a bare counter, because a span around each of
600k ``RaftNode.tick`` calls would cost more than the call.  Time spent
in a counted call stays in the self time of the span that made it.

A layer's *self* time is its spans' duration minus the part their child
spans cover, on each clock; the root span is the driver's measured
region, so the per-layer fractions sum to 1.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

#: layer -> "module:Class.method" (or "module:function") targets that
#: get a full span.  Layers are this repo's modules.
LAYER_SPANS: dict[str, list[str]] = {
    "session": [
        "repro.session.frontdoor:FrontDoor.open_session",
        "repro.session.frontdoor:FrontDoor.submit",
        "repro.session.frontdoor:FrontDoor.run_round",
        "repro.session.frontdoor:FrontDoor.drain_all",
        "repro.session.frontdoor:FrontDoor.report",
        "repro.session.admission:AdmissionController.admit",
        "repro.session.admission:AdmissionController.on_allocation",
        "repro.session.group_commit:GroupCommitTuner.observe_round",
        "repro.session.session:PreparedStatement.execute",
    ],
    "scheduler": [
        "repro.scheduler.workload_driven:WorkloadDrivenScheduler.allocate",
        "repro.scheduler.resources:ScheduleTrace.record",
    ],
    "query.parser": ["repro.query.parser:parse"],
    "query.optimizer": [
        "repro.query.optimizer:Planner.plan",
        "repro.query.optimizer:Planner.scan_predicates",
    ],
    "query.plan_cache": [
        "repro.query.plan_cache:PlanCache.lookup",
        "repro.query.plan_cache:PlanCache.store",
        "repro.query.plan_cache:PlanCache.invalidate",
        "repro.query.plan_cache:CachedPlan.bind",
    ],
    "query.scan_cache": [
        "repro.query.scan_cache:ScanCache.get",
        "repro.query.scan_cache:ScanCache.put",
        "repro.query.scan_cache:ScanCache.invalidate",
    ],
    "query.executor": ["repro.query.executor:Executor.execute"],
    "engines": [
        "repro.engines.base:HTAPEngine.query",
        "repro.engines.base:HTAPEngine.execute_prepared",
        "repro.engines.base:HTAPEngine.run_plan",
        "repro.engines.base:HTAPEngine.image_freshness_lag",
        "repro.engines.base:HTAPEngine.load_rows",
        # Every engine's bulk_load/freshness_lag, every EngineSession
        # subclass's operations and every *TableAccess adapter's scan
        # methods are added by _engine_targets().
    ],
    "txn.manager": [
        "repro.txn.transaction:TransactionManager.begin",
        "repro.txn.transaction:TransactionManager.commit",
        "repro.txn.transaction:TransactionManager.abort",
        "repro.txn.transaction:Transaction.read",
        "repro.txn.transaction:Transaction.scan",
        "repro.txn.transaction:Transaction.insert",
        "repro.txn.transaction:Transaction.update",
        "repro.txn.transaction:Transaction.delete",
    ],
    "txn.wal": [
        "repro.txn.wal:WriteAheadLog.append",
        "repro.txn.wal:WriteAheadLog.append_batch",
        "repro.txn.wal:WriteAheadLog.force",
        "repro.txn.wal:WriteAheadLog.set_group_commit_size",
    ],
    "storage.row": [
        "repro.storage.row_store:MVCCRowStore.install_insert",
        "repro.storage.row_store:MVCCRowStore.install_update",
        "repro.storage.row_store:MVCCRowStore.install_delete",
        "repro.storage.row_store:MVCCRowStore.scan",
        "repro.storage.row_store:MVCCRowStore.snapshot_rows",
        "repro.storage.row_store:MVCCRowStore.index_lookup_range",
        "repro.storage.disk_row_store:DiskRowStore.insert",
        "repro.storage.disk_row_store:DiskRowStore.update",
        "repro.storage.disk_row_store:DiskRowStore.delete",
        "repro.storage.disk_row_store:DiskRowStore.read",
        "repro.storage.disk_row_store:DiskRowStore.scan",
    ],
    "storage.column": [
        "repro.storage.column_store:ColumnStore.scan",
        "repro.storage.column_store:ColumnStore.append_rows",
        "repro.storage.column_store:ColumnStore.append_batch",
        "repro.storage.column_store:ColumnStore.delete_keys",
        "repro.storage.column_store:ColumnStore.delete_batch",
        "repro.storage.column_store:ColumnStore.get_row",
        "repro.storage.column_store:ColumnStore.compact",
        "repro.storage.column_store:ColumnStore.all_rows",
        "repro.storage.imcu:InMemoryColumnUnit.scan",
        "repro.storage.imcu:InMemoryColumnUnit.populate",
    ],
    "storage.delta": [
        "repro.storage.delta_store:InMemoryDeltaStore.record_insert",
        "repro.storage.delta_store:InMemoryDeltaStore.record_update",
        "repro.storage.delta_store:InMemoryDeltaStore.record_delete",
        "repro.storage.delta_store:InMemoryDeltaStore.record_insert_batch",
        "repro.storage.delta_store:InMemoryDeltaStore.record_delete_batch",
        "repro.storage.delta_store:InMemoryDeltaStore.effective_rows",
        "repro.storage.delta_store:InMemoryDeltaStore.drain_batch_up_to",
        "repro.storage.delta_store:InMemoryDeltaStore.drain_up_to",
        "repro.storage.delta_store:InMemoryDeltaStore.clear_batch",
        "repro.storage.delta_store:collapse_entries",
        "repro.storage.delta_log:LogDeltaManager.append_batch",
        "repro.storage.delta_log:LogDeltaManager.append_batch_columns",
        "repro.storage.delta_log:LogDeltaManager.seal",
        "repro.storage.delta_log:LogDeltaManager.effective_rows",
        "repro.storage.delta_log:LogDeltaManager.drain_files",
    ],
    # The data-synchronization technique of each architecture.  The
    # engines carry their own (propagation, L1/L2 merges, repopulation
    # calls); the stand-alone mergers in repro.sync are listed too.
    "sync": [
        "repro.engines.base:HTAPEngine.sync",
        "repro.engines.disk_row_imcs:DiskRowIMCSEngine._propagate",
        "repro.engines.column_delta:HanaTable.merge_l1_to_l2",
        "repro.engines.column_delta:HanaTable.merge_l2_to_main",
        "repro.sync.delta_merge:InMemoryDeltaMerger.merge",
        "repro.sync.log_merge:LogDeltaMerger.merge",
        "repro.sync.rebuild:ColumnStoreRebuilder.rebuild",
    ],
    "distributed.cluster": [
        "repro.distributed.cluster:DistributedCluster.execute_transaction",
        "repro.distributed.cluster:DistributedCluster.bulk_load",
        "repro.distributed.cluster:DistributedCluster.read",
        "repro.distributed.cluster:DistributedCluster.row_scan",
        "repro.distributed.cluster:DistributedCluster.analytic_scan",
        "repro.distributed.cluster:DistributedCluster.drain_replication",
        "repro.distributed.cluster:DistributedCluster.sync",
        "repro.distributed.cluster:DistributedCluster.freshness_lag_ts",
    ],
    "distributed.router": [
        "repro.distributed.router:Router.call",
        "repro.distributed.router:Router.refresh",
    ],
    "distributed.raft": [
        "repro.distributed.raft:RaftGroup.propose_and_wait",
        "repro.distributed.raft:RaftGroup.propose_batch_and_wait",
    ],
    "distributed.network": ["repro.distributed.network:SimNetwork.advance"],
    "distributed.replica": [
        "repro.distributed.replica:ColumnarReplica.learner_apply_batch",
        "repro.distributed.replica:ColumnarReplica.scan",
        "repro.distributed.replica:ColumnarReplica.merge_deltas",
    ],
    "bench": [
        "repro.bench.tpcc:TpccLoader.load",
        "repro.bench.tpcc:TpccWorkload.run_named",
    ],
    # The benchmark's own loop: each operation, under the root span
    # the harness opens around the measured region.
    "driver": ["harness:Op.__call__"],
}

#: layer -> targets that are only counted.  ``Router.retrying`` is
#: counted, not spanned, because its argument is the cluster's own
#: closure: a span would book the cluster's commit work to the router.
LAYER_COUNTS: dict[str, list[str]] = {
    "distributed.raft": [
        "repro.distributed.raft:RaftNode.tick",
        "repro.distributed.raft:RaftNode._on_message",
        "repro.distributed.raft:RaftGroup.elect_leader",
    ],
    "distributed.router": [
        "repro.distributed.router:Router.retrying",
        "repro.distributed.router:Router.shard_for_point",
    ],
    "storage.row": ["repro.storage.row_store:MVCCRowStore.read"],
    "query.plan_cache": ["repro.query.plan_cache:param_signature"],
}

#: Targets whose first list argument's length is summed as well
#: (rows per learner batch is measured where the rows arrive).
SIZED: dict[str, int] = {
    "repro.storage.delta_log:LogDeltaManager.append_batch_columns": 1,
}

#: Spanned so that their time leaves the parent's self time, but booked
#: to no layer: the harness's calibration slices inside the region.
UNBOOKED: list[str] = ["harness:calibration_slice"]

DRIVER = "driver"
LAYERS: list[str] = list(LAYER_SPANS)

_SESSION_OPS = ("read", "scan", "insert", "update", "delete", "commit", "abort")
_ADAPTER_OPS = (
    "scan_rows",
    "scan_columns",
    "scan_columns_encoded",
    "index_lookup_rows",
    "stats",
)
_ENGINE_OPS = {"engines": ("bulk_load", "freshness_lag"), "sync": ("_sync", "force_sync")}


def _engine_targets() -> dict[str, list[str]]:
    """The per-architecture halves of the ``engines`` and ``sync``
    layers, found by shape so that private class names stay out of the
    table."""
    from repro.engines import ENGINE_CLASSES
    from repro.engines.base import EngineSession

    found: dict[str, list[str]] = {"engines": [], "sync": []}
    targets = found["engines"]
    for cls in ENGINE_CLASSES.values():
        for layer, ops in _ENGINE_OPS.items():
            found[layer] += [
                f"{cls.__module__}:{cls.__name__}.{op}" for op in ops if op in cls.__dict__
            ]
        module = sys.modules[cls.__module__]
        for name, obj in vars(module).items():
            if not inspect.isclass(obj) or obj.__module__ != module.__name__:
                continue
            if issubclass(obj, EngineSession):
                ops = _SESSION_OPS
            elif name.endswith("TableAccess"):
                ops = _ADAPTER_OPS
            else:
                continue
            targets += [
                f"{module.__name__}:{name}.{op}" for op in ops if op in obj.__dict__
            ]
    return found


def span_targets() -> dict[str, list[str]]:
    table = {layer: list(targets) for layer, targets in LAYER_SPANS.items()}
    for layer, targets in _engine_targets().items():
        table[layer] += targets
    return table


class Tracer:
    """Installs the wrappers, holds the spans, computes self times.

    Spans live in parallel columns of plain ints and floats rather than
    one object per span: half a million span objects make every
    generational GC pass walk them, and that cost lands on whatever
    call happens to trigger the pass.
    """

    FIELDS = ("name", "parent", "op", "wall0_ns", "wall1_ns", "sim0_us", "sim1_us")

    def __init__(self) -> None:
        self.columns: dict[str, list] = {f: [] for f in self.FIELDS}
        self.names: list[tuple[str, str]] = []  # name id -> (layer, name)
        self.calls: Counter[str] = Counter()    # counted targets
        self.sizes: Counter[str] = Counter()
        self.missing: list[str] = []
        self.op_id = 0
        self._clock: Any = None
        self._sim_offset = 0.0
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # --------------------------------------------------------------- clock

    def use_clock(self, clock: Any) -> None:
        """Follow ``clock`` from now on.  Traced simulated time stays
        continuous across the switch, so a workload that measures three
        engines in turn still has one simulated timeline."""
        self._sim_offset = self.sim_now() - clock.now_us()
        self._clock = clock

    def sim_now(self) -> float:
        if self._clock is None:
            return self._sim_offset
        return self._sim_offset + self._clock.now_us()

    # ------------------------------------------------------------ wrappers

    def name_id(self, layer: str, name: str) -> int:
        self.names.append((layer, name))
        return len(self.names) - 1

    def span(self, fn: Callable, name_id: int) -> Callable:
        """``fn`` wrapped so each call records one span."""
        cols = self.columns
        names, parents, ops = cols["name"], cols["parent"], cols["op"]
        wall0, wall1, sim0, sim1 = (
            cols["wall0_ns"], cols["wall1_ns"], cols["sim0_us"], cols["sim1_us"]
        )
        stack, now, sim_now = self._stack, time.perf_counter_ns, self.sim_now
        tracer = self

        def traced(*args, **kwargs):
            # First and last thing: the wall stamps, so the wrapper's
            # own bookkeeping is booked to this span, not its parent.
            started = now()
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            wall1.append(0)
            sim1.append(0.0)
            sim0.append(sim_now())
            stack.append(index)
            wall0.append(started)
            try:
                return fn(*args, **kwargs)
            finally:
                sim1[index] = sim_now()
                stack.pop()
                wall1[index] = now()

        traced.__wrapped__ = fn
        return traced

    def _counted(self, fn: Callable, target: str) -> Callable:
        calls = self.calls

        def counted(*args, **kwargs):
            calls[target] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _sized(self, fn: Callable, target: str, arg: int) -> Callable:
        sizes = self.sizes

        def sized(*args, **kwargs):
            sizes[target] += len(args[arg])
            return fn(*args, **kwargs)

        sized.__wrapped__ = fn
        return sized

    # ------------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every target.  A target that no longer exists is listed
        in ``missing`` instead of failing the run, so a later refactor
        shows up as an attribution gap, not as a broken benchmark."""
        for layer, targets in span_targets().items():
            for target in targets:
                name_id = self.name_id(layer, target.split(":", 1)[1])
                self._patch(target, lambda fn, name_id=name_id: self.span(fn, name_id))
        for target in UNBOOKED:
            name_id = self.name_id("", target.split(":", 1)[1])
            self._patch(target, lambda fn, name_id=name_id: self.span(fn, name_id))
        for targets in LAYER_COUNTS.values():
            for target in targets:
                self._patch(target, lambda fn, target=target: self._counted(fn, target))

    def _patch(self, target: str, make: Callable[[Callable], Callable]) -> None:
        module_name, _, path = target.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(target)
            return
        if not inspect.isfunction(original) or inspect.isgeneratorfunction(original):
            self.missing.append(target)
            return
        inner = self._sized(original, target, SIZED[target]) if target in SIZED else original
        wrapped = make(inner)
        # Patch every binding: a module that did ``from x import f``
        # holds its own reference to ``f``.
        owners = [owner]
        if inspect.ismodule(owner):
            owners += [
                m
                for name, m in list(sys.modules.items())
                if name.startswith("repro.")
                and m is not owner
                and vars(m).get(attr) is original
            ]
        for holder in owners:
            self._undo.append((holder, attr, original))
            setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    # ------------------------------------------------------------- results

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per layer: self wall ns, self sim µs, calls (spans + counts)."""
        out = {layer: {"wall_ns": 0.0, "sim_us": 0.0, "calls": 0} for layer in LAYERS}
        unbooked = {"wall_ns": 0.0, "sim_us": 0.0, "calls": 0}
        layer_of = [out.get(layer, unbooked) for layer, _name in self.names]
        cols = self.columns
        names = cols["name"]
        for name_id, parent, w0, w1, s0, s1 in zip(
            names, cols["parent"], cols["wall0_ns"], cols["wall1_ns"],
            cols["sim0_us"], cols["sim1_us"],
        ):
            mine = layer_of[name_id]
            mine["wall_ns"] += w1 - w0
            mine["sim_us"] += s1 - s0
            mine["calls"] += 1
            if parent >= 0:
                above = layer_of[names[parent]]
                above["wall_ns"] -= w1 - w0
                above["sim_us"] -= s1 - s0
        for layer, targets in LAYER_COUNTS.items():
            out[layer]["calls"] += sum(self.calls[t] for t in targets)
        return out

    def span_calls(self, name: str) -> int:
        ids = {i for i, (_layer, n) in enumerate(self.names) if n == name}
        return sum(1 for name_id in self.columns["name"] if name_id in ids)

    def write(self, path: Path) -> None:
        """Columnar dump: one list per field, names interned."""
        payload = {
            "names": [{"layer": layer, "name": name} for layer, name in self.names],
            "counted": dict(self.calls),
            "spans": self.columns,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")))
