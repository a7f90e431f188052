"""HTL006 — epoch guard before propose (exactly-once under retries).

PR 8's exactly-once story is a *path* invariant: every server-side
entry point (``execute_transaction`` / ``bulk_load`` / ``read`` /
``read_many`` / ``row_scan`` in ``distributed/cluster.py``) must validate ownership
against the live epoch — ``_check_ownership``, which raises
``StaleEpochError`` — on **every** path *before* anything reaches a
Raft ``propose*`` sink.  If a stale route proposes first and rejects
later, the client's retry re-applies the writes: the exact
double-apply the epoch contract exists to prevent.

The sinks grew with the commit-path optimization: the single-shard
"commit1p" fast path proposes directly from ``_commit_single_shard``,
the piggybacked protocol proposes "intent" from the participant
adapter (every participant's at once, then one wait), and the commit
round proposes "resolve" from the same adapter the moment the
coordinator decides (``_settle`` re-proposes one on a deposed or
crashed leader).  All of them must stay dominated by the guard — the rule
proves it for each path separately.

The check is interprocedural over the project index: calls resolve
through constructor-assigned fields (``self.piggyback`` →
``PiggybackCoordinator.execute``), lambdas/closures handed to
``Router.retrying`` are assumed invoked by their callee, and abstract
receivers (the ``PiggybackParticipant`` protocol) widen to duck candidates
for *sink reachability only*.  Guard establishment is must-analysis on
the per-function CFG: a sink-reaching call is protected when a
``_check_ownership*`` call (or a call to a helper that establishes the
guard on all normal paths) blocks every CFG path from the entry to it.
``for`` loops are assumed to run at least once for guard placement —
the cluster's guard loops iterate the same per-shard grouping that
drives the propose fan-out, so the skipped-guard path has nothing to
propose (see :mod:`~repro.analysis.dataflow`).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import FileContext, Finding, register
from ..dataflow import (
    build_cfg,
    calls_in_stmt,
    establishes_on_all_paths,
    stmt_nodes,
    unguarded,
)
from ..project import FunctionRef, ProjectIndex

#: The rule anchors on the module that defines the server-side entries.
ANCHOR_SUFFIX = "distributed/cluster.py"

ENTRY_NAMES = ("execute_transaction", "bulk_load", "read", "read_many", "row_scan")
GUARD_PREFIX = "_check_ownership"
SINK_PREFIX = "propose"

#: Guard-summary / sink-reachability recursion depth cap.
MAX_DEPTH = 12


def _call_tail(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _is_sink_call(call: ast.Call) -> bool:
    return _call_tail(call).startswith(SINK_PREFIX)


def _is_guard_call(call: ast.Call) -> bool:
    return _call_tail(call).startswith(GUARD_PREFIX)


class _Analysis:
    """One whole-program HTL006 pass, memoized on the project index."""

    def __init__(self, project: ProjectIndex):
        self.project = project
        self._resolvers: dict[str, object] = {}
        self._reaches_sink: dict[str, bool] = {}
        self._establishes: dict[str, bool] = {}
        self.findings: list[tuple[str, int, str]] = []  # (path, line, message)
        self._visited: set[tuple[str, bool]] = set()

    # ---------------------------------------------------------- resolution

    def _resolver(self, ref: FunctionRef):
        res = self._resolvers.get(ref.qual)
        if res is None:
            res = self.project.resolver(ref)
            self._resolvers[ref.qual] = res
        return res

    def _callees(
        self, ref: FunctionRef, call: ast.Call, ducks: bool
    ) -> list[FunctionRef]:
        res = self._resolver(ref)
        out = res.resolve_call(call, ducks=ducks)
        out.extend(res.callback_args(call))
        return out

    # ------------------------------------------------------- sink reachable

    def reaches_sink(self, ref: FunctionRef, depth: int = 0) -> bool:
        """May-analysis: can this function (transitively) hit a
        ``propose*`` call?  Duck-widened, so unresolved dispatch errs
        toward *checking* a path rather than ignoring it."""
        key = ref.qual
        cached = self._reaches_sink.get(key)
        if cached is not None:
            return cached
        if depth > MAX_DEPTH:
            return False
        self._reaches_sink[key] = False  # cycle guard
        result = False
        for node in ast.walk(ref.node):
            if isinstance(node, ast.Call) and _is_sink_call(node):
                result = True
                break
        if not result:
            for node in ast.walk(ref.node):
                if not isinstance(node, ast.Call):
                    continue
                for callee in self._callees(ref, node, ducks=True):
                    if callee.qual == key:
                        continue
                    if self.reaches_sink(callee, depth + 1):
                        result = True
                        break
                if result:
                    break
        self._reaches_sink[key] = result
        return result

    # --------------------------------------------------- guard establishment

    def establishes_guard(self, ref: FunctionRef, depth: int = 0) -> bool:
        """Must-analysis: every normal path through ``ref`` passes a
        guard call.  Definite resolution only — duck candidates never
        establish a guard."""
        key = ref.qual
        cached = self._establishes.get(key)
        if cached is not None:
            return cached
        if depth > MAX_DEPTH:
            return False
        self._establishes[key] = False  # cycle guard: assume not
        cfg = build_cfg(ref.node, loops_execute=True)
        guards = stmt_nodes(cfg, lambda s: self._stmt_establishes(ref, s, depth))
        result = establishes_on_all_paths(cfg, guards)
        self._establishes[key] = result
        return result

    def _stmt_establishes(
        self, ref: FunctionRef, stmt: ast.stmt, depth: int
    ) -> bool:
        for call in calls_in_stmt(stmt):
            if _is_guard_call(call):
                return True
            for callee in self._callees(ref, call, ducks=False):
                if isinstance(callee.node, ast.Lambda):
                    continue
                if self.establishes_guard(callee, depth + 1):
                    return True
        return False

    # ------------------------------------------------------------- checking

    def check_entry(self, ref: FunctionRef) -> None:
        self._visit(ref, guarded=False, entry=ref, depth=0)

    def _visit(
        self, ref: FunctionRef, guarded: bool, entry: FunctionRef, depth: int
    ) -> None:
        key = (ref.qual, guarded)
        if key in self._visited or depth > MAX_DEPTH:
            return
        self._visited.add(key)
        cfg = build_cfg(ref.node, loops_execute=True)
        guard_nodes = stmt_nodes(
            cfg, lambda s: self._stmt_establishes(ref, s, depth)
        )
        # Sink-relevant statements: contain a direct propose* call or a
        # call that may transitively reach one.
        relevant: dict[int, list[ast.Call]] = {}
        for nid, stmt in cfg.stmts.items():
            if stmt is None:
                continue
            hits = []
            for call in calls_in_stmt(stmt):
                if _is_sink_call(call):
                    hits.append(call)
                    continue
                for callee in self._callees(ref, call, ducks=True):
                    if callee.qual != ref.qual and self.reaches_sink(
                        callee, depth + 1
                    ):
                        hits.append(call)
                        break
            if hits:
                relevant[nid] = hits
        if not relevant:
            return
        exposed = (
            set(relevant)
            if not guarded
            else set()
        )
        open_sinks = unguarded(cfg, guard_nodes, exposed) if exposed else set()
        for nid, calls in relevant.items():
            protected = guarded or nid not in open_sinks
            for call in calls:
                if _is_sink_call(call):
                    if not protected:
                        self.findings.append(
                            (
                                ref.module.path,
                                call.lineno,
                                f"path from {_entry_desc(entry)} reaches "
                                f"{_call_tail(call)}() without "
                                f"{GUARD_PREFIX} dominating it; a stale "
                                "route could propose before the epoch "
                                "contract rejects it (double-apply under "
                                "client retries)",
                            )
                        )
                    continue
                for callee in self._callees(ref, call, ducks=True):
                    if callee.qual == ref.qual:
                        continue
                    if self.reaches_sink(callee, depth + 1):
                        self._visit(callee, protected, entry, depth + 1)


def _entry_desc(ref: FunctionRef) -> str:
    cls = f"{ref.cls.name}." if ref.cls else ""
    return f"{cls}{ref.name}"


def _project_findings(project: ProjectIndex, anchor_path: str) -> list:
    memo_key = f"htl006:{anchor_path}"
    cached = project.cache.get(memo_key)
    if cached is not None:
        return cached
    analysis = _Analysis(project)
    mod = project.module_of(anchor_path)
    if mod is not None:
        for ci in mod.classes.values():
            for name in ENTRY_NAMES:
                fn = ci.methods.get(name)
                if fn is not None:
                    analysis.check_entry(
                        FunctionRef(mod, ci, name, fn)
                    )
        for name in ENTRY_NAMES:
            fn = mod.functions.get(name)
            if fn is not None:
                analysis.check_entry(FunctionRef(mod, None, name, fn))
    findings = sorted(set(analysis.findings))
    project.cache[memo_key] = findings
    return findings


@register(
    "HTL006",
    "epoch-guard-before-propose",
    "server-side entry reaches a Raft propose* sink on a path not "
    "dominated by _check_ownership",
)
def check(ctx: FileContext) -> Iterator[Finding]:
    if not ctx.path.endswith(ANCHOR_SUFFIX):
        return
    project = ctx.project or ProjectIndex.from_single(ctx.path, ctx.tree)
    for path, line, message in _project_findings(project, ctx.path):
        yield Finding("HTL006", path, line, message)
