"""HTL002 — mutation without a scan-cache version bump.

The MVCC-aware snapshot-scan cache keys every batch on a version token
assembled from store counters (``ColumnStore.mutations``,
``MVCCRowStore.installs``, ...).  A write path that changes what a scan
returns *without* moving any token component makes a stale cached batch
indistinguishable from a fresh one — the one bug class the cache design
cannot survive: the token is the cache's only fence, no write path
invalidates it besides.  PR 2/3 wired the bumps by hand through dozens
of call sites; this rule machine-checks the convention.

A class that declares a version counter (an attribute named
``mutations``, ``installs``/``_installs``, or ``epoch``/``_epoch``
initialized in ``__init__``) is *version-tracked*.  The rule learns
which ``self.*`` attributes its bumping methods mutate (the
scan-visible state) and then flags any public method that mutates one
of those attributes while neither bumping the counter itself nor
(transitively, through same-class helpers) calling a method that does.
State written through a local alias (``segment.delete_mask``,
``old.end_ts``) is outside what it sees.

Watermark-only methods (e.g. ``advance_sync_ts``) that move a timestamp
no token includes are the intended use of a per-line suppression with a
reason.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..callgraph import ClassIndex, ModuleIndex, reaches
from ..core import FileContext, Finding, attr_chain, register

#: ``epoch`` covers the statistics/plan-cache fence (PR 6): a class
#: serving cached state under an epoch must bump it on every state
#: change, or the plan cache keeps serving plans costed against
#: statistics that no longer exist.
_VERSION_COUNTERS = {"mutations", "installs", "_installs", "epoch", "_epoch"}

#: Methods that mutate a container in place when called on `self.<attr>`.
_MUTATOR_CALLS = {
    "append",
    "extend",
    "insert",
    "add",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "remove",
    "discard",
    "clear",
}


def _self_attr_of_target(node: ast.AST) -> str | None:
    """The `self.<attr>` root written by an assignment target /
    subscript / delete, if any (``self._locations[k] = v`` -> "_locations")."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _mutated_self_attrs(fn: ast.FunctionDef) -> set[str]:
    """All `self.<attr>` roots this method writes (assign / augassign /
    del / in-place container-mutator call)."""
    mutated: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                attr = _self_attr_of_target(target)
                if attr:
                    mutated.add(attr)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            attr = _self_attr_of_target(node.target)
            if attr:
                mutated.add(attr)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                attr = _self_attr_of_target(target)
                if attr:
                    mutated.add(attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATOR_CALLS:
                chain = attr_chain(node.func)
                if len(chain) >= 3 and chain[0] == "self":
                    mutated.add(chain[1])
    return mutated


def _bumps_counter(fn: ast.FunctionDef, counters: set[str]) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.AugAssign):
            attr = _self_attr_of_target(node.target)
            if attr in counters:
                return True
    return False


def _declared_counters(ci: ClassIndex) -> set[str]:
    init = ci.methods.get("__init__")
    if init is None:
        return set()
    counters: set[str] = set()
    for node in ast.walk(init):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                attr = _self_attr_of_target(target)
                if attr in _VERSION_COUNTERS:
                    counters.add(attr)
    return counters


def _store_layer(ctx: FileContext, module_index: ModuleIndex) -> Iterator[Finding]:
    for ci in module_index.classes.values():
        counters = _declared_counters(ci)
        if not counters:
            continue
        bumpers = [
            fn
            for name, fn in ci.methods.items()
            if name != "__init__" and _bumps_counter(fn, counters)
        ]
        if not bumpers:
            continue
        # Scan-visible state = what the bumping write paths touch.
        tracked: set[str] = set()
        for fn in bumpers:
            tracked |= _mutated_self_attrs(fn)
        tracked -= counters
        if not tracked:
            continue

        def bump_pred(fn: ast.FunctionDef, _counters=counters) -> bool:
            return _bumps_counter(fn, _counters)

        for name, fn in ci.methods.items():
            if name.startswith("_"):
                continue  # helpers are checked through their public callers
            touched = _mutated_self_attrs(fn) & tracked
            # Include state mutated via private same-class helpers.
            for callee_name in _collect_self_calls(fn):
                callee = ci.methods.get(callee_name)
                if callee is not None and callee_name.startswith("_"):
                    touched |= _mutated_self_attrs(callee) & tracked
            if not touched:
                continue
            if reaches(fn, bump_pred, ci, module_index):
                continue
            yield Finding(
                "HTL002",
                ctx.path,
                fn.lineno,
                f"{ci.node.name}.{name} mutates version-tracked state "
                f"({', '.join(sorted(touched))}) without bumping "
                f"{'/'.join(sorted(counters))}; stale scan-cache entries "
                "would keep matching their token",
            )


def _collect_self_calls(fn: ast.FunctionDef) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
        ):
            names.add(node.func.attr)
    return names


@register(
    "HTL002",
    "mutation-without-invalidation",
    "write path that changes scan results without a version bump",
)
def check(ctx: FileContext) -> Iterator[Finding]:
    module_index = ModuleIndex.build(ctx.tree)
    yield from _store_layer(ctx, module_index)
