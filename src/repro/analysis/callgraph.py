"""Lightweight per-module call graph for the flow-ish rules.

HTL002 (mutation-without-invalidation) needs to know whether a method
*reaches* its sink — a version bump — possibly through helper methods.
Full inter-procedural analysis is overkill for a single-package
testbed, so resolution is name-based and module-local:

* ``self.foo(...)`` resolves to the method ``foo`` of the enclosing
  class (if defined there);
* a bare ``foo(...)`` resolves to a module-level function ``foo``;
* anything else (calls on other objects, imports) is opaque.

That is deliberately conservative in both directions: cross-object
calls neither satisfy nor violate a reachability requirement, which
keeps false positives near zero at the price of needing the invariant
to be locally visible — exactly the style the hand-written call sites
already follow.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .core import attr_chain


@dataclass
class ClassIndex:
    node: ast.ClassDef
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)
    base_names: list[str] = field(default_factory=list)


@dataclass
class ModuleIndex:
    """Classes and top-level functions of one module, by name."""

    classes: dict[str, ClassIndex] = field(default_factory=dict)
    functions: dict[str, ast.FunctionDef] = field(default_factory=dict)

    @classmethod
    def build(cls, tree: ast.Module) -> "ModuleIndex":
        index = cls()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if isinstance(node, ast.FunctionDef):
                    index.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                ci = ClassIndex(node=node)
                for base in node.bases:
                    parts = attr_chain(base)
                    if parts:
                        ci.base_names.append(parts[-1])
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        ci.methods[item.name] = item
                index.classes[node.name] = ci
        return index


def local_callees(node: ast.AST) -> tuple[set[str], set[str]]:
    """(self-method names, bare function names) called anywhere under
    ``node``.  ``self.x.y(...)`` is *not* a self-method call (the
    receiver is an attribute, not the instance)."""
    self_methods: set[str] = set()
    bare: set[str] = set()
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                self_methods.add(func.attr)
        elif isinstance(func, ast.Name):
            bare.add(func.id)
    return self_methods, bare


def reaches(
    start: ast.FunctionDef,
    predicate,
    class_index: ClassIndex | None,
    module_index: ModuleIndex,
    max_depth: int = 8,
) -> bool:
    """True if ``predicate(fn_node)`` holds for ``start`` or any
    module-locally resolvable (transitive) callee."""
    seen: set[int] = set()
    frontier: list[tuple[ast.FunctionDef, int]] = [(start, 0)]
    while frontier:
        fn, depth = frontier.pop()
        if id(fn) in seen:
            continue
        seen.add(id(fn))
        if predicate(fn):
            return True
        if depth >= max_depth:
            continue
        self_methods, bare = local_callees(fn)
        if class_index is not None:
            for name in self_methods:
                target = class_index.methods.get(name)
                if target is not None:
                    frontier.append((target, depth + 1))
        for name in bare:
            target = module_index.functions.get(name)
            if target is not None:
                frontier.append((target, depth + 1))
    return False
