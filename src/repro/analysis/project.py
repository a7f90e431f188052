"""Whole-program index: modules, imports, classes, and call resolution.

The module-local :mod:`~repro.analysis.callgraph` deliberately treats
every cross-object call as opaque, which is the right cost/precision
point for HTL002 but useless for the elastic cluster's
exactly-once invariants: the path from
``DistributedCluster.execute_transaction`` to a Raft ``propose_and_wait``
crosses four modules, two constructor-assigned fields
(``self.piggyback``, ``self.router``), one ``lambda`` handed to
``Router.retrying``, and one duck-typed commit participant.  This module
builds the project-wide picture those rules need:

* a **module map** — every ``.py`` under the analyzed root, keyed by
  dotted name, with its import bindings resolved (relative imports by
  path, absolute imports by root-package prefix; anything that leaves
  the tree is external/opaque);
* a **class index** — methods, resolved base classes (so method lookup
  walks the hierarchy), and **attribute types** learned from
  ``__init__``/class-level assignments and annotations
  (``self.piggyback = PiggybackCoordinator(...)`` gives
  ``piggyback`` the type ``PiggybackCoordinator``;
  ``self._groups: list[RaftGroup]`` gives subscripts of ``_groups`` the
  element type ``RaftGroup``);
* **call resolution** — given a call site and its enclosing function,
  the set of project functions it may invoke, using parameter/return
  annotations, local assignment tracking, and the attribute types
  above.  Calls that still do not resolve can fall back to *duck
  resolution* (every project method with that name, capped) — used only
  by may-analyses (sink reachability), never by must-analyses (guard
  establishment), so imprecision widens searches instead of silencing
  findings.

The index is deterministic and picklable; :func:`load_or_build` caches
it on disk keyed by a digest of every file's content so repeated CI
runs skip the parse + index work entirely.
"""

from __future__ import annotations

import ast
import hashlib
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

#: Containers whose subscripts yield their element type.
_CONTAINER_NAMES = {"list", "dict", "set", "frozenset", "tuple", "OrderedDict"}

#: Duck resolution is capped so a common method name (``get``, ``apply``)
#: cannot fan a may-analysis out over the whole tree.
DUCK_CAP = 8


@dataclass(frozen=True)
class TypeRef:
    """A resolved type: ``qual`` is ``"<module>:<Class>"`` for project
    classes or ``"builtins:<name>"`` for builtin containers; ``elem`` is
    the element (value) type for subscriptable containers."""

    qual: str
    elem: "TypeRef | None" = None

    @property
    def is_builtin(self) -> bool:
        return self.qual.startswith("builtins:")

    @property
    def class_name(self) -> str:
        return self.qual.rsplit(":", 1)[-1]


@dataclass
class ClassInfo:
    module: str
    name: str
    node: ast.ClassDef
    base_names: list[str] = field(default_factory=list)  # raw dotted tails
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: self.<attr> -> TypeRef, learned from __init__ + annotations.
    attr_types: dict[str, TypeRef] = field(default_factory=dict)

    @property
    def qual(self) -> str:
        return f"{self.module}:{self.name}"


@dataclass
class ModuleInfo:
    name: str                         # dotted, rooted at the analyzed tree
    path: str                         # repo-relative posix path
    tree: ast.Module
    #: local alias -> (module dotted name, attr-or-None)
    imports: dict[str, tuple[str, str | None]] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    functions: dict[str, ast.FunctionDef] = field(default_factory=dict)


@dataclass
class FunctionRef:
    """A resolved function: the node plus enough context to keep
    resolving calls found inside it (module for imports, cls for
    ``self``)."""

    module: ModuleInfo
    cls: ClassInfo | None
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda

    @property
    def qual(self) -> str:
        cls = f"{self.cls.name}." if self.cls else ""
        return f"{self.module.name}:{cls}{self.name}@{self.node.lineno}"


class ProjectIndex:
    """The whole-program view rules query for cross-module resolution."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.by_path: dict[str, ModuleInfo] = {}
        #: method name -> [(ClassInfo, FunctionDef)] for duck fallback.
        self._methods_by_name: dict[str, list[tuple[ClassInfo, ast.FunctionDef]]] = {}
        #: scratch space for cross-rule memoization (not pickled as API).
        self.cache: dict[str, Any] = {}

    # ------------------------------------------------------------- build

    @classmethod
    def build(cls, root: Path, files: list[Path] | None = None) -> "ProjectIndex":
        root = Path(root)
        index = cls()
        if files is None:
            files = [
                p
                for p in sorted(root.rglob("*.py"))
                if "__pycache__" not in p.parts
            ]
        root_pkg = root.name or "root"
        for path in files:
            rel = path.relative_to(root).as_posix()
            try:
                tree = ast.parse(path.read_text())
            except SyntaxError:
                continue  # the driver reports HTL999 separately
            index.add_module(_module_name(root_pkg, rel), rel, tree)
        index._finish()
        return index

    @classmethod
    def from_single(cls, path: str, tree: ast.Module) -> "ProjectIndex":
        """A one-module project (fixture snippets analyzed in memory)."""
        index = cls()
        stem = path[:-3] if path.endswith(".py") else path
        name = stem.replace("/", ".").lstrip(".")
        index.add_module(name or "snippet", path, tree)
        index._finish()
        return index

    def add_module(self, name: str, rel_path: str, tree: ast.Module) -> None:
        mod = ModuleInfo(name=name, path=rel_path, tree=tree)
        mod.imports = _collect_imports(name, rel_path, tree)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                mod.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                mod.classes[node.name] = _build_class(name, node)
        self.modules[name] = mod
        self.by_path[rel_path] = mod

    def _finish(self) -> None:
        self._methods_by_name.clear()
        for mod in self.modules.values():
            for ci in mod.classes.values():
                for mname, fn in ci.methods.items():
                    self._methods_by_name.setdefault(mname, []).append((ci, fn))
        # Resolve annotation-based attribute types now that every class
        # is known (ctor-call types were resolved at class build time
        # only by name; re-resolve against the import table here).
        for mod in self.modules.values():
            for ci in mod.classes.values():
                resolved: dict[str, TypeRef] = {}
                for attr, tref in ci.attr_types.items():
                    resolved[attr] = self._reresolve(mod, tref)
                ci.attr_types = resolved

    def _reresolve(self, mod: ModuleInfo, tref: TypeRef) -> TypeRef:
        elem = self._reresolve(mod, tref.elem) if tref.elem else None
        if tref.qual.startswith("?"):
            found = self.resolve_class(mod, tref.qual[1:])
            if found is not None:
                return TypeRef(found.qual, elem)
            return TypeRef(f"external:{tref.qual[1:]}", elem)
        return TypeRef(tref.qual, elem)

    # ------------------------------------------------------------- lookup

    def module_of(self, path: str) -> ModuleInfo | None:
        return self.by_path.get(path)

    def class_by_qual(self, qual: str) -> ClassInfo | None:
        if ":" not in qual:
            return None
        modname, clsname = qual.split(":", 1)
        mod = self.modules.get(modname)
        return mod.classes.get(clsname) if mod else None

    def resolve_class(self, mod: ModuleInfo, dotted: str) -> ClassInfo | None:
        """Resolve a (possibly dotted) name used in ``mod`` to a project
        class, following one import hop and re-exports."""
        head, _, tail = dotted.partition(".")
        if not tail and head in mod.classes:
            return mod.classes[head]
        binding = mod.imports.get(head)
        if binding is None:
            return None
        target_mod, attr = binding
        name = attr if attr else None
        if tail:
            name = tail if name is None else f"{name}.{tail}"
        if name is None:
            return None
        seen = 0
        while seen < 4:
            target = self.modules.get(target_mod)
            if target is None:
                return None
            first, _, rest = name.partition(".")
            if first in target.classes and not rest:
                return target.classes[first]
            nxt = target.imports.get(first)
            if nxt is None:
                return None
            target_mod, attr = nxt
            name = attr if not rest else (f"{attr}.{rest}" if attr else rest)
            if name is None:
                return None
            seen += 1
        return None

    def resolve_function(
        self, mod: ModuleInfo, dotted: str
    ) -> FunctionRef | None:
        """Resolve a bare/dotted name to a module-level project function."""
        head, _, tail = dotted.partition(".")
        if not tail and head in mod.functions:
            return FunctionRef(mod, None, head, mod.functions[head])
        binding = mod.imports.get(head)
        if binding is None:
            return None
        target_mod, attr = binding
        name = attr if attr else tail
        if not name:
            return None
        for _hop in range(4):
            target = self.modules.get(target_mod)
            if target is None:
                return None
            if name in target.functions:
                return FunctionRef(target, None, name, target.functions[name])
            nxt = target.imports.get(name)
            if nxt is None:
                return None
            target_mod, attr = nxt
            name = attr or name
        return None

    # -------------------------------------------------------- class queries

    def mro(self, ci: ClassInfo) -> Iterator[ClassInfo]:
        """The class and its resolvable project bases, depth-first."""
        seen: set[str] = set()
        stack = [ci]
        while stack:
            cur = stack.pop(0)
            if cur.qual in seen:
                continue
            seen.add(cur.qual)
            yield cur
            mod = self.modules.get(cur.module)
            if mod is None:
                continue
            for base in cur.base_names:
                resolved = self.resolve_class(mod, base)
                if resolved is not None:
                    stack.append(resolved)

    def method(self, ci: ClassInfo, name: str) -> FunctionRef | None:
        for cls in self.mro(ci):
            fn = cls.methods.get(name)
            if fn is not None:
                mod = self.modules[cls.module]
                return FunctionRef(mod, cls, name, fn)
        return None

    def attr_type(self, ci: ClassInfo, name: str) -> TypeRef | None:
        for cls in self.mro(ci):
            tref = cls.attr_types.get(name)
            if tref is not None:
                return tref
        return None

    def duck_methods(self, name: str, cap: int = DUCK_CAP) -> list[FunctionRef]:
        """Every project method with this name (may-analysis fallback);
        an empty list when the name is too common to be informative."""
        hits = self._methods_by_name.get(name, [])
        if not hits or len(hits) > cap:
            return []
        return [
            FunctionRef(self.modules[ci.module], ci, name, fn) for ci, fn in hits
        ]

    # ------------------------------------------------------ call resolution

    def resolver(self, ref: FunctionRef) -> "CallResolver":
        return CallResolver(self, ref)


# ===================================================================== build


def _module_name(root_pkg: str, rel: str) -> str:
    parts = rel[:-3].split("/")  # strip .py
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([root_pkg, *parts]) if parts else root_pkg


def _collect_imports(
    mod_name: str, rel_path: str, tree: ast.Module
) -> dict[str, tuple[str, str | None]]:
    imports: dict[str, tuple[str, str | None]] = {}
    is_pkg = rel_path.endswith("__init__.py")
    pkg_parts = mod_name.split(".") if is_pkg else mod_name.split(".")[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                imports[bound] = (target, None)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = pkg_parts[: len(pkg_parts) - (node.level - 1)]
                if not base:
                    continue
                target_mod = ".".join(base)
                if node.module:
                    target_mod = f"{target_mod}.{node.module}"
            else:
                target_mod = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                imports[bound] = (target_mod, alias.name)
    return imports


def _build_class(mod_name: str, node: ast.ClassDef) -> ClassInfo:
    ci = ClassInfo(module=mod_name, name=node.name, node=node)
    for base in node.bases:
        dotted = _dotted(base)
        if dotted:
            ci.base_names.append(dotted)
    for item in node.body:
        if isinstance(item, ast.FunctionDef):
            ci.methods[item.name] = item
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            # Dataclass-style field: `data: np.ndarray`.
            tref = _annotation_type(item.annotation)
            if tref is not None:
                ci.attr_types[item.target.id] = tref
    init = ci.methods.get("__init__")
    if init is not None:
        _learn_ctor_types(ci, init)
    return ci


def _learn_ctor_types(ci: ClassInfo, init: ast.FunctionDef) -> None:
    param_types: dict[str, TypeRef] = {}
    args = init.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if arg.annotation is not None:
            tref = _annotation_type(arg.annotation)
            if tref is not None:
                param_types[arg.arg] = tref
    for node in ast.walk(init):
        target = None
        value = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value = node.target, node.value
        if (
            not isinstance(target, ast.Attribute)
            or not isinstance(target.value, ast.Name)
            or target.value.id != "self"
        ):
            continue
        attr = target.attr
        if isinstance(node, ast.AnnAssign) and node.annotation is not None:
            tref = _annotation_type(node.annotation)
            if tref is not None:
                ci.attr_types[attr] = tref
                continue
        if value is None:
            continue
        tref = _value_type(value, param_types)
        if tref is not None and attr not in ci.attr_types:
            ci.attr_types[attr] = tref


def _value_type(
    value: ast.expr, param_types: dict[str, TypeRef]
) -> TypeRef | None:
    if isinstance(value, ast.Call):
        dotted = _dotted(value.func)
        if dotted is None:
            return None
        tail = dotted.rsplit(".", 1)[-1]
        if tail in _CONTAINER_NAMES:
            return TypeRef(f"builtins:{tail}")
        if tail and tail[0].isupper():
            # Constructor by convention; re-resolved project-wide later.
            return TypeRef(f"?{dotted}")
        return None
    if isinstance(value, (ast.List, ast.ListComp)):
        return TypeRef("builtins:list")
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return TypeRef("builtins:dict")
    if isinstance(value, (ast.Set, ast.SetComp)):
        return TypeRef("builtins:set")
    if isinstance(value, ast.Name):
        return param_types.get(value.id)
    if isinstance(value, ast.BoolOp) and value.values:
        # `cost or CostModel()`: prefer the constructed fallback.
        for sub in reversed(value.values):
            tref = _value_type(sub, param_types)
            if tref is not None:
                return tref
    return None


def _annotation_type(annotation: ast.expr) -> TypeRef | None:
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        # `X | None` — take the first non-None arm.
        for side in (annotation.left, annotation.right):
            if isinstance(side, ast.Constant) and side.value is None:
                continue
            return _annotation_type(side)
        return None
    if isinstance(annotation, ast.Subscript):
        head = _dotted(annotation.value)
        if head is None:
            return None
        tail = head.rsplit(".", 1)[-1]
        if tail in ("Optional",):
            return _annotation_type(annotation.slice)
        elem: TypeRef | None = None
        sl = annotation.slice
        if tail == "dict" or tail == "Dict" or tail == "OrderedDict":
            if isinstance(sl, ast.Tuple) and len(sl.elts) == 2:
                elem = _annotation_type(sl.elts[1])
        elif isinstance(sl, ast.Tuple):
            elem = _annotation_type(sl.elts[0]) if sl.elts else None
        else:
            elem = _annotation_type(sl)
        if tail.lower() in _CONTAINER_NAMES or tail in _CONTAINER_NAMES:
            return TypeRef(f"builtins:{tail.lower()}", elem)
        return TypeRef(f"?{head}", elem)
    dotted = _dotted(annotation)
    if dotted is None:
        return None
    tail = dotted.rsplit(".", 1)[-1]
    if tail in _CONTAINER_NAMES:
        return TypeRef(f"builtins:{tail}")
    if tail == "ndarray":
        return TypeRef("numpy:ndarray")
    if tail and tail[0].isupper():
        return TypeRef(f"?{dotted}")
    return None


def _dotted(node: ast.expr) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# =============================================================== resolution


class CallResolver:
    """Resolves call sites inside one function, tracking local types."""

    def __init__(self, project: ProjectIndex, ref: FunctionRef):
        self.project = project
        self.ref = ref
        self._locals: dict[str, TypeRef] = {}
        self._local_defs: dict[str, ast.FunctionDef] = {}
        self._collect_locals()

    # --------------------------------------------------------------- env

    def _collect_locals(self) -> None:
        node = self.ref.node
        if isinstance(node, ast.Lambda):
            return
        args = node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.annotation is not None:
                tref = _annotation_type(arg.annotation)
                if tref is not None:
                    self._locals[arg.arg] = self._fix(tref)
        if self.ref.cls is not None:
            self._locals["self"] = TypeRef(self.ref.cls.qual)
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.FunctionDef) and stmt is not node:
                self._local_defs[stmt.name] = stmt
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    tref = self._expr_type(stmt.value, _depth=0)
                    if tref is not None:
                        self._locals.setdefault(target.id, tref)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                tref = _annotation_type(stmt.annotation)
                if tref is not None:
                    self._locals.setdefault(stmt.target.id, self._fix(tref))

    def _fix(self, tref: TypeRef) -> TypeRef:
        return self.project._reresolve(self.ref.module, tref)

    # ------------------------------------------------------------- typing

    def _expr_type(self, expr: ast.expr, _depth: int = 0) -> TypeRef | None:
        if _depth > 6:
            return None
        if isinstance(expr, ast.Name):
            return self._locals.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self._expr_type(expr.value, _depth + 1)
            if base is None or base.is_builtin:
                return None
            ci = self.project.class_by_qual(base.qual)
            if ci is None:
                return None
            return self.project.attr_type(ci, expr.attr)
        if isinstance(expr, ast.Subscript):
            base = self._expr_type(expr.value, _depth + 1)
            if base is not None:
                return base.elem
            return None
        if isinstance(expr, ast.Call):
            return self._call_return_type(expr, _depth + 1)
        if isinstance(expr, (ast.List, ast.ListComp)):
            return TypeRef("builtins:list")
        if isinstance(expr, (ast.Dict, ast.DictComp)):
            return TypeRef("builtins:dict")
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return TypeRef("builtins:set")
        return None

    def _call_return_type(self, call: ast.Call, _depth: int) -> TypeRef | None:
        dotted = _dotted(call.func)
        if dotted is not None:
            tail = dotted.rsplit(".", 1)[-1]
            if tail in ("set", "frozenset"):
                return TypeRef("builtins:set")
            if tail == "sorted" or tail == "list":
                return TypeRef("builtins:list")
            if tail == "dict":
                return TypeRef("builtins:dict")
            ci = self.project.resolve_class(self.ref.module, dotted)
            if ci is not None:
                return TypeRef(ci.qual)
        for target in self.resolve_call(call, ducks=False):
            node = target.node
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.returns is not None
            ):
                tref = _annotation_type(node.returns)
                if tref is not None:
                    return self.project._reresolve(target.module, tref)
        return None

    def expr_type(self, expr: ast.expr) -> TypeRef | None:
        """Best-effort static type of an expression in this function."""
        return self._expr_type(expr)

    # ---------------------------------------------------------- resolution

    def resolve_call(self, call: ast.Call, ducks: bool = False) -> list[FunctionRef]:
        """Project functions this call may invoke.  With ``ducks``,
        unresolvable or abstract method receivers widen to every project
        method of that name (capped) — may-analyses only."""
        out = self._resolve_func(call.func, ducks)
        widened: list[FunctionRef] = []
        for ref in out:
            if ducks and _is_abstract(ref.node):
                widened.extend(
                    d
                    for d in self.project.duck_methods(ref.name)
                    if d.qual != ref.qual
                )
        out.extend(widened)
        return out

    def _resolve_func(self, func: ast.expr, ducks: bool) -> list[FunctionRef]:
        if isinstance(func, ast.Name):
            if func.id in self._local_defs:
                return [
                    FunctionRef(
                        self.ref.module,
                        self.ref.cls,
                        func.id,
                        self._local_defs[func.id],
                    )
                ]
            found = self.project.resolve_function(self.ref.module, func.id)
            if found is not None:
                return [found]
            ci = self.project.resolve_class(self.ref.module, func.id)
            if ci is not None:
                ctor = self.project.method(ci, "__init__")
                return [ctor] if ctor is not None else []
            return []
        if not isinstance(func, ast.Attribute):
            return []
        # Receiver typing: self.m, self.attr.m, local.m, alias.m, Cls.m.
        recv = func.value
        tref = self._expr_type(recv)
        if tref is not None and not tref.is_builtin:
            ci = self.project.class_by_qual(tref.qual)
            if ci is not None:
                m = self.project.method(ci, func.attr)
                if m is not None:
                    return [m]
                if ducks:
                    return self.project.duck_methods(func.attr)
                return []
        dotted = _dotted(func)
        if dotted is not None:
            found = self.project.resolve_function(self.ref.module, dotted)
            if found is not None:
                return [found]
            head, _, tail = dotted.rpartition(".")
            if head:
                ci = self.project.resolve_class(self.ref.module, head)
                if ci is not None:
                    m = self.project.method(ci, tail)
                    if m is not None:
                        return [m]
        if ducks:
            return self.project.duck_methods(func.attr)
        return []

    def callback_args(self, call: ast.Call) -> list[FunctionRef]:
        """Lambdas and locally-defined functions passed as arguments —
        assumed invoked by the callee (``router.retrying(attempt)``)."""
        out: list[FunctionRef] = []
        for arg in [*call.args, *[kw.value for kw in call.keywords]]:
            if isinstance(arg, ast.Lambda):
                out.append(
                    FunctionRef(self.ref.module, self.ref.cls, "<lambda>", arg)
                )
            elif isinstance(arg, ast.Name) and arg.id in self._local_defs:
                out.append(
                    FunctionRef(
                        self.ref.module,
                        self.ref.cls,
                        arg.id,
                        self._local_defs[arg.id],
                    )
                )
        return out


def _is_abstract(node: ast.AST) -> bool:
    """Protocol/ABC stubs (``...``/``pass``/docstring-only bodies) — a
    typed receiver that resolves to one says nothing about runtime
    dispatch, so may-analyses widen it to duck candidates."""
    if isinstance(node, ast.Lambda):
        return False
    body = getattr(node, "body", [])
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue
        if isinstance(stmt, ast.Raise):
            exc = stmt.exc
            name = _dotted(exc.func if isinstance(exc, ast.Call) else exc) if exc else None
            if name and name.rsplit(".", 1)[-1] == "NotImplementedError":
                continue
        return False
    return True


# ================================================================== caching


def tree_digest(root: Path, files: list[Path] | None = None) -> str:
    """Content digest of every analyzed file (cache key)."""
    root = Path(root)
    if files is None:
        files = [
            p for p in sorted(root.rglob("*.py")) if "__pycache__" not in p.parts
        ]
    h = hashlib.sha256()
    for path in files:
        h.update(path.relative_to(root).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def load_or_build(root: Path, cache_path: Path | None = None) -> ProjectIndex:
    """Build the index, or reload it from ``cache_path`` when the tree
    digest matches (keeps repeated CI invocations under the time box)."""
    root = Path(root)
    if cache_path is None:
        return ProjectIndex.build(root)
    digest = tree_digest(root)
    try:
        with open(cache_path, "rb") as fh:
            cached_digest, index = pickle.load(fh)
        if cached_digest == digest and isinstance(index, ProjectIndex):
            index.cache = {}
            return index
    except (OSError, pickle.PickleError, EOFError, AttributeError, ValueError):
        pass  # htaplint: ignore[HTL005] -- cache miss/corruption falls back to a fresh build
    index = ProjectIndex.build(root)
    try:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        with open(cache_path, "wb") as fh:
            pickle.dump((digest, index), fh)
    except OSError:
        pass  # htaplint: ignore[HTL005] -- read-only checkout: cache write is best-effort
    return index
