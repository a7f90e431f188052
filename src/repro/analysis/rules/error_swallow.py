"""HTL005 — no swallowed errors on the engine's critical paths.

Durability and consensus code must fail loudly: an ``except Exception:
pass`` in the WAL force path or the Raft apply loop converts a
corruption bug into silent data loss that only surfaces as a wrong
Table 1 number three PRs later.  The same holds for the query kernels
(a broad except degrades a kernel bug into a silent scalar fallback —
see the ``_Unvectorizable`` handlers in ``query/executor.py``, which
catch only that signal), the session front door, and the TP→AP sync
pipeline.  Within ``txn/``, ``distributed/``, ``query/``,
``session/``, and ``sync/`` this rule flags:

* any handler whose body is only ``pass``/``...`` (regardless of how
  narrow the caught type is);
* any handler catching ``Exception``/``BaseException`` or using a bare
  ``except:`` that does not re-``raise`` somewhere in its body.

Handlers that log-and-reraise, translate to a domain error (``raise X
from err``), or catch a *specific* exception and handle it with real
statements all pass.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import FileContext, Finding, register

_SCOPES = ("txn/", "distributed/", "query/", "session/", "sync/")

_BROAD = {"Exception", "BaseException"}


def _in_scope(ctx: FileContext) -> bool:
    return any(scope in ctx.path for scope in _SCOPES)


def _caught_names(handler: ast.ExceptHandler) -> set[str]:
    if handler.type is None:
        return {"<bare>"}
    nodes = (
        handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    )
    names: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _body_is_noop(body: list[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or `...`
        return False
    return True


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(node, ast.Raise) for node in ast.walk(handler))


@register(
    "HTL005",
    "swallowed-error",
    "pass-only or broad except without re-raise in txn/WAL/Raft code",
)
def check(ctx: FileContext) -> Iterator[Finding]:
    if not _in_scope(ctx):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = _caught_names(node)
        if _body_is_noop(node.body):
            yield Finding(
                "HTL005",
                ctx.path,
                node.lineno,
                f"except {'/'.join(sorted(caught))} swallows the error "
                "(pass-only body) on a durability-critical path",
            )
            continue
        if (caught & _BROAD or "<bare>" in caught) and not _reraises(node):
            yield Finding(
                "HTL005",
                ctx.path,
                node.lineno,
                f"broad except {'/'.join(sorted(caught))} without re-raise "
                "can hide txn/WAL/Raft failures",
            )
