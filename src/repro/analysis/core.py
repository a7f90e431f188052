"""htaplint core: findings, rules, suppressions, and the analyzer driver.

The testbed's credibility rests on invariants no generic linter can
see — determinism (SimClock/SeededRNG only), cache-version bumps on
every write path, registered metric names, and no swallowed errors on the
txn/WAL/Raft paths.  ``htaplint`` turns those reviewer conventions into
machine-checked gates: an AST pass per file, a rule registry, per-line
suppression comments, JSON/human output, and exit codes for CI.

Suppression syntax (one per line, after the offending construct)::

    something_suspicious()  # htaplint: ignore[HTL001] -- reason it is safe

The rule list is mandatory and so is the ``-- reason`` tail; a bare
``# htaplint: ignore`` (or one without a reason) is itself a finding
(**HTL000**, the self-hosting suppression audit), and HTL000 cannot be
suppressed.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .project import ProjectIndex

# --------------------------------------------------------------------- findings


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str            # repo-relative, forward slashes
    line: int            # 1-based
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


# --------------------------------------------------------------------- suppressions

#: ``# htaplint: ignore[HTL001,HTL002] -- reason`` (reason mandatory).
_SUPPRESS_RE = re.compile(
    r"#\s*htaplint:\s*ignore"
    r"(?:\[(?P<rules>[A-Z0-9,\s]*)\])?"
    r"(?:\s*--\s*(?P<reason>.*))?\s*$"
)

SUPPRESSION_AUDIT_RULE = "HTL000"


@dataclass(frozen=True)
class Suppression:
    line: int
    rules: frozenset[str]
    reason: str


def parse_suppressions(source: str, path: str) -> tuple[list[Suppression], list[Finding]]:
    """Extract suppression comments; malformed ones become HTL000 findings.

    Uses the tokenizer (not a line regex) so ``# htaplint:`` inside a
    string literal is never mistaken for a directive.
    """
    suppressions: list[Suppression] = []
    audit: list[Finding] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [t for t in tokens if t.type == tokenize.COMMENT]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return [], []
    for tok in comments:
        if "htaplint" not in tok.string:
            continue
        match = _SUPPRESS_RE.search(tok.string)
        if match is None:
            # Mentions htaplint but is not a well-formed directive
            # (e.g. prose in a comment); leave it alone.
            if re.search(r"#\s*htaplint:\s*ignore", tok.string):
                audit.append(
                    Finding(
                        SUPPRESSION_AUDIT_RULE,
                        path,
                        tok.start[0],
                        "malformed suppression; use "
                        "`# htaplint: ignore[RULE] -- reason`",
                    )
                )
            continue
        line = tok.start[0]
        rules_raw = match.group("rules")
        reason = (match.group("reason") or "").strip()
        rules = frozenset(
            r.strip() for r in (rules_raw or "").split(",") if r.strip()
        )
        if not rules:
            audit.append(
                Finding(
                    SUPPRESSION_AUDIT_RULE,
                    path,
                    line,
                    "bare suppression: name the rule(s), e.g. "
                    "`# htaplint: ignore[HTL001] -- reason`",
                )
            )
            continue
        if not reason:
            audit.append(
                Finding(
                    SUPPRESSION_AUDIT_RULE,
                    path,
                    line,
                    f"suppression of {','.join(sorted(rules))} has no reason; "
                    "append `-- <why this is safe>`",
                )
            )
            continue
        suppressions.append(Suppression(line=line, rules=rules, reason=reason))
    return suppressions, audit


# --------------------------------------------------------------------- context


@dataclass
class FileContext:
    """Everything a rule needs about one source file."""

    path: str                      # repo-relative with forward slashes
    source: str
    tree: ast.Module
    suppressions: list[Suppression] = field(default_factory=list)
    #: Metric/span registry for HTL004 (injected by the driver).
    registered_metrics: frozenset[str] = field(default_factory=frozenset)
    registered_spans: frozenset[str] = field(default_factory=frozenset)
    #: Whole-program index for HTL006-HTL009.  The tree driver builds
    #: it once and shares it across files; rules fall back to a
    #: single-module index when it is absent (snippet fixtures).
    project: "ProjectIndex | None" = None


# --------------------------------------------------------------------- rules


@dataclass(frozen=True)
class RuleInfo:
    id: str
    name: str
    description: str


RuleFn = Callable[[FileContext], Iterator[Finding]]

_RULES: dict[str, tuple[RuleInfo, RuleFn]] = {}


def register(rule_id: str, name: str, description: str):
    """Class/function decorator adding a rule to the global registry."""

    def deco(fn: RuleFn) -> RuleFn:
        if rule_id in _RULES:
            raise ValueError(f"duplicate rule id {rule_id}")
        _RULES[rule_id] = (RuleInfo(rule_id, name, description), fn)
        return fn

    return deco


def all_rules() -> list[RuleInfo]:
    # Import for side effect: rule modules self-register on first use.
    from . import rules as _rules  # noqa: F401

    return sorted((info for info, _ in _RULES.values()), key=lambda r: r.id)


# --------------------------------------------------------------------- AST helpers


def attr_chain(node: ast.AST) -> list[str]:
    """Dotted name parts of an attribute/call chain, outermost last.

    ``self.plan_cache.invalidate`` -> ["self", "plan_cache", "invalidate"];
    nested calls/subscripts are looked through:
    ``self._chains.setdefault(k, []).append`` ->
    ["self", "_chains", "setdefault", "append"].
    """
    parts: list[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            break
        else:
            break
    parts.reverse()
    return parts


def first_str_arg(call: ast.Call) -> str | None:
    if call.args and isinstance(call.args[0], ast.Constant):
        value = call.args[0].value
        if isinstance(value, str):
            return value
    return None


# --------------------------------------------------------------------- driver

#: Paths (relative to the repro package root) never analyzed.
_SKIP_PARTS = {"__pycache__"}


def _iter_py_files(root: Path) -> Iterator[Path]:
    for path in sorted(root.rglob("*.py")):
        if any(part in _SKIP_PARTS for part in path.parts):
            continue
        yield path


def _load_registry_names(root: Path) -> tuple[frozenset[str], frozenset[str]]:
    """Statically read REGISTERED_METRICS / REGISTERED_SPANS from
    ``obs/names.py`` under the analyzed tree (no import side effects)."""
    names_py = root / "obs" / "names.py"
    if not names_py.is_file():
        return frozenset(), frozenset()
    metrics: set[str] = set()
    spans: set[str] = set()
    tree = ast.parse(names_py.read_text())
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = {t.id for t in targets if isinstance(t, ast.Name)}
        value = node.value
        if value is None:
            continue
        literals = {
            c.value
            for c in ast.walk(value)
            if isinstance(c, ast.Constant) and isinstance(c.value, str)
        }
        if "REGISTERED_METRICS" in names:
            metrics |= literals
        elif "REGISTERED_SPANS" in names:
            spans |= literals
    return frozenset(metrics), frozenset(spans)


def _selected(rule_ids: Iterable[str] | None) -> list[tuple[RuleInfo, RuleFn]]:
    # Import for side effect: rule modules self-register on first use.
    from . import rules as _rules  # noqa: F401

    if rule_ids is None:
        return [pair for _, pair in sorted(_RULES.items())]
    unknown = set(rule_ids) - set(_RULES)
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    return [_RULES[r] for r in sorted(rule_ids)]


def analyze_file(
    ctx: FileContext, rule_ids: Iterable[str] | None = None
) -> list[Finding]:
    """Run rules over one parsed file, applying same-line suppressions."""
    findings: list[Finding] = []
    suppressed_lines = {s.line: s.rules for s in ctx.suppressions}
    for _info, fn in _selected(rule_ids):
        for finding in fn(ctx):
            rules_here = suppressed_lines.get(finding.line)
            if rules_here is not None and finding.rule in rules_here:
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def analyze_source(
    source: str,
    path: str = "snippet.py",
    rule_ids: Iterable[str] | None = None,
    registered_metrics: frozenset[str] | None = None,
    registered_spans: frozenset[str] | None = None,
) -> list[Finding]:
    """Analyze an in-memory snippet (fixture tests use this)."""
    from .project import ProjectIndex

    suppressions, audit = parse_suppressions(source, path)
    tree = ast.parse(source)
    ctx = FileContext(
        path=path,
        source=source,
        tree=tree,
        suppressions=suppressions,
        registered_metrics=registered_metrics or frozenset(),
        registered_spans=registered_spans or frozenset(),
        project=ProjectIndex.from_single(path, tree),
    )
    findings = analyze_file(ctx, rule_ids)
    if rule_ids is None or SUPPRESSION_AUDIT_RULE in set(rule_ids):
        findings.extend(audit)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def analyze_tree(
    root: Path | str | None = None,
    rule_ids: Iterable[str] | None = None,
    cache_path: Path | str | None = None,
) -> list[Finding]:
    """Analyze every ``.py`` file under the repro package root.

    ``root`` defaults to the installed ``repro`` package directory, so
    ``python -m repro.analysis`` lints whatever tree it runs from.  The
    whole-program index is built once for the tree (reloaded from
    ``cache_path`` when the content digest matches) and shared by every
    file's :class:`FileContext`.
    """
    from .project import ProjectIndex, load_or_build

    if root is None:
        root = Path(__file__).resolve().parent.parent
    root = Path(root)
    metrics, spans = _load_registry_names(root)
    if cache_path is not None:
        project = load_or_build(root, Path(cache_path))
    else:
        project = ProjectIndex.build(root)
    findings: list[Finding] = []
    for path in _iter_py_files(root):
        rel = path.relative_to(root).as_posix()
        source = path.read_text()
        suppressions, audit = parse_suppressions(source, rel)
        try:
            tree = ast.parse(source)
        except SyntaxError as err:
            findings.append(
                Finding("HTL999", rel, err.lineno or 1, f"syntax error: {err.msg}")
            )
            continue
        ctx = FileContext(
            path=rel,
            source=source,
            tree=tree,
            suppressions=suppressions,
            registered_metrics=metrics,
            registered_spans=spans,
            project=project,
        )
        findings.extend(analyze_file(ctx, rule_ids))
        if rule_ids is None or SUPPRESSION_AUDIT_RULE in set(rule_ids):
            findings.extend(audit)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


# --------------------------------------------------------------------- output


def render_human(findings: list[Finding]) -> str:
    if not findings:
        return "htaplint: no findings"
    lines = [f.render() for f in findings]
    by_rule: dict[str, int] = {}
    for f in findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    summary = ", ".join(f"{r}: {n}" for r, n in sorted(by_rule.items()))
    lines.append(f"htaplint: {len(findings)} finding(s) ({summary})")
    return "\n".join(lines)


def render_json(findings: list[Finding]) -> str:
    return json.dumps(
        {
            "findings": [f.to_dict() for f in findings],
            "count": len(findings),
        },
        indent=2,
    )
