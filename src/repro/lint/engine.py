"""Analysis engine: file contexts, import resolution, suppressions, rules.

The engine parses each file once into a :class:`FileContext` carrying
everything rules need — the AST, an import-resolution map, the
suppression table, and the module's dotted name — then runs every
selected rule over it and applies line-scoped suppressions to the
findings the rules yield.

Suppression comments::

    self.t0 = time.perf_counter()  # repro-lint: ignore[DET002] -- operator wall-clock
    foo()  # repro-lint: ignore[DET001,DET002]
    bar()  # repro-lint: ignore[*]

A suppression silences only the named rules (or all, for ``*``) on its
own physical line; findings are anchored to the line of the offending
AST node, so the comment goes on that line.  Text after the bracket is
the *justification* — it travels with the suppressed finding so
``--show-suppressed`` audits read as prose, and CI requires one on
every ASYNC suppression.  A suppression naming a rule that reports
nothing on its line is *stale* and surfaces as a warning.

Fixture files outside ``src`` can claim a module identity for scoped
rules with a pragma comment anywhere in the file::

    # repro-lint: module=repro.core.fixture
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.model import Finding, StaleSuppression

_SUPPRESS_RE = re.compile(r"repro-lint:\s*ignore\[([^\]]*)\]")
_MODULE_RE = re.compile(r"repro-lint:\s*module=([\w.]+)")

#: Rule id used for files the engine cannot parse.  Not suppressible —
#: a syntax-broken file must always fail the gate.
PARSE_ERROR_RULE = "LINT000"


def _module_name_for(path: Path) -> str:
    """Derive a dotted module name by walking up through packages."""
    resolved = path.resolve()
    parts = [resolved.stem] if resolved.stem != "__init__" else []
    parent = resolved.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else resolved.stem


@dataclass
class FileContext:
    """Everything the rules need to know about one parsed source file."""

    path: str
    module: str
    tree: ast.Module
    #: line number -> set of suppressed rule ids ("*" = all rules).
    suppressions: dict[int, frozenset[str]]
    #: line number -> justification text after the ``ignore[...]``.
    suppression_notes: dict[int, str]
    #: name in this module -> dotted origin ("random", "time.perf_counter").
    imports: dict[str, str]
    #: lazily populated: child node -> parent node.
    _parents: dict[int, ast.AST] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, path: Path, display_path: str | None = None) -> FileContext:
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        suppressions, notes, module_pragma = _scan_comments(text)
        module = module_pragma or _module_name_for(path)
        return cls(
            path=display_path or str(path),
            module=module,
            tree=tree,
            suppressions=suppressions,
            suppression_notes=notes,
            imports=_import_map(tree),
        )

    # ------------------------------------------------------------------
    def resolve(self, node: ast.AST) -> str | None:
        """Resolve a Name/Attribute chain to its dotted import origin.

        ``random.Random`` -> ``"random.Random"`` under ``import random``;
        ``perf_counter`` -> ``"time.perf_counter"`` under ``from time
        import perf_counter``.  Returns None when the root name is not
        an import (a local variable, parameter, builtin, ...).
        """
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            return f"{base}.{node.attr}" if base is not None else None
        if isinstance(node, ast.Name):
            return self.imports.get(node.id)
        return None

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        rules = self.suppressions.get(line)
        if rules is None:
            return False
        return "*" in rules or rule_id in rules

    def parent_of(self, node: ast.AST) -> ast.AST | None:
        """The syntactic parent of ``node`` (built on first use)."""
        if not self._parents:
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    self._parents[id(child)] = parent
        return self._parents.get(id(node))


def _scan_comments(
    text: str,
) -> tuple[dict[int, frozenset[str]], dict[int, str], str | None]:
    """Extract suppression comments (with justification text), and the
    optional module pragma.

    Uses :mod:`tokenize` so directives inside string literals are never
    mistaken for live suppressions.
    """
    suppressions: dict[int, frozenset[str]] = {}
    notes: dict[int, str] = {}
    module_pragma: str | None = None
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if match:
                rules = frozenset(
                    part.strip() for part in match.group(1).split(",") if part.strip()
                )
                if rules:
                    line = tok.start[0]
                    suppressions[line] = suppressions.get(line, frozenset()) | rules
                    note = tok.string[match.end() :].strip().lstrip("-—: ").strip()
                    if note:
                        notes[line] = note
            pragma = _MODULE_RE.search(tok.string)
            if pragma:
                module_pragma = pragma.group(1)
    except tokenize.TokenError:
        pass  # the ast parse already succeeded; comments best-effort
    return suppressions, notes, module_pragma


def _import_map(tree: ast.Module) -> dict[str, str]:
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    # ``import os.path`` binds the name ``os``.
                    root = alias.name.split(".")[0]
                    imports[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue  # relative imports never shadow stdlib modules
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return imports


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
class Rule(ABC):
    """One analysis rule.  Subclasses set ``id`` and ``summary`` and
    yield findings from :meth:`check`; the engine applies suppressions.
    The class docstring is the rule's long-form description.
    """

    id: str = ""
    summary: str = ""

    @abstractmethod
    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield every finding for ``ctx`` (suppression-unaware)."""

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        suppressed = ctx.is_suppressed(self.id, line)
        return Finding(
            path=ctx.path,
            line=line,
            col=col,
            rule=self.id,
            message=message,
            suppressed=suppressed,
            note=ctx.suppression_notes.get(line, "") if suppressed else "",
        )


def _build_registry() -> tuple[Rule, ...]:
    from repro.lint.rules import ALL_RULE_CLASSES

    return tuple(cls() for cls in ALL_RULE_CLASSES)


_REGISTRY: tuple[Rule, ...] | None = None


def all_rules() -> tuple[Rule, ...]:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _build_registry()
    return _REGISTRY


def rule_by_id(rule_id: str) -> Rule:
    for rule in all_rules():
        if rule.id == rule_id:
            return rule
    raise KeyError(f"unknown rule id: {rule_id!r}")


class _LazyRules(Sequence[Rule]):
    """Sequence view over the registry, resolved on first access so the
    package can be imported without importing every rule module."""

    def __len__(self) -> int:
        return len(all_rules())

    def __getitem__(self, index: int) -> Rule:  # type: ignore[override]
        return all_rules()[index]

    def __iter__(self) -> Iterator[Rule]:
        return iter(all_rules())


ALL_RULES: Sequence[Rule] = _LazyRules()


# ----------------------------------------------------------------------
# Driving
# ----------------------------------------------------------------------
@dataclass
class LintResult:
    """The outcome of analysing a set of paths."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    #: suppression comments naming selected rules that reported nothing
    #: on their line — dead directives that hide future regressions.
    stale: list[StaleSuppression] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for finding in self.findings:
            out[finding.rule] = out.get(finding.rule, 0) + 1
        return dict(sorted(out.items()))

    @property
    def ok(self) -> bool:
        return not self.findings


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a deduplicated list of ``.py`` files."""
    out: list[Path] = []
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = [
                p
                for p in sorted(path.rglob("*.py"))
                if "__pycache__" not in p.parts
            ]
        elif path.suffix == ".py":
            candidates = [path]
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
        for candidate in candidates:
            key = candidate.resolve()
            if key not in seen:
                seen.add(key)
                out.append(candidate)
    return out


def _parse_or_error(path: Path, shown: str) -> FileContext | Finding:
    try:
        return FileContext.parse(path, display_path=shown)
    except SyntaxError as exc:
        return Finding(
            path=shown,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            rule=PARSE_ERROR_RULE,
            message=f"syntax error: {exc.msg}",
        )


def _run_rules(ctx: FileContext, rules: Sequence[Rule]) -> list[Finding]:
    findings: list[Finding] = []
    for rule in rules:
        findings.extend(rule.check(ctx))
    return findings


def stale_suppressions(
    ctx: FileContext, findings: Sequence[Finding], rules: Sequence[Rule]
) -> list[StaleSuppression]:
    """Suppression comments in ``ctx`` that silenced nothing.

    A directive is stale for each *selected* rule it names that has no
    finding on its line (rules outside the current selection are left
    alone — running ``--select ASYNC001`` must not flag every DET
    suppression in the tree).  A ``*`` directive is stale when the line
    has no finding at all.
    """
    rule_ids = {rule.id for rule in rules}
    hits_by_line: dict[int, set[str]] = {}
    for finding in findings:
        hits_by_line.setdefault(finding.line, set()).add(finding.rule)
    out: list[StaleSuppression] = []
    for line, named in sorted(ctx.suppressions.items()):
        hits = hits_by_line.get(line, set())
        if "*" in named:
            if not hits:
                out.append(StaleSuppression(path=ctx.path, line=line, rules=("*",)))
            continue
        dead = sorted((named & rule_ids) - hits)
        if dead:
            out.append(StaleSuppression(path=ctx.path, line=line, rules=tuple(dead)))
    return out


def analyze_file(
    path: Path,
    rules: Sequence[Rule] | None = None,
    display_path: str | None = None,
) -> list[Finding]:
    """Run ``rules`` (default: all) over one file; findings carry their
    suppression flag but are *not* filtered here."""
    shown = display_path or str(path)
    parsed = _parse_or_error(path, shown)
    if isinstance(parsed, Finding):
        return [parsed]
    return _run_rules(parsed, rules if rules is not None else all_rules())


def select_rules(
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[Rule]:
    """Resolve ``--select`` / ``--ignore`` id lists to rule instances."""
    chosen = (
        [rule_by_id(rid) for rid in select]
        if select is not None
        else list(all_rules())
    )
    if ignore:
        dropped = set(ignore)
        for rid in dropped:
            rule_by_id(rid)  # validate: unknown ids are an error
        chosen = [rule for rule in chosen if rule.id not in dropped]
    return chosen


def analyze_paths(
    paths: Iterable[str | Path],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> LintResult:
    """Analyse every python file under ``paths`` with the selected rules."""
    rules = select_rules(select, ignore)
    result = LintResult()
    for path in iter_python_files(paths):
        result.files_scanned += 1
        parsed = _parse_or_error(path, str(path))
        if isinstance(parsed, Finding):
            result.findings.append(parsed)
            continue
        file_findings = _run_rules(parsed, rules)
        result.stale.extend(stale_suppressions(parsed, file_findings, rules))
        for finding in file_findings:
            if finding.suppressed:
                result.suppressed.append(finding)
            else:
                result.findings.append(finding)
    result.findings.sort()
    result.suppressed.sort()
    result.stale.sort()
    return result
