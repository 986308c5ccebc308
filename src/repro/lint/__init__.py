"""repro-lint: determinism, typing & async-concurrency static analysis.

The verification story of this reproduction rests on properties that
its tests cannot see directly:

1. **Determinism** — every execution is replayed from seeds, compared
   against golden digests, and merged byte-identically across worker
   processes.  One unseeded RNG draw, wall-clock read, or unordered
   ``set`` iteration leaking into a trace or message silently
   invalidates all of that (DET001-DET005).
2. **Typing** — TYP001 mirrors the CI ``mypy`` strict gate so it is
   checkable where mypy is not installed.
3. **Async concurrency** — the live runtime's check-then-act, dropped
   task, blocking-call, swallowed-cancel and leaked-resource hazards
   (ASYNC001-ASYNC005, built on :mod:`repro.lint.flow`).

The paper's precondition/effect transcriptions (Figs. 3, 6, 8-10) are
checked by behaviour (unit tests, the exhaustive BFS, the Lemma 6.x
suite), not by shape: DESIGN.md's rule ledger names the test that
catches each of those defect classes.

This package is a self-contained AST analyzer (stdlib :mod:`ast` +
:mod:`tokenize`, no third-party dependencies).  Run it as::

    python -m repro.lint src
    python -m repro.lint --list-rules

Findings are suppressed line-by-line with ``# repro-lint:
ignore[RULE]`` comments; each suppression silences only the rules it
names (``ignore[*]`` silences all) on its own physical line.
"""

from __future__ import annotations

from repro.lint.engine import (
    ALL_RULES,
    FileContext,
    LintResult,
    Rule,
    analyze_paths,
    iter_python_files,
    rule_by_id,
)
from repro.lint.model import Finding

__version__ = "1.0.0"

__all__ = [
    "ALL_RULES",
    "FileContext",
    "Finding",
    "LintResult",
    "Rule",
    "analyze_paths",
    "iter_python_files",
    "rule_by_id",
    "__version__",
]
