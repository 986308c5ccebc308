"""Finding data model for repro-lint."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One analyzer finding, anchored to a source location.

    The field order (path, line, col, rule) doubles as the sort order
    used by every reporter, so output is stable across runs and across
    platforms regardless of rule execution order.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    suppressed: bool = False
    #: justification text from the suppression comment (suppressed
    #: findings only) — what ``--show-suppressed`` audits read.
    note: str = ""

    def format(self) -> str:
        """Render in the conventional ``path:line:col: RULE message`` shape."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(frozen=True, order=True)
class StaleSuppression:
    """A ``repro-lint: ignore[...]`` directive that silenced nothing.

    Stale directives are warnings, not findings: they do not fail the
    gate on their own, but they hide future regressions (the code they
    excused was fixed or moved, and the comment now pre-forgives
    whatever lands on that line next).
    """

    path: str
    line: int
    #: the named rule ids with no finding on the line ("*" for blanket).
    rules: tuple[str, ...]

    def format(self) -> str:
        named = ",".join(self.rules)
        return (
            f"{self.path}:{self.line}: warning: stale suppression "
            f"ignore[{named}] — no such finding on this line; remove it"
        )
