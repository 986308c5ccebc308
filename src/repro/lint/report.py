"""Reporters: render a :class:`~repro.lint.engine.LintResult`.

Findings are listed in (path, line, col, rule) order so output is
byte-stable across runs — the same discipline the analyzer enforces on
the code it scans.
"""

from __future__ import annotations

from repro.lint.engine import LintResult, all_rules


def render_text(result: LintResult, show_suppressed: bool = False) -> str:
    """Human-readable ``path:line:col: RULE message`` lines + summary."""
    lines = [finding.format() for finding in result.findings]
    if show_suppressed:
        for finding in result.suppressed:
            tail = f" -- {finding.note}" if finding.note else ""
            lines.append(f"{finding.format()} (suppressed{tail})")
    lines.extend(stale.format() for stale in result.stale)
    total = len(result.findings)
    noun = "finding" if total == 1 else "findings"
    summary = (
        f"{total} {noun} ({len(result.suppressed)} suppressed) "
        f"in {result.files_scanned} files"
    )
    if result.stale:
        summary += f", {len(result.stale)} stale suppression warnings"
    lines.append(summary)
    return "\n".join(lines)


def render_rule_list() -> str:
    """``--list-rules`` output: one ``ID  summary`` line per rule."""
    return "\n".join(f"{rule.id}  {rule.summary}" for rule in all_rules())
