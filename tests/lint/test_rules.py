"""Every rule fires on its fixture file — exact rule ids and lines.

Each fixture marks the lines that must be reported with
``lint-expect[RULE]`` comments, so the expected line numbers are read
from the fixture itself and the assertions stay exact under edits.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.lint import analyze_paths
from repro.lint.engine import analyze_file, rule_by_id

FIXTURES = Path(__file__).parent / "fixtures"

_EXPECT_RE = re.compile(r"lint-expect\[([A-Z]+\d+)\]")

FIXTURE_RULES = {
    "det001_unseeded_random.py": "DET001",
    "det002_wall_clock.py": "DET002",
    "det003_unsorted_iteration.py": "DET003",
    "det004_identity_ordering.py": "DET004",
    "det005_environ_read.py": "DET005",
    "typ001_untyped_defs.py": "TYP001",
    "async001_check_then_act.py": "ASYNC001",
    "async002_dropped_handle.py": "ASYNC002",
    "async003_blocking_call.py": "ASYNC003",
    "async004_swallowed_cancel.py": "ASYNC004",
    "async005_unreleased_resource.py": "ASYNC005",
}


def expected_lines(path: Path, rule_id: str) -> set[int]:
    """Line numbers carrying a ``lint-expect[rule_id]`` marker."""
    out = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if any(match == rule_id for match in _EXPECT_RE.findall(line)):
            out.add(lineno)
    return out


def active_findings(path: Path, rule_id: str):
    rule = rule_by_id(rule_id)
    return [
        finding
        for finding in analyze_file(path, rules=[rule])
        if not finding.suppressed
    ]


@pytest.mark.parametrize("fixture,rule_id", sorted(FIXTURE_RULES.items()))
def test_rule_fires_on_exact_lines(fixture, rule_id):
    path = FIXTURES / fixture
    expected = expected_lines(path, rule_id)
    assert expected, f"fixture {fixture} declares no expected lines"
    findings = active_findings(path, rule_id)
    assert {f.line for f in findings} == expected
    assert all(f.rule == rule_id for f in findings)
    assert all(f.path.endswith(fixture) for f in findings)


@pytest.mark.parametrize("fixture,rule_id", sorted(FIXTURE_RULES.items()))
def test_suppression_silences_only_its_own_rule(fixture, rule_id):
    """Each fixture has a same-rule suppression (silenced) and a
    wrong-rule suppression (still fires, already in the expected set)."""
    path = FIXTURES / fixture
    rule = rule_by_id(rule_id)
    all_findings = analyze_file(path, rules=[rule])
    suppressed = [f for f in all_findings if f.suppressed]
    assert suppressed, f"fixture {fixture} demonstrates no suppression"
    active = {f.line for f in all_findings if not f.suppressed}
    assert not active & {f.line for f in suppressed}


def test_full_run_matches_per_rule_runs():
    """Running all rules at once reports the same per-rule findings."""
    result = analyze_paths([FIXTURES])
    for fixture, rule_id in FIXTURE_RULES.items():
        path = FIXTURES / fixture
        full = {
            f.line
            for f in result.findings
            if f.rule == rule_id and f.path.endswith(fixture)
        }
        assert full == expected_lines(path, rule_id)


# ----------------------------------------------------------------------
# Rule-specific sharp edges
# ----------------------------------------------------------------------
def test_det001_allows_seeded_construction():
    path = FIXTURES / "det001_unseeded_random.py"
    findings = active_findings(path, "DET001")
    seeded_line = next(
        i
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if "random.Random(seed)" in line
    )
    assert seeded_line not in {f.line for f in findings}
