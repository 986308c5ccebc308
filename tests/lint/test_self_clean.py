"""The repo's own source tree passes its own analyzer (the CI gate)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import ALL_RULES, analyze_paths

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.fixture(scope="module")
def src_scan():
    """One full scan of src/, shared by every test here."""
    return analyze_paths([SRC])


def test_src_tree_has_zero_active_findings(src_scan):
    result = src_scan
    assert result.findings == [], "\n".join(
        f.format() for f in result.findings
    )
    assert result.ok


def test_src_tree_scan_covers_the_whole_package(src_scan):
    result = src_scan
    assert result.files_scanned >= 70


def test_suppressions_in_src_are_rare_and_accounted_for(src_scan):
    """Suppressions are allowed but must stay deliberate: the DET002
    wall-clock exemptions (operator-facing timing in the chaos
    envelope) and the one ASYNC003 spawn-time log create, nothing
    else."""
    result = src_scan
    assert {f.rule for f in result.suppressed} <= {"DET002", "ASYNC003"}
    assert len(result.suppressed) <= 5


def test_src_suppressions_all_carry_justifications(src_scan):
    """The CI audit: every suppression in src/ must say *why* — the
    text after ``ignore[...]`` travels with the finding as its note."""
    result = src_scan
    missing = [f.format() for f in result.suppressed if not f.note]
    assert not missing, "suppressions without justification:\n" + "\n".join(missing)


def test_src_has_no_stale_suppressions(src_scan):
    """A suppression naming a rule with no finding on its line is dead
    weight that pre-forgives future regressions; src/ keeps zero."""
    result = src_scan
    assert result.stale == [], "\n".join(s.format() for s in result.stale)


def test_rule_inventory_meets_issue_floor():
    """ISSUE requires >= 8 demonstrated rules across 4 families."""
    ids = {rule.id for rule in ALL_RULES}
    assert len(ids) >= 8
    families = {rule_id.rstrip("0123456789") for rule_id in ids}
    assert {"DET", "IOA", "SNAP", "ASYNC"} <= families


def test_async_rules_clean_on_src_and_pr7_shape_caught(src_scan):
    """The ISSUE-9 acceptance gate: the ASYNC family reports zero
    active findings on src, while the seeded PR-7 reply-stealing
    fixture is flagged by ASYNC001 (and its locked form is clean)."""
    async_ids = ["ASYNC001", "ASYNC002", "ASYNC003", "ASYNC004", "ASYNC005"]
    findings = [f for f in src_scan.findings if f.rule in async_ids]
    assert findings == [], "\n".join(f.format() for f in findings)

    fixture = Path(__file__).parent / "fixtures" / "async001_check_then_act.py"
    flagged = analyze_paths([fixture], select=["ASYNC001"])
    lines = {f.line for f in flagged.findings}
    text = fixture.read_text().splitlines()
    racing_write = next(
        i for i, line in enumerate(text, 1) if "lint-expect[ASYNC001]" in line
    )
    locked_def = next(
        i for i, line in enumerate(text, 1) if "request_locked_is_clean" in line
    )
    locked_end = next(
        i for i, line in enumerate(text, 1) if "act_before_await_is_clean" in line
    )
    assert racing_write in lines  # the PR-7 bug shape is caught
    assert not lines & set(range(locked_def, locked_end))  # fixed form clean
