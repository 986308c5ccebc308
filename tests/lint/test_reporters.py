"""Text and rule-list reporters over a fixed fixture subset."""

from __future__ import annotations

from pathlib import Path

from repro.lint import analyze_paths
from repro.lint.report import render_rule_list, render_text

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_result():
    return analyze_paths(
        [FIXTURES / "det001_unseeded_random.py"], select=["DET001"]
    )


def test_text_report_lines_and_summary():
    result = fixture_result()
    lines = render_text(result).splitlines()
    assert len(lines) == len(result.findings) + 1
    for line, finding in zip(lines, result.findings):
        assert line == finding.format()
        path, lineno, col, rest = line.split(":", 3)
        assert path.endswith("det001_unseeded_random.py")
        assert int(lineno) == finding.line and int(col) == finding.col
        assert rest.strip().startswith("DET001 ")
    assert lines[-1].endswith("in 1 files")
    assert lines[-1].startswith(f"{len(result.findings)} findings")


def test_text_report_show_suppressed():
    result = fixture_result()
    assert result.suppressed
    plain = render_text(result)
    verbose = render_text(result, show_suppressed=True)
    assert "(suppressed)" not in plain
    suppressed_lines = [
        line for line in verbose.splitlines() if line.endswith("(suppressed)")
    ]
    assert len(suppressed_lines) == len(result.suppressed)


def test_text_findings_are_sorted_and_stable():
    result = analyze_paths([FIXTURES])
    keys = [(f.path, f.line, f.col, f.rule) for f in result.findings]
    assert keys == sorted(keys)
    text = render_text(result)
    assert text.splitlines()[: len(keys)] == [f.format() for f in result.findings]
    assert text == render_text(analyze_paths([FIXTURES]))


def test_rule_list_mentions_every_rule_once():
    listing = render_rule_list().splitlines()
    ids = [line.split()[0] for line in listing]
    assert len(ids) == len(set(ids)) >= 8
    assert "DET001" in ids and "TYP001" in ids and "ASYNC001" in ids
