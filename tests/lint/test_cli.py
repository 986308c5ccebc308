"""CLI behavior: exit codes, selection flags, and ``python -m`` entry."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.cli import main

REPO = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"
DET1 = str(FIXTURES / "det001_unseeded_random.py")


def run_main(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_clean_tree_exits_zero(capsys, tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("X: int = 1\n")
    code, out = run_main(capsys, str(clean))
    assert code == 0
    assert out.strip().endswith("in 1 files")


def test_findings_exit_one(capsys):
    code, out = run_main(capsys, DET1)
    assert code == 1
    assert "DET001" in out


def test_missing_path_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([str(FIXTURES / "no_such_file.py")])
    assert excinfo.value.code == 2


def test_unknown_rule_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--select", "NOPE999", DET1])
    assert excinfo.value.code == 2


def test_select_restricts_rules(capsys):
    code, out = run_main(capsys, "--select", "DET002", DET1)
    assert code == 0
    assert "DET001" not in out


def test_ignore_excludes_rules(capsys):
    code, out = run_main(capsys, "--ignore", "DET001", DET1)
    assert code == 0


def test_show_suppressed(capsys):
    _, plain = run_main(capsys, DET1)
    _, verbose = run_main(capsys, "--show-suppressed", DET1)
    assert "(suppressed)" not in plain
    assert "(suppressed)" in verbose


def test_list_rules(capsys):
    code, out = run_main(capsys, "--list-rules")
    assert code == 0
    ids = [line.split()[0] for line in out.splitlines()]
    assert len(ids) == 11
    assert "DET001" in ids and "TYP001" in ids and "ASYNC005" in ids


def test_python_dash_m_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", DET1],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )
    assert proc.returncode == 1
    assert "DET001" in proc.stdout


def test_list_rules_includes_async_family(capsys):
    code, out = run_main(capsys, "--list-rules")
    assert code == 0
    for rule_id in ("ASYNC001", "ASYNC002", "ASYNC003", "ASYNC004", "ASYNC005"):
        assert rule_id in out


def test_stale_suppression_surfaces_as_warning(capsys, tmp_path):
    target = tmp_path / "stale.py"
    target.write_text("x = 1  # repro-lint: ignore[DET001]\n")
    code, out = run_main(capsys, str(target))
    assert code == 0  # warnings never fail the gate on their own
    assert "warning: stale suppression" in out
    assert "ignore[DET001]" in out


def test_suppression_note_shown_in_audit(capsys, tmp_path):
    target = tmp_path / "noted.py"
    target.write_text(
        "import random\n"
        "x = random.random()  # repro-lint: ignore[DET001] -- demo seed\n"
    )
    code, out = run_main(capsys, "--show-suppressed", str(target))
    assert code == 0
    assert "(suppressed -- demo seed)" in out
