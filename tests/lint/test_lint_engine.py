"""Engine plumbing: module scoping, pragmas, discovery, resolution."""

from __future__ import annotations

from pathlib import Path

from repro.lint.engine import (
    FileContext,
    analyze_file,
    analyze_paths,
    iter_python_files,
    rule_by_id,
)

REPO = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


def test_module_name_derived_from_package_layout():
    ctx = FileContext.parse(REPO / "src" / "repro" / "core" / "monitor.py")
    assert ctx.module == "repro.core.monitor"


def test_module_name_for_package_init():
    ctx = FileContext.parse(REPO / "src" / "repro" / "lint" / "__init__.py")
    assert ctx.module == "repro.lint"


def test_module_pragma_overrides_layout(tmp_path):
    path = tmp_path / "loose.py"
    path.write_text("# repro-lint: module=repro.core.fixture_x\nX: int = 1\n")
    assert FileContext.parse(path).module == "repro.core.fixture_x"


def test_scoped_rule_skips_out_of_scope_modules(tmp_path):
    source = "def untyped(a, b):\n    return a + b\n"
    outside = tmp_path / "outside.py"
    outside.write_text(source)
    inside = tmp_path / "inside.py"
    inside.write_text("# repro-lint: module=repro.core.machine\n" + source)
    rule = rule_by_id("TYP001")
    assert analyze_file(outside, rules=[rule]) == []
    assert [f.rule for f in analyze_file(inside, rules=[rule])] == ["TYP001"]


def test_import_alias_resolution(tmp_path):
    path = tmp_path / "alias.py"
    path.write_text(
        "import random as rnd\n"
        "from time import perf_counter as tick\n"
        "a = rnd.random()\n"
        "b = tick()\n"
    )
    findings = analyze_file(
        path, rules=[rule_by_id("DET001"), rule_by_id("DET002")]
    )
    assert sorted(f.rule for f in findings) == ["DET001", "DET002"]


def test_iter_python_files_skips_pycache(tmp_path):
    (tmp_path / "keep.py").write_text("X: int = 1\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    (cache / "keep.cpython-311.pyc.py").write_text("X: int = 2\n")
    found = list(iter_python_files([tmp_path]))
    assert [p.name for p in found] == ["keep.py"]


def test_analyze_paths_accepts_files_and_dirs(tmp_path):
    (tmp_path / "a.py").write_text("import random\nx = random.random()\n")
    single = tmp_path / "b.py"
    single.write_text("import random\ny = random.random()\n")
    result = analyze_paths([tmp_path, single], select=["DET001"])
    # b.py is found both via the directory walk and the explicit path,
    # but is scanned once.
    assert result.files_scanned == 2
    assert result.counts == {"DET001": 2}


def test_counts_and_ok_flags():
    result = analyze_paths([FIXTURES / "det002_wall_clock.py"])
    assert not result.ok
    assert result.counts.get("DET002", 0) == len(
        [f for f in result.findings if f.rule == "DET002"]
    )
    clean = analyze_paths(
        [FIXTURES / "det002_wall_clock.py"], select=["TYP001"]
    )
    assert clean.ok and clean.counts == {}
