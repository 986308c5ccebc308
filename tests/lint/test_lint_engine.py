"""Engine plumbing: module scoping, pragmas, discovery, resolution."""

from __future__ import annotations

import ast
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


def test_functions_lists_every_def_with_its_class(tmp_path):
    """Defs stand in statement lists only: under a handler, a match
    case, a nested class or another def, in source order."""
    path = tmp_path / "defs.py"
    path.write_text(
        "def top():\n"
        "    def inner(): pass\n"
        "class C:\n"
        "    def m(self): pass\n"
        "    class D:\n"
        "        async def n(self): pass\n"
        "try:\n"
        "    pass\n"
        "except OSError:\n"
        "    def handler(): pass\n"
        "match 1:\n"
        "    case 1:\n"
        "        def case(): pass\n"
        "f = lambda: 0\n"
    )
    ctx = FileContext.parse(path)
    assert [(f.name, c and c.name) for f, c in ctx.functions()] == [
        ("top", None),
        ("inner", None),
        ("m", "C"),
        ("n", "D"),
        ("handler", None),
        ("case", None),
    ]
    assert ctx.functions() is ctx.functions()


def _reference_walk(node, cls=None):
    """The recursive walk the rules used before ``FileContext.functions``:
    every def with its enclosing class, descending into every node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _reference_walk(child, child)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child, cls
            yield from _reference_walk(child, cls)
        else:
            yield from _reference_walk(child, cls)


def test_functions_match_a_full_walk_over_src():
    """Skipping expressions loses no def: over the whole package the
    pruned walk lists the same defs, classes and order as a walk that
    visits every node."""
    files = iter_python_files([REPO / "src" / "repro"])
    assert files
    for path in files:
        ctx = FileContext.parse(path)
        assert ctx.functions() == list(_reference_walk(ctx.tree)), path


def test_functions_keep_the_class_of_a_method_for_nested_defs(tmp_path):
    path = tmp_path / "methods.py"
    path.write_text(
        "class C:\n"
        "    def m(self):\n"
        "        def helper(): pass\n"
        "    if True:\n"
        "        def cond(self): pass\n"
        "    @staticmethod\n"
        "    def s(): pass\n"
    )
    ctx = FileContext.parse(path)
    assert [(f.name, c and c.name) for f, c in ctx.functions()] == [
        ("m", "C"),
        ("helper", "C"),
        ("cond", "C"),
        ("s", "C"),
    ]


def test_functions_in_a_function_local_class(tmp_path):
    path = tmp_path / "local.py"
    path.write_text(
        "def factory():\n"
        "    class Local:\n"
        "        def g(self): pass\n"
        "    def after(): pass\n"
        "    return Local\n"
    )
    ctx = FileContext.parse(path)
    assert [(f.name, c and c.name) for f, c in ctx.functions()] == [
        ("factory", None),
        ("g", "Local"),
        ("after", None),
    ]
