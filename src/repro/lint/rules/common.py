"""Shared helpers for repro-lint rules."""

from __future__ import annotations

import ast
from collections.abc import Iterator

#: Dotted names whose *call* reads a host clock.  Reading wall-clock
#: time inside the reproduction breaks replay-from-seed determinism;
#: only the live runtime (``repro.rt``) and benchmark drivers may
#: observe the host clock.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


def module_matches(module: str, prefixes: tuple[str, ...]) -> bool:
    """True when ``module`` is any of ``prefixes`` or nested under one."""
    return any(
        module == prefix or module.startswith(prefix + ".") for prefix in prefixes
    )


def walk_functions(
    tree: ast.AST,
) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, ast.ClassDef | None]]:
    """Yield every function definition with its enclosing class (if any)."""

    def visit(node: ast.AST, cls: ast.ClassDef | None) -> Iterator[
        tuple[ast.FunctionDef | ast.AsyncFunctionDef, ast.ClassDef | None]
    ]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, cls
                yield from visit(child, cls)
            else:
                yield from visit(child, cls)

    return visit(tree, None)
