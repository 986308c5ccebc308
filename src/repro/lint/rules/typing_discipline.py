"""Typing-discipline rule (TYP001).

The CI ``mypy`` gate runs with ``disallow_untyped_defs`` on
``repro.core``, ``repro.ioa``, ``repro.sim`` (and ``repro.lint``
itself).  This rule enforces the same surface locally without needing
mypy installed: every function in the strict packages must annotate
all parameters and its return type.  It is the fast, dependency-free
first line of the typed-API guarantee that ``py.typed`` advertises.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.engine import FileContext, Rule
from repro.lint.model import Finding
from repro.lint.rules.common import module_matches

#: Packages held to disallow_untyped_defs (mirrors [tool.mypy] overrides).
STRICT_PACKAGES = (
    "repro.core",
    "repro.ioa",
    "repro.sim",
    "repro.lint",
    "repro.obs",
    "repro.obs.live",
    "repro.faults",
    "repro.membership",
    "repro.analysis",
    "repro.rt",
    "repro.parallel",
    "repro.scenarios",
    "repro.shard",
)


class UntypedDefRule(Rule):
    """TYP001: strict packages must fully annotate every def."""

    id = "TYP001"
    summary = "untyped def in a strict-typed package"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not module_matches(ctx.module, STRICT_PACKAGES):
            return
        for func, cls in ctx.functions():
            missing: list[str] = []
            args = func.args
            positional = args.posonlyargs + args.args
            for index, arg in enumerate(positional):
                if arg.annotation is not None:
                    continue
                if index == 0 and cls is not None and arg.arg in ("self", "cls"):
                    if not any(
                        isinstance(dec, ast.Name) and dec.id == "staticmethod"
                        for dec in func.decorator_list
                    ):
                        continue
                missing.append(arg.arg)
            missing.extend(
                arg.arg for arg in args.kwonlyargs if arg.annotation is None
            )
            if args.vararg is not None and args.vararg.annotation is None:
                missing.append("*" + args.vararg.arg)
            if args.kwarg is not None and args.kwarg.annotation is None:
                missing.append("**" + args.kwarg.arg)
            parts: list[str] = []
            if missing:
                parts.append(f"unannotated parameters: {', '.join(missing)}")
            if func.returns is None:
                parts.append("missing return annotation")
            if parts:
                yield self.finding(
                    ctx,
                    func,
                    f"def {func.name} in strict-typed package: "
                    + "; ".join(parts)
                    + " (mypy disallow_untyped_defs will reject this)",
                )
