"""Determinism rules (DET001-DET005).

Every execution of this reproduction must be a pure function of its
seeds: runs are replayed for simulation-relation checks, compared
against cross-process golden digests, and sharded across worker pools
that must merge byte-identically (ROADMAP tier-1, EXPERIMENTS E18-E20).
These rules reject the constructs that silently break that property.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.engine import FileContext, Rule
from repro.lint.model import Finding
from repro.lint.rules.common import WALL_CLOCK_CALLS, module_matches

#: random-module functions drawing from the hidden global instance.
_GLOBAL_RANDOM_HINT = (
    "draws from process-global RNG state; derive a seeded stream via "
    "repro.sim.rng.RngRegistry instead"
)


class UnseededRandomRule(Rule):
    """DET001: unseeded or process-global ``random`` use.

    ``random.Random(seed)`` is the *only* sanctioned constructor;
    module-level draws (``random.random()``, ``random.choice``, ...),
    ``random.seed``, ``random.Random()`` without a seed, and
    ``random.SystemRandom`` all read state that is not derived from the
    run's master seed.  ``repro.sim.rng`` is the one module allowed to
    own the seeding idiom.
    """

    id = "DET001"
    summary = "unseeded/global random use outside repro.sim.rng"

    ALLOWED_MODULES = ("repro.sim.rng",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if module_matches(ctx.module, self.ALLOWED_MODULES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved is None or not resolved.startswith("random."):
                continue
            tail = resolved[len("random.") :]
            if "." in tail:
                continue  # e.g. a method on an aliased submodule; not module-level
            if tail == "Random":
                if not node.args and not node.keywords:
                    yield self.finding(
                        ctx,
                        node,
                        "random.Random() constructed without a seed; pass an "
                        "explicit seed derived from the run's master seed",
                    )
            elif tail == "SystemRandom":
                yield self.finding(
                    ctx,
                    node,
                    "random.SystemRandom is entropy-seeded and can never replay; "
                    + _GLOBAL_RANDOM_HINT,
                )
            else:
                yield self.finding(
                    ctx,
                    node,
                    f"module-level random.{tail}() " + _GLOBAL_RANDOM_HINT,
                )


class WallClockRule(Rule):
    """DET002: wall-clock reads outside the live runtime.

    Virtual time comes from the simulator; host-clock reads inside the
    reproduction make traces, digests, and parallel-sweep merges
    irreproducible.  ``repro.rt`` (the live runtime, where wall time
    *is* the time base — its captures are verified offline, not
    replayed) is the sanctioned exception; benchmark drivers live
    outside ``src`` and are not scanned by the CI gate.
    """

    id = "DET002"
    summary = "wall-clock read outside repro.rt"

    ALLOWED_MODULES = ("repro.rt",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if module_matches(ctx.module, self.ALLOWED_MODULES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved in WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"wall-clock read {resolved}(); simulation code must use "
                    "virtual time (Simulator.now) — host timing belongs in "
                    "repro.rt or benchmarks",
                )


def _is_unordered_expr(ctx: FileContext, node: ast.AST) -> bool:
    """Syntactically-certain unordered iterables: set displays, set
    comprehensions, ``set(...)``/``frozenset(...)`` calls, ``.keys()``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id in ("set", "frozenset")
            and ctx.resolve(func) is None  # not shadowed by an import
        ):
            return True
        if isinstance(func, ast.Attribute) and func.attr == "keys":
            return True
    return False


def _describe_unordered(node: ast.AST) -> str:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return ".keys() of a mapping"
    return "a set"


class UnsortedSetIterationRule(Rule):
    """DET003: unordered iteration feeding ordered construction.

    Building a list, tuple, string, or loop-appended sequence directly
    from a bare set or ``.keys()`` view bakes hash/insertion order into
    ordered output — exactly how nondeterminism leaks into traces and
    wire messages.  Wrap the iterable in ``sorted(...)`` (the idiom
    used throughout, e.g. ``fullorder``'s label ordering in Fig. 8
    code) or keep the result unordered.
    """

    id = "DET003"
    summary = "unordered set/keys iteration feeding ordered construction"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)
            elif isinstance(node, ast.ListComp):
                for gen in node.generators:
                    if _is_unordered_expr(ctx, gen.iter):
                        yield self._flag(ctx, gen.iter, "a list comprehension")
            elif isinstance(node, ast.For):
                yield from self._check_for(ctx, node)

    def _check_call(self, ctx: FileContext, node: ast.Call) -> Iterator[Finding]:
        func = node.func
        is_seq_ctor = (
            isinstance(func, ast.Name)
            and func.id in ("list", "tuple")
            and ctx.resolve(func) is None
        )
        is_join = isinstance(func, ast.Attribute) and func.attr == "join"
        if not (is_seq_ctor or is_join) or len(node.args) != 1:
            return
        arg = node.args[0]
        consumer = f"{func.id}(...)" if is_seq_ctor else "str.join"  # type: ignore[union-attr]
        if _is_unordered_expr(ctx, arg):
            yield self._flag(ctx, arg, consumer)
        elif isinstance(arg, ast.GeneratorExp):
            for gen in arg.generators:
                if _is_unordered_expr(ctx, gen.iter):
                    yield self._flag(ctx, gen.iter, consumer)

    def _check_for(self, ctx: FileContext, node: ast.For) -> Iterator[Finding]:
        if not _is_unordered_expr(ctx, node.iter):
            return
        for child in ast.walk(ast.Module(body=node.body, type_ignores=[])):
            if isinstance(child, (ast.Yield, ast.YieldFrom)):
                yield self._flag(ctx, node.iter, "a generator")
                return
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in ("append", "extend", "insert")
            ):
                yield self._flag(ctx, node.iter, "sequence appends")
                return

    def _flag(self, ctx: FileContext, node: ast.AST, consumer: str) -> Finding:
        return self.finding(
            ctx,
            node,
            f"iteration over {_describe_unordered(node)} feeds {consumer}; "
            "wrap the iterable in sorted(...) to fix the order",
        )


class IdentityOrderingRule(Rule):
    """DET004: ordering keyed on ``id()`` or ``hash()``.

    Object identities differ between processes and runs, and hashes of
    str/bytes differ per interpreter launch unless PYTHONHASHSEED is
    pinned; a sort key built from either produces a different order on
    every replay.  Use a value-based key (the ``chosenrep`` idiom keys
    on ``str(q)``).
    """

    id = "DET004"
    summary = "sort/min/max keyed on id() or hash()"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_order_call = (
                isinstance(func, ast.Name)
                and func.id in ("sorted", "min", "max")
                and ctx.resolve(func) is None
            ) or (isinstance(func, ast.Attribute) and func.attr == "sort")
            if not is_order_call:
                continue
            for kw in node.keywords:
                if kw.arg != "key":
                    continue
                culprit = self._identity_key(ctx, kw.value)
                if culprit:
                    yield self.finding(
                        ctx,
                        kw.value,
                        f"ordering keyed on {culprit}(); identities/hashes are "
                        "not stable across runs or processes — key on values",
                    )

    @staticmethod
    def _identity_key(ctx: FileContext, value: ast.AST) -> str | None:
        if (
            isinstance(value, ast.Name)
            and value.id in ("id", "hash")
            and ctx.resolve(value) is None
        ):
            return value.id
        if isinstance(value, ast.Lambda):
            for child in ast.walk(value.body):
                if (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id in ("id", "hash")
                    and ctx.resolve(child.func) is None
                ):
                    return child.func.id
        return None


class EnvironReadRule(Rule):
    """DET005: environment reads outside the live runtime.

    Environment variables are per-host state; a run whose behaviour
    depends on them cannot be replayed from its seed alone.  The one
    sanctioned reader is ``repro.rt`` (the cluster driver must forward
    the environment to node subprocesses) — everything else takes
    configuration explicitly.
    """

    id = "DET005"
    summary = "os.environ/os.getenv read outside repro.rt"

    ALLOWED_MODULES = ("repro.rt",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if module_matches(ctx.module, self.ALLOWED_MODULES):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and ctx.resolve(node) == "os.environ":
                yield self.finding(
                    ctx,
                    node,
                    "os.environ read; thread configuration through explicit "
                    "parameters (RingConfig, ChaosRunner kwargs) so runs "
                    "replay from their seeds",
                )
            elif (
                isinstance(node, ast.Call)
                and ctx.resolve(node.func) == "os.getenv"
            ):
                yield self.finding(
                    ctx,
                    node,
                    "os.getenv read; thread configuration through explicit "
                    "parameters so runs replay from their seeds",
                )
