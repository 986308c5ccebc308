"""Forward dataflow over :class:`~repro.lint.flow.cfg.Cfg` graphs.

A small worklist engine (:func:`run_forward`) plus the concrete fact
extractors the ASYNC rules share:

- :func:`reaching_definitions` — the classic gen/kill analysis over
  local names, used by the dropped-handle rule to ask "is this task
  variable ever read again?" and exposed for fixture tests;
- :func:`self_attr_reads` / :func:`self_attr_writes` — which
  ``self.<attr>`` slots a node reads or writes (writes include
  augmented assignment, subscript stores and in-place mutator calls
  like ``self._pending.pop(...)``, which are exactly the "act" half of
  a check-then-act race);
- :func:`guard_reads` — the ``self.<attr>`` slots read inside a branch
  *condition* (``if``/``while`` tests, ``match`` subjects, ``assert``
  and ternary conditions): the "check" half.

Facts are immutable (``frozenset``) so fixpoint detection is plain
equality, and every iteration order is derived from reverse post-order
— the same file always produces the same facts.
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from typing import Generic, TypeVar

from repro.lint.flow.cfg import Cfg, CfgNode, _walk_same_scope

F = TypeVar("F")

#: Method names that mutate their receiver in place (list/set/dict/deque).
_MUTATORS = frozenset(
    {
        "append", "appendleft", "add", "clear", "discard", "extend",
        "extendleft", "insert", "pop", "popitem", "popleft", "remove",
        "reverse", "setdefault", "sort", "update",
    }
)


class ForwardAnalysis(ABC, Generic[F]):
    """One forward dataflow problem: facts of type ``F`` flow along CFG
    edges, merged with :meth:`join` and transformed by :meth:`transfer`."""

    @abstractmethod
    def initial(self) -> F:
        """The fact for a node no path has reached yet (bottom)."""

    def boundary(self) -> F:
        """The fact at the function entry (defaults to bottom)."""
        return self.initial()

    @abstractmethod
    def join(self, left: F, right: F) -> F:
        """Merge facts arriving along two edges."""

    @abstractmethod
    def transfer(self, cfg: Cfg, node: CfgNode, fact: F) -> F:
        """The fact after executing ``node`` given ``fact`` before it."""


def run_forward(cfg: Cfg, analysis: ForwardAnalysis[F]) -> dict[int, F]:
    """Iterate ``analysis`` to fixpoint; returns the *entry* fact of
    every node (apply ``transfer`` once more for the exit fact)."""
    order = cfg.reverse_postorder()
    position = {index: rank for rank, index in enumerate(order)}
    in_facts: dict[int, F] = {index: analysis.initial() for index in order}
    in_facts[cfg.entry] = analysis.boundary()
    worklist = sorted(order, key=position.__getitem__)
    pending = set(worklist)
    while worklist:
        index = worklist.pop(0)
        pending.discard(index)
        node = cfg.node(index)
        out = analysis.transfer(cfg, node, in_facts[index])
        for succ in node.succs:
            merged = analysis.join(in_facts[succ], out)
            if merged != in_facts[succ]:
                in_facts[succ] = merged
                if succ not in pending:
                    pending.add(succ)
                    worklist.append(succ)
        worklist.sort(key=position.__getitem__)
    return in_facts


# ----------------------------------------------------------------------
# Per-node expression slices
# ----------------------------------------------------------------------
def node_exprs(node: CfgNode) -> list[ast.AST]:
    """The AST fragments actually *evaluated at* this CFG node.

    Compound statements contribute only their header — an ``If`` node's
    body belongs to successor nodes, so a test node exposes just the
    test expression.  Simple statements expose themselves whole.
    """
    stmt = node.stmt
    if stmt is None:
        return []
    if node.kind == "test":
        if isinstance(stmt, (ast.If, ast.While)):
            return [stmt.test]
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return [stmt.iter, stmt.target]
        if isinstance(stmt, ast.Match):
            return [stmt.subject]
        return []
    if node.kind == "with":
        assert isinstance(stmt, (ast.With, ast.AsyncWith))
        out: list[ast.AST] = []
        for item in stmt.items:
            out.append(item.context_expr)
            if item.optional_vars is not None:
                out.append(item.optional_vars)
        return out
    if node.kind == "except":
        assert isinstance(stmt, ast.ExceptHandler)
        return [stmt.type] if stmt.type is not None else []
    if node.kind in ("entry", "exit", "finally"):
        return []
    return [stmt]


def _is_self_attr(expr: ast.AST, self_name: str) -> str | None:
    """``self.<attr>`` -> ``attr``; anything else -> None."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == self_name
    ):
        return expr.attr
    return None


def self_attr_reads(node: CfgNode, self_name: str = "self") -> frozenset[str]:
    """Attributes of ``self`` loaded at this node."""
    out: set[str] = set()
    for expr in node_exprs(node):
        for child in _walk_same_scope(expr):
            attr = _is_self_attr(child, self_name)
            if attr is not None and isinstance(child.ctx, ast.Load):  # type: ignore[attr-defined]
                out.add(attr)
    return frozenset(out)


def self_attr_writes(node: CfgNode, self_name: str = "self") -> frozenset[str]:
    """Attributes of ``self`` written at this node.

    Covers plain and augmented assignment (``self.x = ...``,
    ``self.x += ...``), deletion, subscript stores (``self.x[k] = v``
    mutates the object held in slot ``x``), and in-place mutator calls
    (``self.x.pop(...)``, ``self.x.add(...)``).
    """
    out: set[str] = set()
    for expr in node_exprs(node):
        for child in _walk_same_scope(expr):
            attr = _is_self_attr(child, self_name)
            if attr is not None and isinstance(
                child.ctx,  # type: ignore[attr-defined]
                (ast.Store, ast.Del),
            ):
                out.add(attr)
            if isinstance(child, ast.Subscript) and isinstance(
                child.ctx, (ast.Store, ast.Del)
            ):
                inner = _is_self_attr(child.value, self_name)
                if inner is not None:
                    out.add(inner)
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in _MUTATORS
            ):
                inner = _is_self_attr(child.func.value, self_name)
                if inner is not None:
                    out.add(inner)
    return frozenset(out)


def guard_reads(node: CfgNode, self_name: str = "self") -> frozenset[str]:
    """Attributes of ``self`` read inside a branch *condition* at this
    node — the "check" in check-then-act.

    Sources: ``if``/``while`` tests, ``match`` subjects, ``assert``
    conditions, and ternary (``IfExp``) conditions inside any simple
    statement.  Indirect guards (``flag = self.x is None`` followed by
    ``if flag:``) are out of scope by design — the lint asks for the
    check and the state read to be syntactically tied.
    """
    stmt = node.stmt
    if stmt is None:
        return frozenset()
    tests: list[ast.AST] = []
    if node.kind == "test" and isinstance(stmt, (ast.If, ast.While)):
        tests.append(stmt.test)
    elif node.kind == "test" and isinstance(stmt, ast.Match):
        tests.append(stmt.subject)
    elif node.kind == "stmt":
        if isinstance(stmt, ast.Assert):
            tests.append(stmt.test)
        for child in _walk_same_scope(stmt):
            if isinstance(child, ast.IfExp):
                tests.append(child.test)
    out: set[str] = set()
    for test in tests:
        for child in _walk_same_scope(test):
            attr = _is_self_attr(child, self_name)
            if attr is not None and isinstance(child.ctx, ast.Load):  # type: ignore[attr-defined]
                out.add(attr)
    return frozenset(out)


# ----------------------------------------------------------------------
# Reaching definitions
# ----------------------------------------------------------------------
ReachingFact = frozenset[tuple[str, int]]


def _defined_names(node: CfgNode) -> frozenset[str]:
    """Local names bound at this node (assignment targets, loop
    targets, ``with ... as`` vars, walrus targets, handler names)."""
    out: set[str] = set()
    if node.kind == "except" and isinstance(node.stmt, ast.ExceptHandler):
        if node.stmt.name:
            out.add(node.stmt.name)
    for expr in node_exprs(node):
        for child in _walk_same_scope(expr):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
                out.add(child.id)
            elif isinstance(child, ast.NamedExpr) and isinstance(
                child.target, ast.Name
            ):
                out.add(child.target.id)
    return frozenset(out)


class _ReachingDefinitions(ForwardAnalysis[ReachingFact]):
    def __init__(self, cfg: Cfg) -> None:
        self.params = frozenset(
            arg.arg
            for arg in (
                list(cfg.func.args.posonlyargs)
                + list(cfg.func.args.args)
                + list(cfg.func.args.kwonlyargs)
                + ([cfg.func.args.vararg] if cfg.func.args.vararg else [])
                + ([cfg.func.args.kwarg] if cfg.func.args.kwarg else [])
            )
        )

    def initial(self) -> ReachingFact:
        return frozenset()

    def boundary(self) -> ReachingFact:
        return frozenset((name, -1) for name in self.params)

    def join(self, left: ReachingFact, right: ReachingFact) -> ReachingFact:
        return left | right

    def transfer(self, cfg: Cfg, node: CfgNode, fact: ReachingFact) -> ReachingFact:
        defined = _defined_names(node)
        if not defined:
            return fact
        kept = frozenset(entry for entry in fact if entry[0] not in defined)
        return kept | frozenset((name, node.index) for name in defined)


def reaching_definitions(cfg: Cfg) -> dict[int, ReachingFact]:
    """Entry fact per node: which ``(name, defining node)`` pairs reach
    it.  Parameters reach the entry as ``(name, -1)``."""
    return run_forward(cfg, _ReachingDefinitions(cfg))
