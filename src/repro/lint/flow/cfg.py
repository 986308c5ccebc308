"""Per-function control-flow graphs over stdlib :mod:`ast`.

One :class:`Cfg` per function body, statement-granular, with the three
properties the ASYNC rules need and single-pass AST walks cannot give:

- **suspension points** — a node whose statement contains an ``await``
  (or is an ``async for`` step / ``async with`` enter) is marked
  ``suspends``; every interleaving hazard is defined relative to these;
- **try/except/finally edges** — any statement inside a ``try`` body
  may transfer to each handler head and to the ``finally`` entry;
  ``return``/``break``/``continue``/``raise`` route *through* enclosing
  ``finally`` blocks before reaching their real target, so a release
  placed in a ``finally`` dominates every exit the way it does at
  runtime;
- **lock-held sets** — each node carries the lexical set of
  ``with``/``async with`` context expressions active around it
  (rendered with :func:`ast.unparse`), which is exact for ``asyncio``
  locks because they are scope-structured by construction.

Known approximations (deliberate, documented so rule authors can rely
on them): exceptions propagate only to the *innermost* enclosing
``try``; an uncaught ``raise`` routes through enclosing ``finally``
blocks straight to the exit node; a ``while`` test is always assumed
able to exit the loop.  All of these only ever *add* paths, so
must-analyses built on this graph stay conservative.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

FuncDef = ast.FunctionDef | ast.AsyncFunctionDef

#: AST nodes whose bodies belong to a *different* function scope; walks
#: that ask "does this statement await" must not descend into them.
_SCOPE_BARRIERS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _walk_same_scope(node: ast.AST) -> list[ast.AST]:
    """Every descendant of ``node`` in the same function scope.

    Like :func:`ast.walk` but nested function/lambda/class bodies are
    opaque: an ``await`` inside an inner ``async def`` does not suspend
    the outer function.  The root itself is included — but when the
    root *is* a scope barrier (a nested def appearing as a statement),
    it is a leaf: its body belongs to the inner scope.
    """
    out: list[ast.AST] = [node]
    if isinstance(node, _SCOPE_BARRIERS):
        return out
    stack: list[ast.AST] = [node]
    while stack:
        current = stack.pop()
        for child in ast.iter_child_nodes(current):
            if isinstance(child, _SCOPE_BARRIERS):
                out.append(child)  # the def itself, not its body
                continue
            out.append(child)
            stack.append(child)
    return out


def stmt_contains_await(node: ast.AST) -> bool:
    """True when ``node`` contains a suspension point in its own scope:
    an ``await`` expression or an ``async for`` comprehension clause."""
    for child in _walk_same_scope(node):
        if isinstance(child, ast.Await):
            return True
        if isinstance(child, ast.comprehension) and child.is_async:
            return True
    return False


@dataclass
class CfgNode:
    """One statement-granular control-flow node."""

    index: int
    #: "entry" | "exit" | "stmt" | "test" | "with" | "except" | "finally"
    kind: str
    stmt: ast.AST | None
    line: int
    #: statement contains an await / async-for step / async-with enter.
    suspends: bool = False
    #: lexical (async) with contexts active around this node, as
    #: ast.unparse'd context expressions ("self._request_lock").
    held: frozenset[str] = frozenset()
    #: node lives inside a ``finally`` suite.
    in_finally: bool = False
    succs: list[int] = field(default_factory=list)
    preds: list[int] = field(default_factory=list)


@dataclass
class Cfg:
    """The control-flow graph of one function body."""

    func: FuncDef
    nodes: list[CfgNode]
    entry: int
    exit: int

    def node(self, index: int) -> CfgNode:
        return self.nodes[index]

    def reverse_postorder(self) -> list[int]:
        """Node indices in reverse post-order from the entry (the
        canonical forward-analysis iteration order); unreachable nodes
        are appended afterwards in index order so every node gets a
        fact."""
        seen: set[int] = set()
        order: list[int] = []

        def visit(start: int) -> None:
            stack: list[tuple[int, int]] = [(start, 0)]
            seen.add(start)
            while stack:
                index, edge = stack[-1]
                succs = self.nodes[index].succs
                if edge < len(succs):
                    stack[-1] = (index, edge + 1)
                    nxt = succs[edge]
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append((nxt, 0))
                else:
                    order.append(index)
                    stack.pop()

        visit(self.entry)
        order.reverse()
        for node in self.nodes:
            if node.index not in seen:
                order.append(node.index)
        return order

    def reachable(
        self, start: int, stop_through: frozenset[int] = frozenset()
    ) -> set[int]:
        """Indices reachable from ``start`` (exclusive) along paths that
        never pass through a node in ``stop_through``."""
        out: set[int] = set()
        stack = [s for s in self.nodes[start].succs]
        while stack:
            index = stack.pop()
            if index in out or index in stop_through:
                continue
            out.add(index)
            stack.extend(self.nodes[index].succs)
        return out


@dataclass
class _Loop:
    head: int
    #: how many ``finally`` frames were open when this loop started;
    #: ``break``/``continue`` only detour through frames *above* this
    #: (a ``finally`` wrapping the whole loop never sees them).
    finally_depth: int
    #: source nodes whose ``break`` exits this loop; wired on close.
    break_sources: list[int] = field(default_factory=list)


@dataclass
class _Finally:
    marker: int
    #: abrupt destinations routed through this finally, resolved when
    #: the finally body's out-frontier is known.
    pending: set[tuple[str, int]] = field(default_factory=set)


class _Builder:
    """Single-use recursive CFG builder (see :func:`build_cfg`)."""

    def __init__(self, func: FuncDef) -> None:
        self.func = func
        self.nodes: list[CfgNode] = []
        self.held: frozenset[str] = frozenset()
        self.in_finally = False
        self.loops: list[_Loop] = []
        self.finallies: list[_Finally] = []
        #: per-``try`` implicit-raise targets (handler heads + finally
        #: marker); every node built under the try gets these edges.
        self.exc_targets: list[list[int]] = []
        self.entry = self._new("entry", None, func.lineno)
        self.exit = self._new("exit", None, func.lineno)

    # -- graph primitives ----------------------------------------------
    def _new(
        self, kind: str, stmt: ast.AST | None, line: int, suspends: bool = False
    ) -> int:
        node = CfgNode(
            index=len(self.nodes),
            kind=kind,
            stmt=stmt,
            line=line,
            suspends=suspends,
            held=self.held,
            in_finally=self.in_finally,
        )
        self.nodes.append(node)
        if kind not in ("entry", "exit") and self.exc_targets:
            for target in self.exc_targets[-1]:
                self._edge(node.index, target)
        return node.index

    def _edge(self, src: int, dst: int) -> None:
        succs = self.nodes[src].succs
        if dst not in succs:
            succs.append(dst)

    def _wire(self, preds: list[int], dst: int) -> None:
        for src in preds:
            self._edge(src, dst)

    # -- abrupt transfer through finally blocks ------------------------
    def _route_abrupt(self, src: int, dest: tuple[str, int]) -> None:
        """Send control from ``src`` toward ``dest``, detouring through
        the innermost enclosing ``finally`` when one applies.

        ``return``/``raise`` run every open ``finally``; ``break`` and
        ``continue`` only run frames opened *inside* their loop.
        """
        kind, loop_id = dest
        floor = 0 if kind == "exit" else self.loops[loop_id].finally_depth
        if len(self.finallies) > floor:
            frame = self.finallies[-1]
            self._edge(src, frame.marker)
            frame.pending.add(dest)
        else:
            self._resolve_dest(src, dest)

    def _resolve_dest(self, src: int, dest: tuple[str, int]) -> None:
        kind, loop_id = dest
        if kind == "exit":
            self._edge(src, self.exit)
        elif kind == "break":
            self.loops[loop_id].break_sources.append(src)
        elif kind == "continue":
            self._edge(src, self.loops[loop_id].head)
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unknown abrupt destination {dest!r}")

    # -- statement dispatch --------------------------------------------
    def block(self, stmts: list[ast.stmt], preds: list[int]) -> list[int]:
        """Build a statement suite; returns the out-frontier (nodes that
        fall through to whatever follows the suite)."""
        frontier = preds
        for stmt in stmts:
            if not frontier:
                # Unreachable code after return/raise/break: still build
                # nodes (rules may anchor findings there) from nothing.
                frontier = []
            frontier = self._stmt(stmt, frontier)
        return frontier

    def _stmt(self, stmt: ast.stmt, preds: list[int]) -> list[int]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, preds)
        if isinstance(stmt, ast.While):
            return self._while(stmt, preds)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, preds)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, preds)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, preds)
        if isinstance(stmt, ast.Match):
            return self._match(stmt, preds)
        if isinstance(stmt, ast.Return):
            index = self._new(
                "stmt", stmt, stmt.lineno, suspends=stmt_contains_await(stmt)
            )
            self._wire(preds, index)
            self._route_abrupt(index, ("exit", 0))
            return []
        if isinstance(stmt, ast.Raise):
            index = self._new("stmt", stmt, stmt.lineno)
            self._wire(preds, index)
            if not self.exc_targets:
                self._route_abrupt(index, ("exit", 0))
            # inside a try, the implicit edges from _new already point
            # at the handler heads / finally marker.
            return []
        if isinstance(stmt, ast.Break):
            index = self._new("stmt", stmt, stmt.lineno)
            self._wire(preds, index)
            if self.loops:
                self._route_abrupt(index, ("break", len(self.loops) - 1))
            return []
        if isinstance(stmt, ast.Continue):
            index = self._new("stmt", stmt, stmt.lineno)
            self._wire(preds, index)
            if self.loops:
                self._route_abrupt(index, ("continue", len(self.loops) - 1))
            return []
        # Simple statement (assignments, Expr, assert, nested defs, ...).
        index = self._new(
            "stmt", stmt, stmt.lineno, suspends=stmt_contains_await(stmt)
        )
        self._wire(preds, index)
        return [index]

    # -- compound statements -------------------------------------------
    def _if(self, stmt: ast.If, preds: list[int]) -> list[int]:
        test = self._new(
            "test", stmt, stmt.lineno, suspends=stmt_contains_await(stmt.test)
        )
        self._wire(preds, test)
        then_out = self.block(stmt.body, [test])
        else_out = self.block(stmt.orelse, [test]) if stmt.orelse else [test]
        return then_out + else_out

    def _while(self, stmt: ast.While, preds: list[int]) -> list[int]:
        test = self._new(
            "test", stmt, stmt.lineno, suspends=stmt_contains_await(stmt.test)
        )
        self._wire(preds, test)
        self.loops.append(_Loop(head=test, finally_depth=len(self.finallies)))
        body_out = self.block(stmt.body, [test])
        self._wire(body_out, test)  # back edge
        loop = self.loops.pop()
        else_out = self.block(stmt.orelse, [test]) if stmt.orelse else [test]
        return else_out + loop.break_sources

    def _for(self, stmt: ast.For | ast.AsyncFor, preds: list[int]) -> list[int]:
        suspends = isinstance(stmt, ast.AsyncFor) or stmt_contains_await(stmt.iter)
        step = self._new("test", stmt, stmt.lineno, suspends=suspends)
        self._wire(preds, step)
        self.loops.append(_Loop(head=step, finally_depth=len(self.finallies)))
        body_out = self.block(stmt.body, [step])
        self._wire(body_out, step)  # back edge: next iteration
        loop = self.loops.pop()
        else_out = self.block(stmt.orelse, [step]) if stmt.orelse else [step]
        return else_out + loop.break_sources

    def _with(self, stmt: ast.With | ast.AsyncWith, preds: list[int]) -> list[int]:
        is_async = isinstance(stmt, ast.AsyncWith)
        enter = self._new(
            "with",
            stmt,
            stmt.lineno,
            suspends=is_async
            or any(stmt_contains_await(item.context_expr) for item in stmt.items),
        )
        self._wire(preds, enter)
        saved = self.held
        self.held = saved | {
            ast.unparse(item.context_expr) for item in stmt.items
        }
        try:
            body_out = self.block(stmt.body, [enter])
        finally:
            self.held = saved
        return body_out

    def _match(self, stmt: ast.Match, preds: list[int]) -> list[int]:
        subject = self._new(
            "test", stmt, stmt.lineno, suspends=stmt_contains_await(stmt.subject)
        )
        self._wire(preds, subject)
        frontier: list[int] = [subject]  # no case may match
        for case in stmt.cases:
            frontier.extend(self.block(case.body, [subject]))
        return frontier

    def _try(self, stmt: ast.Try, preds: list[int]) -> list[int]:
        handler_heads = [
            self._new("except", handler, handler.lineno)
            for handler in stmt.handlers
        ]
        frame: _Finally | None = None
        if stmt.finalbody:
            frame = _Finally(
                marker=self._new("finally", stmt, stmt.finalbody[0].lineno)
            )
        targets = handler_heads + ([frame.marker] if frame else [])

        self.exc_targets.append(targets)
        if frame is not None:
            self.finallies.append(frame)
        try:
            body_out = self.block(stmt.body, preds)
            else_out = (
                self.block(stmt.orelse, body_out) if stmt.orelse else body_out
            )
            handler_outs: list[int] = []
            for head, handler in zip(handler_heads, stmt.handlers):
                handler_outs.extend(self.block(handler.body, [head]))
        finally:
            self.exc_targets.pop()
            if frame is not None:
                self.finallies.pop()

        normal_out = else_out + handler_outs
        if frame is None:
            return normal_out
        # Everything funnels through the finally suite exactly once.
        self._wire(normal_out, frame.marker)
        saved = self.in_finally
        self.in_finally = True
        try:
            finally_out = self.block(stmt.finalbody, [frame.marker])
        finally:
            self.in_finally = saved
        for dest in sorted(frame.pending):
            for src in finally_out:
                self._route_abrupt(src, dest)
        # The finally also completes normally into whatever follows --
        # unless every inbound path was abrupt, which we over-approximate
        # by always falling through (adds paths, never removes).
        return finally_out

    # -- driver --------------------------------------------------------
    def build(self) -> Cfg:
        frontier = self.block(self.func.body, [self.entry])
        self._wire(frontier, self.exit)
        if not self.nodes[self.entry].succs:
            self._edge(self.entry, self.exit)
        for node in self.nodes:
            for succ in node.succs:
                self.nodes[succ].preds.append(node.index)
        return Cfg(
            func=self.func, nodes=self.nodes, entry=self.entry, exit=self.exit
        )


def build_cfg(func: FuncDef) -> Cfg:
    """Build the statement-granular CFG of one function body.

    Nested function definitions appear as opaque single nodes — build
    their CFGs separately (``FileContext.functions`` lists every def).
    """
    return _Builder(func).build()
