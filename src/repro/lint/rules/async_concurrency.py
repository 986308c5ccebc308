"""Async-concurrency rules (ASYNC001-ASYNC005), built on repro.lint.flow.

The live runtime (``repro.rt``) is ~4.5k LoC of asyncio code whose one
real interleaving bug to date — PR 7's "reply stealing" on the driver
control plane — was exactly a check-then-act split across an ``await``.
The paper's method is mechanically checkable atomicity: every
precondition/effect pair in Figs. 3/6/8-10 executes without
interleaving.  These rules enforce the same granularity at the asyncio
layer, where a suspension point is the only place another coroutine
can run: state checked before an ``await`` must be re-checked, locked,
or acted on *before* suspending.

Unlike the DET/IOA families these rules are flow-sensitive: each
function body is lowered to a CFG (:mod:`repro.lint.flow.cfg`) with
await points, try/except/finally edges and lexical lock-held sets, and
the findings come out of forward dataflow over it.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass

from repro.lint.engine import FileContext, Rule
from repro.lint.flow.cfg import (
    Cfg,
    CfgNode,
    FuncDef,
    _walk_same_scope,
    build_cfg,
)
from repro.lint.flow.dataflow import (
    ForwardAnalysis,
    guard_reads,
    node_exprs,
    run_forward,
    self_attr_writes,
)
from repro.lint.model import Finding

#: Import-resolvable calls that block the event loop.  Curated, not
#: exhaustive: each entry is synchronous by contract (sleeps, waits on
#: a child process, or performs blocking socket/url I/O).
#: ``subprocess.Popen`` is deliberately absent — it forks without
#: waiting; its ``.wait()`` is caught by the non-awaited ``.wait()``
#: heuristic below.
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.getoutput",
        "subprocess.getstatusoutput",
        "os.system",
        "os.wait",
        "os.waitpid",
        "socket.create_connection",
        "urllib.request.urlopen",
        "requests.get",
        "requests.post",
        "requests.put",
        "requests.delete",
        "requests.head",
        "requests.request",
    }
)


def _async_functions(
    ctx: FileContext,
) -> Iterator[tuple[ast.AsyncFunctionDef, ast.ClassDef | None]]:
    for func, cls in ctx.functions():
        if isinstance(func, ast.AsyncFunctionDef):
            yield func, cls


def _self_name(func: FuncDef, cls: ast.ClassDef | None) -> str | None:
    """The receiver parameter name for a method (``self`` by
    convention); None for free functions and static methods."""
    if cls is None:
        return None
    for deco in func.decorator_list:
        if isinstance(deco, ast.Name) and deco.id == "staticmethod":
            return None
    args = func.args.posonlyargs + func.args.args
    return args[0].arg if args else None


def _own_statements(func: FuncDef) -> Iterator[ast.AST]:
    """Every AST node lexically in ``func``'s own body (nested defs are
    opaque, matching the CFG's scope rule)."""
    for stmt in func.body:
        yield from _walk_same_scope(stmt)


# ----------------------------------------------------------------------
# ASYNC001 — check-then-act across an await
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Guard:
    """One live "check": attribute ``attr`` was read in a condition
    while ``locks`` were held; ``crossed`` flips once a suspension
    point separates the check from the current program point."""

    attr: str
    crossed: bool
    locks: tuple[str, ...]


class _CheckThenAct(ForwardAnalysis[frozenset[_Guard]]):
    """May-analysis: which checks are live (and await-crossed) here."""

    def __init__(self, self_name: str) -> None:
        self.self_name = self_name
        #: (node index, attr) -> line, collected during fixpoint.
        self.hits: dict[tuple[int, str], int] = {}

    def initial(self) -> frozenset[_Guard]:
        return frozenset()

    def join(
        self, left: frozenset[_Guard], right: frozenset[_Guard]
    ) -> frozenset[_Guard]:
        return left | right

    def transfer(
        self, cfg: Cfg, node: CfgNode, fact: frozenset[_Guard]
    ) -> frozenset[_Guard]:
        out = set(fact)
        # 1. A suspension point lets every other coroutine run: all
        #    live checks are now stale.  (Within one statement the
        #    await evaluates before the assignment lands, so a write in
        #    the same statement is on the far side of the suspension.)
        if node.suspends:
            out = {
                _Guard(g.attr, True, g.locks) for g in out
            }
        # 2. Writes: an act on state whose check crossed an await,
        #    without a lock held over both, is the PR-7 bug class.
        writes = self_attr_writes(node, self.self_name)
        for guard in list(out):
            if guard.attr in writes and guard.crossed:
                if not (set(guard.locks) & node.held):
                    self.hits.setdefault((node.index, guard.attr), node.line)
        if writes:
            out = {g for g in out if g.attr not in writes}
        # 3. Fresh checks made at this node supersede stale ones for
        #    the same attribute: re-checking after the await is one of
        #    the sanctioned fixes.
        fresh = guard_reads(node, self.self_name)
        if fresh:
            out = {g for g in out if g.attr not in fresh}
            for attr in fresh:
                out.add(_Guard(attr, False, tuple(sorted(node.held))))
        return frozenset(out)


class CheckThenActAcrossAwaitRule(Rule):
    """ASYNC001: shared ``self`` state checked before an ``await`` and
    written after it without a protecting lock.

    An ``await`` is the only point where another coroutine can run; a
    condition established before it ("no request in flight", "key not
    in the map") can be invalidated by the time control returns.  The
    acceptable shapes are: act *before* awaiting, hold one
    ``asyncio.Lock`` (``async with``) across both check and act, or
    re-check after resuming.  This is the exact class of PR 7's
    control-plane reply stealing, fixed by ``NodeClient._request_lock``.
    """

    id = "ASYNC001"
    summary = "check-then-act on self state split across an await without a lock"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for func, cls in _async_functions(ctx):
            self_name = _self_name(func, cls)
            if self_name is None:
                continue
            cfg = build_cfg(func)
            analysis = _CheckThenAct(self_name)
            run_forward(cfg, analysis)
            for (index, attr), _line in sorted(analysis.hits.items()):
                node = cfg.node(index)
                assert node.stmt is not None
                yield self.finding(
                    ctx,
                    node.stmt,
                    f"{self_name}.{attr} was checked before an await and is "
                    "written here after it with no shared lock held; another "
                    "coroutine can interleave between check and act — hold "
                    "one asyncio.Lock across both, or act before awaiting",
                )


# ----------------------------------------------------------------------
# ASYNC002 — dropped task handles / never-awaited coroutines
# ----------------------------------------------------------------------
def _spawn_call(ctx: FileContext, call: ast.Call) -> str | None:
    """``asyncio.create_task``/``ensure_future`` (resolved) or any
    ``<loop>.create_task`` attribute call; returns the display name."""
    resolved = ctx.resolve(call.func)
    if resolved in ("asyncio.create_task", "asyncio.ensure_future"):
        return resolved
    if isinstance(call.func, ast.Attribute) and call.func.attr in (
        "create_task",
        "ensure_future",
    ):
        return call.func.attr
    return None


def _module_async_defs(tree: ast.Module) -> tuple[set[str], dict[str, set[str]]]:
    """Names of module-level ``async def``s, and per-class async
    method names (for ``self.<m>()`` resolution)."""
    module_level = {
        node.name
        for node in tree.body
        if isinstance(node, ast.AsyncFunctionDef)
    }
    per_class: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            per_class[node.name] = {
                child.name
                for child in node.body
                if isinstance(child, ast.AsyncFunctionDef)
            }
    return module_level, per_class


class DroppedTaskHandleRule(Rule):
    """ASYNC002: fire-and-forget tasks and never-awaited coroutines.

    A task whose handle is dropped is invisible: its exceptions are
    swallowed until garbage collection logs an opaque "Task exception
    was never retrieved", and nothing can cancel or drain it on
    shutdown.  Keep the handle (``self._task = ...``) or attach a
    ``done-callback``.  Calling an ``async def`` without ``await``
    creates a coroutine object and silently discards it — the body
    never runs.
    """

    id = "ASYNC002"
    summary = "dropped create_task handle or never-awaited coroutine call"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        module_async, class_async = _module_async_defs(ctx.tree)
        for func, cls in ctx.functions():
            yield from self._check_function(ctx, func, cls, module_async, class_async)

    def _check_function(
        self,
        ctx: FileContext,
        func: FuncDef,
        cls: ast.ClassDef | None,
        module_async: set[str],
        class_async: dict[str, set[str]],
    ) -> Iterator[Finding]:
        self_name = _self_name(func, cls)
        own = list(_own_statements(func))
        loads = {
            node.id
            for node in own
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in own:
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                call = node.value
                spawn = _spawn_call(ctx, call)
                if spawn is not None:
                    yield self.finding(
                        ctx,
                        call,
                        f"{spawn}(...) result discarded: the task can be "
                        "garbage-collected mid-flight and its exceptions are "
                        "lost — retain the handle or add a done-callback",
                    )
                    continue
                coro = self._async_callee(
                    call, cls, self_name, module_async, class_async
                )
                if coro is not None:
                    yield self.finding(
                        ctx,
                        call,
                        f"coroutine {coro}(...) is never awaited: the call "
                        "builds a coroutine object and discards it — the "
                        "body never runs (add await, or wrap in create_task)",
                    )
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                spawn = _spawn_call(ctx, node.value)
                if spawn is None or len(node.targets) != 1:
                    continue
                target = node.targets[0]
                if isinstance(target, ast.Name) and target.id not in loads:
                    yield self.finding(
                        ctx,
                        node.value,
                        f"{spawn}(...) handle bound to {target.id!r} but "
                        "never used: effectively fire-and-forget — await "
                        "it, retain it, or add a done-callback",
                    )

    @staticmethod
    def _async_callee(
        call: ast.Call,
        cls: ast.ClassDef | None,
        self_name: str | None,
        module_async: set[str],
        class_async: dict[str, set[str]],
    ) -> str | None:
        func = call.func
        if isinstance(func, ast.Name) and func.id in module_async:
            return func.id
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and self_name is not None
            and func.value.id == self_name
            and cls is not None
            and func.attr in class_async.get(cls.name, set())
        ):
            return f"{self_name}.{func.attr}"
        return None


# ----------------------------------------------------------------------
# ASYNC003 — blocking calls inside async def
# ----------------------------------------------------------------------
class BlockingCallInAsyncRule(Rule):
    """ASYNC003: event-loop-blocking calls inside ``async def``.

    ``time.sleep``, synchronous subprocess waits, blocking socket/url
    I/O and builtin ``open`` stall *every* coroutine on the loop — in
    the live runtime that means token circulation, watchdogs and the
    driver control plane all freeze for the duration.  Use the asyncio
    counterpart (``asyncio.sleep``, ``create_subprocess_exec``,
    ``open_connection``) or push the call into an executor
    (``loop.run_in_executor``).  A non-awaited ``.wait(...)`` method
    call in async code is flagged too: it is either a blocking
    ``Popen``/``threading`` wait or an asyncio ``Event.wait()`` whose
    coroutine was silently dropped.
    """

    id = "ASYNC003"
    summary = "blocking call (time.sleep / sync subprocess / file-socket I/O) in async def"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for func, _cls in _async_functions(ctx):
            for node in _own_statements(func):
                if not isinstance(node, ast.Call):
                    continue
                resolved = ctx.resolve(node.func)
                if resolved in BLOCKING_CALLS:
                    yield self.finding(
                        ctx,
                        node,
                        f"blocking call {resolved}() inside async def "
                        f"{func.name!r} stalls the event loop — use the "
                        "asyncio equivalent or run_in_executor",
                    )
                elif (
                    isinstance(node.func, ast.Name)
                    and node.func.id == "open"
                    and ctx.resolve(node.func) is None
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"builtin open() inside async def {func.name!r} "
                        "performs blocking file I/O on the event loop — "
                        "move it off the loop or justify with a suppression",
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "wait"
                    and not isinstance(ctx.parent_of(node), ast.Await)
                ):
                    receiver = ast.unparse(node.func.value)
                    yield self.finding(
                        ctx,
                        node,
                        f"non-awaited {receiver}.wait(...) in async def "
                        f"{func.name!r}: either a blocking process/thread "
                        "wait (run_in_executor) or a dropped asyncio "
                        "coroutine (await it)",
                    )


# ----------------------------------------------------------------------
# ASYNC004 — swallowed CancelledError
# ----------------------------------------------------------------------
def _catches_cancelled(ctx: FileContext, handler: ast.ExceptHandler) -> str | None:
    """Does this handler catch asyncio.CancelledError?  Returns a
    human-readable description of how, or None."""
    if handler.type is None:
        return "bare except"
    exprs = (
        list(handler.type.elts)
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for expr in exprs:
        resolved = ctx.resolve(expr)
        if resolved == "asyncio.CancelledError":
            return "asyncio.CancelledError"
        if isinstance(expr, ast.Name) and expr.id in (
            "BaseException",
            "CancelledError",
        ):
            return expr.id
    return None


def _cancelled_segments(func: FuncDef) -> set[str]:
    """Expressions on which ``.cancel()`` is called in this function
    (``self._task.cancel()`` -> ``"self._task"``)."""
    out: set[str] = set()
    for node in _own_statements(func):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "cancel"
        ):
            out.add(ast.unparse(node.func.value))
    return out


def _is_cancel_await_idiom(
    try_stmt: ast.Try, handler: ast.ExceptHandler, cancelled: set[str]
) -> bool:
    """The one sanctioned swallow: ``task.cancel()`` followed by
    ``try: await task / except CancelledError: pass`` — awaiting a task
    you just cancelled *must* absorb its CancelledError."""
    if handler.type is None or isinstance(handler.type, ast.Tuple):
        return False
    if not try_stmt.body:
        return False
    for stmt in try_stmt.body:
        if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Await)):
            return False
        if ast.unparse(stmt.value.value) not in cancelled:
            return False
    return True


class SwallowedCancellationRule(Rule):
    """ASYNC004: ``except`` in async code that swallows cancellation.

    ``asyncio.CancelledError`` derives from ``BaseException`` precisely
    so that ``except Exception`` cannot eat it; a bare ``except``,
    ``except BaseException``, or an explicit ``CancelledError`` handler
    that does not re-raise breaks task cancellation — ``task.cancel()``
    appears to succeed but the coroutine keeps running (or exits as if
    it completed normally, so ``task.cancelled()`` lies).  Re-raise
    after cleanup.  Exemption: absorbing the CancelledError of a task
    *you just cancelled* (``t.cancel(); try: await t except
    CancelledError: pass``) is the documented idiom and stays clean.
    """

    id = "ASYNC004"
    summary = "bare/BaseException/CancelledError except in async code without re-raise"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for func, _cls in _async_functions(ctx):
            cancelled = _cancelled_segments(func)
            for node in _own_statements(func):
                if not isinstance(node, ast.Try):
                    continue
                for handler in node.handlers:
                    how = _catches_cancelled(ctx, handler)
                    if how is None:
                        continue
                    reraises = any(
                        isinstance(child, ast.Raise)
                        for child in _walk_same_scope(handler)
                    )
                    if reraises:
                        continue
                    if _is_cancel_await_idiom(node, handler, cancelled):
                        continue
                    yield self.finding(
                        ctx,
                        handler,
                        f"{how} swallows asyncio.CancelledError in async def "
                        f"{func.name!r}: cancellation never propagates and "
                        "teardown hangs on this task — re-raise it after "
                        "cleanup (catch the specific errors instead)",
                    )


# ----------------------------------------------------------------------
# ASYNC005 — acquire without release on every CFG path
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Acquire:
    """One acquire site: CFG node ``index`` binds/locks resource
    ``key`` (a local name for ``open``, an unparsed receiver segment
    for ``.acquire()``); ``verb`` is the matching release method."""

    index: int
    key: str
    verb: str  # "close" | "release"
    what: str  # human-readable resource description


def _release_nodes(cfg: Cfg, acquire: _Acquire) -> frozenset[int]:
    out: set[int] = set()
    for node in cfg.nodes:
        for expr in node_exprs(node):
            for child in _walk_same_scope(expr):
                if (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == acquire.verb
                    and ast.unparse(child.func.value) == acquire.key
                ):
                    out.add(node.index)
            # ``with resource:`` delegates the release to the context
            # manager — count it as a releasing node.
            if node.kind == "with" and node.stmt is not None:
                stmt = node.stmt
                assert isinstance(stmt, (ast.With, ast.AsyncWith))
                for item in stmt.items:
                    if ast.unparse(item.context_expr) == acquire.key:
                        out.add(node.index)
    return frozenset(out)


def _loads_directly(expr: ast.AST, name: str) -> bool:
    """Does ``expr`` load ``name`` outside any call?  ``out`` and
    ``(out, x)`` do; ``Popen(stdout=out)`` does not — an argument is
    consumed by the callee, the call *result* is what gets stored."""
    if isinstance(expr, ast.Call):
        return False
    if (
        isinstance(expr, ast.Name)
        and expr.id == name
        and isinstance(expr.ctx, ast.Load)
    ):
        return True
    return any(
        _loads_directly(child, name) for child in ast.iter_child_nodes(expr)
    )


def _escapes(cfg: Cfg, name: str) -> bool:
    """Ownership transfer: the bound resource is returned, yielded, or
    stored (directly) into an attribute/container — some longer-lived
    owner is now responsible for releasing it."""
    for node in cfg.nodes:
        for expr in node_exprs(node):
            for child in _walk_same_scope(expr):
                if isinstance(child, (ast.Return, ast.Yield, ast.YieldFrom)):
                    value = child.value
                    if value is not None and any(
                        isinstance(n, ast.Name) and n.id == name
                        for n in _walk_same_scope(value)
                    ):
                        return True
                if isinstance(child, ast.Assign):
                    if _loads_directly(child.value, name) and any(
                        isinstance(t, (ast.Attribute, ast.Subscript))
                        for t in child.targets
                    ):
                        return True
    return False


class UnreleasedResourceRule(Rule):
    """ASYNC005: lock/file acquired but not released on every CFG path.

    A manual ``.acquire()`` or bare ``open()`` in async code must reach
    its ``.release()``/``.close()`` on *every* path out of the function
    — including the cancellation path of any ``await`` in between,
    which only a ``finally`` (or ``async with``) covers.  A leaked
    asyncio lock deadlocks every later waiter; a leaked file descriptor
    accumulates per connection/process until the OS limit.  Prefer
    ``async with lock:`` / ``with open(...):`` — scope-structured
    acquire/release is exactly the atomicity discipline the paper's
    effects get for free.
    """

    id = "ASYNC005"
    summary = "acquire()/open() without release/close on every CFG path"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for func, _cls in _async_functions(ctx):
            cfg = build_cfg(func)
            for acquire in self._acquires(ctx, cfg):
                if acquire.verb == "close" and _escapes(cfg, acquire.key):
                    continue
                releases = _release_nodes(cfg, acquire)
                reachable = cfg.reachable(acquire.index, stop_through=releases)
                node = cfg.node(acquire.index)
                assert node.stmt is not None
                if cfg.exit in reachable:
                    yield self.finding(
                        ctx,
                        node.stmt,
                        f"{acquire.what} is not {acquire.verb}d on every "
                        "path out of the function (early return, break, or "
                        "handled exception skips the release) — use "
                        "with/async with, or release in a finally",
                    )
                elif any(
                    cfg.node(index).suspends for index in reachable
                ) and not any(cfg.node(index).in_finally for index in releases):
                    yield self.finding(
                        ctx,
                        node.stmt,
                        f"{acquire.what} is held across an await and the "
                        f"{acquire.verb} is not in a finally: cancellation "
                        "at the await leaks it — use with/async with, or "
                        "move the release into a finally",
                    )

    def _acquires(self, ctx: FileContext, cfg: Cfg) -> Iterator[_Acquire]:
        for node in cfg.nodes:
            stmt = node.stmt
            if node.kind != "stmt" or stmt is None:
                continue
            # name = open(...)
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Name)
                and stmt.value.func.id == "open"
                and ctx.resolve(stmt.value.func) is None
            ):
                name = stmt.targets[0].id
                yield _Acquire(node.index, name, "close", f"file {name!r}")
                continue
            # [await] X.acquire()  (statement or assigned result)
            value: ast.AST | None = None
            if isinstance(stmt, ast.Expr):
                value = stmt.value
            elif isinstance(stmt, ast.Assign):
                value = stmt.value
            if isinstance(value, ast.Await):
                value = value.value
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "acquire"
            ):
                segment = ast.unparse(value.func.value)
                yield _Acquire(
                    node.index, segment, "release", f"lock {segment!r}"
                )
