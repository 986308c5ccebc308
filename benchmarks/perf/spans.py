"""Spans recorded from outside the program, and the cost stack they give.

A traced run patches the boundary methods of each layer *in the harness
process* (restored afterwards), so every call across a layer boundary
opens a span: name (``<layer>:<operation>``), start, end, the span that
was open when it started (its parent) and the index of the client send
it serves where that is knowable (-1 for shared work such as a token
hop that carries many sends).  Spans stay in memory and are written out
once, after the run.  A layer's *self time* is its spans' duration minus
the part their child spans cover, so the layers' self times add up to
the time the root spans cover and nothing is counted twice.
"""

from __future__ import annotations

import functools
import json
import selectors
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

#: One span: [name, start, end, parent index or -1, send index or -1].
Span = list

NAME, START, END, PARENT, SEND = range(5)

#: Layer of a timer callback, by the module that defined the callback.
#: Modules not listed map to their dotted path below ``repro``.
LAYER_OF_MODULE = {
    "repro.net.channel": "net",
    "repro.net.network": "net",
    "repro.core.vstoto.runtime": "core.vstoto",
    "repro.membership.service": "membership.service",
    "repro.shard.live": "shard",
    # The ring member is the only user of the simulator's timer helpers.
    "repro.sim.timers": "membership.ring",
}


def layer_of(name: str) -> str:
    return name.split(":", 1)[0]


class SpanRecorder:
    """Records spans around patched methods while :attr:`enabled`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        #: client value -> index of its send (-1: not a client value).
        self.send_index: Callable[[Any], int] = lambda value: -1
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self._timer_names: dict[str, str] = {}

    # -- switching ------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.close_open(perf_counter())
        self.enabled = False

    def close_open(self, now: float) -> None:
        """End every span still open (a loop turn boundary, or the end
        of the traced region)."""
        while self._stack:
            self.spans[self._stack.pop()][END] = now

    def open_root(self, name: str, now: float) -> None:
        """Start a root span that :meth:`close_open` will end."""
        self._stack.append(len(self.spans))
        self.spans.append([name, now, 0.0, -1, -1])

    # -- wrapping -------------------------------------------------------
    def _open(
        self,
        name: str,
        value_of: Callable[[tuple[Any, ...]], Any] | None,
        args: tuple[Any, ...],
    ) -> Span:
        spans, stack = self.spans, self._stack
        parent = stack[-1] if stack else -1
        send = -1
        if value_of is not None:
            send = self.send_index(value_of(args))
        if send < 0 and parent >= 0:
            send = spans[parent][SEND]
        span = [name, perf_counter(), 0.0, parent, send]
        stack.append(len(spans))
        spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        # A span a loop-turn boundary already ended (a coroutine that
        # suspended) is no longer on the stack and keeps that end.
        stack = self._stack
        if stack and self.spans[stack[-1]] is span:
            stack.pop()
            span[END] = perf_counter()

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        value_of: Callable[[tuple[Any, ...]], Any] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` with a span around each call.  ``value_of(args)``
        names the client value the call serves, if it can tell; a span
        that cannot inherits its parent's send index."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self._open(name, value_of, args)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return wrapper

    def wrap_async(
        self,
        fn: Callable[..., Any],
        name: str,
        value_of: Callable[[tuple[Any, ...]], Any] | None = None,
    ) -> Callable[..., Any]:
        """As :meth:`wrap` for a coroutine function.  Exact only while
        the coroutine does not suspend (the control-plane ``send``
        path); a suspended span ends at the loop turn boundary."""

        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return await fn(*args, **kwargs)
            span = self._open(name, value_of, args)
            try:
                return await fn(*args, **kwargs)
            finally:
                self._close(span)

        return wrapper

    def timer_name(self, callback: Callable[..., Any]) -> str:
        func = getattr(callback, "__func__", callback)
        module = getattr(func, "__module__", None) or "unknown"
        name = self._timer_names.get(module)
        if name is None:
            layer = LAYER_OF_MODULE.get(module, module.removeprefix("repro."))
            name = self._timer_names[module] = f"{layer}:timer"
        return name

    # -- patching -------------------------------------------------------
    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        value_of: Callable[[tuple[Any, ...]], Any] | None = None,
        is_async: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper until
        :meth:`restore`."""
        original = getattr(owner, attr)
        wrap = self.wrap_async if is_async else self.wrap
        # wraps() keeps __module__, so a patched method later queued as
        # a timer callback is still named after its own layer.
        wrapped = functools.wraps(original)(wrap(original, name, value_of))
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def patch_scheduler(self, owner: Any, attr: str) -> None:
        """Patch a ``schedule(self, when, callback)`` method so each
        callback it queues runs inside a ``<layer>:timer`` span named
        after the module that defined the callback."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def scheduling(obj: Any, when: float, callback: Callable[[], None]) -> Any:
            traced = recorder.wrap(callback, recorder.timer_name(callback))
            return original(obj, when, traced)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, scheduling)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


class TimingSelector(selectors.DefaultSelector):  # type: ignore[misc,valid-type]
    """The harness loop's selector: every ``select`` is a
    ``loop.idle:select`` span (waiting for I/O or a timer, plus the poll
    itself) and the time between two selects is one ``loop:turn`` root
    span whose self time is the event loop's own machinery — callbacks,
    streams and socket calls no layer span covers."""

    def __init__(self, recorder: SpanRecorder) -> None:
        super().__init__()
        self._recorder = recorder

    def select(self, timeout: float | None = None) -> Any:
        recorder = self._recorder
        if not recorder.enabled:
            return super().select(timeout)
        start = perf_counter()
        recorder.close_open(start)
        try:
            return super().select(timeout)
        finally:
            end = perf_counter()
            recorder.spans.append(["loop.idle:select", start, end, -1, -1])
            recorder.open_root("loop:turn", end)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Span]) -> list[float]:
    """Self time of each span: its duration minus the part of it that
    its direct children cover.  Children are clipped to the parent and
    overlapping children are counted once."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            children.setdefault(parent, []).append((span[START], span[END]))
    out: list[float] = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, reach)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        out.append(max(0.0, (end - start) - covered))
    return out


def self_seconds_by_name(spans: Sequence[Span]) -> dict[str, float]:
    """Total self time per span name."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[NAME]] = totals.get(span[NAME], 0.0) + own
    return totals


def by_layer(by_name: dict[str, float]) -> dict[str, float]:
    """Fold per-name totals into per-layer totals."""
    totals: dict[str, float] = {}
    for name, seconds in by_name.items():
        totals[layer_of(name)] = totals.get(layer_of(name), 0.0) + seconds
    return totals


def count_named(spans: Iterable[Span], name: str) -> int:
    return sum(1 for span in spans if span[NAME] == name)


@dataclass(frozen=True)
class CostRow:
    layer: str
    seconds: float
    us_per_unit: float
    share: float


def cost_stack(
    totals: dict[str, float], wall: float, units: int
) -> tuple[list[CostRow], float]:
    """Rows of self time by layer (largest first) from :func:`by_layer`
    totals, and their sum as a share of the separately measured
    ``wall`` — the coverage the acceptance criterion holds to within
    10% of 1."""
    rows = [
        CostRow(
            layer,
            seconds,
            seconds / units * 1e6 if units else 0.0,
            seconds / wall if wall else 0.0,
        )
        for layer, seconds in sorted(totals.items(), key=lambda kv: -kv[1])
    ]
    coverage = sum(totals.values()) / wall if wall else 0.0
    return rows, coverage


def format_cost_stack(
    rows: Sequence[CostRow], coverage: float, wall: float, unit: str
) -> str:
    lines = [f"  {'layer':<22}{'seconds':>10}{'us/' + unit:>14}{'share':>9}"]
    for row in rows:
        lines.append(
            f"  {row.layer:<22}{row.seconds:>10.4f}"
            f"{row.us_per_unit:>14.2f}{row.share:>9.1%}"
        )
    lines.append(
        f"  {'sum of rows':<22}{coverage * wall:>10.4f}{'':>14}{coverage:>9.1%}"
        f"   (measured wall {wall:.4f}s)"
    )
    return "\n".join(lines)


def write_jsonl(spans: Sequence[Span], path: str | Path) -> int:
    """Write one JSON object per span; times are seconds from the first
    span's start."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = spans[0][START] if spans else 0.0
    with open(path, "w", encoding="utf-8") as out:
        for index, (name, start, end, parent, send) in enumerate(spans):
            out.write(
                json.dumps(
                    {
                        "id": index,
                        "name": name,
                        "start": start - origin,
                        "end": end - origin,
                        "parent": parent,
                        "send": send,
                    },
                    separators=(",", ":"),
                )
                + "\n"
            )
    return len(spans)
