"""Timed automata (Lynch–Vaandrager) and timed traces.

A timed automaton extends an untimed one with time-passage actions
``nu(t)`` for t > 0.  The paper uses the timed model only for the
performance/fault-tolerance layer (Section 7): processors gain a
``failure-status`` variable, outputs/internal actions are disabled while
*bad*, and time may not pass while a *good* processor has an enabled
locally controlled action (its steps happen "immediately").

The framework keeps timed behaviour simple and explicit:

- :class:`TimedAutomaton` adds :meth:`can_advance`/:meth:`advance`;
- :class:`TimedEvent` pairs an action with its occurrence time;
- :class:`TimedTrace` is a sequence of timed events plus an ``ltime``.

Timed executions in this reproduction are produced by the discrete-event
simulator in :mod:`repro.sim` (which interleaves ``nu(t)`` steps with
discrete actions), or by the direct drivers in :mod:`repro.net`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Any

from repro.ioa.actions import Action, act
from repro.ioa.automaton import Automaton


class TimedAutomaton(Automaton):
    """Base class for timed automata.

    Subclasses override :meth:`can_advance` to veto time passage (the
    "urgent action" rule) and :meth:`advance` to update any state that
    depends on time (deadlines, timers).  The base implementation allows
    arbitrary time passage and tracks :attr:`now`.
    """

    def __init__(self) -> None:
        self.now: float = 0.0

    def can_advance(self, delta: float) -> bool:
        """May time advance by ``delta`` from the current state?"""
        return delta > 0.0

    def advance(self, delta: float) -> None:
        """Apply the time-passage action ``nu(delta)``."""
        if delta <= 0.0:
            raise ValueError("time passage must be positive")
        self.now += delta


@dataclass(frozen=True)
class TimedEvent:
    """An action paired with its occurrence time."""

    time: float
    action: Action

    def __str__(self) -> str:
        return f"{self.time:.6g}:{self.action}"


@dataclass
class TimedTrace:
    """A timed trace: timed events in non-decreasing time order, plus the
    limit time ``ltime`` (``inf`` for admissible traces)."""

    events: list[TimedEvent] = field(default_factory=list)
    ltime: float = inf

    def append(self, time: float, action: Action) -> TimedEvent:
        if self.events and time < self.events[-1].time - 1e-12:
            raise ValueError(
                f"non-monotonic timed trace: {time} after {self.events[-1].time}"
            )
        event = TimedEvent(time, action)
        self.events.append(event)
        return event

    def project(self, names: Iterable[str]) -> TimedTrace:
        """Restrict to events whose action name is in ``names``."""
        keep = frozenset(names)
        return TimedTrace(
            events=[e for e in self.events if e.action.name in keep],
            ltime=self.ltime,
        )

    def untimed(self) -> list[Action]:
        """Drop timing information (clause 1 of both TO- and VS-property)."""
        return [e.action for e in self.events]

    def events_in(self, start: float, end: float = inf) -> Iterator[TimedEvent]:
        """Events with start <= time < end."""
        for event in self.events:
            if start <= event.time < end:
                yield event

    def last_event_named(
        self, name: str, before: float = inf
    ) -> TimedEvent | None:
        """The latest event with the given action name strictly before
        ``before`` (used to evaluate failure status 'after' a prefix)."""
        result: TimedEvent | None = None
        for event in self.events:
            if event.time >= before:
                break
            if event.action.name == name:
                result = event
        return result

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TimedEvent]:
        return iter(self.events)


def status_event_action(status_event: Any) -> Action:
    """Convert an oracle failure-status event (duck-typed: ``time``,
    ``status``, ``target``) into the trace action the property checkers
    expect."""
    target = status_event.target
    args = target if isinstance(target, tuple) else (target,)
    return act(status_event.status.value, *args)


class IncrementalStatusMerger:
    """Incrementally maintain the merge of a primary :class:`TimedTrace`
    with a secondary time-monotonic event stream.

    Reproduces exactly the ordering of the batch construction it
    replaces — sort by ``(time, index)`` with every primary event
    indexed before every secondary event — so at equal times all primary
    events precede all secondary events, and each stream keeps its own
    internal order.  Both streams are recorded at the simulator's
    non-decreasing clock, so every *new* event's time is >= every
    already-merged event's time; the only repair an update needs is
    re-merging tail secondary events that share a timestamp with newly
    arrived primary events.  Repeated calls with no new events return
    the cached trace in O(1); previously returned traces are never
    mutated.

    The merger self-heals: if either source shrank (a test reset the
    trace), the merge is rebuilt from scratch.
    """

    def __init__(
        self,
        primary: TimedTrace,
        secondary: Callable[[], Sequence[Any]],
        convert: Callable[[Any], Action] = status_event_action,
    ) -> None:
        self._primary = primary
        self._secondary = secondary
        self._convert = convert
        #: merged (time, stream, action) triples; stream 0 = primary.
        self._events: list[tuple[float, int, Action]] = []
        self._p_idx = 0
        self._s_idx = 0
        self._cache: TimedTrace | None = None

    def merged(self) -> TimedTrace:
        primary = self._primary.events
        secondary = self._secondary()
        if len(primary) < self._p_idx or len(secondary) < self._s_idx:
            self._events = []
            self._p_idx = 0
            self._s_idx = 0
            self._cache = None
        if (
            self._cache is not None
            and self._p_idx == len(primary)
            and self._s_idx == len(secondary)
        ):
            return self._cache
        new_primary = [(e.time, 0, e.action) for e in primary[self._p_idx :]]
        self._p_idx = len(primary)
        new_secondary = [
            (s.time, 1, self._convert(s)) for s in secondary[self._s_idx :]
        ]
        self._s_idx = len(secondary)
        if new_primary:
            # Tail repair: already-merged secondary events at (or after)
            # the first new primary time must sort after it.
            t0 = new_primary[0][0]
            reordered: list[tuple[float, int, Action]] = []
            while (
                self._events
                and self._events[-1][1] == 1
                and self._events[-1][0] >= t0
            ):
                reordered.append(self._events.pop())
            reordered.reverse()
            new_secondary = reordered + new_secondary
        out = self._events
        i = j = 0
        while i < len(new_primary) and j < len(new_secondary):
            if new_secondary[j][0] < new_primary[i][0]:
                out.append(new_secondary[j])
                j += 1
            else:
                out.append(new_primary[i])
                i += 1
        out.extend(new_primary[i:])
        out.extend(new_secondary[j:])
        merged = TimedTrace()
        for time, _stream, action in out:
            merged.append(time, action)
        self._cache = merged
        return merged
