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

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from math import inf
from operator import attrgetter, le
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Any

from repro.ioa.actions import Action, act
from repro.ioa.automaton import Automaton


_time = attrgetter("time")


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


@dataclass(frozen=True, slots=True)
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

    Reproduces exactly the ordering of a batch sort by
    ``(time, stream, index)`` with the primary as stream 0: at equal
    times all primary events precede all secondary events, and each
    stream keeps its own internal order.  Both streams are recorded at
    the simulator's non-decreasing clock, so every *new* event's time is
    >= every already-merged event's time; the only repair an update
    needs is re-merging tail secondary events that share a timestamp
    with newly arrived primary events.

    The work is O(new) amortised: the merge holds the primary trace's
    own :class:`TimedEvent` objects, converts each secondary event into
    a :class:`TimedEvent` once, and extends its list only by the suffix
    after the tail repair.  Each call that saw new events returns a
    fresh :class:`TimedTrace` over a copy of that list, so previously
    returned traces are never mutated; repeated calls with no new events
    return the cached trace in O(1).

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
        self._events: list[TimedEvent] = []
        #: how many events at the end of ``_events`` are secondary ones
        self._tail = 0
        self._p_idx = 0
        self._s_idx = 0
        self._cache: TimedTrace | None = None

    def merged(self) -> TimedTrace:
        primary = self._primary.events
        secondary = self._secondary()
        if len(primary) < self._p_idx or len(secondary) < self._s_idx:
            self._events = []
            self._tail = 0
            self._p_idx = 0
            self._s_idx = 0
            self._cache = None
        p_idx, p_end, s_idx = self._p_idx, len(primary), self._s_idx
        if self._cache is not None and p_idx == p_end and s_idx == len(secondary):
            return self._cache
        convert = self._convert
        new_secondary = [TimedEvent(s.time, convert(s)) for s in secondary[s_idx:]]
        self._p_idx = p_end
        self._s_idx = len(secondary)
        out = self._events
        tail = self._tail
        if p_idx < p_end and tail:
            # Tail repair: already-merged secondary events at (or after)
            # the first new primary time must sort after it.
            t0 = primary[p_idx].time
            cut = bisect_left(out, t0, len(out) - tail, key=_time)
            new_secondary[:0] = out[cut:]
            tail -= len(out) - cut
            del out[cut:]
        start = max(len(out) - 1, 0)
        # Each secondary event goes after every primary event of equal
        # or lower time; the primary runs in between are list slices.
        pos = p_idx
        for event in new_secondary:
            k = bisect_right(primary, event.time, pos, p_end, key=_time)
            if k > pos:
                out.extend(primary[pos:k])
                pos = k
                tail = 0
            out.append(event)
            tail += 1
        if pos < p_end:
            out.extend(primary[pos:p_end])
            tail = 0
        self._tail = tail
        times = list(map(_time, out[start:]))
        if not all(map(le, times, times[1:])):
            for before, after in zip(times, times[1:]):
                if after < before - 1e-12:
                    raise ValueError(
                        f"non-monotonic timed trace: {after} after {before}"
                    )
        merged = TimedTrace(events=list(out))
        self._cache = merged
        return merged
