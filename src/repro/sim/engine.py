"""The discrete-event simulator core.

Events are callbacks scheduled at virtual times.  Ties are broken by a
monotonically increasing sequence number, so scheduling order is
deterministic — together with seeded RNGs this makes whole simulated
executions reproducible from a seed, which the test and benchmark suites
rely on.

The simulator deliberately has no notion of processes or channels; those
live in :mod:`repro.net`.  It corresponds to the time-passage structure
of the timed automaton model: between two consecutive event times the
system takes a ``nu(t)`` step, and at an event time it takes discrete
steps.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from math import inf
from collections.abc import Callable


@dataclass(order=True, slots=True)
class _QueuedEvent:
    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    #: True once the event left the queue (fired or discarded); a cancel
    #: after this point must not touch the simulator's live counters.
    done: bool = field(default=False, compare=False)


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`; supports cancel."""

    __slots__ = ("_event", "_sim")

    def __init__(self, event: _QueuedEvent, sim: Simulator) -> None:
        self._event = event
        self._sim = sim

    def cancel(self) -> None:
        """Cancel the event if it has not fired yet (idempotent: the
        live-event counter is decremented exactly once)."""
        event = self._event
        if event.cancelled or event.done:
            return
        event.cancelled = True
        self._sim._on_cancel()

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def time(self) -> float:
        return self._event.time


class Simulator:
    """A minimal, deterministic discrete-event simulator."""

    def __init__(self) -> None:
        self._now: float = 0.0
        self._queue: list[_QueuedEvent] = []
        self._seq = itertools.count()
        self._events_processed = 0
        # Live (not-cancelled) queue entries, maintained on schedule /
        # cancel / pop so :attr:`pending` is O(1) instead of a queue scan.
        self._pending = 0
        # Cancelled entries still sitting in the heap (lazy deletion);
        # when they outnumber the live ones the heap is compacted so
        # heavy timer churn (ring watchdogs) cannot leak memory.
        self._cancelled_in_queue = 0
        self._compactions = 0
        self._trace_hook: Callable[[float], None] | None = None

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled queued events (O(1))."""
        return self._pending

    def stats(self) -> dict[str, int]:
        """Queue bookkeeping counters (diagnostics for benchmarks)."""
        return {
            "events_processed": self._events_processed,
            "pending": self._pending,
            "cancelled_in_queue": self._cancelled_in_queue,
            "queue_len": len(self._queue),
            "compactions": self._compactions,
        }

    # ------------------------------------------------------------------
    def _on_cancel(self) -> None:
        """Called by :meth:`EventHandle.cancel` exactly once per event."""
        self._pending -= 1
        self._cancelled_in_queue += 1
        # Compact when cancelled entries outnumber live ones: the pop
        # order is the total order (time, seq), so dropping dead entries
        # and re-heapifying cannot change which event fires next.
        if self._cancelled_in_queue > len(self._queue) // 2 and len(self._queue) > 8:
            self._compact()

    def _compact(self) -> None:
        for event in self._queue:
            if event.cancelled:
                event.done = True
        self._queue = [e for e in self._queue if not e.cancelled]
        heapq.heapify(self._queue)
        self._cancelled_in_queue = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[[], None]
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(
        self, time: float, callback: Callable[[], None]
    ) -> EventHandle:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if time < self._now:
            raise ValueError(f"cannot schedule in the past: {time} < {self._now}")
        event = _QueuedEvent(time=time, seq=next(self._seq), callback=callback)
        heapq.heappush(self._queue, event)
        self._pending += 1
        return EventHandle(event, self)

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Process the next event; returns False when the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            event.done = True
            if event.cancelled:
                self._cancelled_in_queue -= 1
                continue
            self._pending -= 1
            if event.time > self._now and self._trace_hook is not None:
                self._trace_hook(event.time - self._now)
            self._now = max(self._now, event.time)
            event.callback()
            self._events_processed += 1
            return True
        return False

    def run_until(self, time: float) -> None:
        """Process events with time <= ``time``; advance the clock to it."""
        while self._queue:
            head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                head.done = True
                self._cancelled_in_queue -= 1
                continue
            if head.time > time:
                break
            self.step()
        if time > self._now:
            if self._trace_hook is not None:
                self._trace_hook(time - self._now)
            self._now = time

    def run(self, max_events: int = 10_000_000, until: float = inf) -> None:
        """Drain the queue, bounded by ``max_events`` and ``until``."""
        processed = 0
        while processed < max_events and self._queue:
            head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                head.done = True
                self._cancelled_in_queue -= 1
                continue
            if head.time > until:
                break
            self.step()
            processed += 1
        if until is not inf and until > self._now:
            self.run_until(until)

    # ------------------------------------------------------------------
    def on_time_passage(self, hook: Callable[[float], None] | None) -> None:
        """Install a hook invoked with each positive time advance (the
        ``nu(t)`` steps of the timed model); pass None to remove."""
        self._trace_hook = hook

    def call_soon(self, callback: Callable[[], None]) -> EventHandle:
        """Schedule at the current time (after already-queued same-time
        events, by sequence-number tie-breaking)."""
        return self.schedule(0.0, callback)

    def clear(self) -> None:
        """Drop all pending events (used between benchmark iterations)."""
        for event in self._queue:
            event.done = True
        self._queue.clear()
        self._pending = 0
        self._cancelled_in_queue = 0
