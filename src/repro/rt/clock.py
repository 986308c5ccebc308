"""A Simulator-shaped timer facade over the asyncio event loop.

The protocol objects (:class:`~repro.membership.ring.RingMember`, the
timers in :mod:`repro.sim.timers`, :class:`~repro.core.vstoto.runtime.
VStoTORuntime`) talk to time through a narrow surface of
:class:`~repro.sim.engine.Simulator`: ``now``, ``schedule``,
``schedule_at``, ``call_soon`` and the returned handle's ``cancel`` /
``cancelled`` / ``time``.  :class:`LiveScheduler` implements exactly
that surface on ``asyncio``, so the same protocol code runs unmodified
over real time — a π of 0.2 means the ring leader launches the token
every 200 ms of wall time.

This module (with the rest of :mod:`repro.rt`) is the sanctioned
wall-clock carve-out of the DET002 determinism rule: live runs are not
replayable from a seed by construction, and their correctness is
checked from captured traces instead (see :mod:`repro.rt.trace`).

Every callback the scheduler runs is one *step* of the node, and its
end calls :attr:`LiveScheduler.on_step_end` — where a live node sends
the step's frames and then lets its VStoTO runtimes catch up
(INV-STEP-1 in :mod:`repro.rt.transport`).  The hook is inside
:meth:`LiveScheduler.schedule`, so the callback a caller hands in is
the one queued: a timer is still named after the code that armed it.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable


def _no_step_end() -> None:
    """A scheduler with no node behind it ends its steps silently."""


class LiveTimerHandle:
    """Duck-types :class:`~repro.sim.engine.EventHandle` over an
    :class:`asyncio.TimerHandle`."""

    __slots__ = ("_handle", "_time", "_cancelled")

    def __init__(self, handle: asyncio.TimerHandle, time: float) -> None:
        self._handle = handle
        self._time = time
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True
        self._handle.cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def time(self) -> float:
        """Scheduled firing time, in the scheduler's clock."""
        return self._time


class LiveScheduler:
    """The Simulator surface protocol code needs, over real time.

    ``now`` is seconds since construction (the loop's monotonic clock,
    rebased to zero so logged protocol times read like the simulator's
    virtual times).  Callbacks run on the event loop thread, which is
    the only thread that touches protocol state — the same
    single-threaded discipline the simulator gives for free.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop | None = None) -> None:
        self._loop = loop if loop is not None else asyncio.get_event_loop()
        self._t0 = self._loop.time()
        self.events_scheduled = 0
        #: Called when a step ends: after each callback this scheduler
        #: runs, and by the transport after each read it dispatches.
        self.on_step_end: Callable[[], None] = _no_step_end

    @property
    def now(self) -> float:
        """Seconds since this scheduler was created."""
        return self._loop.time() - self._t0

    def schedule(
        self, delay: float, callback: Callable[[], None]
    ) -> LiveTimerHandle:
        """Run ``callback`` after ``delay`` seconds of real time."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.events_scheduled += 1
        handle = self._loop.call_later(delay, self._step, callback)
        return LiveTimerHandle(handle, self.now + delay)

    def _step(self, callback: Callable[[], None]) -> None:
        try:
            callback()
        finally:
            self.on_step_end()

    def schedule_at(
        self, time: float, callback: Callable[[], None]
    ) -> LiveTimerHandle:
        """Run ``callback`` at an absolute scheduler time."""
        return self.schedule(max(0.0, time - self.now), callback)

    def call_soon(self, callback: Callable[[], None]) -> LiveTimerHandle:
        """Run ``callback`` on the next loop iteration."""
        return self.schedule(0.0, callback)
