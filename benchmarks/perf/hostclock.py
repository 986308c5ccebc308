"""Compensation for a host whose processor changes speed under the run.

The reference host (2 virtual cores) runs a single busy thread at one of
two clock rates about 1.55x apart and switches between them every few
seconds, whatever the harness does.  A single-threaded stage timed once
— the offline oracle, a simulator episode — therefore lands in either
mode: ``verify_s`` on identical input measured 0.50 s or 0.78 s, spread
(Q3-Q1)/median 0.28 over 139 repeats.  A short fixed loop timed right
before and after the stage sees the same clock (correlation 0.91), and
dividing by it brought that spread to 0.10, and to 0.07 from 0.44 inside
benchmark runs.

So single-threaded stages that run in the harness process are reported
in *reference seconds*: measured seconds divided by how much slower than
``REFERENCE_SPIN_S`` the fixed loop ran around them (:class:`Stopwatch`).

Saturated multi-process traffic has the same two modes, minutes long
(about 1300 or 1900 sends/s on ``live3_saturate``); spins *around* the
traffic say nothing about them, but a short spin every 50 ms on the
driver's loop *during* it does (median 2.5 ms or 1.75 ms, the same
ratio; correlation 0.83), so closed-loop episodes are compensated with
that median (:class:`TrafficClock`).  Open-loop traffic is reported as
measured: its rate is its schedule's, its tail latency is the protocol's
timers (p99 on ``live3_steady`` did not move between the modes, so
dividing it over-corrected), and through a partition everything is.
The spin sees the processor's own speed only: time lost to other tenants
of the host is in every figure, compensated or not.
"""

from __future__ import annotations

import asyncio
import statistics
from time import perf_counter
from types import TracebackType

SPIN_ITERATIONS = 200_000
#: Seconds the loop takes on the reference host at its faster clock.
REFERENCE_SPIN_S = 0.0074


def spin(iterations: int = SPIN_ITERATIONS) -> float:
    """How many times slower than the reference one fixed pure-Python
    loop runs right now."""
    started = perf_counter()
    total = 0
    for k in range(iterations):
        total += k
    elapsed = perf_counter() - started
    return elapsed / (REFERENCE_SPIN_S * iterations / SPIN_ITERATIONS)


def slowdown() -> float:
    """The host's slowdown now: the better of two spins, so that one
    interrupted spin does not count."""
    return min(spin(), spin())


class Stopwatch:
    """Times a block and the host's speed around it::

        with Stopwatch() as watch:
            verify(...)
        watch.raw        # seconds as measured
        watch.reference  # seconds at the reference clock
    """

    raw = 0.0
    slowdown = 1.0

    def __enter__(self) -> Stopwatch:
        self._before = slowdown()
        self._started = perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.raw = perf_counter() - self._started
        self.slowdown = (self._before + slowdown()) / 2

    @property
    def reference(self) -> float:
        return self.raw / self.slowdown


class TrafficClock:
    """Samples the host's slowdown from the driver's loop while traffic
    runs: a sixteenth-size spin (about 0.5 ms, short enough not to make
    an open-loop generator late) every ``interval`` seconds::

        async with TrafficClock() as clock:
            await run_closed_loop(...)
        clock.slowdown  # median of the samples
    """

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self._task: asyncio.Task[None] | None = None

    async def _sample(self) -> None:
        while True:
            self.samples.append(spin(SPIN_ITERATIONS // 16))
            await asyncio.sleep(self.interval)

    async def __aenter__(self) -> TrafficClock:
        self._task = asyncio.get_running_loop().create_task(self._sample())
        return self

    async def __aexit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass

    @property
    def slowdown(self) -> float:
        return statistics.median(self.samples) if self.samples else 1.0
