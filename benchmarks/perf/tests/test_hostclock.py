import asyncio

import pytest

from benchmarks.perf import hostclock
from benchmarks.perf.hostclock import Stopwatch, TrafficClock


def test_stopwatch_divides_by_the_slowdown_around_the_block(monkeypatch):
    readings = iter([2.0, 4.0])  # host twice, then four times, as slow
    monkeypatch.setattr(hostclock, "slowdown", lambda: next(readings))
    with Stopwatch() as watch:
        pass
    watch.raw = 6.0
    assert watch.slowdown == 3.0
    assert watch.reference == 2.0


def test_stopwatch_on_the_real_clock():
    with Stopwatch() as watch:
        sum(range(100_000))
    assert watch.raw > 0
    assert 0.2 < watch.slowdown < 50
    assert watch.reference == pytest.approx(watch.raw / watch.slowdown)


def test_spin_scales_with_its_size():
    small = min(hostclock.spin(50_000) for _ in range(5))
    full = min(hostclock.spin() for _ in range(5))
    # both are slowdowns relative to the same reference, so they agree
    assert small == pytest.approx(full, rel=0.5)


def test_traffic_clock_reports_the_median_sample(monkeypatch):
    readings = iter([1.0, 9.0, 1.5, 1.4, 1.6] + [1.5] * 100)
    monkeypatch.setattr(hostclock, "spin", lambda iterations: next(readings))

    async def main():
        async with TrafficClock(interval=0.001) as clock:
            while len(clock.samples) < 5:
                await asyncio.sleep(0.001)
        return clock

    clock = asyncio.run(main())
    assert clock.slowdown == pytest.approx(1.5)  # the 9.0 stall is ignored
    assert TrafficClock().slowdown == 1.0  # nothing sampled: as measured
