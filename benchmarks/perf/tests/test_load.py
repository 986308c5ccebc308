import asyncio
import time

from benchmarks.perf.load import (
    poisson_schedule,
    rotation,
    run_closed_loop,
    run_open_loop,
    send_index,
)


class TestSchedule:
    def test_same_seed_same_schedule(self):
        assert poisson_schedule(500, 5.0, 7) == poisson_schedule(500, 5.0, 7)
        assert rotation(10, ["p1", "p2", "p3"], 7) == rotation(10, ["p1", "p2", "p3"], 7)

    def test_other_seed_other_schedule(self):
        assert poisson_schedule(500, 5.0, 7) != poisson_schedule(500, 5.0, 8)

    def test_shape(self):
        schedule = poisson_schedule(2000, 5.0, 1)
        assert len(schedule) == 2000
        assert schedule == sorted(schedule)
        assert 0.0 <= schedule[0] and schedule[-1] < 5.0
        # Poisson gaps: mean 1/rate, and bursty (not evenly spaced)
        gaps = [b - a for a, b in zip(schedule, schedule[1:])]
        assert abs(sum(gaps) / len(gaps) - 5.0 / 2000) < 2e-4
        assert max(gaps) > 4 * (5.0 / 2000)

    def test_rotation_visits_all_in_order(self):
        order = rotation(7, ["p1", "p2", "p3"], 3)
        start = ["p1", "p2", "p3"].index(order[0])
        assert order == [["p1", "p2", "p3"][(start + i) % 3] for i in range(7)]


def test_send_index():
    assert send_index("m17") == 17
    assert send_index("v0") == 0
    assert send_index("k3#42#v42") == 42
    assert send_index("hello") == -1
    assert send_index({"g": "g0"}) == -1
    assert send_index(None) == -1


def test_open_loop_times_from_due_not_from_send():
    sent = []
    fired = []

    async def fault():
        fired.append(time.time())

    async def main():
        return await run_open_loop(
            [0.0, 0.02, 0.04], ["m0", "m1", "m2"],
            lambda i, v: sent.append((i, v)),
            at=[(0.03, fault)],
        )

    log = asyncio.run(main())
    assert sent == [(0, "m0"), (1, "m1"), (2, "m2")]
    assert len(fired) == 1 and fired[0] >= log.started + 0.03
    assert [round(log.due[v] - log.started, 3) for v in ("m0", "m1", "m2")] == [0.0, 0.02, 0.04]
    assert len(log.lateness) == 3 and all(late >= 0 for late in log.lateness)
    assert log.finished - log.started >= 0.04
    assert 0.0 <= log.driver_cpu_frac


def test_open_loop_does_not_wait_for_a_slow_system():
    """A submit that stalls makes later sends late; their due times do
    not move, so the stall is charged to them."""
    async def main():
        def submit(i, v):
            if i == 0:
                time.sleep(0.05)

        return await run_open_loop([0.0, 0.01, 0.02], ["m0", "m1", "m2"], submit)

    log = asyncio.run(main())
    assert log.due["m1"] - log.started < 0.011
    assert log.lateness[1] > 0.03


def test_closed_loop_keeps_the_window_full():
    outstanding = []
    state = {"submitted": 0, "done": 0}

    def submit(i, v):
        state["submitted"] += 1
        outstanding.append(state["submitted"] - state["done"])

    def completed():
        # the system completes two sends per poll
        state["done"] = min(state["submitted"], state["done"] + 2)
        return state["done"]

    async def main():
        return await run_closed_loop(
            [f"m{i}" for i in range(20)], 4, submit, completed, deadline=5.0,
            poll_interval=0.0,
        )

    log = asyncio.run(main())
    assert state["submitted"] == 20 and state["done"] == 20
    assert max(outstanding) == 4
    assert len(log.due) == 20 and not log.lateness


def test_closed_loop_gives_up_at_the_deadline():
    async def main():
        return await run_closed_loop(
            ["m0", "m1"], 1, lambda i, v: None, lambda: 0, deadline=0.05
        )

    log = asyncio.run(main())
    assert list(log.due) == ["m0"]  # the second send never got a slot
