"""Load generation: seeded schedules, an open loop and a closed loop.

The open loop issues every send at its pre-drawn *due* time whether or
not earlier sends completed, and all latencies are taken from the due
time, so a stall is charged to every send it delays.  (``LiveCluster.
send_poisson`` is not reused: it hides the due times and the repo's own
latency figures start at the node's ``bcast`` stamp.)  The closed loop
keeps a fixed window of sends outstanding.  Both run on the caller's
event loop with no worker threads; ``--seed`` reaches nothing but the
functions in this module.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections.abc import Awaitable, Callable, Sequence
from dataclasses import dataclass, field

#: An open-loop run whose generator lateness p99 exceeds this is
#: reported invalid rather than slow.
MAX_GEN_LATE_P99_MS = 5.0


def poisson_schedule(count: int, duration: float, seed: int) -> list[float]:
    """Due offsets (seconds from traffic start, ascending) of ``count``
    Poisson arrivals in ``[0, duration)``: conditioned on its count a
    Poisson process is ``count`` sorted uniform draws, which fixes the
    amount of work per run while keeping the arrival shape."""
    rng = random.Random(seed)
    return sorted(rng.uniform(0.0, duration) for _ in range(count))


def even_schedule(count: int, duration: float, seed: int) -> list[float]:
    """Due offsets of ``count`` evenly spaced arrivals in ``[0,
    duration)`` at a seeded phase.  For the partition workload: with
    Poisson arrivals the number of sends that fall inside the fault
    window changes with the seed, and that count — not the system —
    then decides which send is the median one."""
    gap = duration / count
    phase = random.Random(seed).random()
    return [(i + phase) * gap for i in range(count)]


def rotation(count: int, items: Sequence[str], seed: int) -> list[str]:
    """``items`` in round-robin order starting at a seeded offset."""
    offset = random.Random(seed ^ 0x5EED).randrange(len(items))
    return [items[(i + offset) % len(items)] for i in range(count)]


def send_index(value: object) -> int:
    """The index of the send a harness-made client value belongs to:
    ``m17`` and ``v17`` are send 17, as is the shard operation
    ``k3#17#v17``; anything else is -1."""
    if not isinstance(value, str):
        return -1
    digits = value.split("#")[1] if "#" in value else value[1:]
    return int(digits) if digits.isdigit() else -1


@dataclass
class LoadLog:
    """What the generator did, on the wall clock the node logs share."""

    #: value -> wall time the send was due (open loop) or submitted.
    due: dict[str, float] = field(default_factory=dict)
    #: seconds each open-loop send left the generator after it was due.
    lateness: list[float] = field(default_factory=list)
    started: float = 0.0
    finished: float = 0.0
    cpu_seconds: float = 0.0

    @property
    def driver_cpu_frac(self) -> float:
        """Share of one processor the driver process used while it
        generated load (its own CPU time over the wall time)."""
        wall = self.finished - self.started
        return self.cpu_seconds / wall if wall > 0 else 0.0


async def run_open_loop(
    schedule: Sequence[float],
    values: Sequence[str],
    submit: Callable[[int, str], None],
    at: Sequence[tuple[float, Callable[[], Awaitable[None]]]] = (),
) -> LoadLog:
    """Issue ``values[i]`` at ``schedule[i]`` seconds from now.

    ``at`` holds ``(offset, coroutine function)`` pairs — the fault
    injections — run as separate tasks at their offsets so a slow
    control round trip never delays the arrival process.
    """
    log = LoadLog()
    loop = asyncio.get_running_loop()
    cpu0 = time.process_time()
    log.started = origin = time.time()

    async def fire(offset: float, action: Callable[[], Awaitable[None]]) -> None:
        await asyncio.sleep(max(0.0, origin + offset - time.time()))
        await action()

    faults = [loop.create_task(fire(off, action)) for off, action in at]
    try:
        for index, offset in enumerate(schedule):
            due = origin + offset
            delay = due - time.time()
            if delay > 0:
                await asyncio.sleep(delay)
            submit(index, values[index])
            log.due[values[index]] = due
            log.lateness.append(time.time() - due)
        for task in faults:
            await task
    finally:
        for task in faults:
            task.cancel()
    log.finished = time.time()
    log.cpu_seconds = time.process_time() - cpu0
    return log


async def run_closed_loop(
    values: Sequence[str],
    window: int,
    submit: Callable[[int, str], None],
    completed: Callable[[], int],
    deadline: float,
    poll_interval: float = 0.001,
) -> LoadLog:
    """Keep ``window`` sends outstanding until every value completed.

    ``completed()`` returns how many sends have been delivered
    everywhere (from the log tailer — never a ``stats`` round trip,
    which would put the driver's polling on the nodes' processors).
    Gives up ``deadline`` seconds after the start; sends still
    outstanding then are the caller's to count as failed.
    """
    log = LoadLog()
    cpu0 = time.process_time()
    log.started = time.time()
    give_up = log.started + deadline
    total = len(values)
    submitted = 0
    while True:
        done = completed()
        while submitted < total and submitted - done < window:
            value = values[submitted]
            log.due[value] = time.time()
            submit(submitted, value)
            submitted += 1
        if done >= total:
            break
        if time.time() > give_up:
            break
        await asyncio.sleep(poll_interval)
    log.finished = time.time()
    log.cpu_seconds = time.process_time() - cpu0
    return log
