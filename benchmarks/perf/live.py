"""The four live workloads: three ``repro.rt.node`` processes on loopback.

Every end-to-end number comes from ``LiveCluster`` — one OS process per
node, binary wire, delta = 0.05 s (so pi = 0.2 s, mu = 1.0 s), zero
injected delay.  A run is a few *episodes*, each on a freshly spawned
cluster, and reports the median episode; the amount of work per episode
is fixed by ``--seconds`` (not by how fast the host is), so two commits
are compared on identical inputs.

The traced run's in-process cluster and spans are in
:mod:`benchmarks.perf.inprocess`.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import shutil
import tempfile
import time
from collections.abc import AsyncIterator, Awaitable, Callable, Sequence
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any

from repro.core.monitor import OnlineVSMonitor
from repro.core.to_spec import check_to_trace
from repro.ioa.actions import act
from repro.rt.cluster import LiveCluster, LiveShardLoad, verify_sharded
from repro.rt.faults import single_partition_window
from repro.rt.node import initial_view_for
from repro.rt.trace import load_event_logs, verify_events
from repro.rt.transport import Ctl
from repro.shard.live import encode_live_op, shard_log_paths
from repro.shard.routing import HashRing, group_names

from . import analyze
from .hostclock import Stopwatch, TrafficClock
from .load import (
    MAX_GEN_LATE_P99_MS,
    LoadLog,
    even_schedule,
    poisson_schedule,
    rotation,
    run_closed_loop,
    run_open_loop,
)
from .report import RunResult
from .stats import decay_ratio, median, percentile
from .tail import LogTailer

NODES = 3
DELTA = 0.05
WIRE = "binary"
#: Episodes per untraced run; each spawns its own cluster.
EPISODES = 3
#: Set-ups per untraced run.  Peers find each other through a reconnect
#: back-off (50, 100, 200 ms ...), so one set-up lands near 0.8 s or near
#: 1.2 s; the median of five holds still where the median of three did
#: not.  Episodes supply the first samples, bare set-ups the rest.
SETUP_SAMPLES = 5
#: Closed-loop window (sends outstanding) and the router's per-group one.
WINDOW = 32
SHARD_WINDOW = 16
SHARDS = 2
SHARD_KEYS = 16
#: Work per second of ``--seconds``.  The open-loop rates are the offered
#: load; the closed-loop figures size the fixed send count so that the
#: reference host (2 cores) measures for about ``--seconds``.
STEADY_RATE = 400.0
PARTITION_RATE = 100.0
SATURATE_SENDS_PER_SECOND = 1000
SHARDS_SENDS_PER_SECOND = 800
#: Partition timeline as fractions of the episode: split, heal, end.
PARTITION_AT, HEAL_AT = 0.2, 0.75
#: Seconds an episode may take to deliver everything after the load ends.
DRAIN_DEADLINE = 25.0


@dataclass
class Episode:
    """One episode's measurements (seconds unless the name says)."""

    setup_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: as measured, wall-clock: the host's slowdown while they were
    #: measured is in ``clock`` (see :meth:`figure`).
    sends_per_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    clock: float = 1.0
    verify_s: float = 0.0
    rss_mb: float = 0.0
    safety_violations: int = 0
    layer: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def figure(self, name: str, on_clock: frozenset[str]) -> float:
        """``rate`` (sends/s), ``p50`` or ``p99`` (seconds) of this
        episode, put on the reference clock if ``name`` is one of the
        workload's processor-bound figures."""
        clock = self.clock if name in on_clock else 1.0
        if name == "rate":
            return self.sends_per_s * clock
        value = percentile(self.latencies, {"p50": 0.50, "p99": 0.99}[name])
        if value is None:
            raise RuntimeError(
                f"{len(self.latencies)} completed sends are too few for {name}"
            )
        return value / clock


# ----------------------------------------------------------------------
# Clusters
# ----------------------------------------------------------------------
@contextlib.asynccontextmanager
async def spawned_cluster(
    log_dir: Path, shards: int
) -> AsyncIterator[tuple[LiveCluster, float]]:
    """A started multi-process cluster and its set-up time.  On any exit
    path — error, deadline, SIGINT — every node process is killed and
    reaped before control returns."""
    cluster = LiveCluster(NODES, log_dir, delta=DELTA, wire=WIRE, shards=shards)
    started = time.perf_counter()
    try:
        await cluster.spawn()
        await cluster.go()
        yield cluster, time.perf_counter() - started
        async with asyncio.timeout(20.0):
            await cluster.stop()
    finally:
        for proc in cluster.procs.values():
            if proc.poll() is None:
                proc.kill()
            proc.wait()


# ----------------------------------------------------------------------
# Traffic
# ----------------------------------------------------------------------
@dataclass
class Traffic:
    """What one episode's load did and how to judge it."""

    log: LoadLog
    values: list[str]
    #: wall times of the partition and heal marks (partition workload).
    partition_at: float | None = None
    heal_at: float | None = None
    shard_load: LiveShardLoad | None = None


def log_paths(log_dir: Path, shards: int) -> list[Path]:
    """Where the nodes of a cluster write their event logs."""
    procs = [f"p{i + 1}" for i in range(NODES)]
    if shards == 1:
        return [log_dir / f"{p}.events.jsonl" for p in procs]
    return [
        log_dir / f"{p}@{g}.events.jsonl" for g in group_names(shards) for p in procs
    ]


async def await_all_delivered(
    tailer: LogTailer, per_file: int, deadline: float
) -> None:
    """Poll the logs until every file holds ``per_file`` deliveries."""
    give_up = time.time() + deadline
    while min(tailer.poll().values()) < per_file and time.time() < give_up:
        await asyncio.sleep(0.02)


def origin_rotation(
    cluster: Any, count: int, seed: int
) -> tuple[list[str], Callable[[int, str], None]]:
    """Values ``m0..`` and a submit function sending value ``i`` to the
    ``i``-th node of a seeded rotation over the cluster's nodes."""
    origins = rotation(count, cluster.processors, seed)
    clients = cluster.clients

    def submit(index: int, value: str) -> None:
        clients[origins[index]].send_nowait(Ctl("send", value))

    return [f"m{i}" for i in range(count)], submit


async def open_loop_traffic(
    cluster: Any, tailer: LogTailer, seed: int, seconds: float,
    rate: float, partition: bool = False,
) -> Traffic:
    count = int(rate * seconds)
    make_schedule = even_schedule if partition else poisson_schedule
    schedule = make_schedule(count, seconds, seed)
    values, submit = origin_rotation(cluster, count, seed)
    faults = []
    if partition:
        window = single_partition_window(cluster.processors, 0.0, 1.0)
        faults = [
            (PARTITION_AT * seconds, lambda: cluster.apply_partition(window)),
            (HEAL_AT * seconds, cluster.heal),
        ]
    log = await run_open_loop(schedule, values, submit, at=faults)
    await await_all_delivered(tailer, count, DRAIN_DEADLINE)
    traffic = Traffic(log, values)
    if partition:
        marks = {m["event"]: m["t"] for m in cluster.timeline}
        traffic.partition_at, traffic.heal_at = marks["partition"], marks["heal"]
    return traffic


def closed_loop(
    values: list[str], submit: Callable[[int, str], None], completed: Callable[[], int]
) -> Awaitable[LoadLog]:
    return run_closed_loop(
        values, WINDOW, submit, completed, deadline=DRAIN_DEADLINE + len(values) / 100
    )


async def closed_loop_traffic(
    cluster: Any, tailer: LogTailer, seed: int, seconds: float, sends_per_second: int
) -> Traffic:
    values, submit = origin_rotation(cluster, int(sends_per_second * seconds), seed)

    def completed() -> int:
        return min(tailer.poll().values())

    return Traffic(await closed_loop(values, submit, completed), values)


async def sharded_traffic(
    cluster: Any, tailer: LogTailer, seed: int, seconds: float, sends_per_second: int
) -> Traffic:
    """Closed loop over 16 keys through the real ``HashRing`` and
    ``ShardRouter``: the driver keeps ``WINDOW`` operations outstanding
    and the router holds each group to ``SHARD_WINDOW`` in flight,
    queueing the rest.  ``LiveShardLoad`` pins a key to one entry node,
    which is what makes the cross-shard order checkable."""
    count = int(sends_per_second * seconds)
    groups = group_names(SHARDS)
    ring = HashRing(groups, seed=0)
    load = LiveShardLoad(cluster, ring, window=SHARD_WINDOW)
    keys = rotation(count, [f"k{i}" for i in range(SHARD_KEYS)], seed)
    values = [encode_live_op(keys[i], i, f"v{i}") for i in range(count)]
    files = {
        g: [p for p in tailer.paths if p.name.endswith(f"@{g}.events.jsonl")]
        for g in groups
    }
    finished = {g: 0 for g in groups}

    def submit(index: int, value: str) -> None:
        load.submit(keys[index], index, f"v{index}")

    def completed() -> int:
        counts = tailer.poll()
        for group in groups:
            done = min(counts[path] for path in files[group])
            if done > finished[group]:
                load.router.complete(group, done - finished[group])
                finished[group] = done
        return sum(finished.values())

    return Traffic(await closed_loop(values, submit, completed), values, shard_load=load)


# ----------------------------------------------------------------------
# Judging an episode
# ----------------------------------------------------------------------
def peak_rss_mb(pids: Sequence[int]) -> float:
    """Largest ``VmHWM`` (peak resident set) among live processes."""
    peak_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text(encoding="ascii")
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peak_kb = max(peak_kb, int(line.split()[1]))
    return peak_kb / 1024.0


async def node_counters(cluster: Any, sends: int) -> dict[str, float]:
    """The layer counters the nodes' ``stats`` replies carry, read once
    per node after traffic; the first reply is timed."""
    deliveries = sends * NODES
    tx = {"frames": 0.0, "entries": 0.0, "bytes_on_wire": 0.0}
    token = {"forwards": 0.0, "entries_sent": 0.0, "resyncs": 0.0}
    sums = {"formations": 0.0, "duplicates_suppressed": 0.0, "events_recorded": 0.0}
    rtt_ms = 0.0
    for p in cluster.processors:
        started = time.perf_counter()
        reply = await cluster.clients[p].request(Ctl("stats"), timeout=10.0)
        if not rtt_ms:
            rtt_ms = (time.perf_counter() - started) * 1e3
        data = reply.data
        for codec_stats in data["transport"]["wire"]["tx"].values():
            for key in tx:
                tx[key] += codec_stats[key]
        for key in token:
            token[key] += data["token"][key]
        for key in sums:
            sums[key] += data[key]
    forwards = token["forwards"]
    return {
        "rt.wire.bytes_per_delivery": tx["bytes_on_wire"] / deliveries,
        "rt.wire.entries_per_frame": tx["entries"] / tx["frames"] if tx["frames"] else 0.0,
        "rt.transport.frames_per_delivery": tx["frames"] / deliveries,
        "membership.ring.forwards_per_send": forwards / sends,
        "membership.ring.entries_per_forward": (
            token["entries_sent"] / forwards if forwards else 0.0
        ),
        "membership.ring.token_resyncs": token["resyncs"],
        "membership.ring.duplicates_suppressed": sums["duplicates_suppressed"],
        "membership.ring.formations": sums["formations"],
        "rt.trace.events_per_send": sums["events_recorded"] / sends,
        "rt.node.stats_rtt_ms": rtt_ms,
    }


def oracle_stage_times(
    captures: Sequence[Sequence[dict[str, Any]]], processors: Sequence[str]
) -> dict[str, float]:
    """Time the two offline oracles apart, over captures already
    loaded: the VS monitor replay and TO-machine trace membership
    (``verify_events`` runs them back to back).  Reference seconds."""
    monitor_s = check_s = 0.0
    checked = 0
    for events in captures:
        monitor = OnlineVSMonitor(
            processors, initial_view_for(tuple(processors)), strict=False
        )
        feeds = {
            "newview": monitor.on_newview,
            "gpsnd": monitor.on_gpsnd,
            "gprcv": monitor.on_gprcv,
            "safe": monitor.on_safe,
        }
        with Stopwatch() as watch:
            for event in events:
                feed = feeds.get(event["ev"])
                if feed is not None:
                    feed(*event["args"])
        monitor_s += watch.reference
        checked += monitor.events_checked
        to_actions = [
            act(e["ev"], *e["args"]) for e in events if e["ev"] in ("bcast", "brcv")
        ]
        with Stopwatch() as watch:
            check_to_trace(to_actions, processors)
        check_s += watch.reference
    return {
        "core.monitor.us_per_event": monitor_s / checked * 1e6 if checked else 0.0,
        "core.to_spec.check_s": check_s,
    }


def judge(
    cluster: Any, shards: int, traffic: Traffic, episode: Episode, with_layers: bool
) -> None:
    """Verify the capture with the repo's oracles and fill in the
    episode's timings.  Runs after the nodes have stopped; the oracle's
    own times are in reference seconds (see :mod:`.hostclock`)."""
    processors = cluster.processors
    log_dir = Path(cluster.log_dir)
    # Time the oracle from the same heap every episode: garbage the
    # traffic phase left behind would lengthen its collections.
    gc.collect()
    with Stopwatch() as load_watch:
        events = load_event_logs(log_paths(log_dir, shards))
    if shards == 1:
        with Stopwatch() as watch:
            report = verify_events(
                events, processors, initial_view_for(processors), expect_at=processors
            )
        episode.verify_s = load_watch.reference + watch.reference
        episode.safety_violations = len(report.violations) + (not report.to_ok)
        if not report.ok:
            episode.notes += [*report.violations, report.to_reason]
    else:
        load = traffic.shard_load
        assert load is not None
        groups = group_names(shards)
        # verify_sharded loads each group's logs itself.
        with Stopwatch() as watch:
            verdict = verify_sharded(
                log_dir, processors, groups, load.submitted, load.ring,
                expect_at=processors,
            )
        episode.verify_s = watch.reference
        episode.safety_violations = (
            len(verdict["violations"])
            + sum(not g["to_ok"] for g in verdict["groups"].values())
            + (not verdict["cross_shard"]["ok"])
        )
        if not verdict["ok"]:
            episode.notes += [*verdict["violations"], str(verdict["cross_shard"])]
        episode.layer["shard.router.queued_frac"] = (
            load.router.stats()["queued_total"] / len(traffic.values)
        )

    log = traffic.log
    done = analyze.completions(
        events, traffic.values, NODES, deadline=log.finished + DRAIN_DEADLINE
    )
    episode.attempted = len(traffic.values)
    episode.failed = len(done.missing)
    episode.latencies = done.latencies(log.due)
    if done.done_at:
        span = max(done.done_at.values()) - log.started
        episode.sends_per_s = len(done.done_at) / span
    if not with_layers:
        return
    layer = episode.layer
    layer["rt.trace.load_s"] = load_watch.reference
    layer["membership.ring.view_installs"] = analyze.count_events(events, "newview")
    if not log.lateness:  # closed loop: the rate is the system's own
        layer["run.decay_ratio"] = decay_ratio(list(done.done_at.values()))
    layer["bench.driver_cpu_frac"] = log.driver_cpu_frac
    late = percentile(log.lateness, 0.99)
    if late is not None:
        layer["bench.gen_late_p99_ms"] = late * 1e3
    if traffic.partition_at is not None and traffic.heal_at is not None:
        majority = single_partition_window(processors, 0.0, 1.0).groups[0]
        layer["fault_gap_s"] = analyze.fault_gap(
            events, majority, traffic.partition_at, traffic.heal_at
        )
        catchup = analyze.heal_catchup(done, log.due, traffic.heal_at)
        if catchup is not None:
            layer["heal_catchup_s"] = catchup
        reconcile = analyze.reconcile_time(events, traffic.heal_at)
        if reconcile is not None:
            layer["core.vstoto.reconcile_s"] = reconcile
    if shards == 1:
        captures = [events]
    else:
        captures = [
            load_event_logs(shard_log_paths(log_dir, g)) for g in group_names(shards)
        ]
    layer.update(oracle_stage_times(captures, processors))


# ----------------------------------------------------------------------
# Episodes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LiveWorkload:
    name: str
    #: ``traffic(cluster, tailer, seed, seconds)``: one episode's load.
    traffic: Callable[[Any, LogTailer, int, float], Awaitable[Traffic]]
    shards: int = 1
    #: episodes per untraced run (the partition timeline needs the whole
    #: of ``--seconds``, so it runs one).
    episodes: int = EPISODES
    #: whether the traced run repeats it on the in-process cluster.
    in_process: bool = True
    #: which of ``rate``, ``p50``, ``p99`` the processors (not a schedule
    #: or the protocol's timers) decide: those are reported on the
    #: reference clock (see hostclock).
    on_clock: frozenset[str] = frozenset()


LIVE_WORKLOADS = {
    w.name: w
    for w in (
        # An open loop's rate is its schedule's and its tail is the
        # protocol's timers (p99 did not move between the host's modes);
        # its median is the processors' path length (it did, by 1.25x).
        LiveWorkload(
            "live3_steady",
            partial(open_loop_traffic, rate=STEADY_RATE),
            on_clock=frozenset({"p50"}),
        ),
        LiveWorkload(
            "live3_saturate",
            partial(closed_loop_traffic, sends_per_second=SATURATE_SENDS_PER_SECOND),
            on_clock=frozenset({"rate", "p50", "p99"}),
        ),
        LiveWorkload(
            "live3_shards2",
            partial(sharded_traffic, sends_per_second=SHARDS_SENDS_PER_SECOND),
            shards=SHARDS,
            on_clock=frozenset({"rate", "p50", "p99"}),
        ),
        LiveWorkload(
            "live3_partition",
            partial(open_loop_traffic, rate=PARTITION_RATE, partition=True),
            episodes=1,
            in_process=False,
        ),
    )
}


@contextlib.contextmanager
def scratch_dir(out_dir: Path, keep: bool) -> Any:
    """A log directory inside the benchmark's own ``out/``, removed on
    exit unless ``keep``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="logs-", dir=out_dir))
    try:
        yield path
    finally:
        if not keep:
            shutil.rmtree(path, ignore_errors=True)


async def clocked_traffic(
    workload: LiveWorkload, cluster: Any, tailer: LogTailer, seed: int, seconds: float
) -> tuple[Traffic, float]:
    """Run the workload's traffic; with it, if any of its figures is
    processor-bound, sample the host's slowdown."""
    if not workload.on_clock:
        return await workload.traffic(cluster, tailer, seed, seconds), 1.0
    async with TrafficClock() as clock:
        traffic = await workload.traffic(cluster, tailer, seed, seconds)
    return traffic, clock.slowdown


async def process_episode(
    workload: LiveWorkload, seed: int, seconds: float, log_dir: Path, with_layers: bool
) -> Episode:
    """One episode on a freshly spawned multi-process cluster."""
    episode = Episode()
    tailer = LogTailer(log_paths(log_dir, workload.shards))
    try:
        async with spawned_cluster(log_dir, workload.shards) as (cluster, setup_s):
            episode.setup_s = setup_s
            traffic, episode.clock = await clocked_traffic(
                workload, cluster, tailer, seed, seconds
            )
            episode.rss_mb = peak_rss_mb([p.pid for p in cluster.procs.values()])
            if with_layers:
                episode.layer.update(
                    await node_counters(cluster, len(traffic.values))
                )
    finally:
        tailer.close()
    judge(cluster, workload.shards, traffic, episode, with_layers)
    return episode


async def bare_setup(log_dir: Path, shards: int) -> float:
    """Spawn, connect, start and stop a cluster: one more ``setup_s``
    sample for a workload whose run has fewer episodes than samples."""
    async with spawned_cluster(log_dir, shards) as (_cluster, setup_s):
        return setup_s


# ----------------------------------------------------------------------
# A run
# ----------------------------------------------------------------------
async def _process_episodes(
    workload: LiveWorkload, seed: int, seconds: float, out_dir: Path,
    keep: bool, episodes: int, setups: int, with_layers: bool,
) -> tuple[list[Episode], list[float]]:
    done: list[Episode] = []
    for _ in range(episodes):
        # timeout(), not wait_for(): a cancellation (SIGINT, SIGTERM, the
        # run's deadline) that lands while the episode's last step is
        # running would be swallowed by wait_for's inner task.
        with scratch_dir(out_dir, keep) as log_dir:
            async with asyncio.timeout(seconds + 3 * DRAIN_DEADLINE):
                done.append(
                    await process_episode(workload, seed, seconds, log_dir, with_layers)
                )
    setup_samples = [e.setup_s for e in done]
    while len(setup_samples) < setups:
        with scratch_dir(out_dir, keep) as log_dir:
            setup_samples.append(await bare_setup(log_dir, workload.shards))
    return done, setup_samples


def run_live(
    workload: LiveWorkload, seed: int, seconds: float, with_layers: bool,
    out_dir: Path, keep: bool,
) -> RunResult:
    """Run one live workload on spawned clusters: ``episodes`` episodes,
    median episode reported.  ``with_layers`` (the traced run) makes it
    one episode that also collects the counters and offline stage times."""
    per_episode = seconds / workload.episodes
    episodes = 1 if with_layers else workload.episodes
    setups = 1 if with_layers else SETUP_SAMPLES
    done, setup_samples = asyncio.run(
        _process_episodes(
            workload, seed, per_episode, out_dir, keep, episodes, setups, with_layers
        )
    )
    result = RunResult()
    result.attempted = sum(e.attempted for e in done)
    result.failed = sum(e.failed for e in done)
    result.safety_violations = sum(e.safety_violations for e in done)
    for episode in done:
        result.notes += episode.notes

    def figure(name: str) -> float:
        return median([e.figure(name, workload.on_clock) for e in done])

    result.end_to_end = {
        "setup_s": median(setup_samples),
        "to_sends_per_s": figure("rate"),
        "to_latency_p50_ms": figure("p50") * 1e3,
        "to_latency_p99_ms": figure("p99") * 1e3,
        "verify_s": median([e.verify_s for e in done]),
        "rss_mb": median([e.rss_mb for e in done]),
    }
    if with_layers:
        result.layer = dict(done[0].layer)
        late = result.layer.get("bench.gen_late_p99_ms", 0.0)
        if late > MAX_GEN_LATE_P99_MS:
            result.notes.append(
                f"INVALID open-loop run: generator lateness p99 {late:.2f} ms "
                f"> {MAX_GEN_LATE_P99_MS:g} ms"
            )
    return result
