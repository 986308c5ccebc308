"""``sim11_steady``: the discrete-event stack at n = 11, monitor attached.

``TokenRingVS`` + ``VStoTORuntime`` + an attached ``OnlineVSMonitor``
carry one broadcast per virtual time unit; afterwards the merged trace
goes through ``check_to_trace``.  No ``repro.rt`` or ``repro.shard``
code runs, so a codec or transport change must leave this workload
where it was.  The same seed gives the same simulator events and the
same delivery sequence every time; the run asserts it across its own
repeats, traced or not.
"""

from __future__ import annotations

import gc
import hashlib
import random
import resource
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.monitor import OnlineVSMonitor
from repro.core.quorums import MajorityQuorumSystem
from repro.core.to_spec import check_to_trace
from repro.core.vstoto.runtime import VStoTORuntime
from repro.membership.ring import RingConfig, RingMember
from repro.membership.service import TokenRingVS
from repro.net.channel import Channel
from repro.net.network import Network
from repro.sim.engine import Simulator

from .hostclock import Stopwatch
from .load import send_index
from .report import RunResult
from .spans import (
    SpanRecorder,
    by_layer,
    cost_stack,
    format_cost_stack,
    self_seconds_by_name,
    write_jsonl,
)
from .stats import decay_ratio, median, median_percentile

NODES = 11
PROCESSORS = tuple(range(1, NODES + 1))
CONFIG = dict(delta=1.0, pi=16.5, mu=50.0, work_conserving=True)
#: Broadcasts per second of ``--seconds`` (one per virtual time unit),
#: sized so the reference host measures for about ``--seconds``.
SENDS_PER_SECOND = 600
EPISODES = 3
#: Virtual time before the first broadcast and after the last.
WARMUP, DRAIN = 10.0, 100.0


@dataclass
class SimEpisode:
    """One episode; times are reference seconds unless marked raw."""

    setup_s: float
    run_s: float
    run_raw_s: float
    verify_s: float
    check_s: float
    sends: int
    failed: int
    latencies: list[float]
    done_at: list[float]
    events: int
    packets: int
    monitor_events: int
    safety_violations: int
    digest: str
    notes: list[str]


def build(seed: int, sends: int) -> tuple[TokenRingVS, VStoTORuntime, OnlineVSMonitor]:
    """Construct the stack and queue the whole arrival schedule: what
    ``setup_s`` times on this workload."""
    service = TokenRingVS(PROCESSORS, RingConfig(**CONFIG), seed=seed)
    runtime = VStoTORuntime(service, MajorityQuorumSystem(PROCESSORS))
    monitor = OnlineVSMonitor(PROCESSORS, service.initial_view, strict=False)
    monitor.attach(service)
    rng = random.Random(seed)
    for i in range(sends):
        runtime.schedule_broadcast(WARMUP + i, rng.choice(PROCESSORS), f"v{i}")
    runtime.start()
    return service, runtime, monitor


def episode(
    seed: int, sends: int, recorder: SpanRecorder | None = None
) -> SimEpisode:
    """Build, run and verify once.  With a ``recorder`` (whose patches
    are already in place) spans are recorded for the run itself, not for
    set-up or the offline oracle."""
    # Start each episode from the same heap: what the previous episode
    # left uncollected would otherwise lengthen this one's collections.
    gc.collect()
    with Stopwatch() as setup_watch:
        service, runtime, monitor = build(seed, sends)

    # Wall-clock stamps of each broadcast and delivery, taken at the
    # runtime's client interface (its bcast input and brcv callback).
    bcast_at: dict[str, float] = {}
    last_at: dict[str, float] = {}
    seen: dict[str, int] = {}

    def on_deliver(value: str, origin: int, dst: int) -> None:
        last_at[value] = time.perf_counter()
        seen[value] = seen.get(value, 0) + 1

    runtime.on_deliver = on_deliver
    original_broadcast = runtime.broadcast

    def broadcast(p: int, value: str) -> None:
        bcast_at[value] = time.perf_counter()
        original_broadcast(p, value)

    runtime.broadcast = broadcast  # type: ignore[method-assign]

    with Stopwatch() as run_watch:
        if recorder is not None:
            recorder.enable()
        runtime.run_until(WARMUP + sends + DRAIN)
        if recorder is not None:
            recorder.disable()

    with Stopwatch() as merge_watch:
        to_actions = [
            e.action
            for e in runtime.merged_trace().events
            if e.action.name in ("bcast", "brcv")
        ]
    with Stopwatch() as check_watch:
        verdict = check_to_trace(to_actions, PROCESSORS)

    values = [f"v{i}" for i in range(sends)]
    complete = [v for v in values if seen.get(v, 0) == NODES]
    notes = list(monitor.violations)
    if not verdict.ok:
        notes.append(verdict.reason)
    digest = hashlib.sha256(
        repr([(d.time, d.value, d.origin, d.dst) for d in runtime.deliveries]).encode()
    ).hexdigest()
    # The whole episode is one busy thread, so every time in it is
    # reported in reference seconds (see hostclock).
    slow = run_watch.slowdown
    return SimEpisode(
        setup_s=setup_watch.reference,
        run_s=run_watch.reference,
        run_raw_s=run_watch.raw,
        verify_s=merge_watch.reference + check_watch.reference,
        check_s=check_watch.reference,
        sends=sends,
        failed=sends - len(complete),
        latencies=[(last_at[v] - bcast_at[v]) / slow for v in complete],
        done_at=[last_at[v] for v in complete],
        events=service.simulator.stats()["events_processed"],
        packets=service.stats()["messages_sent"],
        monitor_events=monitor.events_checked,
        safety_violations=len(monitor.violations) + (not verdict.ok),
        digest=digest,
        notes=notes,
    )


def patch_sim_layers(recorder: SpanRecorder) -> None:
    """Open a span at every boundary between the simulated layers;
    must run before :func:`build` (the runtime binds its handlers as
    callbacks when constructed)."""
    patch = recorder.patch
    patch(Simulator, "run_until", "sim.engine:run_until")
    patch(Simulator, "step", "sim.engine:step")
    recorder.patch_scheduler(Simulator, "schedule_at")
    patch(Network, "send", "net:send")
    patch(Network, "_on_arrival", "net:arrival")
    patch(Channel, "send", "net:channel_send")
    patch(RingMember, "on_message", "membership.ring:on_message")
    patch(RingMember, "gpsnd", "membership.ring:gpsnd")
    for emit in ("emit_newview", "emit_gprcv", "emit_safe", "gpsnd"):
        patch(TokenRingVS, emit, f"membership.service:{emit}")
    patch(VStoTORuntime, "broadcast", "core.vstoto:broadcast", lambda a: a[2])
    for handler in ("_on_gprcv", "_on_safe", "_on_newview"):
        patch(VStoTORuntime, handler, f"core.vstoto:{handler[1:]}")
    for feed in ("on_newview", "on_gpsnd", "on_gprcv", "on_safe"):
        patch(OnlineVSMonitor, feed, f"core.monitor:{feed}")


def traced_episode(
    seed: int, sends: int, out_dir: Path
) -> tuple[SimEpisode, dict[str, float], str]:
    """The same episode with spans recorded; returns it, the layer self
    times and the printed cost stack (us per delivery by layer)."""
    recorder = SpanRecorder()
    recorder.send_index = send_index
    patch_sim_layers(recorder)
    try:
        traced = episode(seed, sends, recorder)
    finally:
        recorder.disable()
        recorder.restore()
    layers = by_layer(self_seconds_by_name(recorder.spans))
    deliveries = traced.sends * NODES
    rows, coverage = cost_stack(layers, traced.run_raw_s, deliveries)

    def per(layer: str, units: int) -> float:
        return layers.get(layer, 0.0) / units * 1e6 if units else 0.0

    metrics = {
        "sim.engine.self_us_per_event": per("sim.engine", traced.events),
        "net.self_us_per_packet": per("net", traced.packets),
        "membership.ring.self_us_per_delivery": per("membership.ring", deliveries),
        "core.vstoto.self_us_per_delivery": per("core.vstoto", deliveries),
        "core.monitor.us_per_event": per("core.monitor", traced.monitor_events),
        "run.cost_stack_coverage": coverage,
    }
    write_jsonl(recorder.spans, out_dir / "sim11_steady.spans.jsonl")
    table = format_cost_stack(rows, coverage, traced.run_raw_s, "delivery")
    return traced, metrics, table


def run_sim(seed: int, seconds: float, traced: bool, out_dir: Path) -> RunResult:
    """Run the workload: ``EPISODES`` identical episodes (median
    reported), or for a traced run one plain and one traced episode.
    Repeats of one seed must agree on the simulator's event count and on
    a hash of the delivery sequence."""
    sends = int(SENDS_PER_SECOND * seconds / EPISODES)
    done = [episode(seed, sends) for _ in range(1 if traced else EPISODES)]
    result = RunResult()
    if traced:
        spanned, metrics, table = traced_episode(seed, sends, out_dir)
        metrics["run.trace_overhead_ratio"] = done[0].run_s / spanned.run_s
        result.layer.update(metrics)
        result.tables.append(table)
        done.append(spanned)
    first = done[0]
    for other in done[1:]:
        if (other.events, other.digest) != (first.events, first.digest):
            raise RuntimeError(
                f"sim11_steady is not deterministic for seed {seed}: "
                f"{first.events} events/{first.digest[:12]} then "
                f"{other.events} events/{other.digest[:12]}"
            )
    plain = done[: len(done) - traced]
    result.attempted = sum(e.sends for e in plain)
    result.failed = sum(e.failed for e in plain)
    result.safety_violations = sum(e.safety_violations for e in done)
    for e in done:
        result.notes += e.notes

    latencies = [e.latencies for e in plain]
    result.end_to_end = {
        "setup_s": median([e.setup_s for e in plain]),
        "to_sends_per_s": median([(e.sends - e.failed) / e.run_s for e in plain]),
        "to_latency_p50_ms": median_percentile(latencies, 0.50) * 1e3,
        "to_latency_p99_ms": median_percentile(latencies, 0.99) * 1e3,
        "verify_s": median([e.verify_s for e in plain]),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        result.layer.update(
            {
                "sim.engine.events": float(first.events),
                "sim.engine.events_per_s": first.events / first.run_s,
                "net.packets": float(first.packets),
                "core.to_spec.check_s": first.check_s,
                "run.decay_ratio": decay_ratio(first.done_at),
            }
        )
    return result
