"""The traced live run: three ``LiveNode`` objects inside the harness.

The nodes are built in this process on one event loop over loopback TCP
and driven through the same ``NodeClient`` connections and the same
traffic code as the spawned clusters; one episode runs plainly and one
with spans recorded around the boundary methods of each layer (see
:mod:`benchmarks.perf.spans`).  End-to-end metrics never come from here.
"""

from __future__ import annotations

import asyncio
import time
from pathlib import Path
from typing import Any

from repro.core.vstoto.runtime import VStoTORuntime
from repro.membership.ring import RingMember
from repro.obs.tracing import LifecycleTracer
from repro.rt.clock import LiveScheduler
from repro.rt.cluster import NodeClient, free_port
from repro.rt.node import (
    LiveNode,
    LiveNodeService,
    default_ring_config,
    resolve_flush_after,
)
from repro.rt.trace import EventLog
from repro.rt.transport import Ctl, LiveNetwork
from repro.rt.wire import BinaryWire, WireReader, WireWriter
from repro.shard.live import GroupDemux, GroupNet

from .live import (
    DELTA,
    NODES,
    WIRE,
    Episode,
    LiveWorkload,
    clocked_traffic,
    judge,
    log_paths,
    scratch_dir,
)
from .load import send_index
from .report import RunResult
from .spans import (
    SpanRecorder,
    TimingSelector,
    by_layer,
    cost_stack,
    count_named,
    format_cost_stack,
    self_seconds_by_name,
    write_jsonl,
)
from .tail import LogTailer


class InProcessCluster:
    """Three ``LiveNode`` objects on the caller's loop, over loopback
    TCP, with the slice of the ``LiveCluster`` surface the load code
    uses (``processors``, ``clients``, ``alive``, ``log_dir``)."""

    def __init__(self, log_dir: Path, shards: int) -> None:
        self.log_dir = log_dir
        self.shards = shards
        self.processors = tuple(f"p{i + 1}" for i in range(NODES))
        self.peers = {p: ("127.0.0.1", free_port()) for p in self.processors}
        self.nodes: dict[str, LiveNode] = {}
        self.clients: dict[str, NodeClient] = {}

    def alive(self) -> tuple[str, ...]:
        return self.processors

    async def start(self) -> None:
        flush_after = resolve_flush_after(WIRE, -1.0)
        for p in self.processors:
            self.nodes[p] = LiveNode(
                p,
                self.peers,
                self.log_dir,
                config=default_ring_config(DELTA),
                wire=WIRE,
                flush_after=flush_after,
                shards=self.shards,
            )
            await self.nodes[p].start()
        for p in self.processors:
            client = NodeClient(p, *self.peers[p], wire=WIRE, flush_after=flush_after)
            await client.connect()
            self.clients[p] = client
        leader = min(self.processors)
        for p in [q for q in self.processors if q != leader] + [leader]:
            await self.clients[p].request(Ctl("go"))
        await asyncio.sleep(8 * DELTA)

    async def stop(self) -> None:
        for p, client in self.clients.items():
            await client.request(Ctl("stop"), timeout=5.0)
            await client.close()
        for node in self.nodes.values():
            await node.run_until_stopped()
            await node.close()
        # Let the closed streams' handler tasks see EOF and finish, so
        # closing the loop has nothing left to cancel.
        await asyncio.sleep(0.1)


def _sent_value(ctl: Ctl) -> Any:
    if ctl.op != "send":
        return None
    return ctl.data["v"] if isinstance(ctl.data, dict) else ctl.data


def _logged_value(args: tuple[Any, ...]) -> Any:
    return args[2] if args[1] in ("bcast", "brcv") else None


def patch_live_layers(recorder: SpanRecorder) -> None:
    """Open a span at every boundary between the live layers.  Must run
    before the nodes are built: they bind some of these methods as
    callbacks when constructed."""
    patch = recorder.patch
    patch(BinaryWire, "encode", "rt.wire:encode")
    patch(BinaryWire, "decode", "rt.wire:decode")
    patch(WireReader, "feed", "rt.wire:feed")
    patch(WireWriter, "flush", "rt.wire:flush")
    patch(LiveNetwork, "send", "rt.transport:send")
    patch(LiveNetwork, "_dispatch", "rt.transport:dispatch")
    patch(GroupNet, "send", "shard:envelope")
    patch(GroupDemux, "on_message", "shard:demux")
    patch(RingMember, "on_message", "membership.ring:on_message")
    patch(RingMember, "gpsnd", "membership.ring:gpsnd")
    for emit in ("emit_newview", "emit_gprcv", "emit_safe", "gpsnd"):
        patch(LiveNodeService, emit, f"rt.node:{emit}")
    patch(LiveNode, "_on_ctl", "rt.node:ctl", lambda a: _sent_value(a[2]), is_async=True)
    patch(VStoTORuntime, "broadcast", "core.vstoto:broadcast", lambda a: a[2])
    for handler in ("_on_gprcv", "_on_safe", "_on_newview"):
        patch(VStoTORuntime, handler, f"core.vstoto:{handler[1:]}")
    patch(EventLog, "record", "rt.trace:record", _logged_value)
    for hook in ("on_vs_event", "on_to_event", "on_status_edge", "on_established",
                 "on_formation", "on_createview"):
        patch(LifecycleTracer, hook, f"obs:{hook}")
    recorder.patch_scheduler(LiveScheduler, "schedule")
    # The harness's own part of every loop turn.
    patch(NodeClient, "send_nowait", "bench.driver:submit", lambda a: _sent_value(a[1]))
    patch(LogTailer, "poll", "bench.driver:poll")


async def in_process_episode(
    workload: LiveWorkload, seed: int, seconds: float, log_dir: Path,
    recorder: SpanRecorder, traced: bool,
) -> tuple[Episode, float]:
    """One episode with the nodes inside this process; returns it and
    the wall seconds of its traffic phase (what the spans cover)."""
    episode = Episode()
    cluster = InProcessCluster(log_dir, workload.shards)
    tailer = LogTailer(log_paths(log_dir, workload.shards))
    try:
        await cluster.start()
        if traced:
            recorder.enable()
        started = time.perf_counter()
        traffic, episode.clock = await clocked_traffic(
            workload, cluster, tailer, seed, seconds
        )
        wall = time.perf_counter() - started
        recorder.disable()
        await cluster.stop()
    finally:
        recorder.disable()
        tailer.close()
    judge(cluster, workload.shards, traffic, episode, with_layers=False)
    return episode, wall


def traced_layer_metrics(
    recorder: SpanRecorder, wall: float, sends: int
) -> tuple[dict[str, float], str]:
    """Per-layer self times from the recorded spans, and the printed
    cost stack (us per delivery by layer, rows summing to ``wall``)."""
    spans = recorder.spans
    deliveries = sends * NODES
    by_name = self_seconds_by_name(spans)
    layers = by_layer(by_name)

    def per_delivery(seconds: float) -> float:
        return seconds / deliveries * 1e6

    records = count_named(spans, "rt.trace:record")
    rows, coverage = cost_stack(layers, wall, deliveries)
    metrics = {
        "rt.wire.codec_us_per_delivery": per_delivery(
            by_name.get("rt.wire:encode", 0.0) + by_name.get("rt.wire:decode", 0.0)
        ),
        "rt.transport.self_us_per_delivery": per_delivery(layers.get("rt.transport", 0.0)),
        "membership.ring.self_us_per_delivery": per_delivery(
            layers.get("membership.ring", 0.0)
        ),
        "core.vstoto.self_us_per_delivery": per_delivery(layers.get("core.vstoto", 0.0)),
        "rt.trace.record_us_per_event": (
            layers.get("rt.trace", 0.0) / records * 1e6 if records else 0.0
        ),
        "rt.node.self_us_per_delivery": per_delivery(layers.get("rt.node", 0.0)),
        "obs.self_us_per_delivery": per_delivery(layers.get("obs", 0.0)),
        "shard.demux_self_us_per_delivery": per_delivery(by_name.get("shard:demux", 0.0)),
        "loop.machinery_us_per_delivery": per_delivery(by_name.get("loop:turn", 0.0)),
        "loop.select_frac": by_name.get("loop.idle:select", 0.0) / wall if wall else 0.0,
        "run.cost_stack_coverage": coverage,
    }
    return metrics, format_cost_stack(rows, coverage, wall, "delivery")


def trace_live(
    result: RunResult, workload: LiveWorkload, seed: int, seconds: float,
    out_dir: Path, keep: bool,
) -> None:
    """Add the traced layer metrics to ``result``: one untraced and one
    traced in-process episode of the same inputs (an episode's share of
    ``seconds``), the overhead ratio between them, the cost-stack table,
    and the spans written to ``<out_dir>/<workload>.spans.jsonl``."""
    recorder = SpanRecorder()
    recorder.send_index = send_index

    def loop_factory() -> asyncio.AbstractEventLoop:
        return asyncio.SelectorEventLoop(TimingSelector(recorder))

    per_episode = seconds / workload.episodes
    results: list[tuple[Episode, float]] = []
    for traced in (False, True):
        if traced:
            patch_live_layers(recorder)
        try:
            with scratch_dir(out_dir, keep) as log_dir, asyncio.Runner(
                loop_factory=loop_factory
            ) as runner:
                results.append(
                    runner.run(
                        in_process_episode(
                            workload, seed, per_episode, log_dir, recorder, traced
                        )
                    )
                )
        finally:
            recorder.restore()
    (plain, _), (traced_episode, wall) = results
    metrics, table = traced_layer_metrics(recorder, wall, traced_episode.attempted)
    plain_rate = plain.figure("rate", workload.on_clock)
    metrics["run.trace_overhead_ratio"] = (
        traced_episode.figure("rate", workload.on_clock) / plain_rate
        if plain_rate
        else 0.0
    )
    write_jsonl(recorder.spans, out_dir / f"{workload.name}.spans.jsonl")
    result.layer.update(metrics)
    result.tables.append(table)
    result.safety_violations += (
        plain.safety_violations + traced_episode.safety_violations
    )
