"""One live processor as a daemon process: ``python -m repro.rt.node``.

The node hosts the *unmodified* protocol stack — a
:class:`~repro.membership.ring.RingMember` with a
:class:`~repro.core.vstoto.runtime.VStoTORuntime` on top for TO
semantics — once per VS group (the paper's ``g``; ``--shards N``,
default one), all over one :class:`~repro.rt.transport.LiveNetwork`:
each stack sends through its own :class:`~repro.shard.live.GroupNet`
and the transport's one endpoint, a
:class:`~repro.shard.live.GroupDemux`, hands inbound frames to their
group.  One group is the N = 1 case of that path, not a different one.
The node exposes a small control plane to the cluster driver:

- ``go`` — start the ring (replied once every outbound peer stream is
  up, giving the driver a clean synchronized launch);
- ``send`` — submit one client value (the TO ``bcast`` input) to a
  group: ``{"g": group, "v": value}``, or a bare value for the first;
- ``block`` / ``unblock`` — firewall peers (partition injection);
- ``stats`` — reply with :meth:`LiveNode.stats` (totals, and each
  group's own under ``groups``) stamped with ``seq``, ``ts`` and
  ``uptime``: the node's stats stream;
- ``stop`` — flush the event logs, write the final report, exit.

Every VS and TO external event, and every view-formation attempt,
membership fix and establishment, is appended to the group's event log
under ``<log-dir>`` (``<id>.events.jsonl`` for one group; see
:func:`repro.rt.trace.event_log_path`); on stop a ``<id>.report.json``
records the final ``stats()``, whose ring counters carry the names a
simulated :meth:`~repro.membership.service.TokenRingVS.stats` gives
them.  The node keeps counters only: spans are rebuilt after the run,
per group, from the event logs (:mod:`repro.obs.live.stitch`).

Usage::

    python -m repro.rt.node --id p1 \\
        --peers p1=127.0.0.1:9101,p2=127.0.0.1:9102,p3=127.0.0.1:9103 \\
        --log-dir /tmp/cluster-logs --delta 0.05
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, cast
from collections.abc import Callable

if TYPE_CHECKING:  # structural stand-in: the runtime only uses the
    from repro.membership.service import TokenRingVS  # TokenRingVS surface

from repro.core.quorums import MajorityQuorumSystem
from repro.core.types import View
from repro.core.vstoto.runtime import VStoTORuntime
from repro.membership.ring import RingConfig, RingMember, fold_counters
from repro.rt.clock import LiveScheduler
from repro.rt.trace import EventLog, event_log_path
from repro.rt.transport import Ctl, LiveNetwork
from repro.rt.wire import check_wire
from repro.shard.live import GroupDemux, GroupNet
from repro.shard.routing import group_names

#: Callback signatures mirrored from TokenRingVS (the runtime installs
#: its sinks on these attributes).
DeliveryCallback = Callable[[Any, str, str], None]
ViewCallback = Callable[[View, str], None]


def initial_view_for(processors: tuple[str, ...]) -> View:
    """The hybrid initial view v0 every node starts from: whole group,
    id (0, min) — identical to the TokenRingVS default, so live and
    simulated runs share their base case."""
    return View((0, min(processors)), frozenset(processors))


class LiveNodeService:
    """The per-node VS service façade.

    Presents the slice of :class:`~repro.membership.service.TokenRingVS`
    that :class:`~repro.membership.ring.RingMember` (RingService
    protocol) and :class:`~repro.core.vstoto.runtime.VStoTORuntime`
    consume, backed by one live transport and one local ring member.
    Every VS external event at this node is recorded to the event log
    before being forwarded, and so is every view-lifecycle event
    (:meth:`record_view_event`).
    """

    def __init__(
        self,
        proc_id: str,
        network: LiveNetwork,
        log: EventLog | None = None,
    ) -> None:
        self.proc_id = proc_id
        self.network = network
        self.simulator = network.simulator
        self.processors: tuple[str, ...] = network.processors
        self.initial_view = initial_view_for(self.processors)
        self.log = log
        self.member: RingMember | None = None
        self.on_gprcv: DeliveryCallback | None = None
        self.on_safe: DeliveryCallback | None = None
        self.on_newview: ViewCallback | None = None

    # -- TokenRingVS-compatible client surface -------------------------
    def start(self) -> None:
        if self.member is not None:
            self.member.start()

    def gpsnd(self, p: str, payload: Any) -> None:
        """Client send at this node (p must be the local processor)."""
        assert p == self.proc_id, f"live node {self.proc_id!r} cannot send as {p!r}"
        self._record("gpsnd", payload, p)
        assert self.member is not None
        self.member.gpsnd(payload)

    def current_view(self, p: str) -> View | None:
        assert self.member is not None
        return self.member.view

    # -- RingService emission ------------------------------------------
    def emit_newview(self, view: View, p: str) -> None:
        self._record("newview", view, p)
        if self.on_newview is not None:
            self.on_newview(view, p)

    def emit_gprcv(self, payload: Any, src: str, dst: str) -> None:
        self._record("gprcv", payload, src, dst)
        if self.on_gprcv is not None:
            self.on_gprcv(payload, src, dst)

    def emit_safe(self, payload: Any, src: str, dst: str) -> None:
        self._record("safe", payload, src, dst)
        if self.on_safe is not None:
            self.on_safe(payload, src, dst)

    def record_view_event(self, name: str, *args: Any) -> None:
        """Log a ``formation``, ``createview`` or ``established`` event."""
        self._record(name, *args)

    def _record(self, name: str, *args: Any) -> None:
        if self.log is not None:
            self.log.record(name, *args)


@dataclass
class _GroupStack:
    """One hosted group's full per-node stack (log through runtime)."""

    group: str
    log: EventLog
    service: LiveNodeService
    member: RingMember
    runtime: VStoTORuntime


class LiveNode:
    """The assembled node: transport + ring + VStoTO + control plane.

    The node hosts ``shards`` complete group stacks (ring member +
    VStoTO runtime + event log per group) over the one transport,
    multiplexed by :class:`~repro.shard.live.ShardEnvelope` frames; the
    default is one.  ``wire`` accepts only ``"binary"``, the one wire.
    """

    def __init__(
        self,
        proc_id: str,
        peers: dict[str, tuple[str, int]],
        log_dir: str | Path,
        config: RingConfig | None = None,
        max_frame: int | None = None,
        wire: str = "binary",
        flush_after: float | None = None,
        shards: int = 1,
    ) -> None:
        check_wire(wire)
        self.proc_id = proc_id
        self.config = config if config is not None else default_ring_config()
        self.shards = max(1, shards)
        loop = asyncio.get_event_loop()
        self.scheduler = LiveScheduler(loop)
        kwargs: dict[str, Any] = {}
        if max_frame is not None:
            kwargs["max_frame"] = max_frame
        self.network = LiveNetwork(
            proc_id,
            peers,
            self.scheduler,
            on_ctl=self._on_ctl,
            flush_after=flush_after,
            **kwargs,
        )
        self.log_dir = Path(log_dir)
        self.log_dir.mkdir(parents=True, exist_ok=True)
        names = group_names(self.shards)
        self._stacks = {name: self._build_stack(name) for name in names}
        self.network.register(
            GroupDemux(
                proc_id,
                {g: s.member for g, s in self._stacks.items()},
                default=names[0],
            )
        )
        self.first_group = names[0]
        self.started = False
        self.sends_accepted = 0
        self.sends_rejected = 0
        self._stats_seq = 0
        self._stopping: asyncio.Future[None] = loop.create_future()

    def _build_stack(self, group: str) -> _GroupStack:
        """Assemble one group's log/service/member/runtime."""
        log = EventLog(
            event_log_path(self.log_dir, self.proc_id, group, self.shards),
            self.proc_id,
        )
        self.network.write_ahead(log.flush)
        service = LiveNodeService(
            self.proc_id,
            cast(LiveNetwork, GroupNet(group, self.network)),
            log,
        )
        member = RingMember(
            self.proc_id, service, self.config, service.initial_view
        )
        service.member = member
        runtime = VStoTORuntime(
            cast("TokenRingVS", service),
            MajorityQuorumSystem(self.network.processors),
            on_deliver=functools.partial(self._on_deliver, log),
        )
        return _GroupStack(group, log, service, member, runtime)

    # ------------------------------------------------------------------
    async def start(self) -> None:
        await self.network.start()

    async def run_until_stopped(self) -> None:
        await self._stopping

    def _on_deliver(
        self, log: EventLog, value: Any, origin: str, dst: str
    ) -> None:
        log.record("brcv", value, origin, dst)

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    async def _on_ctl(
        self, src: str, ctl: Ctl, reply: Callable[[Ctl], None]
    ) -> None:
        if ctl.op == "go":
            await self.network.wait_connected(timeout=10.0)
            if not self.started:
                self.started = True
                for stack in self._stacks.values():
                    stack.member.start()
            reply(Ctl("ok", {"op": "go", "node": self.proc_id}))
        elif ctl.op == "send":
            group, value = self._parse_send(ctl.data)
            stack = self._stacks.get(group)
            if stack is None:
                self.sends_rejected += 1
                return
            self.sends_accepted += 1
            stack.log.record("bcast", value, self.proc_id)
            stack.runtime.broadcast(self.proc_id, value)
        elif ctl.op == "block":
            self.network.block(ctl.data or ())
            reply(Ctl("ok", {"op": "block", "blocked": sorted(self.network.blocked)}))
        elif ctl.op == "unblock":
            self.network.unblock(ctl.data)
            reply(Ctl("ok", {"op": "unblock", "blocked": sorted(self.network.blocked)}))
        elif ctl.op == "stats":
            # One frame of the stats stream: ``ts`` is the clock the
            # event log stamps, so frames and stitched spans share it.
            self._stats_seq += 1
            reply(Ctl("stats", {
                **self.stats(),
                "seq": self._stats_seq,
                "ts": time.time(),
                "uptime": self.scheduler.now,
            }))
        elif ctl.op == "ping":
            reply(Ctl("ok", {"op": "ping", "node": self.proc_id}))
        elif ctl.op == "stop":
            self._write_report()
            reply(Ctl("ok", {"op": "stop", "node": self.proc_id}))
            # Let the reply frame flush before tearing the loop down.
            loop = asyncio.get_running_loop()
            loop.call_later(0.05, self._finish)

    def _finish(self) -> None:
        if not self._stopping.done():
            self._stopping.set_result(None)

    def _parse_send(self, data: Any) -> tuple[str, Any]:
        """Resolve a client send to ``(group, value)``: the dict form
        ``{"g": group, "v": value}``, or a bare value for the first
        group."""
        if isinstance(data, dict) and "g" in data:
            return str(data["g"]), data.get("v")
        return self.first_group, data

    # ------------------------------------------------------------------
    def _stack_stats(self, stack: _GroupStack) -> dict[str, Any]:
        """One group stack's counters."""
        view = stack.member.view
        return {
            "view": list(view.id) if view is not None else None,
            "view_size": len(view.set) if view is not None else 0,
            "delivered": len(stack.runtime.deliveries),
            "events_recorded": stack.log.events_recorded,
            **stack.member.counters(),
        }

    def stats(self) -> dict[str, Any]:
        """Live counters: ring, TO deliveries, transport, event log.
        Counts are folded over the hosted groups by
        :func:`~repro.membership.ring.fold_counters` (``view`` is the
        first group's), with each group's own under ``"groups"``; for
        one group the totals are that group's numbers."""
        per = {name: self._stack_stats(s) for name, s in self._stacks.items()}
        first = per[self.first_group]
        return {
            "node": self.proc_id,
            "sends_accepted": self.sends_accepted,
            "sends_rejected": self.sends_rejected,
            "shards": self.shards,
            "view": first["view"],
            "view_size": first["view_size"],
            "delivered": sum(g["delivered"] for g in per.values()),
            "events_recorded": sum(g["events_recorded"] for g in per.values()),
            **fold_counters([s.member.counters() for s in self._stacks.values()]),
            "groups": per,
            "transport": self.network.stats(),
        }

    def _write_report(self) -> None:
        report = {"stats": self.stats()}
        path = self.log_dir / f"{self.proc_id}.report.json"
        path.write_text(json.dumps(report, indent=2), encoding="utf-8")

    async def close(self) -> None:
        """Stop every ring timer and pending retransmission, then the
        transport, then write out and close the logs: a closed node
        neither logs nor sends again (its loop may live on)."""
        for stack in self._stacks.values():
            stack.member.stop()
        await self.network.close()
        for stack in self._stacks.values():
            stack.log.close()


def default_ring_config(delta: float = 0.05) -> RingConfig:
    """Live timing: δ is the assumed one-hop bound (50 ms is generous
    for loopback TCP); π and μ scale from it as in the Section 8
    sketch.  Work-conserving keeps delivery latency at circulation
    speed instead of π ticks; one blind retransmission covers frames
    lost to a connection riding through a partition edge."""
    return RingConfig(
        delta=delta,
        pi=4 * delta,
        mu=20 * delta,
        work_conserving=True,
        retransmit_attempts=2,
    )


def parse_peers(spec: str) -> dict[str, tuple[str, int]]:
    """Parse ``p1=host:port,p2=host:port,...``."""
    peers: dict[str, tuple[str, int]] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, addr = part.partition("=")
        host, _, port = addr.rpartition(":")
        if not name or not host or not port:
            raise ValueError(f"bad peer spec {part!r} (want id=host:port)")
        peers[name] = (host, int(port))
    if len(peers) < 2:
        raise ValueError("need at least two peers")
    return peers


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.rt.node",
        description="Host one live ring member (VS + VStoTO over TCP).",
    )
    parser.add_argument("--id", required=True, help="this node's processor id")
    parser.add_argument(
        "--peers",
        required=True,
        help="comma-separated id=host:port for every processor (incl. self)",
    )
    parser.add_argument(
        "--log-dir", required=True, help="directory for event logs and reports"
    )
    parser.add_argument(
        "--delta",
        type=float,
        default=0.05,
        help="assumed one-hop delivery bound in seconds (default 0.05)",
    )
    parser.add_argument(
        "--max-frame",
        type=int,
        default=None,
        help="frame size ceiling in bytes (default 1 MiB)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="number of VS group runtimes to host on this node "
        "(default 1)",
    )
    parser.add_argument(
        "--flush-interval",
        type=float,
        default=0.0,
        help="batching window in seconds for outbound frames (default "
        "0, as is any negative value: coalesce same-loop-turn sends "
        "without added latency)",
    )
    return parser


def resolve_flush_after(wire: str, flush_interval: float) -> float:
    """The CLI's rule: a negative interval means 0.0, batching within
    the loop turn.  ``wire`` accepts only ``"binary"``."""
    check_wire(wire)
    return max(flush_interval, 0.0)


async def amain(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    peers = parse_peers(args.peers)
    if args.id not in peers:
        raise SystemExit(f"--id {args.id!r} not present in --peers")
    node = LiveNode(
        args.id,
        peers,
        args.log_dir,
        config=default_ring_config(args.delta),
        max_frame=args.max_frame,
        flush_after=resolve_flush_after("binary", args.flush_interval),
        shards=args.shards,
    )
    await node.start()
    try:
        await node.run_until_stopped()
    finally:
        await node.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    return asyncio.run(amain(argv))


if __name__ == "__main__":
    raise SystemExit(main())
