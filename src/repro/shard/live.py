"""The live substrate adapter: many VS groups over one ``repro.rt``
transport.

A live node process (:mod:`repro.rt.node`) owns exactly one
:class:`~repro.rt.transport.LiveNetwork` — one listen socket, one
outbound stream per peer.  To host ``--shards N`` group runtimes on
that single transport, every outbound protocol message is wrapped in a
:class:`ShardEnvelope` naming its group, and the transport's single
registered endpoint is a :class:`GroupDemux` that unwraps inbound
envelopes and hands the inner message to the right group's ring
member.  Each group sees a private :class:`GroupNet` — the full
``Network`` surface (send/broadcast/multicast, simulator, oracle) —
so :class:`~repro.membership.ring.RingMember` and the VStoTO runtime
run per group completely unmodified.

A one-group node is the N = 1 case of the same thing: one
:class:`GroupNet`, one handler behind the :class:`GroupDemux`, the
envelope on every frame (about half a byte and 0.15 µs in the demux per
delivery on the saturated binary wire; E30).

Client operations on the live wire are **strings** — ``key#seq#payload``
(:func:`encode_live_op`) — because broadcast values must stay hashable
after a JSON wire round trip; :func:`parse_live_op` recovers the
``(key, op_seq, payload)`` tuple the cross-shard checker consumes.

Verification is per group: each group's event logs are its own files
(:func:`shard_log_paths`; :func:`repro.rt.trace.event_log_path` owns
the names), so :func:`repro.rt.cluster.verify_sharded` replays one
group's capture through the standard live checkers
(:func:`~repro.rt.trace.verify_events`), and :func:`delivered_order`
recovers the group's total order from the same decoded events for the
cross-shard invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any
from collections.abc import Iterable, Mapping

from repro.rt.framing import register_wire_type
from repro.rt.trace import group_event_logs
from repro.shard.verify import ShardOp

#: Separator inside a live operation string (keys must not contain it).
OP_SEP = "#"


@register_wire_type
@dataclass(frozen=True)
class ShardEnvelope:
    """One group's protocol message on the shared transport."""

    g: str
    msg: Any = None


class GroupNet:
    """The per-group ``Network`` facade over one shared live transport.

    Outbound messages are wrapped in a :class:`ShardEnvelope`;
    identity, processor set, clock and failure oracle delegate to the
    underlying :class:`~repro.rt.transport.LiveNetwork`, so one group's
    ring member cannot tell it shares the node with others.
    """

    def __init__(self, group: str, network: Any) -> None:
        self.group = group
        self.network = network
        self.proc_id: str = network.proc_id
        self.processors: tuple[str, ...] = network.processors
        self.simulator = network.simulator
        self.oracle = network.oracle

    def send(self, src: str, dst: str, message: Any) -> None:
        self.network.send(src, dst, ShardEnvelope(self.group, message))

    def broadcast(
        self, src: str, message: Any, include_self: bool = False
    ) -> None:
        self.network.broadcast(
            src, ShardEnvelope(self.group, message), include_self
        )

    def multicast(self, src: str, dests: Iterable[str], message: Any) -> None:
        for dst in dests:
            if dst != src:
                self.send(src, dst, message)


class GroupDemux:
    """The transport endpoint of a node hosting many groups.

    Unwraps inbound :class:`ShardEnvelope` frames and dispatches the
    inner message to the named group's handler.  Bare (non-envelope)
    protocol messages — a peer running unsharded — go to the default
    group; envelopes for groups this node does not host are counted and
    dropped (a config skew, not a protocol condition).
    """

    def __init__(
        self, proc_id: str, handlers: Mapping[str, Any], default: str
    ) -> None:
        if default not in handlers:
            raise ValueError(f"default group {default!r} has no handler")
        self.proc_id = proc_id
        self.handlers = dict(handlers)
        self.default = default
        self.unknown_group_drops = 0

    def on_message(self, src: str, message: Any) -> None:
        if isinstance(message, ShardEnvelope):
            handler = self.handlers.get(message.g)
            if handler is None:
                self.unknown_group_drops += 1
                return
            handler.on_message(src, message.msg)
        else:
            self.handlers[self.default].on_message(src, message)


# ----------------------------------------------------------------------
# Live operation values


def encode_live_op(key: str, op_seq: int, payload: str) -> str:
    """The wire spelling of one client operation: a plain string (it
    must survive a JSON wire round trip hashable)."""
    if OP_SEP in key:
        raise ValueError(f"keys must not contain {OP_SEP!r}: {key!r}")
    return f"{key}{OP_SEP}{op_seq}{OP_SEP}{payload}"


def parse_live_op(value: Any) -> ShardOp | None:
    """Recover ``(key, op_seq, payload)`` from a wire value, or None
    for traffic that is not a shard operation."""
    if not isinstance(value, str):
        return None
    parts = value.split(OP_SEP, 2)
    if len(parts) != 3 or not parts[1].isdigit():
        return None
    return (parts[0], int(parts[1]), parts[2])


# ----------------------------------------------------------------------
# Per-group captures


def shard_log_paths(log_dir: str | Path, group: str) -> list[Path]:
    """This group's event logs (one per node) under ``log_dir``."""
    return list(group_event_logs(log_dir).get(group, {}).values())


def delivered_order(events: Iterable[Mapping[str, Any]]) -> list[ShardOp]:
    """One group's delivered total order of operations, recovered from
    its merged capture: the longest single-node ``brcv`` sequence
    (per-group TO conformance proves all nodes agree on a common
    prefix)."""
    per_node: dict[str, list[ShardOp]] = {}
    for entry in events:
        if entry["ev"] != "brcv":
            continue
        value, _origin, dst = entry["args"]
        op = parse_live_op(value)
        if op is not None:
            per_node.setdefault(str(dst), []).append(op)
    best: list[ShardOp] = []
    for node in sorted(per_node):
        if len(per_node[node]) > len(best):
            best = per_node[node]
    return best
