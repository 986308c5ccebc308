"""The live transport: the :class:`~repro.net.network.Network` surface
over persistent TCP streams.

One :class:`LiveNetwork` per node process.  It listens on the node's
own port, keeps one *outbound* stream per peer (reconnecting with
backoff whenever a connection drops), and dispatches inbound frames to
the registered protocol endpoint — the same
:meth:`~repro.net.network.NetworkNode.on_message` contract the
simulated network uses, so :class:`~repro.membership.ring.RingMember`
runs over it unmodified.

Identity handshake: the first message on every connection is a
:class:`Hello` naming the sender, sent in a binary frame through the
stream's own :class:`~repro.rt.wire.WireWriter`; the messages after it
are attributed to that sender.  The cluster driver connects the
same way (as ``"driver"``) and speaks :class:`Ctl` records, which are
routed to the node's control handler instead of the ring.

Partition injection is *firewall-style*: :meth:`LiveNetwork.block`
drops frames to and from the named peers at this node while leaving
TCP connections alone — exactly a ``bad`` link pair in the paper's
failure model, driven from :mod:`repro.rt.faults` windows.  Loss is
accounted per direction in :attr:`LiveNetwork.counters`.

Delivery semantics match the model's *fair lossy* channels: a frame
written while the peer is connected is delivered unless the connection
drops mid-flight; frames sent while disconnected or blocked are lost
(the ring's watchdogs and retransmissions are what tolerate exactly
this).  Before any frame reaches a socket the transport calls its
:meth:`~LiveNetwork.write_ahead` hooks, through which a node empties
its event logs (INV-LOG-1 in :mod:`repro.rt.trace`).
"""

from __future__ import annotations

import asyncio
from collections.abc import Awaitable, Callable, Iterable
from dataclasses import dataclass, field
from typing import Any

from repro.net.status import FailureOracle
from repro.rt.clock import LiveScheduler
from repro.rt.framing import MAX_FRAME, FrameError, register_wire_type
from repro.rt.wire import (
    BinaryWire,
    ReaderStats,
    WireReader,
    WireWriter,
    WriterStats,
)

#: Reserved sender id for the cluster driver's control connections.
DRIVER_ID = "driver"

#: Counter keys maintained by every LiveNetwork.
COUNTER_KEYS = (
    "frames_sent",
    "frames_received",
    "bytes_sent",
    "bytes_received",
    "blocked_out",
    "blocked_in",
    "disconnected_drops",
    "connects",
    "connect_failures",
    "frame_errors",
)


@register_wire_type
@dataclass(frozen=True, slots=True)
class Hello:
    """Connection handshake: who is speaking on this stream.  It is the
    stream's first message, encoded by the stream's own writer so that
    it shares the connection's interning table.  ``wire`` says nothing
    a receiver reads (there is one wire); the field stays so that the
    pinned wire corpus keeps its bytes."""

    src: str
    wire: str = "binary"


@register_wire_type
@dataclass(frozen=True, slots=True)
class Ctl:
    """A control-plane record (driver <-> node).

    ``op`` names the operation; ``data`` is an op-specific payload
    (any codec-encodable value).
    """

    op: str
    data: Any = None


CtlHandler = Callable[[str, Ctl, Callable[[Ctl], None]], Awaitable[None]]


@dataclass
class _Peer:
    """Connection state for one remote processor."""

    host: str
    port: int
    writer: asyncio.StreamWriter | None = None
    task: asyncio.Task | None = field(default=None, repr=False)
    #: Codec + batching over the current outbound stream (bound by
    #: LiveNetwork.__init__, reattached on every reconnect).
    sender: WireWriter | None = field(default=None, repr=False)


class LiveNetwork:
    """All-pairs messaging for one live node.

    Parameters
    ----------
    proc_id:
        This node's processor id.
    peers:
        ``proc_id -> (host, port)`` for *every* processor including this
        one (its entry defines the listen address).
    scheduler:
        The node's :class:`~repro.rt.clock.LiveScheduler` (exposed as
        :attr:`simulator` for the protocol objects).
    on_ctl:
        Async handler for :class:`Ctl` frames ``(src, ctl, reply)``;
        ``reply`` writes a control record back on the inbound stream.
    max_frame:
        Frame ceiling for both directions.
    reconnect_delay:
        Initial outbound reconnect backoff (doubles up to 8x).
    flush_after:
        Batching window in seconds for outbound protocol frames.
        ``None`` disables batching (every message is its own frame);
        ``0.0`` coalesces messages sent within the same event-loop turn
        without adding latency.
    flush_max_bytes:
        Flush the batch queue early once it holds this many payload
        bytes (clamped to half the frame ceiling).
    """

    def __init__(
        self,
        proc_id: str,
        peers: dict[str, tuple[str, int]],
        scheduler: LiveScheduler,
        on_ctl: CtlHandler | None = None,
        max_frame: int = MAX_FRAME,
        reconnect_delay: float = 0.05,
        flush_after: float | None = None,
        flush_max_bytes: int = 1 << 16,
    ) -> None:
        if proc_id not in peers:
            raise ValueError(f"own id {proc_id!r} missing from the peer map")
        self.proc_id = proc_id
        self.processors: tuple[str, ...] = tuple(sorted(peers))
        self.simulator = scheduler
        #: An all-good oracle: live failures are real (killed processes,
        #: firewalled links), not modelled, so protocol-side gates
        #: (``_alive`` checks, send gating) always pass.
        self.oracle = FailureOracle(self.processors)
        self._peers: dict[str, _Peer] = {
            p: _Peer(host, port) for p, (host, port) in peers.items() if p != proc_id
        }
        self._listen: tuple[str, int] = peers[proc_id]
        self._on_ctl = on_ctl
        self.max_frame = max_frame
        self._reconnect_delay = reconnect_delay
        self.flush_after = flush_after
        self.flush_max_bytes = flush_max_bytes
        # One aggregate per direction, shared by every connection's
        # writer/reader (all access is on the loop thread).
        self.tx_stats = WriterStats()
        self.rx_stats = ReaderStats()
        for peer in self._peers.values():
            peer.sender = self._make_sender(batching=True)
        self._node: Any = None
        self._write_ahead: list[Callable[[], None]] = []
        self._server: asyncio.AbstractServer | None = None
        self._inbound: dict[str, asyncio.StreamWriter] = {}
        #: every running connection handler, with its stream's writer
        self._handlers: dict[asyncio.Task[Any], asyncio.StreamWriter] = {}
        self._closing = False
        self.blocked: set[str] = set()
        self.counters: dict[str, int] = {key: 0 for key in COUNTER_KEYS}
        self.messages_sent = 0
        self.messages_delivered = 0

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------
    def _make_sender(self, batching: bool) -> WireWriter:
        """A codec writer for one outbound direction.  ``batching``
        is off for reply writers: control replies must hit the wire
        before the requester's timeout, not a flush window later."""
        return WireWriter(
            max_frame=self.max_frame,
            flush_after=self.flush_after if batching else None,
            flush_max_bytes=self.flush_max_bytes,
            schedule=self.simulator.schedule,
            stats=self.tx_stats,
        )

    def _frame_sink(self, writer: asyncio.StreamWriter) -> Callable[[bytes], None]:
        """The byte sink a WireWriter flushes into: write the frame and
        keep the transport counters truthful about the wire."""

        def sink(frame: bytes) -> None:
            for flush in self._write_ahead:
                flush()
            try:
                writer.write(frame)
            except OSError:
                self.counters["disconnected_drops"] += 1
                return
            self.counters["frames_sent"] += 1
            self.counters["bytes_sent"] += len(frame)

        return sink

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def register(self, node: Any) -> None:
        """Attach the protocol endpoint (a NetworkNode for proc_id)."""
        if node.proc_id != self.proc_id:
            raise ValueError(
                f"node {node.proc_id!r} registered on transport {self.proc_id!r}"
            )
        self._node = node

    def write_ahead(self, flush: Callable[[], None]) -> None:
        """Call ``flush`` before every frame is written to a socket: the
        node's event logs reach the file ahead of the frames whose
        sending they record (INV-LOG-1)."""
        self._write_ahead.append(flush)

    async def start(self) -> None:
        """Bind the listen socket and start outbound connector tasks."""
        listen_host, listen_port = self._listen
        self._server = await asyncio.start_server(
            self._serve, listen_host, listen_port
        )
        for peer_id, peer in sorted(self._peers.items()):
            peer.task = asyncio.get_running_loop().create_task(
                self._maintain_peer(peer_id, peer)
            )

    async def wait_connected(self, timeout: float = 10.0) -> bool:
        """Block until every outbound peer stream is up (or timeout)."""
        deadline = asyncio.get_running_loop().time() + timeout
        while asyncio.get_running_loop().time() < deadline:
            if all(peer.writer is not None for peer in self._peers.values()):
                return True
            await asyncio.sleep(0.01)
        return all(peer.writer is not None for peer in self._peers.values())

    async def close(self) -> None:
        """Stop serving, cancel connectors, close every stream."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for peer in self._peers.values():
            if peer.task is not None:
                peer.task.cancel()
            if peer.sender is not None:
                peer.sender.detach()
            if peer.writer is not None:
                peer.writer.close()
                peer.writer = None
        # Close every inbound stream and let its handler read EOF and
        # return.  A handler still pending when the loop shuts down is
        # cancelled, which Python 3.11's stream callback reports as an
        # "Exception in callback".
        handlers = list(self._handlers)
        for writer in self._handlers.values():
            writer.close()
        self._inbound.clear()
        if handlers:
            await asyncio.wait(handlers, timeout=1.0)

    # ------------------------------------------------------------------
    # Outbound
    # ------------------------------------------------------------------
    async def _maintain_peer(self, peer_id: str, peer: _Peer) -> None:
        """Keep one outbound stream to ``peer_id`` alive."""
        delay = self._reconnect_delay
        while not self._closing:
            try:
                reader, writer = await asyncio.open_connection(
                    peer.host, peer.port
                )
            except OSError:
                self.counters["connect_failures"] += 1
                await asyncio.sleep(delay)
                delay = min(delay * 2, 8 * self._reconnect_delay)
                continue
            delay = self._reconnect_delay
            assert peer.sender is not None
            peer.sender.attach(self._frame_sink(writer))
            peer.sender.send_now(Hello(src=self.proc_id))
            peer.writer = writer
            self.counters["connects"] += 1
            try:
                # The outbound stream is write-only; reading it just
                # detects peer closure (EOF) so we can reconnect.
                while await reader.read(4096):
                    pass
            except OSError:
                pass
            finally:
                peer.writer = None
                peer.sender.detach()
                writer.close()
            if not self._closing:
                await asyncio.sleep(self._reconnect_delay)

    # ------------------------------------------------------------------
    # The Network surface (protocol side; runs on the loop thread)
    # ------------------------------------------------------------------
    def send(self, src: str, dst: str, message: Any) -> None:
        """Unicast one protocol message (the Network.send contract)."""
        if src != self.proc_id:
            raise ValueError(f"live node {self.proc_id!r} cannot send as {src!r}")
        if src == dst:
            raise ValueError("self-sends are local; do not use the network")
        self.messages_sent += 1
        if dst in self.blocked:
            self.counters["blocked_out"] += 1
            return
        peer = self._peers.get(dst)
        if peer is None or peer.sender is None or not peer.sender.connected:
            self.counters["disconnected_drops"] += 1
            return
        peer.sender.send(message)

    def broadcast(self, src: str, message: Any, include_self: bool = False) -> None:
        for dst in self.processors:
            if dst != src:
                self.send(src, dst, message)
        if include_self:
            self.simulator.call_soon(
                lambda: self._dispatch(src, message)
            )

    def multicast(self, src: str, dests: Iterable[str], message: Any) -> None:
        for dst in dests:
            if dst != src:
                self.send(src, dst, message)

    # ------------------------------------------------------------------
    # Firewall (partition injection)
    # ------------------------------------------------------------------
    def block(self, peers: Iterable[str]) -> None:
        """Drop all frames to and from ``peers`` until unblocked."""
        for p in peers:
            if p != self.proc_id:
                self.blocked.add(p)

    def unblock(self, peers: Iterable[str] | None = None) -> None:
        """Lift the firewall for ``peers`` (default: everyone)."""
        if peers is None:
            self.blocked.clear()
        else:
            for p in peers:
                self.blocked.discard(p)

    # ------------------------------------------------------------------
    # Inbound
    # ------------------------------------------------------------------
    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        wire_reader = WireReader(self.max_frame, stats=self.rx_stats)
        # Replies share the connection's lifetime; no batching so a
        # control reply never sits behind a flush window.
        replier: Callable[[Ctl], None] | None = None
        src: str | None = None
        task = asyncio.current_task()
        if task is not None:
            self._handlers[task] = writer
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                self.counters["bytes_received"] += len(data)
                try:
                    messages = wire_reader.feed(data)
                except FrameError:
                    # A framing or payload error desyncs any stateful
                    # codec on this stream; drop the connection and let
                    # the peer's reconnect start clean.
                    self.counters["frame_errors"] += 1
                    break
                for message in messages:
                    if isinstance(message, Hello):
                        src = message.src
                        self._inbound[src] = writer
                        continue
                    if src is None:
                        self.counters["frame_errors"] += 1
                        continue
                    self.counters["frames_received"] += 1
                    if isinstance(message, Ctl):
                        if self._on_ctl is not None:
                            if replier is None:
                                replier = self._replier(writer)
                            await self._on_ctl(src, message, replier)
                        continue
                    self._dispatch(src, message)
        except asyncio.CancelledError:
            # Server shutdown cancels every connection handler; the
            # finally below still runs, and the cancellation must reach
            # the Server so close() can finish.
            raise
        except OSError:
            pass
        finally:
            if src is not None and self._inbound.get(src) is writer:
                del self._inbound[src]
            if task is not None:
                del self._handlers[task]
            writer.close()

    def _replier(self, writer: asyncio.StreamWriter) -> Callable[[Ctl], None]:
        sender = self._make_sender(batching=False)
        sender.attach(self._frame_sink(writer))

        def reply(ctl: Ctl) -> None:
            sender.send_now(ctl)

        return reply

    def _dispatch(self, src: str, message: Any) -> None:
        if src in self.blocked:
            self.counters["blocked_in"] += 1
            return
        if self._node is not None:
            self.messages_delivered += 1
            self._node.on_message(src, message)

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Flush every peer's batch queue immediately."""
        for peer in self._peers.values():
            if peer.sender is not None:
                peer.sender.flush()

    def stats(self) -> dict[str, Any]:
        """Transport counters plus connection state (diagnostics)."""
        return {
            **self.counters,
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "peers_connected": sum(
                1 for peer in self._peers.values() if peer.writer is not None
            ),
            "blocked": sorted(self.blocked),
            "wire": {
                "flush_after": self.flush_after,
                # Keyed by codec: readers iterate the values.
                "tx": {BinaryWire.name: self.tx_stats.to_dict()},
                "rx": {BinaryWire.name: self.rx_stats.to_dict()},
            },
        }
