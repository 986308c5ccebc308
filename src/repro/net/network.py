"""The complete-graph network and the processor execution gate.

:class:`Network` owns a directed :class:`~repro.net.channel.Channel` for
every ordered processor pair and dispatches arrivals to registered
:class:`NetworkNode` handlers, subject to the *destination processor's*
failure status:

- a bad processor takes no steps, so arrivals while bad are dropped
  (state is preserved — the paper models crashes as unbounded step
  delays without loss of state, and our scenarios bring processors back
  by marking them good again);
- an ugly processor handles arrivals after an extra random delay;
- a good processor handles arrivals immediately.

Protocol code (the membership/token layer) subclasses or registers a
:class:`NetworkNode` and uses :meth:`Network.send` / broadcast helpers.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from typing import Any

from repro.net.channel import (
    DROP_REASONS,
    Channel,
    ChannelConfig,
    PacketInterceptor,
)
from repro.net.status import FailureOracle, FailureStatus
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

ProcId = Hashable


class NetworkNode:
    """Base class for protocol endpoints attached to the network."""

    def __init__(self, proc_id: ProcId) -> None:
        self.proc_id = proc_id

    def on_message(self, src: ProcId, message: Any) -> None:
        """Handle an arriving message (override)."""
        raise NotImplementedError


class Network:
    """All-pairs network with failure statuses.

    Parameters
    ----------
    processors:
        Processor ids (the paper's totally ordered finite set P); their
        iteration order defines the total order used by protocols.
    simulator, rngs:
        Shared simulation clock and seeded RNG registry.
    config:
        Link timing parameters (delta etc.).
    ugly_proc_max_delay:
        Extra handling delay bound for ugly destination processors.
    """

    def __init__(
        self,
        processors: Iterable[ProcId],
        simulator: Simulator,
        rngs: RngRegistry | None = None,
        config: ChannelConfig | None = None,
        ugly_proc_max_delay: float = 50.0,
    ) -> None:
        self.processors: tuple[ProcId, ...] = tuple(processors)
        if len(set(self.processors)) != len(self.processors):
            raise ValueError("duplicate processor ids")
        self.simulator = simulator
        self.rngs = rngs if rngs is not None else RngRegistry(0)
        self.config = config if config is not None else ChannelConfig()
        self.oracle = FailureOracle(self.processors)
        self._ugly_proc_max_delay = ugly_proc_max_delay
        self._nodes: dict[ProcId, NetworkNode] = {}
        self._channels: dict[tuple[ProcId, ProcId], Channel] = {}
        for src in self.processors:
            for dst in self.processors:
                if src == dst:
                    continue
                rng = self.rngs.stream(f"channel:{src}->{dst}")
                self._channels[(src, dst)] = Channel(
                    src, dst, simulator, self.oracle, self.config, rng,
                    self._on_arrival,
                )
        self.messages_sent = 0
        self.messages_delivered = 0

    # ------------------------------------------------------------------
    def register(self, node: NetworkNode) -> None:
        """Attach a protocol endpoint for its processor id."""
        if node.proc_id not in self.processors:
            raise KeyError(f"unknown processor {node.proc_id!r}")
        self._nodes[node.proc_id] = node

    def node(self, proc_id: ProcId) -> NetworkNode:
        return self._nodes[proc_id]

    def channel(self, src: ProcId, dst: ProcId) -> Channel:
        return self._channels[(src, dst)]

    # ------------------------------------------------------------------
    # Packet interception (the fault-injection middleware hook)
    # ------------------------------------------------------------------
    def add_interceptor(
        self,
        interceptor: PacketInterceptor,
        links: Iterable[tuple[ProcId, ProcId]] | None = None,
    ) -> None:
        """Install ``interceptor`` on every channel (default) or on the
        given directed ``links`` only.  See :mod:`repro.net.channel` for
        the interceptor contract; :mod:`repro.faults` builds on this."""
        targets = (
            self._channels.values()
            if links is None
            else (self._channels[link] for link in links)
        )
        for channel in targets:
            channel.add_interceptor(interceptor)

    def remove_interceptor(self, interceptor: PacketInterceptor) -> None:
        """Remove ``interceptor`` from every channel that carries it."""
        for channel in self._channels.values():
            if interceptor in channel._interceptors:
                channel.remove_interceptor(interceptor)

    def drop_stats(self) -> dict[str, int]:
        """Aggregate per-reason drop counters across all channels."""
        totals = {reason: 0 for reason in DROP_REASONS}
        for channel in self._channels.values():
            for reason, count in channel.drops.items():
                totals[reason] = totals.get(reason, 0) + count
        return totals

    def dropped_total(self) -> int:
        """Aggregate drop count across all channels and reasons."""
        return sum(c.dropped_count for c in self._channels.values())

    # ------------------------------------------------------------------
    def send(self, src: ProcId, dst: ProcId, message: Any) -> None:
        """Send a unicast packet.  A bad source sends nothing (a bad
        processor takes no steps); protocol code normally checks its own
        status before acting, but the gate here is a backstop."""
        if src == dst:
            raise ValueError("self-sends are local; do not use the network")
        if self.oracle.processor_bad(src):
            return
        self.messages_sent += 1
        self._channels[(src, dst)].send(message)

    def broadcast(
        self, src: ProcId, message: Any, include_self: bool = False
    ) -> None:
        """Send to every other processor (and optionally loop back to
        self immediately, which protocols use for symmetric handling)."""
        for dst in self.processors:
            if dst == src:
                continue
            self.send(src, dst, message)
        if include_self and not self.oracle.processor_bad(src):
            self.simulator.call_soon(
                lambda: self._handle_if_alive(src, src, message)
            )

    def multicast(
        self, src: ProcId, dests: Iterable[ProcId], message: Any
    ) -> None:
        for dst in dests:
            if dst != src:
                self.send(src, dst, message)

    # ------------------------------------------------------------------
    def _on_arrival(self, src: ProcId, dst: ProcId, message: Any) -> None:
        status = self.oracle.processor_status(dst)
        if status is FailureStatus.BAD:
            return
        if status is FailureStatus.UGLY:
            delay = self.rngs.stream(f"uglyproc:{dst}").uniform(
                0.0, self._ugly_proc_max_delay
            )
            self.simulator.schedule(
                delay, lambda: self._handle_if_alive(src, dst, message)
            )
            return
        self._handle_if_alive(src, dst, message)

    def _handle_if_alive(self, src: ProcId, dst: ProcId, message: Any) -> None:
        if self.oracle.processor_bad(dst):
            return
        node = self._nodes.get(dst)
        if node is not None:
            self.messages_delivered += 1
            node.on_message(src, message)
