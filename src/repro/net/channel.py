"""Point-to-point channels over the discrete-event simulator.

Channel behaviour is driven by the failure oracle at *send* time and at
*delivery* time:

- good link: the packet arrives after a delay drawn uniformly from
  (latency_floor, delta]; the paper's model only bounds delay above by
  ``delta``;
- bad link: the packet is dropped;
- ugly link: with probability ``ugly_loss`` the packet is dropped,
  otherwise it arrives after a delay up to ``ugly_max_delay`` — i.e. no
  timing guarantee, which is the paper's "might or might not deliver".

A packet in flight when the link turns bad is also dropped at its
scheduled arrival time (the link "delivers all messages sent while it is
good", so messages straddling a failure may be lost).

Interception middleware
-----------------------

Beyond the oracle, each channel carries an ordered list of *packet
interceptors* — the hook the :mod:`repro.faults` nemesis layer uses to
perturb individual packets (drop, duplicate, delay, reorder-by-holding)
in ways the status oracle does not model.  An interceptor is a callable
``(Packet, PacketFate) -> PacketFate | None``; it sees the fate the
oracle (and any earlier interceptor) decided and may return a replacement
fate, or ``None`` to leave the packet alone.  Interceptors run only for
packets that survived the oracle's send-time verdict, so fault injection
composes with — never masks — the modelled failure statuses.

Drops are accounted per reason in :attr:`Channel.drops` (keys in
:data:`DROP_REASONS`); :attr:`Channel.dropped_count` is the sum.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections.abc import Callable, Hashable
from typing import Any

from repro.net.status import FailureOracle, FailureStatus
from repro.sim.engine import Simulator

ProcId = Hashable
DeliveryHandler = Callable[[ProcId, ProcId, Any], None]

#: Structured drop accounting: the oracle's three verdicts plus
#: nemesis-injected drops.
DROP_REASONS = ("bad_at_send", "ugly_loss", "bad_in_flight", "injected")


@dataclass(frozen=True)
class Packet:
    """What an interceptor sees: one send on one directed channel."""

    src: ProcId
    dst: ProcId
    message: Any
    packet_id: int
    sent_at: float


@dataclass(frozen=True)
class PacketFate:
    """The scheduled outcome of a send.

    ``delays`` holds one relative delivery delay per copy that will be
    scheduled — the singleton tuple is a normal delivery, a longer tuple
    means duplication, the empty tuple means the packet is dropped (with
    ``drop_reason`` naming the counter to charge, default "injected").
    """

    delays: tuple[float, ...]
    drop_reason: str | None = None

    @property
    def dropped(self) -> bool:
        return not self.delays


PacketInterceptor = Callable[[Packet, PacketFate], PacketFate | None]


@dataclass(frozen=True)
class ChannelConfig:
    """Timing parameters of the physical links.

    ``delta`` is the paper's bound on good-link delivery delay.
    """

    delta: float = 1.0
    latency_floor: float = 0.0
    ugly_loss: float = 0.5
    ugly_max_delay: float = 50.0

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if not 0 <= self.latency_floor < self.delta:
            raise ValueError("latency_floor must lie in [0, delta)")
        if not 0 <= self.ugly_loss <= 1:
            raise ValueError("ugly_loss must lie in [0, 1]")


class Channel:
    """The directed channel from ``src`` to ``dst``."""

    def __init__(
        self,
        src: ProcId,
        dst: ProcId,
        simulator: Simulator,
        oracle: FailureOracle,
        config: ChannelConfig,
        rng: random.Random,
        deliver: DeliveryHandler,
    ) -> None:
        self.src = src
        self.dst = dst
        self._sim = simulator
        self._oracle = oracle
        self._config = config
        self._rng = rng
        self._deliver = deliver
        self._interceptors: list[PacketInterceptor] = []
        self._packet_ids = 0
        self.sent_count = 0
        self.delivered_count = 0
        self.drops: dict[str, int] = {reason: 0 for reason in DROP_REASONS}
        # Observability slots (pre-bound by attach_obs; one `is None`
        # branch per send/arrival when no hub is attached).
        self._m_sent = None
        self._m_delivered = None
        self._m_drops: dict[str, Any] | None = None
        self._m_in_flight = None

    @property
    def dropped_count(self) -> int:
        """Total drops across all reasons (legacy aggregate view)."""
        return sum(self.drops.values())

    # ------------------------------------------------------------------
    def attach_obs(self, obs) -> None:
        """Bind per-link metric children: sends, deliveries, per-reason
        drops and an in-flight depth gauge, all labelled by the directed
        link."""
        if obs is None:
            return
        metrics = obs.metrics
        link = f"{self.src}->{self.dst}"
        self._m_sent = metrics.counter(
            "net_packets_sent_total", "packets submitted per link",
            labels=("link",),
        ).labels(link)
        self._m_delivered = metrics.counter(
            "net_packets_delivered_total", "packets handed to the network",
            labels=("link",),
        ).labels(link)
        drops = metrics.counter(
            "net_drops_total", "drops per link and reason",
            labels=("link", "reason"),
        )
        self._m_drops = {
            reason: drops.labels(link, reason) for reason in DROP_REASONS
        }
        self._m_in_flight = metrics.gauge(
            "net_in_flight", "scheduled deliveries not yet arrived",
            labels=("link",),
        ).labels(link)

    def _count_drop(self, reason: str) -> None:
        self.drops[reason] += 1
        if self._m_drops is not None:
            self._m_drops[reason].inc()

    # ------------------------------------------------------------------
    # Interception middleware
    # ------------------------------------------------------------------
    def add_interceptor(self, interceptor: PacketInterceptor) -> None:
        """Append an interceptor to this channel's pipeline."""
        self._interceptors.append(interceptor)

    def remove_interceptor(self, interceptor: PacketInterceptor) -> None:
        self._interceptors.remove(interceptor)

    # ------------------------------------------------------------------
    def send(self, message: Any) -> None:
        """Submit a packet; schedules delivery per the link status."""
        self.sent_count += 1
        if self._m_sent is not None:
            self._m_sent.inc()
        status = self._oracle.link_status(self.src, self.dst)
        if status is FailureStatus.BAD:
            self._count_drop("bad_at_send")
            return
        if status is FailureStatus.GOOD:
            delay = self._rng.uniform(
                self._config.latency_floor, self._config.delta
            )
        else:  # UGLY
            if self._rng.random() < self._config.ugly_loss:
                self._count_drop("ugly_loss")
                return
            delay = self._rng.uniform(0.0, self._config.ugly_max_delay)
        fate = PacketFate((delay,))
        if self._interceptors:
            self._packet_ids += 1
            packet = Packet(
                self.src, self.dst, message, self._packet_ids, self._sim.now
            )
            for interceptor in self._interceptors:
                replacement = interceptor(packet, fate)
                if replacement is not None:
                    fate = replacement
                if fate.dropped:
                    break
        if fate.dropped:
            self._count_drop(fate.drop_reason or "injected")
            return
        for copy_delay in fate.delays:
            self._sim.schedule(max(0.0, copy_delay), lambda: self._arrive(message))
            if self._m_in_flight is not None:
                self._m_in_flight.inc()

    def _arrive(self, message: Any) -> None:
        if self._m_in_flight is not None:
            self._m_in_flight.dec()
        # A packet is lost if the link has gone bad while it was in
        # flight: the good-link guarantee covers only packets whose whole
        # flight happens while the link is good.
        if self._oracle.link_status(self.src, self.dst) is FailureStatus.BAD:
            self._count_drop("bad_in_flight")
            return
        self.delivered_count += 1
        if self._m_delivered is not None:
            self._m_delivered.inc()
        self._deliver(self.src, self.dst, message)
