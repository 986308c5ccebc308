"""The user-facing totally ordered broadcast service.

:class:`TotalOrderBroadcast` assembles the full stack of Figure 1: a
token-ring VS layer (Section 8) under a VStoTO process per location
(Section 5), and exposes exactly the TO interface of Section 3 —
``broadcast`` in, per-location delivery callbacks out — plus the
simulation controls (scenario installation, virtual-time stepping) and
the timed traces the property checkers consume.

This is the "building block" the paper argues for: a client needs only
this class and the TO specification to reason about its application.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable
from typing import Any

from repro.core.quorums import MajorityQuorumSystem, QuorumSystem
from repro.core.vstoto.runtime import Delivery, VStoTORuntime
from repro.ioa.timed import TimedTrace
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS

ProcId = Hashable
DeliverCallback = Callable[[Any, ProcId, ProcId], None]


class TotalOrderBroadcast:
    """Totally ordered broadcast among a fixed set of processors.

    Example
    -------
    ::

        tob = TotalOrderBroadcast([1, 2, 3], seed=7)
        tob.schedule_broadcast(5.0, 1, "hello")
        tob.run_until(100.0)
        assert tob.delivered(2) == tob.delivered(3)

    Parameters
    ----------
    processors:
        Processor identifiers (mutually orderable).
    config:
        Ring timing parameters; defaults to δ=1, π=10, μ=30,
        work-conserving circulation.
    quorums:
        Quorum system for primary views; defaults to majorities of P.
    seed:
        Master randomness seed (channel delays etc.).
    """

    def __init__(
        self,
        processors: Iterable[ProcId],
        config: RingConfig | None = None,
        quorums: QuorumSystem | None = None,
        seed: int = 0,
        on_deliver: DeliverCallback | None = None,
    ) -> None:
        self.processors = tuple(processors)
        self.config = (
            config
            if config is not None
            else RingConfig(delta=1.0, pi=10.0, mu=30.0, work_conserving=True)
        )
        self.quorums = (
            quorums
            if quorums is not None
            else MajorityQuorumSystem(self.processors)
        )
        self.vs = TokenRingVS(self.processors, self.config, seed=seed)
        self.runtime = VStoTORuntime(self.vs, self.quorums, on_deliver=on_deliver)

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.vs.simulator.now

    def broadcast(self, p: ProcId, value: Any) -> None:
        """Submit ``value`` at location p (TO's ``bcast`` input).

        Values must be hashable (they travel inside content sets and
        summaries); unhashable payloads are rejected here with a clear
        error instead of failing deep inside the protocol.
        """
        if p not in self.processors:
            raise KeyError(f"unknown processor {p!r}")
        try:
            hash(value)
        except TypeError as exc:
            raise TypeError(
                f"broadcast values must be hashable, got {type(value).__name__}"
            ) from exc
        self.runtime.broadcast(p, value)

    def schedule_broadcast(self, time: float, p: ProcId, value: Any) -> None:
        """Submit at an absolute virtual time."""
        self.runtime.schedule_broadcast(time, p, value)

    def run_until(self, time: float) -> None:
        """Advance virtual time (starting the service on first call)."""
        self.runtime.start()
        self.runtime.run_until(time)

    # ------------------------------------------------------------------
    def delivered(self, p: ProcId) -> list[Any]:
        """Values delivered to the client at p, in delivery order."""
        return self.runtime.delivered_values(p)

    @property
    def deliveries(self) -> list[Delivery]:
        return self.runtime.deliveries

    def to_trace(self) -> TimedTrace:
        """The TO-level timed trace plus failure-status events."""
        return self.runtime.merged_trace()

    def vs_trace(self) -> TimedTrace:
        """The VS-level timed trace plus failure-status events."""
        return self.vs.merged_trace()

    def stats(self) -> dict[str, Any]:
        stats = self.vs.stats()
        stats["deliveries"] = len(self.runtime.deliveries)
        return stats
