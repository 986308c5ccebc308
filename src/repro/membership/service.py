""":class:`TokenRingVS` — the VS service façade over the simulated
network.

Wires one :class:`~repro.membership.ring.RingMember` per processor to a
:class:`~repro.net.network.Network`, exposes the VS interface
(``gpsnd`` in; ``gprcv``/``safe``/``newview`` callbacks out), records a
:class:`~repro.ioa.timed.TimedTrace` of every VS external event, and can
merge in the failure-status history for the property checkers.

This is the implementation whose traces are checked against VS-machine
(safety) and against VS-property with the Section 8 bounds
(performance): experiments E2, E5, E6.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable
from typing import TYPE_CHECKING, Any

from repro.core.types import View
from repro.ioa.actions import act
from repro.ioa.timed import IncrementalStatusMerger, TimedEvent, TimedTrace
from repro.membership.ring import RingConfig, RingMember
from repro.net.channel import ChannelConfig
from repro.net.network import Network
from repro.net.scenarios import PartitionScenario
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:
    from repro.obs import Observability

ProcId = Hashable

#: callback signatures: (payload, src, dst) for gprcv/safe; (view, p)
#: for newview.
DeliveryCallback = Callable[[Any, ProcId, ProcId], None]
ViewCallback = Callable[[View, ProcId], None]
#: passive observer of every recorded VS event: (time, name, args).
VSEventListener = Callable[[float, str, tuple[Any, ...]], None]


class TokenRingVS:
    """A runnable VS service instance.

    Parameters
    ----------
    processors:
        The processor set P.
    config:
        Protocol timing parameters (δ, π, μ).
    seed:
        Master seed for all randomness (channel delays etc.).
    initial_members:
        P0 for the hybrid initial view; defaults to all processors.
        Processors outside P0 start with no view and join via probes.
    obs:
        Optional :class:`repro.obs.Observability` hub; when given, every
        layer (simulator, channels, ring members, and — via
        :class:`~repro.core.vstoto.runtime.VStoTORuntime` — the VS-to-TO
        automata) instruments itself against it.  Attaching a hub never
        perturbs the execution (no RNG draws, no scheduled events).
    """

    def __init__(
        self,
        processors: Iterable[ProcId],
        config: RingConfig | None = None,
        seed: int = 0,
        initial_members: Iterable[ProcId] | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.processors: tuple[ProcId, ...] = tuple(processors)
        self.config = config if config is not None else RingConfig()
        self.simulator = Simulator()
        self.rngs = RngRegistry(seed)
        self.network = Network(
            self.processors,
            self.simulator,
            rngs=self.rngs,
            config=ChannelConfig(delta=self.config.delta),
        )
        members = (
            frozenset(initial_members)
            if initial_members is not None
            else frozenset(self.processors)
        )
        g0 = (0, min(members)) if members else (0, min(self.processors))
        self.initial_view = View(g0, members)
        self.members: dict[ProcId, RingMember] = {}
        for p in self.processors:
            member = RingMember(
                p,
                self,
                self.config,
                self.initial_view if p in members else None,
            )
            self.members[p] = member
            self.network.register(member)
        self.trace = TimedTrace()
        #: Every external event of the stack — this service's VS events,
        #: the TO events of a ``VStoTORuntime`` on top, and the view
        #: lifecycle events of :meth:`record_view_event` — in the order
        #: they happened (two traces merged by time lose it: a ``bcast``
        #: and the ``gpsnd`` it causes share a timestamp).  What
        #: :func:`repro.rt.trace.sim_entries` reads.
        self.events: list[TimedEvent] = []
        self._merger = IncrementalStatusMerger(
            self.trace, lambda: self.network.oracle.history
        )
        self.on_gprcv: DeliveryCallback | None = None
        self.on_safe: DeliveryCallback | None = None
        self.on_newview: ViewCallback | None = None
        self._started = False
        self._vs_listeners: list[VSEventListener] = []
        self.obs: Observability | None = None
        if obs is not None:
            self.attach_obs(obs)

    # ------------------------------------------------------------------
    def attach_obs(self, obs: Observability | None) -> None:
        """Thread an observability hub through every layer this service
        owns.  Call before :meth:`start` to catch the whole execution."""
        if obs is None:
            return
        self.obs = obs
        self.simulator.attach_obs(obs)
        self.network.attach_obs(obs)
        for member in self.members.values():
            member.attach_obs(obs)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm every member's timers (idempotent)."""
        if self._started:
            return
        self._started = True
        for member in self.members.values():
            member.start()

    def run_until(self, time: float) -> None:
        self.start()
        self.simulator.run_until(time)

    def install_scenario(self, scenario: PartitionScenario) -> None:
        scenario.install(self.network)

    def restart_processor(self, p: ProcId) -> None:
        """Crash-restart the ring member at ``p`` (fresh volatile state;
        see :meth:`repro.membership.ring.RingMember.restart`).  The
        caller is responsible for the surrounding failure-status story —
        typically mark p bad for the outage, call this, then mark p good
        again (what :class:`repro.faults.CrashRestartInjector` does)."""
        self.members[p].restart()

    # ------------------------------------------------------------------
    # VS client interface
    # ------------------------------------------------------------------
    def gpsnd(self, p: ProcId, payload: Any) -> None:
        """Client at p sends payload (associated with p's current view)."""
        self._record("gpsnd", payload, p)
        self.members[p].gpsnd(payload)

    def current_view(self, p: ProcId) -> View | None:
        return self.members[p].view

    def schedule_send(self, time: float, p: ProcId, payload: Any) -> None:
        """Schedule a client send at an absolute virtual time."""
        self.simulator.schedule_at(time, lambda: self.gpsnd(p, payload))

    # ------------------------------------------------------------------
    # Emission (called by ring members)
    # ------------------------------------------------------------------
    def emit_newview(self, view: View, p: ProcId) -> None:
        self._record("newview", view, p)
        if self.on_newview is not None:
            self.on_newview(view, p)

    def emit_gprcv(self, payload: Any, src: ProcId, dst: ProcId) -> None:
        self._record("gprcv", payload, src, dst)
        if self.on_gprcv is not None:
            self.on_gprcv(payload, src, dst)

    def emit_safe(self, payload: Any, src: ProcId, dst: ProcId) -> None:
        self._record("safe", payload, src, dst)
        if self.on_safe is not None:
            self.on_safe(payload, src, dst)

    def add_vs_listener(self, fn: VSEventListener) -> None:
        """Subscribe a passive observer to every recorded VS event
        (``gpsnd``/``gprcv``/``safe``/``newview``).  Listeners must not
        schedule events or draw randomness.  The protocol-event hub of
        :mod:`repro.faults.triggers` is the main customer."""
        self._vs_listeners.append(fn)

    def record_view_event(self, name: str, *args: Any) -> None:
        """Record a view-lifecycle event (``formation``, ``createview``,
        ``established``) in :attr:`events` only: it is no VS output, so
        neither the VS trace nor the VS listeners see it."""
        self.events.append(TimedEvent(self.simulator.now, act(name, *args)))

    def _record(self, name: str, *args: Any) -> None:
        self.events.append(
            self.trace.append(self.simulator.now, act(name, *args))
        )
        for fn in self._vs_listeners:
            fn(self.simulator.now, name, args)

    # ------------------------------------------------------------------
    # Trace assembly for the checkers
    # ------------------------------------------------------------------
    def merged_trace(self) -> TimedTrace:
        """The VS event trace merged with failure-status events from the
        oracle history, in time order — the shape both property checkers
        consume.  Incremental: only events recorded since the previous
        call are merged in (O(new) amortised instead of an O(n log n)
        re-sort), which keeps periodic conformance sweeps cheap on long
        runs."""
        return self._merger.merged()

    def stats(self) -> dict[str, Any]:
        """Aggregate protocol statistics (diagnostics for benchmarks)."""
        return {
            "messages_sent": self.network.messages_sent,
            "messages_delivered": self.network.messages_delivered,
            "formations": sum(
                m.formations_initiated for m in self.members.values()
            ),
            "tokens_processed": sum(
                m.tokens_processed for m in self.members.values()
            ),
            "duplicates_suppressed": sum(
                m.duplicates_suppressed for m in self.members.values()
            ),
            "retransmissions": sum(
                m.retransmissions for m in self.members.values()
            ),
            "restarts": sum(m.restarts for m in self.members.values()),
            "token_forwards": sum(
                m.token_forwards for m in self.members.values()
            ),
            "token_entries_sent": sum(
                m.token_entries_sent for m in self.members.values()
            ),
            "token_entries_max": max(
                (m.token_entries_max for m in self.members.values()),
                default=0,
            ),
            "token_resyncs": sum(
                m.token_resyncs for m in self.members.values()
            ),
            "drops": self.network.drop_stats(),
            "events_processed": self.simulator.events_processed,
        }
