"""Event-driven hosting of ``VStoTO_p`` automata over a live VS service.

Section 7 composes the timed processes ``VStoTO'_p`` with any automaton
satisfying VS(b, d, Q).  This module is that composition made runnable:
each processor's automaton is driven by the VS callbacks (gprcv, safe,
newview) and by client ``bcast`` calls; after each input the adapter
fires the processor's enabled locally controlled actions to quiescence —
the "good processors take enabled steps immediately" rule — forwarding
``gpsnd`` outputs to the VS service and ``brcv`` outputs to the client.

A *bad* processor (per the network's failure oracle) takes no locally
controlled steps: its inputs still update state (VS won't actually
deliver to it while bad, since the network gates arrivals), but draining
is deferred until it is next driven while good.

The adapter records a timed trace of the TO-level external actions
(``bcast``/``brcv``), which :class:`~repro.core.to_spec.TOPropertyChecker`
consumes for the Theorem 7.1/7.2 experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Hashable
from typing import Any

from repro.core.quorums import QuorumSystem
from repro.core.types import View
from repro.core.vstoto.process import Status, VStoTOProcess
from repro.ioa.actions import Action, act
from repro.ioa.timed import IncrementalStatusMerger, TimedEvent, TimedTrace
from repro.membership.service import TokenRingVS

ProcId = Hashable

#: callback signature: (value, origin, destination)
DeliverCallback = Callable[[Any, ProcId, ProcId], None]

#: passive observer of a VStoTO status transition:
#: (time, proc, old_status, new_status) with statuses as their string
#: values ("normal"/"send"/"collect").
StatusListener = Callable[[float, ProcId, str, str], None]

_DRAIN_LIMIT = 100_000


@dataclass(frozen=True, slots=True)
class Delivery:
    """One client delivery: value from origin delivered at dst at time."""

    time: float
    value: Any
    origin: ProcId
    dst: ProcId


class VStoTORuntime:
    """The full stack: VStoTO processes over a :class:`TokenRingVS`.

    Parameters
    ----------
    service:
        A (not yet started) token-ring VS instance; the runtime installs
        itself as the service's callback sink.
    quorums:
        Quorum system defining primary views.
    on_deliver:
        Optional client callback for ``brcv`` outputs.
    """

    def __init__(
        self,
        service: TokenRingVS,
        quorums: QuorumSystem,
        on_deliver: DeliverCallback | None = None,
    ) -> None:
        self.service = service
        self.quorums = quorums
        self.on_deliver = on_deliver
        self.processors = service.processors
        self.procs: dict[ProcId, VStoTOProcess] = {
            p: VStoTOProcess(p, quorums, service.initial_view)
            for p in self.processors
        }
        service.on_gprcv = self._on_gprcv
        service.on_safe = self._on_safe
        service.on_newview = self._on_newview
        self.trace = TimedTrace()
        #: The simulated service's one in-order record of VS and TO
        #: events (a live node's service keeps none: its log is on disk).
        self._events: list[TimedEvent] | None = getattr(
            service, "events", None
        )
        self._merger = IncrementalStatusMerger(
            self.trace, lambda: service.network.oracle.history
        )
        self.deliveries: list[Delivery] = []
        self._draining: set[ProcId] = set()
        self._status_listeners: list[StatusListener] = []
        self._last_status: dict[ProcId, Status] = {
            p: proc.status for p, proc in self.procs.items()
        }
        # Drain deferred work as soon as a processor stops being bad.
        service.network.oracle.add_listener(self._on_status_change)

    def _on_status_change(self, event: Any) -> None:
        target = event.target
        if isinstance(target, tuple) or target not in self.procs:
            return
        if event.status.value != "bad":
            self.service.simulator.call_soon(lambda: self._drain(target))

    # ------------------------------------------------------------------
    # Client interface
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.service.start()

    def run_until(self, time: float) -> None:
        self.service.run_until(time)
        # Drain any processor that recovered from a bad period and has
        # pending enabled work.
        for p in self.processors:
            self._drain(p)

    def add_status_listener(self, fn: StatusListener) -> None:
        """Subscribe a passive observer to VStoTO status transitions
        (Fig. 9 edges: normal→send on newview, send→collect on the
        summary gpsnd, collect→normal when state exchange completes).
        Listeners must not schedule events or draw randomness.  The
        protocol-event hub of :mod:`repro.faults.triggers` and the
        scenario coverage tracker are the customers."""
        self._status_listeners.append(fn)

    def _emit_status_edge(self, p: ProcId) -> None:
        status = self.procs[p].status
        if status is self._last_status[p]:
            return
        old, new = self._last_status[p].value, status.value
        self._last_status[p] = status
        if status is Status.NORMAL:
            # Fig. 10 sets normal in one place: state exchange completes
            # (collect -> normal), which establishes the current view.
            self.service.record_view_event(
                "established", self.procs[p].current.id, p
            )
        now = self.service.simulator.now
        for fn in self._status_listeners:
            fn(now, p, old, new)

    def broadcast(self, p: ProcId, value: Any) -> None:
        """Client at p submits a value (the TO ``bcast`` input)."""
        action = act("bcast", value, p)
        self._record(action)
        self.procs[p].step(action)
        self._emit_status_edge(p)
        self._drain(p)

    def schedule_broadcast(self, time: float, p: ProcId, value: Any) -> None:
        self.service.simulator.schedule_at(
            time, lambda: self.broadcast(p, value)
        )

    def delivered_values(self, p: ProcId) -> list[Any]:
        return [d.value for d in self.deliveries if d.dst == p]

    # ------------------------------------------------------------------
    # VS callbacks
    # ------------------------------------------------------------------
    def _on_gprcv(self, payload: Any, src: ProcId, dst: ProcId) -> None:
        self.procs[dst].step(act("gprcv", payload, src, dst))
        self._emit_status_edge(dst)
        self._drain(dst)

    def _on_safe(self, payload: Any, src: ProcId, dst: ProcId) -> None:
        self.procs[dst].step(act("safe", payload, src, dst))
        self._emit_status_edge(dst)
        self._drain(dst)

    def _on_newview(self, view: View, p: ProcId) -> None:
        self.procs[p].step(act("newview", view, p))
        self._emit_status_edge(p)
        self._drain(p)

    # ------------------------------------------------------------------
    def _drain(self, p: ProcId) -> None:
        """Fire enabled locally controlled actions at p to quiescence."""
        if p in self._draining:
            return  # re-entrant call via service.gpsnd -> ... -> _drain
        if self.service.network.oracle.processor_bad(p):
            return
        proc = self.procs[p]
        self._draining.add(p)
        try:
            for _ in range(_DRAIN_LIMIT):
                action = next(iter(proc.enabled_actions()), None)
                if action is None:
                    return
                proc.step(action)
                self._emit_status_edge(p)
                self._after_local_action(p, action)
            raise RuntimeError(f"drain limit exceeded at {p!r}")
        finally:
            self._draining.discard(p)

    def _after_local_action(self, p: ProcId, action: Action) -> None:
        if action.name == "gpsnd":
            payload, _p = action.args
            self.service.gpsnd(p, payload)
        elif action.name == "brcv":
            value, origin, dst = action.args
            self._record(action)
            self.deliveries.append(
                Delivery(
                    time=self.service.simulator.now,
                    value=value,
                    origin=origin,
                    dst=dst,
                )
            )
            if self.on_deliver is not None:
                self.on_deliver(value, origin, dst)

    def _record(self, action: Action) -> None:
        """Log a TO external action — the very (immutable) ``Action``
        the automaton performs, not a rebuilt equal one."""
        now = self.service.simulator.now
        event = self.trace.append(now, action)
        if self._events is not None:
            self._events.append(event)

    # ------------------------------------------------------------------
    def merged_trace(self) -> TimedTrace:
        """TO external events merged with failure-status history (the
        input shape for TOPropertyChecker).  Incremental: only events
        recorded since the previous call are merged in."""
        return self._merger.merged()
