"""Protocol-event-triggered fault windows.

Timed windows (:class:`~repro.faults.schedule.FaultWindow`) key the
nemesis to *wall-clock* virtual times; many of the paper's interesting
interleavings are instead keyed to *protocol state*: "when any member
enters state exchange, drop the token", "crash a processor the moment a
view change begins".  This module supplies that hook:

- :class:`TriggerSpec` — a serializable predicate over protocol events
  (a VStoTO status entry, a ``newview`` installation, or a
  view-membership change) plus the window to open when it fires;
- :class:`TriggeredFault` — a (spec, injector) pair carried by a
  :class:`~repro.faults.schedule.FaultSchedule` alongside timed windows;
- :class:`ProtocolEventHub` — the runtime bridge: it subscribes to the
  VS service's event recorder and the VStoTO runtime's status-edge
  feed, normalizes both into :class:`ProtocolEvent` records, and arms
  triggers so a matching event opens the injector's window on the
  simulator.

Determinism: the hub is driven entirely by the deterministic event
stream of a seeded execution and draws no randomness of its own, so a
triggered schedule replays exactly from (seed, scenario file) — which
is what lets the shrinker re-verify candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Hashable
from typing import TYPE_CHECKING, Any

from repro.faults.injectors import FaultInjector

if TYPE_CHECKING:
    from repro.core.vstoto.runtime import VStoTORuntime
    from repro.membership.service import TokenRingVS

ProcId = Hashable

#: Event vocabulary a trigger can match on.
TRIGGER_EVENTS = ("status_enter", "newview", "view_change")

#: VStoTO statuses (Fig. 9) a ``status_enter`` trigger can name.
TRIGGER_STATUSES = ("normal", "send", "collect")


@dataclass(frozen=True)
class ProtocolEvent:
    """One normalized protocol observation.

    ``kind`` is one of :data:`TRIGGER_EVENTS`; ``detail`` carries the
    entered status for ``status_enter`` and a view-edge label for the
    view kinds.
    """

    time: float
    kind: str
    proc: ProcId
    detail: str = ""


@dataclass(frozen=True)
class TriggerSpec:
    """When to open a triggered window, and for how long.

    Parameters
    ----------
    event:
        One of :data:`TRIGGER_EVENTS`.  ``status_enter`` fires when any
        processor's VStoTO status becomes ``status``; ``newview`` fires
        on any view installation; ``view_change`` fires when a
        processor's view *membership* actually changes (a strict subset
        of ``newview``).
    status:
        Required for ``status_enter`` (one of
        :data:`TRIGGER_STATUSES`); must be ``None`` otherwise.
    delay:
        Virtual time between the matching event and the window opening.
    duration:
        Window length; the stop time is clamped to the schedule horizon
        so a late trigger cannot keep the nemesis alive past
        stabilisation.
    once:
        Fire only on the first matching event (default) or on every one.
    after:
        Ignore matching events before this virtual time (lets a journey
        skip warm-up formations).
    """

    event: str
    duration: float
    status: str | None = None
    delay: float = 0.0
    once: bool = True
    after: float = 0.0

    def __post_init__(self) -> None:
        if self.event not in TRIGGER_EVENTS:
            raise ValueError(
                f"unknown trigger event {self.event!r}; "
                f"known: {list(TRIGGER_EVENTS)}"
            )
        if self.duration <= 0:
            raise ValueError("trigger duration must be > 0")
        if self.delay < 0 or self.after < 0:
            raise ValueError("trigger delay/after must be >= 0")
        if self.event == "status_enter":
            if self.status not in TRIGGER_STATUSES:
                raise ValueError(
                    f"status_enter trigger needs status in "
                    f"{list(TRIGGER_STATUSES)}, got {self.status!r}"
                )
        elif self.status is not None:
            raise ValueError(
                f"{self.event!r} trigger takes no status, got {self.status!r}"
            )

    def matches(self, event: ProtocolEvent) -> bool:
        if event.time < self.after:
            return False
        if event.kind != self.event:
            return False
        if self.event == "status_enter":
            return event.detail == self.status
        return True

    def to_dict(self) -> dict[str, Any]:
        return {
            "event": self.event,
            "duration": self.duration,
            "status": self.status,
            "delay": self.delay,
            "once": self.once,
            "after": self.after,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> TriggerSpec:
        return cls(
            event=data["event"],
            duration=data["duration"],
            status=data.get("status"),
            delay=data.get("delay", 0.0),
            once=data.get("once", True),
            after=data.get("after", 0.0),
        )


@dataclass
class TriggeredFault:
    """One trigger-armed injector carried by a schedule."""

    trigger: TriggerSpec
    injector: FaultInjector
    #: how many times the trigger has fired this run
    fired: int = 0


#: Observer of window openings: (spec_kind, start, stop).
WindowObserver = Callable[[str, float, float], None]


@dataclass
class _ArmedTrigger:
    fault: TriggeredFault
    horizon: float | None = None


class ProtocolEventHub:
    """Normalize protocol events and arm triggered faults against them.

    Construction subscribes to the service's VS event recorder
    (:meth:`repro.membership.service.TokenRingVS.add_vs_listener`);
    :meth:`attach_runtime` additionally subscribes to the VStoTO
    runtime's status-edge feed — without it, ``status_enter`` triggers
    never fire (there is no VStoTO layer to observe).
    """

    def __init__(self, service: TokenRingVS) -> None:
        self.service = service
        self.simulator = service.simulator
        self.events: list[ProtocolEvent] = []
        self._armed: list[_ArmedTrigger] = []
        self._listeners: list[Callable[[ProtocolEvent], None]] = []
        self._window_observers: list[WindowObserver] = []
        self._view_members: dict[ProcId, frozenset[ProcId] | None] = {
            p: (service.initial_view.set if p in service.initial_view.set else None)
            for p in service.processors
        }
        service.add_vs_listener(self._on_vs_event)

    def attach_runtime(self, runtime: VStoTORuntime) -> None:
        runtime.add_status_listener(self._on_status_edge)

    # ------------------------------------------------------------------
    def add_listener(self, fn: Callable[[ProtocolEvent], None]) -> None:
        self._listeners.append(fn)

    def add_window_observer(self, fn: WindowObserver) -> None:
        """Called with (spec_kind, start, stop) when a triggered window
        opens — the coverage tracker rides on this."""
        self._window_observers.append(fn)

    def arm(self, fault: TriggeredFault, horizon: float | None = None) -> None:
        """Watch for ``fault.trigger`` and open its injector's window on
        a match; windows are clamped to ``horizon`` when given."""
        self._armed.append(_ArmedTrigger(fault, horizon))

    # ------------------------------------------------------------------
    # Feeds
    # ------------------------------------------------------------------
    def _on_vs_event(self, time: float, name: str, args: tuple) -> None:
        if name != "newview":
            return
        view, p = args
        self._dispatch(ProtocolEvent(time, "newview", p, str(view.id)))
        previous = self._view_members.get(p)
        if previous != view.set:
            self._view_members[p] = view.set
            self._dispatch(ProtocolEvent(time, "view_change", p, str(view.id)))

    def _on_status_edge(
        self, time: float, p: ProcId, old: str, new: str
    ) -> None:
        self._dispatch(ProtocolEvent(time, "status_enter", p, new))

    # ------------------------------------------------------------------
    def _dispatch(self, event: ProtocolEvent) -> None:
        self.events.append(event)
        for fn in self._listeners:
            fn(event)
        for armed in self._armed:
            fault = armed.fault
            if fault.trigger.once and fault.fired:
                continue
            if not fault.trigger.matches(event):
                continue
            self._open_window(fault, armed.horizon, event)

    def _open_window(
        self, fault: TriggeredFault, horizon: float | None, event: ProtocolEvent
    ) -> None:
        spec = fault.trigger
        start = event.time + spec.delay
        stop = start + spec.duration
        if horizon is not None:
            if start >= horizon:
                return  # past stabilisation: the nemesis is done
            stop = min(stop, horizon)
        if stop <= start:
            return
        fault.fired += 1
        injector = fault.injector
        self.simulator.schedule_at(start, lambda: injector.start(stop))
        self.simulator.schedule_at(stop, injector.stop)
        for fn in self._window_observers:
            fn(injector.SPEC_KIND, start, stop)
