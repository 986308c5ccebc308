"""Fault schedules: composable timed windows of nemesis activity.

A :class:`FaultSchedule` is a list of ``(start, stop, injector)``
windows.  Installing it on a running
:class:`~repro.membership.service.TokenRingVS` binds every injector
(registering packet interceptors, etc.) and schedules the window
open/close events on the service's simulator.  The same injector may
appear in several windows; different injectors freely overlap, which is
what *composed* fault types means — e.g. token loss while a processor is
crashed and another's clock runs fast.

Beyond timed windows a schedule can carry *triggered* windows
(:meth:`FaultSchedule.add_triggered`): windows keyed to protocol events
— "when any member enters state exchange, drop the token" — which fire
through a :class:`~repro.faults.triggers.ProtocolEventHub` (the
scenario engine's event-trigger hook on ``ChaosRunner``).

Schedules serialize (:meth:`FaultSchedule.to_dict` /
:meth:`FaultSchedule.from_dict`): every injector's parameters
round-trip through JSON, which is what makes a shrunk violating
schedule a *file* that re-runs to the same verdict
(:mod:`repro.scenarios.shrink`).

:meth:`FaultSchedule.random` generates a seeded adversarial schedule
over a chosen set of fault kinds — the workhorse of the E18 chaos-soak
experiment (``benchmarks/bench_chaos_soak.py``).  Its randomness is a
plain builder-time :class:`random.Random`; the injectors it creates
draw their run-time randomness from per-injector registry streams.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections.abc import Hashable, Sequence
from typing import TYPE_CHECKING, Any

from repro.faults.injectors import (
    ChaosContext,
    CrashRestartInjector,
    FaultInjector,
    ForcedViolationInjector,
    PacketDelayInjector,
    PacketDuplicateInjector,
    PacketLossInjector,
    PacketReorderInjector,
    PartitionInjector,
    TimerSkewInjector,
    TokenLossInjector,
)
from repro.faults.triggers import (
    ProtocolEventHub,
    TriggeredFault,
    TriggerSpec,
)

if TYPE_CHECKING:
    from repro.membership.service import TokenRingVS

ProcId = Hashable

#: Every fault kind :meth:`FaultSchedule.random` knows how to build.
ALL_FAULT_KINDS = (
    "loss",
    "duplicate",
    "delay",
    "reorder",
    "token_loss",
    "crash_restart",
    "timer_skew",
)

#: Serialization vocabulary: spec kind → injector class.  Includes the
#: journey-only kinds (``partition``, ``forced_violation``) on top of
#: the random-generator kinds above.
SPEC_KINDS: dict[str, type[FaultInjector]] = {
    cls.SPEC_KIND: cls
    for cls in (
        PacketLossInjector,
        PacketDuplicateInjector,
        PacketDelayInjector,
        PacketReorderInjector,
        TokenLossInjector,
        CrashRestartInjector,
        TimerSkewInjector,
        PartitionInjector,
        ForcedViolationInjector,
    )
}


def injector_to_spec(injector: FaultInjector) -> dict[str, Any]:
    """The JSON-able description of one injector."""
    kind = injector.SPEC_KIND
    if kind not in SPEC_KINDS:
        raise ValueError(
            f"injector {type(injector).__name__} has no registered "
            f"spec kind; known: {sorted(SPEC_KINDS)}"
        )
    return {"kind": kind, "name": injector.name, **injector.params()}


def injector_from_spec(spec: dict[str, Any]) -> FaultInjector:
    """Rebuild an injector from :func:`injector_to_spec` output."""
    data = dict(spec)
    kind = data.pop("kind", None)
    if kind not in SPEC_KINDS:
        raise ValueError(
            f"unknown fault kind {kind!r}; known: {sorted(SPEC_KINDS)}"
        )
    name = data.pop("name")
    return SPEC_KINDS[kind].from_params(name, data)


@dataclass(frozen=True)
class FaultWindow:
    """One activation window of one injector.

    Construction validates the shape — a ``stop <= start`` window would
    otherwise schedule a close before (or at) its open and silently
    no-op, and a non-injector payload would fail only at install time,
    deep inside a simulator callback.
    """

    start: float
    stop: float
    injector: FaultInjector

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop <= self.start:
            raise ValueError(
                f"need 0 <= start < stop, got [{self.start}, {self.stop})"
            )
        if not isinstance(self.injector, FaultInjector):
            raise ValueError(
                f"window payload must be a FaultInjector, "
                f"got {type(self.injector).__name__}"
            )


class FaultSchedule:
    """An installable collection of fault windows.

    ``horizon`` optionally pins the stabilisation point explicitly —
    required when the schedule contains *only* triggered windows (whose
    open times are unknown until run time) and useful to leave settle
    room after the last timed window.
    """

    def __init__(self, horizon: float | None = None) -> None:
        if horizon is not None and horizon <= 0:
            raise ValueError(f"explicit horizon must be > 0, got {horizon}")
        self.windows: list[FaultWindow] = []
        self.triggered: list[TriggeredFault] = []
        self.explicit_horizon = horizon

    def add(
        self, injector: FaultInjector, start: float, stop: float
    ) -> FaultSchedule:
        self.windows.append(FaultWindow(start, stop, injector))
        return self

    def add_triggered(
        self, injector: FaultInjector, trigger: TriggerSpec
    ) -> FaultSchedule:
        """Attach a window that opens when ``trigger`` matches a
        protocol event (see :mod:`repro.faults.triggers`)."""
        if not isinstance(injector, FaultInjector):
            raise ValueError(
                f"triggered payload must be a FaultInjector, "
                f"got {type(injector).__name__}"
            )
        self.triggered.append(TriggeredFault(trigger, injector))
        return self

    @property
    def horizon(self) -> float:
        """When the last window closes — after this the nemesis is done
        and (given a final stable layout) the system must recover."""
        latest = max((w.stop for w in self.windows), default=0.0)
        if self.explicit_horizon is not None:
            latest = max(latest, self.explicit_horizon)
        return latest

    @property
    def injectors(self) -> list[FaultInjector]:
        """The distinct injectors, in first-appearance order (timed
        windows first, then triggered)."""
        seen: dict[int, FaultInjector] = {}
        for window in self.windows:
            seen.setdefault(id(window.injector), window.injector)
        for fault in self.triggered:
            seen.setdefault(id(fault.injector), fault.injector)
        return list(seen.values())

    @property
    def fault_kinds(self) -> tuple[str, ...]:
        """Sorted distinct injector class names (the composition width)."""
        return tuple(sorted({i.kind for i in self.injectors}))

    def install(
        self, service: TokenRingVS, hub: ProtocolEventHub | None = None
    ) -> ChaosContext:
        """Bind injectors to ``service`` and schedule every window.

        Triggered windows need a :class:`ProtocolEventHub` to observe
        protocol events; installing a schedule that has them without one
        is an error (the windows would silently never open).
        """
        if self.triggered and hub is None:
            raise ValueError(
                "schedule has triggered windows; pass a ProtocolEventHub "
                "(ChaosRunner wires one automatically)"
            )
        ctx = ChaosContext(service)
        for injector in self.injectors:
            injector.bind(ctx)
        for window in self.windows:
            service.simulator.schedule_at(
                window.start,
                lambda w=window: w.injector.start(w.stop),
            )
            service.simulator.schedule_at(
                window.stop, lambda w=window: w.injector.stop()
            )
        if hub is not None:
            horizon = self.horizon if (self.windows or self.explicit_horizon) else None
            for fault in self.triggered:
                hub.arm(fault, horizon)
        return ctx

    # ------------------------------------------------------------------
    # Serialization (scenario files, the shrinker's medium)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """A JSON-able description that :meth:`from_dict` inverts.

        Injector *sharing* is preserved: two windows driven by the same
        instance reference one spec (keyed by kind+name), so activation
        semantics survive the round trip.
        """
        return {
            "horizon": self.explicit_horizon,
            "windows": [
                {
                    "start": w.start,
                    "stop": w.stop,
                    "injector": injector_to_spec(w.injector),
                }
                for w in self.windows
            ],
            "triggered": [
                {
                    "trigger": fault.trigger.to_dict(),
                    "injector": injector_to_spec(fault.injector),
                }
                for fault in self.triggered
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> FaultSchedule:
        schedule = cls(horizon=data.get("horizon"))
        instances: dict[tuple[str, str], FaultInjector] = {}

        def materialize(spec: dict[str, Any]) -> FaultInjector:
            key = (str(spec.get("kind")), str(spec.get("name")))
            if key not in instances:
                instances[key] = injector_from_spec(spec)
            return instances[key]

        for window in data.get("windows", ()):
            schedule.add(
                materialize(window["injector"]),
                window["start"],
                window["stop"],
            )
        for entry in data.get("triggered", ()):
            schedule.add_triggered(
                materialize(entry["injector"]),
                TriggerSpec.from_dict(entry["trigger"]),
            )
        return schedule

    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        seed: int,
        processors: Sequence[ProcId],
        horizon: float = 400.0,
        intensity: float = 0.5,
        kinds: Sequence[str] | None = None,
        windows_per_kind: int = 2,
    ) -> FaultSchedule:
        """A seeded adversarial schedule composing the given ``kinds``.

        ``intensity`` in (0, 1] scales fault rates and outage lengths.
        Windows start no earlier than a short warm-up and all close by
        ``horizon``; kinds overlap freely.
        """
        if not 0 < intensity <= 1:
            raise ValueError("intensity must lie in (0, 1]")
        kinds = tuple(kinds if kinds is not None else ALL_FAULT_KINDS)
        unknown = set(kinds) - set(ALL_FAULT_KINDS)
        if unknown:
            raise ValueError(f"unknown fault kinds: {sorted(unknown)}")
        rng = random.Random(seed)
        schedule = cls()
        warmup = min(25.0, 0.1 * horizon)
        index = 0
        for kind in kinds:
            for _ in range(1 + rng.randrange(max(1, windows_per_kind))):
                start = rng.uniform(warmup, 0.75 * horizon)
                stop = min(
                    start + rng.uniform(0.1, 0.35) * horizon, horizon
                )
                injector = cls._make_injector(
                    kind, f"{kind}#{index}", rng, processors, intensity
                )
                schedule.add(injector, start, stop)
                index += 1
        return schedule

    @staticmethod
    def _make_injector(
        kind: str,
        name: str,
        rng: random.Random,
        processors: Sequence[ProcId],
        intensity: float,
    ) -> FaultInjector:
        if kind == "loss":
            return PacketLossInjector(
                name, rate=intensity * rng.uniform(0.05, 0.3)
            )
        if kind == "duplicate":
            return PacketDuplicateInjector(
                name,
                rate=intensity * rng.uniform(0.1, 0.5),
                extra_delay=rng.uniform(2.0, 10.0),
            )
        if kind == "delay":
            return PacketDelayInjector(
                name,
                rate=intensity * rng.uniform(0.2, 0.6),
                jitter=rng.uniform(2.0, 12.0),
            )
        if kind == "reorder":
            return PacketReorderInjector(
                name,
                rate=intensity * rng.uniform(0.1, 0.4),
                hold_min=2.0,
                hold_max=rng.uniform(4.0, 10.0),
            )
        if kind == "token_loss":
            return TokenLossInjector(
                name, rate=intensity * rng.uniform(0.1, 0.5)
            )
        if kind == "crash_restart":
            return CrashRestartInjector(
                name,
                min_down=10.0,
                max_down=10.0 + intensity * 60.0,
                targets=tuple(processors),
            )
        if kind == "timer_skew":
            low = 1.0 - 0.4 * intensity
            high = 1.0 + 0.8 * intensity
            return TimerSkewInjector(name, skew_min=low, skew_max=high)
        raise ValueError(f"unknown fault kind {kind!r}")
