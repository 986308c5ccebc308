"""The scenario DSL: named, serializable fault journeys.

A :class:`ScenarioSpec` is a complete, declarative description of one
directed chaos experiment: processor count, seed, workload size, settle
time, and a serialized :class:`~repro.faults.FaultSchedule` (timed
windows plus protocol-event-triggered windows).  Specs round-trip
through JSON (:meth:`ScenarioSpec.save` / :meth:`ScenarioSpec.load`), so
a journey, a shrunk minimal reproduction, and a CI artifact are all the
same kind of file.

The built-in journeys (:data:`JOURNEYS`) are the directed counterparts
of the paper's interesting interleavings:

- ``majority_split`` — one windowed partition into a quorum side and a
  minority side, then heal (Fig. 6 view-change edges, primary and
  non-primary installations);
- ``flapping_link`` — a link that drops everything in short repeated
  bursts (spurious formations, Fig. 8 recovery edges);
- ``cascade`` — a sequence of deepening partitions, each reshaping
  membership before the last formation settled;
- ``crash_during_state_exchange`` — a partition forces a re-formation,
  and the moment any member enters state exchange (status ``collect``,
  Fig. 9) a processor is crash-restarted;
- ``token_loss_during_view_change`` — total token loss opens the moment
  a new view is installed, stalling the ring's liveness core mid
  transition;
- ``timer_skew_storm`` — overlapping fast and slow clock windows plus
  background loss (spurious watchdog formations under degraded links);
- ``split_ladder`` / ``heal_ladder`` — staged partitions that walk the
  view-size lattice edge by edge (peel to singletons; regrow through
  pairs, a pair swap, and a rotated near-full quorum), so every
  cardinality transition and same-size shift in the Figs. 8–10 view
  graph is visited *deterministically* rather than sampled.

Journeys that need a *protocol-state* cue embed a partition window to
force the view change, then hang a triggered window off the resulting
``status_enter``/``newview`` event — wall-clock guessing is exactly
what the trigger hook exists to avoid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from collections.abc import Callable, Hashable, Sequence
from typing import Any

from repro.faults import (
    CrashRestartInjector,
    FaultSchedule,
    PacketLossInjector,
    PartitionInjector,
    TimerSkewInjector,
    TokenLossInjector,
    TriggerSpec,
    majority_split,
)
from repro.faults.chaos import ChaosReport, ChaosRunner

ProcId = Hashable


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, serializable scenario."""

    name: str
    #: serialized :class:`FaultSchedule` (``FaultSchedule.to_dict()``)
    schedule: dict[str, Any]
    #: processor count; the run uses ids ``1..processors``
    processors: int = 5
    seed: int = 0
    #: client values submitted before the horizon
    sends: int = 8
    #: extra virtual time after stabilisation for recovery
    settle: float = 400.0
    description: str = ""

    def __post_init__(self) -> None:
        if self.processors < 1:
            raise ValueError("scenario needs at least one processor")
        if self.sends < 0 or self.settle < 0:
            raise ValueError("sends/settle must be >= 0")
        # Validate the schedule eagerly: a bad scenario file should fail
        # at load time with a clear error, not mid-run.
        self.build_schedule()

    @property
    def proc_ids(self) -> tuple[int, ...]:
        return tuple(range(1, self.processors + 1))

    def build_schedule(self) -> FaultSchedule:
        """A fresh :class:`FaultSchedule` (injectors bind once, so every
        run — and every shrink candidate — gets its own instances)."""
        return FaultSchedule.from_dict(self.schedule)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "processors": self.processors,
            "seed": self.seed,
            "sends": self.sends,
            "settle": self.settle,
            "schedule": self.schedule,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> ScenarioSpec:
        return cls(
            name=data["name"],
            schedule=data["schedule"],
            processors=data.get("processors", 5),
            seed=data.get("seed", 0),
            sends=data.get("sends", 8),
            settle=data.get("settle", 400.0),
            description=data.get("description", ""),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )

    @classmethod
    def load(cls, path: str | Path) -> ScenarioSpec:
        return cls.from_dict(json.loads(Path(path).read_text()))

    def with_schedule(self, schedule: dict[str, Any]) -> ScenarioSpec:
        return replace(self, schedule=schedule)


@dataclass
class ScenarioOutcome:
    """One scenario run: the spec, the full chaos report, the verdict."""

    spec: ScenarioSpec
    report: ChaosReport
    verdict: str = field(init=False)

    def __post_init__(self) -> None:
        self.verdict = verdict_of(self.report)


def verdict_of(report: ChaosReport) -> str:
    """The failure class of a run — what the shrinker must preserve.

    ``violation`` (VS-level, including forced ones) dominates
    ``to_failure`` (TO trace check), which dominates ``incomplete``
    (values not delivered everywhere after settle); a clean run is
    ``ok``.
    """
    if report.violations:
        return "violation"
    if not report.to_ok:
        return "to_failure"
    if not report.delivered_complete:
        return "incomplete"
    return "ok"


def run_scenario(spec: ScenarioSpec) -> ScenarioOutcome:
    """Execute one scenario end-to-end under the full chaos harness
    (online VS monitor, TO trace check, coverage tracking)."""
    runner = ChaosRunner(
        spec.proc_ids,
        spec.build_schedule(),
        seed=spec.seed,
        sends=spec.sends,
        settle=spec.settle,
    )
    return ScenarioOutcome(spec=spec, report=runner.run())


# ----------------------------------------------------------------------
# Built-in journeys
# ----------------------------------------------------------------------
JourneyBuilder = Callable[[tuple[int, ...], int], ScenarioSpec]


def _spec(
    name: str,
    description: str,
    procs: tuple[int, ...],
    seed: int,
    schedule: FaultSchedule,
) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"{name}@{seed}",
        description=description,
        processors=len(procs),
        seed=seed,
        schedule=schedule.to_dict(),
    )


def _majority_split(procs: tuple[int, ...], seed: int) -> ScenarioSpec:
    schedule = FaultSchedule(horizon=200.0)
    schedule.add(
        PartitionInjector("split", groups=majority_split(procs)),
        40.0,
        120.0,
    )
    return _spec(
        "majority_split",
        "quorum/minority partition for 80 time units, then heal",
        procs,
        seed,
        schedule,
    )


def _flapping_link(procs: tuple[int, ...], seed: int) -> ScenarioSpec:
    a, b = procs[0], procs[1]
    schedule = FaultSchedule(horizon=200.0)
    flap = PacketLossInjector("flap", rate=1.0, links=((a, b), (b, a)))
    for start in (40.0, 64.0, 88.0, 112.0):
        schedule.add(flap, start, start + 12.0)
    return _spec(
        "flapping_link",
        f"link {a}<->{b} drops everything in four 12-unit bursts",
        procs,
        seed,
        schedule,
    )


def _cascade(procs: tuple[int, ...], seed: int) -> ScenarioSpec:
    schedule = FaultSchedule(horizon=220.0)
    for i, (start, stop) in enumerate(
        ((40.0, 88.0), (92.0, 140.0), (144.0, 180.0)), start=1
    ):
        depth = min(i, len(procs) - 1)
        schedule.add(
            PartitionInjector(
                f"cut{i}",
                groups=[list(procs[:depth]), list(procs[depth:])],
            ),
            start,
            stop,
        )
    return _spec(
        "cascade",
        "three successive partitions, each reshaping membership "
        "before the previous formation settled",
        procs,
        seed,
        schedule,
    )


def _crash_during_state_exchange(
    procs: tuple[int, ...], seed: int
) -> ScenarioSpec:
    schedule = FaultSchedule(horizon=200.0)
    schedule.add(
        PartitionInjector("warm-split", groups=majority_split(procs)),
        40.0,
        80.0,
    )
    schedule.add_triggered(
        CrashRestartInjector(
            "crash-se", min_down=20.0, max_down=20.0, targets=procs
        ),
        TriggerSpec(
            event="status_enter", status="collect", duration=25.0, after=38.0
        ),
    )
    return _spec(
        "crash_during_state_exchange",
        "partition forces a re-formation; the moment any member enters "
        "state exchange (status collect) a processor crash-restarts",
        procs,
        seed,
        schedule,
    )


def _token_loss_during_view_change(
    procs: tuple[int, ...], seed: int
) -> ScenarioSpec:
    schedule = FaultSchedule(horizon=200.0)
    schedule.add(
        PartitionInjector("vc-split", groups=majority_split(procs)),
        40.0,
        80.0,
    )
    schedule.add_triggered(
        TokenLossInjector("tl-vc", rate=1.0),
        TriggerSpec(event="newview", duration=30.0, after=42.0),
    )
    return _spec(
        "token_loss_during_view_change",
        "total token loss opens the moment a new view is installed",
        procs,
        seed,
        schedule,
    )


#: one ladder stage: long enough for detection (π) plus formation (μ)
#: at the default ring timings, with a 1-unit gap so a stage's heal
#: never races the next stage's cut at the same timestamp.
_STAGE = 60.0
_GAP = 1.0


def _staged(
    schedule: FaultSchedule,
    name: str,
    stages: Sequence[Sequence[Sequence[int]]],
) -> float:
    """Install consecutive partition stages; returns the last stop."""
    start = 40.0
    stop = start
    for i, groups in enumerate(stages, start=1):
        stop = start + _STAGE
        schedule.add(
            PartitionInjector(
                f"{name}{i}", groups=[list(g) for g in groups]
            ),
            start,
            stop,
        )
        start = stop + _GAP
    return stop


def _split_ladder(procs: tuple[int, ...], seed: int) -> ScenarioSpec:
    """Peel one processor off per stage: n -> n-1 -> ... -> 1, heal.

    Walks the shrink half of the view-size lattice edge by edge — every
    ``k -> k-1`` installation plus the singleton drops — deterministic
    coverage of transitions random churn only samples."""
    n = len(procs)
    stages = [
        [procs[: n - k]] + [(p,) for p in procs[n - k :]]
        for k in range(1, n)
    ]
    schedule = FaultSchedule()
    last = _staged(schedule, "peel", stages)
    schedule.explicit_horizon = last + 80.0
    return _spec(
        "split_ladder",
        "peel one processor per stage down to singletons, then heal",
        procs,
        seed,
        schedule,
    )


def _heal_ladder(procs: tuple[int, ...], seed: int) -> ScenarioSpec:
    """Reassemble from singletons: a triple, pairs, shifted pairs, an
    n-1 group, a rotated n-1 group, then full heal.

    The grow half of the lattice plus the same-size ``shift``
    reconfigurations (pair swap, quorum rotation) that need two
    disjoint same-cardinality memberships in a row."""
    n = len(procs)
    singles = [(p,) for p in procs]
    triple = [procs[:3]] + [(p,) for p in procs[3:]]
    pairs = [procs[i : i + 2] for i in range(0, n - 1, 2)]
    if n % 2:
        pairs.append((procs[-1],))
    stages: list[list[Sequence[int]]] = [singles, triple, pairs]
    if n >= 4:
        # Swap pair partners: every pair member sees a same-size,
        # different-set installation (shift:non_primary).
        swapped = [(procs[0], procs[2]), (procs[1], procs[3])]
        swapped += [
            (p,) for p in procs[4:]
        ]
        stages.append(swapped)
    stages.append([procs[:-1], (procs[-1],)])
    stages.append([procs[1:], (procs[0],)])
    schedule = FaultSchedule()
    last = _staged(schedule, "join", stages)
    schedule.explicit_horizon = last + 80.0
    return _spec(
        "heal_ladder",
        "regrow from singletons through a triple, pairs, a pair swap, "
        "and a rotated near-full quorum, then heal",
        procs,
        seed,
        schedule,
    )


def _timer_skew_storm(procs: tuple[int, ...], seed: int) -> ScenarioSpec:
    schedule = FaultSchedule(horizon=200.0)
    schedule.add(
        TimerSkewInjector("skew-fast", skew_min=0.5, skew_max=0.7),
        40.0,
        120.0,
    )
    schedule.add(
        TimerSkewInjector("skew-slow", skew_min=1.4, skew_max=1.8),
        60.0,
        140.0,
    )
    schedule.add(PacketLossInjector("storm-loss", rate=0.1), 50.0, 130.0)
    return _spec(
        "timer_skew_storm",
        "overlapping fast and slow clock windows over lossy links",
        procs,
        seed,
        schedule,
    )


#: name -> builder for every built-in journey.
JOURNEYS: dict[str, JourneyBuilder] = {
    "majority_split": _majority_split,
    "flapping_link": _flapping_link,
    "cascade": _cascade,
    "crash_during_state_exchange": _crash_during_state_exchange,
    "token_loss_during_view_change": _token_loss_during_view_change,
    "timer_skew_storm": _timer_skew_storm,
    "split_ladder": _split_ladder,
    "heal_ladder": _heal_ladder,
}


def build_journey(
    name: str, *, processors: int = 5, seed: int = 0
) -> ScenarioSpec:
    """Instantiate a built-in journey for a processor count and seed."""
    if name not in JOURNEYS:
        raise ValueError(
            f"unknown journey {name!r}; known: {sorted(JOURNEYS)}"
        )
    if processors < 3:
        raise ValueError("journeys need at least 3 processors")
    return JOURNEYS[name](tuple(range(1, processors + 1)), seed)


def journey_suite(
    *, processors: int = 5, seeds: Sequence[int] = (0,)
) -> list[ScenarioSpec]:
    """Every journey at every seed — the E23 directed suite."""
    return [
        build_journey(name, processors=processors, seed=seed)
        for name in sorted(JOURNEYS)
        for seed in seeds
    ]
