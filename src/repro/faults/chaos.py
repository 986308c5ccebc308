""":class:`ChaosRunner` — the full stack under a nemesis, continuously
verified.

One run drives VStoTO over the token ring while a
:class:`~repro.faults.schedule.FaultSchedule` perturbs packets, crashes
and restarts processors and skews timers; throughout, the online VS
conformance monitor (:class:`repro.core.monitor.OnlineVSMonitor`)
watches every VS event, and at the end the TO-level trace is checked
against TO-machine.  After the last fault window closes, a stable
whole-group layout is installed and the run continues for a settle
period; the report records

- safety: VS violations (must be none) and the TO trace verdict;
- recovery: whether every submitted value was delivered everywhere
  after the final stable epoch, and how long past stabilisation the
  last newview/delivery happened (compared to the paper's b and b+d);
- diagnostics: per-reason drop counters, dedup/retransmission/restart
  counts, message totals.

This is experiment E18 (``benchmarks/bench_chaos_soak.py``); a compact
form is surfaced by ``python -m repro.report``.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from collections.abc import Hashable, Iterable, Sequence
from typing import TYPE_CHECKING, Any

from repro.core.monitor import OnlineVSMonitor
from repro.core.quorums import MajorityQuorumSystem, QuorumSystem
from repro.core.to_spec import TO_EXTERNAL, check_to_trace
from repro.core.vstoto.runtime import VStoTORuntime
from repro.faults.injectors import ChaosContext
from repro.faults.schedule import FaultSchedule
from repro.faults.triggers import ProtocolEventHub
from repro.membership.bounds import VSBounds
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS

if TYPE_CHECKING:
    from repro.parallel import RunEnvelope

ProcId = Hashable


@dataclass
class ChaosReport:
    """The outcome of one chaos run."""

    seed: int
    fault_kinds: tuple[str, ...]
    sends: int
    #: VS-level conformance violations seen by the online monitor.
    violations: list[str] = field(default_factory=list)
    to_ok: bool = True
    to_reason: str = ""
    #: every submitted value delivered at every processor, identically.
    delivered_complete: bool = False
    #: when the last fault window closed / the stable layout began.
    stabilization_time: float = 0.0
    #: last newview or client delivery, relative to stabilisation
    #: (how long the system needed to re-form and reconcile).
    recovery_time: float = 0.0
    #: the paper's TO-level bound b + d for the final full group —
    #: context for recovery_time (reconciliation of a backlog may
    #: legitimately take several deliver rounds on top).
    bound_to_b: float = 0.0
    drops: dict[str, int] = field(default_factory=dict)
    #: aggregate drop count straight from the channels — the per-reason
    #: breakdown in ``drops`` must sum to exactly this.
    drops_total: int = 0
    stats: dict[str, Any] = field(default_factory=dict)
    #: protocol-state coverage of the run (see
    #: :class:`repro.scenarios.coverage.CoverageReport`): VStoTO
    #: statuses, status edges, view-transition edges, fault×status
    #: pairs.  JSON-shaped; merged across sweeps with
    #: :func:`repro.parallel.merge_coverage_dicts`.
    coverage: dict[str, Any] = field(default_factory=dict)

    @property
    def safety_ok(self) -> bool:
        return not self.violations and self.to_ok

    @property
    def ok(self) -> bool:
        return self.safety_ok and self.delivered_complete


class ChaosRunner:
    """Build, perturb, verify: one seeded chaos-soak execution.

    Parameters
    ----------
    processors:
        The processor set.
    schedule:
        The nemesis.  Its :attr:`~FaultSchedule.horizon` defines the
        stabilisation point; after it the runner installs a stable
        whole-group partition and lets the system settle.
    seed:
        Master seed for the stack's RNG registry (channel delays,
        injector draws, traffic times — all separate streams).
    config:
        Ring timing; defaults to a hardened work-conserving config with
        bounded retransmission enabled.
    sends:
        Client values submitted at seeded times before the horizon.
    settle:
        Extra virtual time after stabilisation for recovery.
    """

    def __init__(
        self,
        processors: Iterable[ProcId],
        schedule: FaultSchedule,
        *,
        seed: int = 0,
        config: RingConfig | None = None,
        quorums: QuorumSystem | None = None,
        sends: int = 20,
        settle: float = 600.0,
    ) -> None:
        self.processors: tuple[ProcId, ...] = tuple(processors)
        self.schedule = schedule
        self.seed = seed
        self.config = config if config is not None else RingConfig(
            delta=1.0,
            pi=10.0,
            mu=30.0,
            work_conserving=True,
            retransmit_attempts=3,
        )
        self.sends = sends
        self.settle = settle
        self.service = TokenRingVS(self.processors, self.config, seed=seed)
        self.runtime = VStoTORuntime(
            self.service,
            quorums if quorums is not None else MajorityQuorumSystem(
                self.processors
            ),
        )
        # Permissive mode: record every violation instead of raising at
        # the first, so a failing run still yields a full report.
        self.monitor = OnlineVSMonitor(
            self.processors, self.service.initial_view, strict=False
        )
        self.monitor.attach(self.service)
        # Protocol-event hook: normalizes VS events and VStoTO status
        # edges so schedules can key windows to protocol state (the
        # scenario engine's triggered faults) and so coverage can be
        # tracked.  Both are pure observers — no RNG, no scheduled
        # events unless a trigger actually fires.
        self.hub = ProtocolEventHub(self.service)
        self.hub.attach_runtime(self.runtime)
        # Imported lazily: repro.scenarios sits above repro.faults.
        from repro.scenarios.coverage import CoverageTracker

        self.coverage = CoverageTracker(self.runtime)
        self.hub.add_window_observer(self.coverage.note_triggered_window)
        self.ctx: ChaosContext | None = None

    # ------------------------------------------------------------------
    def run(self) -> ChaosReport:
        stabilization = self.schedule.horizon
        self.ctx = self.schedule.install(self.service, hub=self.hub)
        for window in self.schedule.windows:
            self.coverage.note_window(
                window.injector.SPEC_KIND, window.start, window.stop
            )
        # The conditional properties quantify over executions that
        # stabilise: end with a stable whole-group layout.  (This also
        # clears any lingering ugly/bad statuses the nemesis left.)
        FaultSchedule().add_layout(stabilization, [self.processors]).install(
            self.service
        )
        traffic = self.service.rngs.stream("chaos:traffic")
        values = []
        for i in range(self.sends):
            p = self.processors[i % len(self.processors)]
            value = f"chaos{i}"
            values.append(value)
            self.runtime.schedule_broadcast(
                traffic.uniform(5.0, stabilization), p, value
            )
        self.runtime.start()
        self.runtime.run_until(stabilization + self.settle)
        return self._report(stabilization, values)

    # ------------------------------------------------------------------
    def _report(
        self, stabilization: float, values: Sequence[Any]
    ) -> ChaosReport:
        to_actions = [
            e.action
            for e in self.runtime.merged_trace().events
            if e.action.name in TO_EXTERNAL
        ]
        to_result = check_to_trace(to_actions, self.processors)
        reference = self.runtime.delivered_values(self.processors[0])
        complete = sorted(reference) == sorted(values) and all(
            self.runtime.delivered_values(p) == reference
            for p in self.processors[1:]
        )
        last_delivery = max(
            (d.time for d in self.runtime.deliveries), default=0.0
        )
        last_newview = max(
            (
                e.time
                for e in self.service.trace.events
                if e.action.name == "newview"
            ),
            default=0.0,
        )
        bounds = VSBounds(
            delta=self.config.delta, pi=self.config.pi, mu=self.config.mu
        )
        forced = list(self.ctx.forced_violations) if self.ctx else []
        return ChaosReport(
            seed=self.seed,
            fault_kinds=self.schedule.fault_kinds,
            sends=len(values),
            violations=list(self.monitor.violations) + forced,
            to_ok=to_result.ok,
            to_reason=to_result.reason,
            delivered_complete=complete,
            stabilization_time=stabilization,
            recovery_time=max(
                0.0, max(last_delivery, last_newview) - stabilization
            ),
            bound_to_b=bounds.to_b(len(self.processors)),
            drops=self.service.network.drop_stats(),
            drops_total=self.service.network.dropped_total(),
            stats=self.service.stats(),
            coverage=self.coverage.report().to_dict(),
        )


def run_chaos(
    processors: Iterable[ProcId],
    *,
    seed: int = 0,
    horizon: float = 400.0,
    intensity: float = 0.5,
    kinds: Sequence[str] | None = None,
    sends: int = 20,
    settle: float = 600.0,
    config: RingConfig | None = None,
) -> ChaosReport:
    """One-call convenience: random schedule + runner + run."""
    processors = tuple(processors)
    schedule = FaultSchedule.random(
        seed, processors, horizon=horizon, intensity=intensity, kinds=kinds
    )
    runner = ChaosRunner(
        processors,
        schedule,
        seed=seed,
        sends=sends,
        settle=settle,
        config=config,
    )
    return runner.run()


# ----------------------------------------------------------------------
# Parallel multi-seed soaking (repro.parallel)
# ----------------------------------------------------------------------
def _chaos_envelope_worker(
    seed: int,
    *,
    processors: tuple[ProcId, ...],
    horizon: float,
    intensity: float,
    kinds: Sequence[str] | None,
    sends: int,
    settle: float,
    config: RingConfig | None,
) -> RunEnvelope:
    """One seeded chaos run wrapped in a RunEnvelope (module-level so it
    pickles into worker processes)."""
    from repro.parallel import make_envelope

    # Host wall-clock of the whole run, reported in the envelope for
    # operators; it never feeds simulation state, traces, or digests.
    t0 = time.perf_counter()  # repro-lint: ignore[DET002] -- operator wall-clock
    report = run_chaos(
        processors,
        seed=seed,
        horizon=horizon,
        intensity=intensity,
        kinds=kinds,
        sends=sends,
        settle=settle,
        config=config,
    )
    return make_envelope(
        seed,
        report,
        ok=report.ok,
        stats=report.stats,
        violations=report.violations,
        coverage=report.coverage,
        wall_s=time.perf_counter() - t0,  # repro-lint: ignore[DET002] -- operator wall-clock
    )


def run_chaos_sweep(
    processors: Iterable[ProcId],
    seeds: Sequence[int],
    *,
    workers: int = 1,
    horizon: float = 400.0,
    intensity: float = 0.5,
    kinds: Sequence[str] | None = None,
    sends: int = 20,
    settle: float = 600.0,
    config: RingConfig | None = None,
) -> list[RunEnvelope]:
    """Run :func:`run_chaos` for every seed, optionally across worker
    processes, returning :class:`repro.parallel.RunEnvelope` objects in
    seed order.  The merged result is identical to the sequential loop
    (``workers=1``) by construction; the envelopes' digests make that
    checkable."""
    from repro.parallel import run_seed_sweep

    worker = functools.partial(
        _chaos_envelope_worker,
        processors=tuple(processors),
        horizon=horizon,
        intensity=intensity,
        kinds=tuple(kinds) if kinds is not None else None,
        sends=sends,
        settle=settle,
        config=config,
    )
    return run_seed_sweep(worker, seeds, workers=workers)


def run_chaos_many(
    processors: Iterable[ProcId],
    seeds: Sequence[int],
    *,
    workers: int = 1,
    **kwargs: Any,
) -> list[ChaosReport]:
    """Seed-ordered chaos reports, fanned out over ``workers`` processes
    (see :func:`run_chaos_sweep` for the keyword knobs)."""
    return [
        env.result
        for env in run_chaos_sweep(processors, seeds, workers=workers, **kwargs)
    ]
