"""Reusable experiment sweeps — the measured content behind
EXPERIMENTS.md, callable outside pytest (see :mod:`repro.report`).

Each function returns ``(headers, rows)`` ready for
:func:`repro.analysis.stats.format_table`.  The pytest benches under
``benchmarks/`` run richer versions of the same sweeps with assertions;
these are the compact, user-runnable forms.

The seeded sweeps accept ``workers=N`` to fan individual runs out over
worker processes via :mod:`repro.parallel`; rows come back in the same
deterministic order as the sequential loop regardless of worker count.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.parallel import parallel_map

from repro.analysis.stats import summarize
from repro.apps.baselines import StableStorageBroadcast
from repro.apps.totalorder import TotalOrderBroadcast
from repro.core.quorums import MajorityQuorumSystem
from repro.core.vstoto.process import is_summary
from repro.core.vstoto.runtime import VStoTORuntime
from repro.membership.bounds import VSBounds
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from repro.faults.schedule import FaultSchedule
from repro.obs.live.stitch import stitch_sim

Row = Sequence[object]
Table = tuple[Sequence[str], list[Row]]


_STABILIZATION_CONFIGS = (
    (2, 1.0, 10.0, 30.0),
    (3, 1.0, 10.0, 30.0),
    (5, 1.0, 10.0, 30.0),
    (3, 1.0, 20.0, 30.0),
)


def _stabilization_cell(item: tuple) -> float:
    """One (config, seed) split-stabilisation measurement: l′, ``inf``
    for a run that never stabilised (module-level so it pickles into
    worker processes)."""
    n, delta, pi, mu, seed = item
    processors = tuple(range(1, n + 3))
    group = processors[:n]
    vs = TokenRingVS(
        processors, RingConfig(delta=delta, pi=pi, mu=mu), seed=seed
    )
    FaultSchedule().add_layout(60.0, [list(group), list(processors[n:])]).install(vs)
    vs.run_until(60.0 + 30 * max(pi, mu))
    return stitch_sim(vs).tracer.timeline(group, 60.0).alpha1_length


def stabilization_table(
    seeds: Sequence[int] = (0, 1, 2), workers: int = 1
) -> Table:
    """E5: split stabilisation l' vs b across (n, δ, π, μ)."""
    headers = ["n", "delta", "pi", "mu", "b(paper)", "measured", "ratio"]
    cells = [
        (n, delta, pi, mu, seed)
        for n, delta, pi, mu in _STABILIZATION_CONFIGS
        for seed in seeds
    ]
    measured = parallel_map(_stabilization_cell, cells, workers=workers)
    rows: list[Row] = []
    for index, (n, delta, pi, mu) in enumerate(_STABILIZATION_CONFIGS):
        bound = VSBounds(delta, pi, mu).b(n)
        worst = max(
            measured[index * len(seeds) : (index + 1) * len(seeds)],
            default=0.0,
        )
        rows.append([n, delta, pi, mu, bound, worst, worst / bound])
    return headers, rows


def latency_table(work_conserving: bool = False) -> Table:
    """E6: safe latency vs d = 2π + nδ."""
    headers = ["n", "delta", "pi", "d(paper)", "d(impl)", "mean", "max"]
    rows: list[Row] = []
    for n, delta, pi in (
        (3, 1.0, 10.0),
        (5, 1.0, 10.0),
        (5, 1.0, 20.0),
        (8, 1.0, 10.0),
    ):
        processors = tuple(range(1, n + 1))
        vs = TokenRingVS(
            processors,
            RingConfig(
                delta=delta, pi=pi, mu=1000.0, work_conserving=work_conserving
            ),
            seed=0,
        )
        spacing = (2 * pi + n * delta) / 3.0
        sends = 20
        for i in range(sends):
            vs.schedule_send(5.0 + spacing * i, processors[i % n], f"m{i}")
        vs.run_until(5.0 + spacing * sends + 20 * pi)
        samples = stitch_sim(vs).tracer.safe_latencies(
            vs.initial_view.id, processors
        )
        summary = summarize(safe - sent for sent, safe in samples)
        bounds = VSBounds(delta, pi, 1000.0)
        rows.append(
            [
                n,
                delta,
                pi,
                bounds.d(n),
                bounds.d_impl(n, work_conserving),
                summary.mean,
                summary.max,
            ]
        )
    return headers, rows


def _full_stack(
    n: int, seed: int
) -> tuple[tuple[int, ...], TokenRingVS, VStoTORuntime]:
    processors = tuple(range(1, n + 1))
    service = TokenRingVS(
        processors,
        RingConfig(delta=1.0, pi=10.0, mu=30.0, work_conserving=True),
        seed=seed,
    )
    runtime = VStoTORuntime(service, MajorityQuorumSystem(processors))
    return processors, service, runtime


def _split_heal_run(seed: int) -> tuple[tuple[int, ...], TokenRingVS]:
    """n = 5 under load, split {1,2,3}|{4,5} at 40 and healed at 300."""
    processors, service, runtime = _full_stack(5, seed)
    (
        FaultSchedule()
        .add_layout(40.0, [[1, 2, 3], [4, 5]])
        .add_layout(300.0, [[1, 2, 3, 4, 5]])
        .install(service)
    )
    for i in range(10):
        runtime.schedule_broadcast(10.0 + 23.0 * i, processors[i % 5], i)
    runtime.start()
    runtime.run_until(800.0)
    return processors, service


def _end_to_end_row(item: tuple) -> Row:
    n, seed = item
    processors, service, runtime = _full_stack(n, seed)
    for i in range(15):
        runtime.schedule_broadcast(20.0 + 18.0 * i, processors[i % n], f"e{i}")
    runtime.start()
    runtime.run_until(600.0)
    samples = stitch_sim(service).tracer.delivery_latencies(processors)
    summary = summarize(done - sent for sent, done in samples)
    return [n, seed, summary.mean, summary.p95, summary.max]


def end_to_end_table(seeds: Sequence[int] = (0, 1), workers: int = 1) -> Table:
    """E7: steady-state bcast→all-delivered latency on the full stack."""
    headers = ["n", "seed", "mean", "p95", "max"]
    cells = [(n, seed) for n in (3, 5) for seed in seeds]
    rows: list[Row] = parallel_map(_end_to_end_row, cells, workers=workers)
    return headers, rows


def baseline_table(sigmas: Sequence[float] = (2.0, 5.0, 10.0)) -> Table:
    """E8: VStoTO vs the stable-storage-first baseline."""
    headers = ["sigma", "vstoto mean", "baseline mean", "gap"]
    processors = (1, 2, 3, 4, 5)
    config = RingConfig(delta=1.0, pi=10.0, mu=30.0, work_conserving=True)

    tob = TotalOrderBroadcast(processors, config=config, seed=3)
    for i in range(12):
        tob.schedule_broadcast(10.0 + 15 * i, processors[i % 5], f"v{i}")
    tob.run_until(600.0)
    plain = summarize(
        done - sent
        for sent, done in stitch_sim(tob.vs).tracer.delivery_latencies(processors)
    )

    rows: list[Row] = []
    for sigma in sigmas:
        ssb = StableStorageBroadcast(
            processors, storage_latency=sigma, config=config, seed=3
        )
        submit = {}
        for i in range(12):
            submit[f"v{i}"] = 10.0 + 15 * i
            ssb.schedule_broadcast(submit[f"v{i}"], processors[i % 5], f"v{i}")
        ssb.run_until(800.0)
        per_value: dict = {}
        for delivery in ssb.logged_deliveries:
            per_value.setdefault(delivery.value, []).append(delivery.time)
        latencies = [
            max(times) - submit[value] for value, times in per_value.items()
        ]
        logged = summarize(latencies)
        rows.append([sigma, plain.mean, logged.mean, logged.mean - plain.mean])
    return headers, rows


def _timeline_row(seed: int) -> Row:
    bounds = VSBounds(1.0, 10.0, 30.0)
    processors, service = _split_heal_run(seed)
    timeline = stitch_sim(service).tracer.timeline(processors, 300.0, is_summary)
    return [
        seed,
        timeline.alpha1_length,
        bounds.b(5),
        timeline.alpha3_length,
        timeline.total_stabilization,
        bounds.b(5) + bounds.d_impl(5, True),
    ]


def timeline_table(seeds: Sequence[int] = (0, 1, 2), workers: int = 1) -> Table:
    """E12: the Figure 12 decomposition."""
    headers = ["seed", "alpha1", "b", "alpha3", "total", "b+d"]
    rows: list[Row] = parallel_map(_timeline_row, list(seeds), workers=workers)
    return headers, rows


def observability_table(seeds: Sequence[int] = (0, 1, 2)) -> Table:
    """E19: the spans stitched from the recorded events of the E12
    execution (``tests/obs/test_sim_parity.py`` pins them to the spans
    the retired in-run tracer built)."""
    headers = ["seed", "msg spans", "views", "unmatched", "l'", "deliv mean"]
    rows: list[Row] = []
    for seed in seeds:
        processors, service = _split_heal_run(seed)
        tracer = stitch_sim(service).tracer
        deliveries = tracer.delivery_latencies(processors)
        rows.append(
            [
                seed,
                len(tracer.message_spans),
                len(tracer.view_spans),
                tracer.unmatched_events,
                round(tracer.timeline(processors, 300.0).alpha1_length, 4),
                round(summarize(done - sent for sent, done in deliveries).mean, 4),
            ]
        )
    return headers, rows


def chaos_table(seeds: Sequence[int] = (0, 1, 2, 3), workers: int = 1) -> Table:
    """E18: compact chaos soak — composed nemesis, safety verdicts and
    structured drop accounting (full sweep: ``bench_chaos_soak.py``)."""
    from repro.faults import run_chaos_many

    headers = [
        "seed",
        "kinds",
        "safe",
        "recovered",
        "bad@send",
        "ugly",
        "in-flight",
        "injected",
        "drops(total)",
        "restarts",
        "dups",
        "retransmits",
        "recovery",
    ]
    rows: list[Row] = []
    reports = run_chaos_many(
        (1, 2, 3, 4, 5),
        list(seeds),
        workers=workers,
        horizon=300.0,
        intensity=0.7,
        sends=12,
        settle=700.0,
    )
    for seed, report in zip(seeds, reports):
        rows.append(
            [
                seed,
                len(report.fault_kinds),
                "yes" if report.safety_ok else "NO",
                "yes" if report.delivered_complete else "NO",
                report.drops["bad_at_send"],
                report.drops["ugly_loss"],
                report.drops["bad_in_flight"],
                report.drops["injected"],
                report.drops_total,
                report.stats["restarts"],
                report.stats["duplicates_suppressed"],
                report.stats["retransmissions"],
                round(report.recovery_time, 1),
            ]
        )
    return headers, rows
