"""Reusable experiment sweeps — the measured content behind
EXPERIMENTS.md, callable outside pytest (see :mod:`repro.report`).

Each ``*_table`` function returns ``(headers, rows)`` ready for
:func:`repro.analysis.stats.format_table`.  The runs under them are
public — :func:`split_l_prime` (E5), :func:`safe_latency` (E6),
:func:`plain_latency` and :func:`logged_latency` (E8) and
:func:`split_heal_run` (E12/E19) — and the pytest benches under
``benchmarks/`` call these functions for their wider sweeps and
assertions, so each run is written once.  Every full stack here is a
:class:`repro.apps.totalorder.TotalOrderBroadcast`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.analysis.stats import Summary, summarize
from repro.apps.baselines import StableStorageBroadcast
from repro.apps.totalorder import TotalOrderBroadcast
from repro.core.vstoto.process import is_summary
from repro.membership.bounds import VSBounds
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from repro.faults.schedule import FaultSchedule
from repro.obs.live.stitch import stitch_sim

Row = Sequence[object]
Table = tuple[Sequence[str], list[Row]]

#: the processors of the E8 and E12/E19 runs
FIVE = (1, 2, 3, 4, 5)


class IncompleteRun(RuntimeError):
    """A measured run left work undone: a summary over what it finished
    would read low without saying so."""


_STABILIZATION_CONFIGS = (
    (2, 1.0, 10.0, 30.0),
    (3, 1.0, 10.0, 30.0),
    (5, 1.0, 10.0, 30.0),
    (3, 1.0, 20.0, 30.0),
)


def split_l_prime(
    n: int, delta: float, pi: float, mu: float, seed: int
) -> float:
    """E5: split n+2 processors at 60 into the first n and the other
    two; l′ of the n-member side, ``inf`` if it never stabilised."""
    processors = tuple(range(1, n + 3))
    group = processors[:n]
    vs = TokenRingVS(
        processors, RingConfig(delta=delta, pi=pi, mu=mu), seed=seed
    )
    FaultSchedule().add_layout(60.0, [list(group), list(processors[n:])]).install(vs)
    vs.run_until(60.0 + 30 * max(pi, mu))
    return stitch_sim(vs).tracer.timeline(group, 60.0).alpha1_length


def stabilization_table(seeds: Sequence[int] = (0, 1, 2)) -> Table:
    """E5: split stabilisation l' vs b across (n, δ, π, μ)."""
    headers = ["n", "delta", "pi", "mu", "b(paper)", "measured", "ratio"]
    rows: list[Row] = []
    for n, delta, pi, mu in _STABILIZATION_CONFIGS:
        bound = VSBounds(delta, pi, mu).b(n)
        worst = max(
            (split_l_prime(n, delta, pi, mu, seed) for seed in seeds),
            default=0.0,
        )
        rows.append([n, delta, pi, mu, bound, worst, worst / bound])
    return headers, rows


def safe_latency(
    n: int,
    delta: float,
    pi: float,
    mu: float = 1000.0,
    seed: int = 0,
    sends: int = 20,
    work_conserving: bool = False,
) -> Summary:
    """E6: send→all-safe latency of ``sends`` sends d/3 apart in a
    stable n-member view."""
    processors = tuple(range(1, n + 1))
    vs = TokenRingVS(
        processors,
        RingConfig(delta=delta, pi=pi, mu=mu, work_conserving=work_conserving),
        seed=seed,
    )
    spacing = (2 * pi + n * delta) / 3.0
    for i in range(sends):
        vs.schedule_send(5.0 + spacing * i, processors[i % n], f"m{i}")
    vs.run_until(5.0 + spacing * sends + 20 * pi)
    samples = stitch_sim(vs).tracer.safe_latencies(
        vs.initial_view.id, processors
    )
    if len(samples) != sends:
        raise IncompleteRun(f"only {len(samples)}/{sends} sends became safe")
    return summarize(safe - sent for sent, safe in samples)


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
        summary = safe_latency(n, delta, pi, work_conserving=work_conserving)
        bounds = VSBounds(delta, pi, 1000.0)
        d_impl = bounds.d_impl(n, work_conserving)
        rows.append([n, delta, pi, bounds.d(n), d_impl, summary.mean, summary.max])
    return headers, rows


def split_heal_run(seed: int) -> TokenRingVS:
    """E12/E19: the full stack at n = 5, ten broadcasts 23 apart, split
    {1,2,3}|{4,5} at 40, healed at 300 and run to 800; returns the VS
    service whose recorded events the stitcher reads."""
    tob = TotalOrderBroadcast(FIVE, seed=seed)
    (
        FaultSchedule()
        .add_layout(40.0, [[1, 2, 3], [4, 5]])
        .add_layout(300.0, [list(FIVE)])
        .install(tob.vs)
    )
    for i in range(10):
        tob.schedule_broadcast(10.0 + 23.0 * i, FIVE[i % 5], i)
    tob.run_until(800.0)
    return tob.vs


def _end_to_end_row(n: int, seed: int) -> Row:
    tob = TotalOrderBroadcast(range(1, n + 1), seed=seed)
    for i in range(15):
        tob.schedule_broadcast(20.0 + 18.0 * i, tob.processors[i % n], f"e{i}")
    tob.run_until(600.0)
    samples = stitch_sim(tob.vs).tracer.delivery_latencies(tob.processors)
    summary = summarize(done - sent for sent, done in samples)
    return [n, seed, summary.mean, summary.p95, summary.max]


def end_to_end_table(seeds: Sequence[int] = (0, 1)) -> Table:
    """E7: steady-state bcast→all-delivered latency on the full stack."""
    headers = ["n", "seed", "mean", "p95", "max"]
    rows = [_end_to_end_row(n, seed) for n in (3, 5) for seed in seeds]
    return headers, rows


def _submit_e8(
    service: TotalOrderBroadcast | StableStorageBroadcast, sends: int
) -> None:
    for i in range(sends):
        service.schedule_broadcast(10.0 + 15 * i, FIVE[i % 5], f"v{i}")


def plain_latency(seed: int, sends: int = 12) -> Summary:
    """E8: VStoTO's bcast→all-delivered latency for ``sends`` values
    submitted 15 apart round the five processors."""
    tob = TotalOrderBroadcast(FIVE, seed=seed)
    _submit_e8(tob, sends)
    tob.run_until(600.0)
    samples = stitch_sim(tob.vs).tracer.delivery_latencies(FIVE)
    if len(samples) != sends:
        raise IncompleteRun(
            f"only {len(samples)}/{sends} values reached every processor"
        )
    return summarize(done - sent for sent, done in samples)


def logged_latency(sigma: float, seed: int, sends: int = 12) -> Summary:
    """E8: the same load on the stable-storage-first baseline with
    storage latency ``sigma``, up to each value's last log write."""
    ssb = StableStorageBroadcast(FIVE, storage_latency=sigma, seed=seed)
    _submit_e8(ssb, sends)
    ssb.run_until(800.0)
    per_value: dict = {}
    for delivery in ssb.logged_deliveries:
        per_value.setdefault(delivery.value, []).append(delivery.time)
    latencies = []
    for i in range(sends):
        times = per_value.get(f"v{i}", ())
        if len(times) != len(FIVE):
            raise IncompleteRun(
                f"value v{i} logged {len(times)} times, not {len(FIVE)}"
            )
        latencies.append(max(times) - (10.0 + 15 * i))
    return summarize(latencies)


def baseline_table(sigmas: Sequence[float] = (2.0, 5.0, 10.0)) -> Table:
    """E8: VStoTO vs the stable-storage-first baseline."""
    headers = ["sigma", "vstoto mean", "baseline mean", "gap"]
    plain = plain_latency(seed=3)
    rows: list[Row] = []
    for sigma in sigmas:
        logged = logged_latency(sigma, seed=3)
        rows.append([sigma, plain.mean, logged.mean, logged.mean - plain.mean])
    return headers, rows


def _timeline_row(seed: int) -> Row:
    bounds = VSBounds(1.0, 10.0, 30.0)
    timeline = stitch_sim(split_heal_run(seed)).tracer.timeline(
        FIVE, 300.0, is_summary
    )
    return [
        seed,
        timeline.alpha1_length,
        bounds.b(5),
        timeline.alpha3_length,
        timeline.total_stabilization,
        bounds.b(5) + bounds.d_impl(5, True),
    ]


def timeline_table(seeds: Sequence[int] = (0, 1, 2)) -> Table:
    """E12: the Figure 12 decomposition."""
    headers = ["seed", "alpha1", "b", "alpha3", "total", "b+d"]
    rows = [_timeline_row(seed) for seed in seeds]
    return headers, rows


def observability_table(seeds: Sequence[int] = (0, 1, 2)) -> Table:
    """E19: the spans stitched from the recorded events of the E12
    execution (``tests/obs/test_sim_parity.py`` pins them to the spans
    the retired in-run tracer built)."""
    headers = ["seed", "msg spans", "views", "unmatched", "l'", "deliv mean"]
    rows: list[Row] = []
    for seed in seeds:
        tracer = stitch_sim(split_heal_run(seed)).tracer
        deliveries = tracer.delivery_latencies(FIVE)
        rows.append(
            [
                seed,
                len(tracer.message_spans),
                len(tracer.view_spans),
                tracer.unmatched_events,
                round(tracer.timeline(FIVE, 300.0).alpha1_length, 4),
                round(summarize(done - sent for sent, done in deliveries).mean, 4),
            ]
        )
    return headers, rows


def chaos_table(seeds: Sequence[int] = (0, 1, 2, 3)) -> Table:
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
        FIVE,
        list(seeds),
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
