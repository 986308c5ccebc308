"""E6 — the Section 8 safe-delivery latency bound d = 2π + nδ.

Sweeps n, π and δ in a stable view, measuring gpsnd→all-members-safe
latency, and compares against the paper's d and this repository's
implementation bounds (DESIGN.md documents the constant-factor
difference of the two token disciplines; the *shape* — linear growth in
π and in n·δ — is asserted here).

Also contains the π-sweep ablation (periodic vs work-conserving token
circulation), reproducing the discussion-point-5 trade-off of Section 1:
delivery happens before safety, and how quickly safety follows depends
on the token discipline.
"""

import pytest

from repro.analysis.stats import format_table, summarize
from repro.membership.bounds import VSBounds
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from repro.obs.live.stitch import stitch_sim

SLACK = 1.0


def measure_safe_latency(
    n, delta, pi, mu=1000.0, seed=0, sends=25, work_conserving=False
):
    """Max and mean send→all-safe latency in a stable n-member view."""
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
    assert len(samples) == sends, f"only {len(samples)}/{sends} became safe"
    return summarize(safe - sent for sent, safe in samples)


def test_e6_latency_vs_bounds():
    rows = []
    for n, delta, pi in (
        (2, 1.0, 10.0),
        (3, 1.0, 10.0),
        (5, 1.0, 10.0),
        (8, 1.0, 10.0),
        (5, 1.0, 20.0),
        (5, 2.0, 15.0),
    ):
        bounds = VSBounds(delta, pi, mu=1000.0)
        bounds.validate(n)
        summary = measure_safe_latency(n, delta, pi)
        d_paper = bounds.d(n)
        d_impl = bounds.d_impl(n, work_conserving=False)
        assert summary.max <= d_impl + SLACK, (
            f"n={n} π={pi}: measured {summary.max} > d_impl={d_impl}"
        )
        rows.append(
            [n, delta, pi, d_paper, d_impl, summary.mean, summary.max]
        )
    print("\nE6: safe latency vs d = 2π + nδ (paper) and d_impl (periodic)")
    print(
        format_table(
            ["n", "δ", "π", "d paper", "d impl", "mean", "max"], rows
        )
    )


def test_e6_latency_linear_in_pi():
    """Shape: latency grows linearly with π (the dominant term)."""
    means = [
        measure_safe_latency(4, 1.0, pi).mean for pi in (6.0, 12.0, 24.0)
    ]
    assert means[0] < means[1] < means[2]
    # doubling π roughly doubles the mean (within a generous band)
    assert 1.4 < means[2] / means[1] < 2.6


def test_e6_latency_grows_with_n():
    means = [
        measure_safe_latency(n, 1.0, 12.0).mean for n in (2, 5, 9)
    ]
    assert means[0] < means[2]


def test_e6_work_conserving_ablation():
    rows = []
    for pi in (8.0, 16.0, 32.0):
        periodic = measure_safe_latency(5, 1.0, pi, work_conserving=False)
        eager = measure_safe_latency(5, 1.0, pi, work_conserving=True)
        assert eager.mean < periodic.mean
        rows.append([pi, periodic.mean, eager.mean, periodic.mean / eager.mean])
    print("\nE6 ablation: periodic vs work-conserving token circulation")
    print(
        format_table(
            ["π", "periodic mean", "work-conserving mean", "speedup"], rows
        )
    )


@pytest.mark.benchmark(group="e6-delivery")
def test_e6_bench_stable_view_traffic(benchmark):
    def run():
        return measure_safe_latency(5, 1.0, 10.0, sends=15).max

    worst = benchmark(run)
    assert worst > 0
