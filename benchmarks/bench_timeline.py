"""E12 — the Figure 12 performance-argument decomposition.

Instrumented split/heal runs emit the α₀ α₁ α₃ α₄ boundaries of the
Theorem 7.1 proof: α₁ (membership settles) must fit within b, and α₃
(state-exchange summaries all safe) within d; the printed table is the
empirical Figure 12.
"""

import math

import pytest

from repro.analysis.experiments import FIVE, split_heal_run
from repro.analysis.stats import format_table
from repro.core.vstoto.process import is_summary
from repro.membership.bounds import VSBounds
from repro.obs.live.stitch import stitch_sim
DELTA, PI, MU = 1.0, 10.0, 30.0
SLACK = 6.0


def run_and_decompose(seed):
    return stitch_sim(split_heal_run(seed)).tracer.timeline(
        FIVE, 300.0, is_summary
    )


def test_e12_decomposition_within_bounds():
    bounds = VSBounds(DELTA, PI, MU)
    b = bounds.b(5)
    d = bounds.d_impl(5, work_conserving=True) + SLACK
    rows = []
    for seed in range(4):
        timeline = run_and_decompose(seed)
        assert timeline.final_view is not None
        assert not math.isinf(timeline.exchange_safe_at)
        assert timeline.alpha1_length <= b + SLACK, (
            f"α₁ = {timeline.alpha1_length} exceeds b = {b}"
        )
        assert timeline.alpha3_length <= d, (
            f"α₃ = {timeline.alpha3_length} exceeds d = {d}"
        )
        rows.append(
            [
                seed,
                timeline.alpha1_length,
                b,
                timeline.alpha3_length,
                d,
                timeline.total_stabilization,
                b + d,
            ]
        )
    print("\nE12: Figure 12 decomposition — α₁ vs b, α₃ vs d, total vs b+d")
    print(
        format_table(
            ["seed", "α₁", "b", "α₃", "d used", "α₁+α₃", "b+d"],
            rows,
        )
    )


def test_e12_total_stabilization_within_b_plus_d():
    bounds = VSBounds(DELTA, PI, MU)
    budget = bounds.b(5) + bounds.d_impl(5, work_conserving=True) + 2 * SLACK
    for seed in range(4):
        timeline = run_and_decompose(seed)
        assert timeline.total_stabilization <= budget


@pytest.mark.benchmark(group="e12-timeline")
def test_e12_bench_instrumented_run(benchmark):
    def run():
        return run_and_decompose(seed=1).total_stabilization

    total = benchmark.pedantic(run, rounds=3, iterations=1)
    assert total >= 0.0
