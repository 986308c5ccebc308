"""E5 — the Section 8 stabilisation bound b = 9δ + max{π + (n+3)δ, μ}.

Sweeps n, δ, π and μ over partition-then-stabilise scenarios and
measures l' (time from the failure pattern stabilising to the last
``newview`` at the target group), comparing against the closed form.
Shape claims asserted: measured l' ≤ b (+ scheduling slack), and b's
dominant term switches from the token term to μ exactly as the formula
says.
"""

import math

import pytest

from repro.analysis.experiments import split_l_prime
from repro.analysis.stats import format_table
from repro.membership.bounds import VSBounds
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from repro.faults import FaultSchedule
from repro.obs.live.stitch import stitch_sim

SLACK = 5.0


def measure_split(n, delta, pi, mu, seed):
    """l' of the n-member side of an n+2 processor split."""
    l_prime = split_l_prime(n, delta, pi, mu, seed)
    assert math.isfinite(l_prime), f"n={n} seed={seed} never stabilised"
    return l_prime


def measure_merge(n, delta, pi, mu, seed, heal_at=311.0):
    # heal_at is deliberately not a multiple of common μ values, so the
    # measured interval includes the genuine wait for the next probe.
    """Split then heal; measure l' for the full group after healing."""
    processors = tuple(range(1, n + 1))
    half = n // 2 or 1
    vs = TokenRingVS(
        processors, RingConfig(delta=delta, pi=pi, mu=mu), seed=seed
    )
    (
        FaultSchedule()
        .add_layout(60.0, [list(processors[:half]), list(processors[half:])])
        .add_layout(heal_at, [list(processors)])
        .install(vs)
    )
    vs.run_until(heal_at + 30 * max(pi, mu))
    l_prime = stitch_sim(vs).tracer.timeline(processors, heal_at).alpha1_length
    assert math.isfinite(l_prime)
    return l_prime


def test_e5_split_stabilization_vs_bound():
    rows = []
    for n, delta, pi, mu in (
        (2, 1.0, 10.0, 30.0),
        (3, 1.0, 10.0, 30.0),
        (5, 1.0, 10.0, 30.0),
        (3, 2.0, 12.0, 30.0),
        (3, 1.0, 20.0, 30.0),
    ):
        bound = VSBounds(delta, pi, mu).b(n)
        worst = max(
            measure_split(n, delta, pi, mu, seed) for seed in range(3)
        )
        assert worst <= bound + SLACK, (
            f"split n={n}: measured {worst} > b={bound}"
        )
        rows.append([n, delta, pi, mu, bound, worst, worst / bound])
    print("\nE5a: split stabilisation l' vs b = 9δ + max{π+(n+3)δ, μ}")
    print(
        format_table(
            ["n", "δ", "π", "μ", "b (paper)", "measured max l'", "ratio"],
            rows,
        )
    )


def test_e5_merge_stabilization_vs_bound():
    rows = []
    for n, delta, pi, mu in (
        (4, 1.0, 10.0, 30.0),
        (5, 1.0, 10.0, 30.0),
        (5, 1.0, 10.0, 60.0),
    ):
        bound = VSBounds(delta, pi, mu).b(n)
        worst = max(
            measure_merge(n, delta, pi, mu, seed) for seed in range(3)
        )
        assert worst <= bound + SLACK, (
            f"merge n={n}: measured {worst} > b={bound}"
        )
        rows.append([n, delta, pi, mu, bound, worst, worst / bound])
    print("\nE5b: merge stabilisation l' vs b (μ-dominated regime)")
    print(
        format_table(
            ["n", "δ", "π", "μ", "b (paper)", "measured max l'", "ratio"],
            rows,
        )
    )


def test_e5_mu_dominates_merge_when_large():
    """Shape: worst-case merge stabilisation grows with μ once μ
    dominates the token term, as the max{} in b predicts.  The heal
    time is swept over several phase offsets because the wait for the
    next probe depends on where the heal lands within the probe period.
    """

    def worst(mu):
        return max(
            measure_merge(4, 1.0, 10.0, mu, seed=0, heal_at=heal_at)
            for heal_at in (303.0, 311.0, 317.0, 331.0)
        )

    assert worst(80.0) > worst(20.0)


@pytest.mark.benchmark(group="e5-stabilization")
def test_e5_bench_split_scenario(benchmark):
    def run():
        return measure_split(3, 1.0, 10.0, 30.0, seed=0)

    l_prime = benchmark(run)
    assert l_prime >= 0.0
