"""E16 (ablation) — footnote 7 of Section 8: the one-round membership
protocol "would stabilize less quickly" than the 3-round protocol.

The one-round initiator guesses the membership from stale connectivity
information (who it heard from recently) instead of collecting accepts,
so after a partition it keeps announcing views that still contain
unreachable processors until the staleness window drains — measured
here as split-stabilisation time for both variants.
"""

import math

import pytest

from repro.analysis.stats import format_table
from repro.core.vs_spec import VS_EXTERNAL, check_vs_trace
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from repro.faults import FaultSchedule
from repro.obs.live.stitch import stitch_sim

PROCS = (1, 2, 3, 4, 5)
DELTA, PI, MU = 1.0, 10.0, 30.0


def measure_split(one_round, seed, split_at=200.0):
    vs = TokenRingVS(
        PROCS,
        RingConfig(delta=DELTA, pi=PI, mu=MU, one_round=one_round),
        seed=seed,
    )
    FaultSchedule().add_layout(split_at, [[1, 2, 3], [4, 5]]).install(vs)
    vs.run_until(split_at + 1200.0)
    # safety holds in both variants
    actions = [
        e.action
        for e in vs.merged_trace().events
        if e.action.name in VS_EXTERNAL
    ]
    assert check_vs_trace(actions, PROCS, vs.initial_view).ok
    l_prime = stitch_sim(vs).tracer.timeline((1, 2, 3), split_at).alpha1_length
    assert math.isfinite(l_prime), f"one_round={one_round} never stabilised"
    return l_prime


def test_e16_one_round_stabilizes_slower():
    rows = []
    for label, one_round in (("3-round", False), ("1-round", True)):
        measured = [measure_split(one_round, seed) for seed in range(3)]
        rows.append([label, min(measured), max(measured)])
    print("\nE16: membership variants — split stabilisation l' (footnote 7)")
    print(format_table(["protocol", "min l'", "max l'"], rows))
    three_round, one_round_row = rows
    assert one_round_row[2] > three_round[2], (
        "one-round should stabilise more slowly after a split"
    )


def test_e16_one_round_still_safe_and_converges_on_merge():
    vs = TokenRingVS(
        PROCS,
        RingConfig(delta=DELTA, pi=PI, mu=MU, one_round=True),
        seed=5,
    )
    (
        FaultSchedule()
        .add_layout(100.0, [[1, 2, 3], [4, 5]])
        .add_layout(600.0, [[1, 2, 3, 4, 5]])
        .install(vs)
    )
    vs.run_until(2000.0)
    views = {vs.current_view(p) for p in PROCS}
    assert len(views) == 1
    assert views.pop().set == set(PROCS)


@pytest.mark.benchmark(group="e16-one-round")
def test_e16_bench_one_round_split(benchmark):
    def run():
        return measure_split(True, seed=1)

    l_prime = benchmark.pedantic(run, rounds=3, iterations=1)
    assert l_prime > 0
