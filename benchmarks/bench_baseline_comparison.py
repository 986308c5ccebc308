"""E8 — the latency/fault-tolerance trade-off of Section 1: VStoTO
(in-memory state, crashes modelled as delays) vs a Keidar–Dolev-style
baseline that writes to stable storage before ordering/acknowledging.

The table sweeps the storage latency σ and reports end-to-end
bcast→all-delivered latency for both systems; VStoTO must win by an
amount growing with σ (the baseline pays two writes on the critical
path).
"""

import pytest

from repro.analysis.experiments import FIVE, logged_latency, plain_latency
from repro.analysis.stats import format_table
from repro.apps.baselines import StableStorageBroadcast


def test_e8_vstoto_beats_stable_storage_baseline():
    rows = []
    plain = plain_latency(seed=3)
    for sigma in (2.0, 5.0, 10.0, 20.0):
        logged = logged_latency(sigma, seed=3)
        # VStoTO wins, and the gap grows with sigma (two writes on the
        # critical path, pipeline variance absorbs at most one).
        assert logged.mean > plain.mean + sigma
        rows.append(
            [
                sigma,
                plain.mean,
                logged.mean,
                logged.mean - plain.mean,
                logged.mean / plain.mean,
            ]
        )
    gaps = [row[3] for row in rows]
    assert gaps == sorted(gaps), "penalty must grow with σ"
    print("\nE8: VStoTO vs stable-storage-first baseline (Keidar–Dolev style)")
    print(
        format_table(
            ["σ", "VStoTO mean", "baseline mean", "gap", "slowdown"],
            rows,
        )
    )


def test_e8_baseline_still_correct():
    """The baseline trades latency, not safety: all replicas log the
    same sequence."""
    ssb = StableStorageBroadcast(FIVE, storage_latency=5.0, seed=9)
    for i in range(8):
        ssb.schedule_broadcast(10.0 + 11 * i, FIVE[i % 5], f"w{i}")
    ssb.run_until(600.0)
    reference = ssb.delivered(1)
    assert len(reference) == 8
    for p in FIVE[1:]:
        assert ssb.delivered(p) == reference


@pytest.mark.benchmark(group="e8-baseline")
def test_e8_bench_baseline_run(benchmark):
    def run():
        return logged_latency(5.0, seed=1, sends=8).mean

    mean = benchmark.pedantic(run, rounds=3, iterations=1)
    assert mean > 0
