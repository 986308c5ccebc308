"""E8 — the latency/fault-tolerance trade-off of Section 1: VStoTO
(in-memory state, crashes modelled as delays) vs a Keidar–Dolev-style
baseline that writes to stable storage before ordering/acknowledging.

The table sweeps the storage latency σ and reports end-to-end
bcast→all-delivered latency for both systems; VStoTO must win by an
amount growing with σ (the baseline pays two writes on the critical
path).
"""

import pytest

from repro.analysis.stats import format_table, summarize
from repro.apps.baselines import StableStorageBroadcast
from repro.apps.totalorder import TotalOrderBroadcast
from repro.membership.ring import RingConfig
from repro.obs.live.stitch import stitch_sim

PROCS = (1, 2, 3, 4, 5)


def ring_config():
    return RingConfig(delta=1.0, pi=10.0, mu=30.0, work_conserving=True)


def plain_latency(seed, sends=12):
    tob = TotalOrderBroadcast(PROCS, config=ring_config(), seed=seed)
    for i in range(sends):
        tob.schedule_broadcast(10.0 + 15 * i, PROCS[i % 5], f"v{i}")
    tob.run_until(600.0)
    samples = stitch_sim(tob.vs).tracer.delivery_latencies(PROCS)
    assert len(samples) == sends
    return summarize(done - sent for sent, done in samples)


def logged_latency(sigma, seed, sends=12):
    ssb = StableStorageBroadcast(
        PROCS, storage_latency=sigma, config=ring_config(), seed=seed
    )
    for i in range(sends):
        ssb.schedule_broadcast(10.0 + 15 * i, PROCS[i % 5], f"v{i}")
    ssb.run_until(800.0)
    per_value: dict = {}
    for delivery in ssb.logged_deliveries:
        per_value.setdefault(delivery.value, []).append(delivery.time)
    latencies = []
    for i in range(sends):
        times = per_value.get(f"v{i}")
        assert times is not None and len(times) == len(PROCS)
        latencies.append(max(times) - (10.0 + 15 * i))
    return summarize(latencies)


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
    ssb = StableStorageBroadcast(
        PROCS, storage_latency=5.0, config=ring_config(), seed=9
    )
    for i in range(8):
        ssb.schedule_broadcast(10.0 + 11 * i, PROCS[i % 5], f"w{i}")
    ssb.run_until(600.0)
    reference = ssb.delivered(1)
    assert len(reference) == 8
    for p in PROCS[1:]:
        assert ssb.delivered(p) == reference


@pytest.mark.benchmark(group="e8-baseline")
def test_e8_bench_baseline_run(benchmark):
    def run():
        return logged_latency(5.0, seed=1, sends=8).mean

    mean = benchmark.pedantic(run, rounds=3, iterations=1)
    assert mean > 0
