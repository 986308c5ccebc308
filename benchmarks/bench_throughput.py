"""E17 (engineering) — sustained-load throughput of the token ring.

The token carries the whole view order, so confirm throughput is
batch-limited: one circulation safely delivers everything appended in
the previous one.  Sweeping the offered load shows goodput tracking the
offered rate until the token cadence saturates, while latency degrades
gracefully (batching — not collapse): the throughput/latency profile of
token protocols like Totem.
"""

import pytest

from repro.analysis.stats import format_table, summarize
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from repro.obs.live.stitch import stitch_sim

PROCS = (1, 2, 3, 4, 5)
PI = 10.0


def run_load(rate, seed=0, horizon=800.0, work_conserving=False):
    """Offered load `rate` messages per time unit; returns goodput
    (safe deliveries to all members per time unit) and latency summary."""
    vs = TokenRingVS(
        PROCS,
        RingConfig(
            delta=1.0, pi=PI, mu=10_000.0, work_conserving=work_conserving
        ),
        seed=seed,
    )
    interval = 1.0 / rate
    count = int((horizon - 100.0) * rate)
    for i in range(count):
        vs.schedule_send(5.0 + interval * i, PROCS[i % 5], f"m{i}")
    vs.run_until(horizon)
    samples = stitch_sim(vs).tracer.safe_latencies(vs.initial_view.id, PROCS)
    goodput = len(samples) / (horizon - 100.0)
    latency = summarize(safe - sent for sent, safe in samples)
    return goodput, latency, count


def test_e17_goodput_tracks_offered_load():
    rows = []
    for rate in (0.1, 0.5, 2.0, 8.0):
        goodput, latency, offered = run_load(rate)
        rows.append(
            [rate, offered, goodput, latency.mean, latency.p95]
        )
        # batching keeps goodput near the offered rate — the token
        # carries arbitrarily many messages per pass
        assert goodput >= 0.9 * rate
    print("\nE17: offered load vs goodput (periodic token, π=10)")
    print(
        format_table(
            ["offered rate", "messages", "goodput", "lat mean", "lat p95"],
            rows,
        )
    )


def test_e17_latency_stays_bounded_under_load():
    """Latency under 8 msg/unit is no worse than ~the bound: batching,
    not queueing collapse."""
    _goodput, light, _ = run_load(0.1)
    _goodput, heavy, _ = run_load(8.0)
    assert heavy.p95 <= 3 * PI + 5 * 1.0 + 1.0  # d_impl + slack
    assert heavy.mean <= light.mean * 3


@pytest.mark.benchmark(group="e17-throughput")
def test_e17_bench_heavy_load(benchmark):
    def run():
        goodput, _latency, _count = run_load(4.0, horizon=400.0)
        return goodput

    goodput = benchmark.pedantic(run, rounds=3, iterations=1)
    assert goodput > 0
