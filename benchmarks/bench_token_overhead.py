"""E14 (ablation) — token overhead vs π.

The token circulates every π whether or not there is traffic, so the
network cost per delivered message falls as π grows — but latency rises
linearly in π (E6).  This bench regenerates that trade-off: packets per
delivered message and mean safe latency across a π sweep, for both
token disciplines.  The crossover the DESIGN.md ablation names is
visible as the π where overhead stops dominating (packets/message
flattens towards the per-message floor).
"""

import pytest

from repro.analysis.stats import format_table, summarize
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from repro.obs.live.stitch import stitch_sim

PROCS = (1, 2, 3, 4, 5)


def run_traffic(pi, work_conserving, seed=0, sends=20, horizon=600.0):
    vs = TokenRingVS(
        PROCS,
        RingConfig(
            delta=1.0, pi=pi, mu=10_000.0, work_conserving=work_conserving
        ),
        seed=seed,
    )
    for i in range(sends):
        vs.schedule_send(
            5.0 + (horizon - 50.0) / sends * i, PROCS[i % 5], f"m{i}"
        )
    vs.run_until(horizon)
    samples = stitch_sim(vs).tracer.safe_latencies(vs.initial_view.id, PROCS)
    packets = vs.network.messages_sent
    latency = summarize(safe - sent for sent, safe in samples)
    return packets / max(len(samples), 1), latency.mean, len(samples)


def test_e14_overhead_latency_tradeoff():
    rows = []
    for pi in (6.0, 12.0, 24.0, 48.0):
        for label, wc in (("periodic", False), ("work-conserving", True)):
            per_message, mean_latency, delivered = run_traffic(pi, wc)
            rows.append([pi, label, per_message, mean_latency, delivered])
    print("\nE14: token overhead (packets per safely-delivered message) vs π")
    print(
        format_table(
            ["π", "mode", "packets/msg", "safe latency mean", "delivered"],
            rows,
        )
    )
    periodic = {row[0]: row for row in rows if row[1] == "periodic"}
    # Overhead falls monotonically with π for the periodic discipline...
    overheads = [periodic[pi][2] for pi in (6.0, 12.0, 24.0, 48.0)]
    assert overheads == sorted(overheads, reverse=True)
    # ...while latency rises with π: the trade-off.
    latencies = [periodic[pi][3] for pi in (6.0, 12.0, 24.0, 48.0)]
    assert latencies == sorted(latencies)


def test_e14_quiescent_cost_is_pure_token_traffic():
    """With no client traffic, all packets are token circulation: the
    packet rate is ≈ (n hops) per π."""
    vs = TokenRingVS(
        PROCS,
        RingConfig(delta=1.0, pi=10.0, mu=10_000.0),
        seed=1,
    )
    vs.run_until(1000.0)
    packets = vs.network.messages_sent
    expected_passes = 1000.0 / 10.0
    hops_per_pass = len(PROCS)
    assert 0.7 * expected_passes * hops_per_pass <= packets <= 1.3 * (
        expected_passes * hops_per_pass
    )


@pytest.mark.benchmark(group="e14-overhead")
def test_e14_bench_traffic_run(benchmark):
    def run():
        per_message, _latency, _delivered = run_traffic(12.0, True, sends=12)
        return per_message

    per_message = benchmark.pedantic(run, rounds=3, iterations=1)
    assert per_message > 0
