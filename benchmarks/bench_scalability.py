"""E15 (engineering) — cost of the reproduction itself.

Not a paper claim: measures how the discrete-event simulation scales
with group size — full-stack runs (VStoTO over the token ring) at
n ∈ {3, 5, 7, 9, 11}, reporting simulator events and network packets per
delivered value, and pytest-benchmark wall-clock for a mid-size run.
Useful for sizing larger experiments on this substrate.
"""

import pytest

from repro.analysis.stats import format_table
from repro.apps.totalorder import TotalOrderBroadcast
from repro.membership.ring import RingConfig


def run_stack(n, seed=0, sends=20, horizon=500.0):
    processors = tuple(range(1, n + 1))
    pi = max(10.0, 1.5 * n)
    tob = TotalOrderBroadcast(
        processors,
        config=RingConfig(delta=1.0, pi=pi, mu=50.0, work_conserving=True),
        seed=seed,
    )
    service, runtime = tob.vs, tob.runtime
    for i in range(sends):
        runtime.schedule_broadcast(
            10.0 + (horizon - 60.0) / sends * i, processors[i % n], f"v{i}"
        )
    runtime.start()
    runtime.run_until(horizon)
    return processors, service, runtime


def test_e15_scaling_table():
    rows = []
    for n in (3, 5, 7, 9, 11):
        processors, service, runtime = run_stack(n)
        delivered = len(runtime.deliveries)
        assert delivered == 20 * n, f"n={n}: incomplete delivery"
        stats = service.stats()
        rows.append(
            [
                n,
                stats["events_processed"],
                stats["messages_sent"],
                stats["messages_sent"] / 20,
                stats["tokens_processed"],
            ]
        )
    print("\nE15: simulation cost vs group size (20 values delivered)")
    print(
        format_table(
            ["n", "sim events", "packets", "packets/value", "token visits"],
            rows,
        )
    )
    # packets grow with n (ring hops + summaries) — sanity on the trend
    packets = [row[2] for row in rows]
    assert packets == sorted(packets)


def test_e15_agreement_at_eleven_nodes():
    processors, _service, runtime = run_stack(11, seed=3)
    reference = runtime.delivered_values(1)
    assert len(reference) == 20
    for p in processors[1:]:
        assert runtime.delivered_values(p) == reference


@pytest.mark.benchmark(group="e15-scalability")
def test_e15_bench_seven_nodes(benchmark):
    def run():
        _procs, _service, runtime = run_stack(7, sends=15)
        return len(runtime.deliveries)

    deliveries = benchmark.pedantic(run, rounds=3, iterations=1)
    assert deliveries == 15 * 7
