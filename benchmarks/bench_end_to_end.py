"""E7 — Theorems 7.1/7.2: the full stack (VStoTO over the token-ring VS)
satisfies TO(b + d, d, Q) for every quorum-containing Q.

Partition-then-stabilise scenarios; TO-property is evaluated on the
end-to-end timed trace with b and d instantiated from the Section 8
formulas (implementation variants), and end-to-end bcast→all-delivered
latencies are tabulated against the d bound.
"""

import pytest

from benchmarks.conftest import build_stack
from repro.analysis.stats import format_table, summarize
from repro.core.to_spec import TOPropertyChecker
from repro.membership.bounds import VSBounds
from repro.faults import FaultSchedule
from repro.obs.live.stitch import stitch_sim

DELTA, PI, MU = 1.0, 10.0, 30.0
SLACK = 6.0


def run_heal_scenario(n, seed, work_conserving=True, heal_at=300.0):
    processors = tuple(range(1, n + 1))
    service, runtime = build_stack(
        processors,
        seed=seed,
        delta=DELTA,
        pi=PI,
        mu=MU,
        work_conserving=work_conserving,
    )
    half = n // 2 or 1
    (
        FaultSchedule()
        .add_layout(40.0, [list(processors[:half]), list(processors[half:])])
        .add_layout(heal_at, [list(processors)])
        .install(service)
    )
    for i in range(18):
        runtime.schedule_broadcast(
            10.0 + 21.0 * i, processors[i % n], f"x{i}"
        )
    runtime.start()
    runtime.run_until(heal_at + 600.0)
    return processors, service, runtime


def to_bounds(n, work_conserving=True):
    bounds = VSBounds(DELTA, PI, MU)
    d = bounds.d_impl(n, work_conserving) + SLACK
    b = bounds.b(n) + d
    return b, d


def test_e7_to_property_holds_after_heal():
    rows = []
    for n in (3, 5):
        for seed in range(3):
            processors, _service, runtime = run_heal_scenario(n, seed)
            b, d = to_bounds(n)
            checker = TOPropertyChecker(b=b, d=d, group=processors)
            report = checker.check(runtime.merged_trace(), processors)
            assert report.holds, f"n={n} seed={seed}: {report.reason}"
        rows.append([n, b, d, report.obligations, report.max_latency])
    print("\nE7: TO-property(b+d, d, Q) on the full stack (Theorem 7.2)")
    print(
        format_table(
            ["n", "b+d used", "d used", "obligations", "max lateness"], rows
        )
    )


def test_e7_to_property_for_partition_side():
    """Q = the majority side of an unhealed split also satisfies the
    property (quorum side keeps confirming)."""
    processors = tuple(range(1, 6))
    service, runtime = build_stack(
        processors, seed=4, delta=DELTA, pi=PI, mu=MU, work_conserving=True
    )
    FaultSchedule().add_layout(40.0, [[1, 2, 3], [4, 5]]).install(service)
    for i in range(10):
        runtime.schedule_broadcast(60.0 + 15 * i, (i % 3) + 1, f"q{i}")
    runtime.start()
    runtime.run_until(800.0)
    b, d = to_bounds(3)
    checker = TOPropertyChecker(b=b, d=d, group=(1, 2, 3))
    report = checker.check(runtime.merged_trace(), processors)
    assert report.holds, report.reason
    assert report.obligations > 0


def test_e7_steady_state_latency_within_d():
    rows = []
    for n in (3, 5, 7):
        processors, service, runtime = run_heal_scenario(n, seed=1)
        _b, d = to_bounds(n)
        settle = 340.0  # after heal + stabilisation
        samples = stitch_sim(service).tracer.delivery_latencies(
            processors, after=settle
        )
        if not samples:
            continue
        summary = summarize(done - sent for sent, done in samples)
        assert summary.max <= d + 1e-6
        rows.append([n, d, summary.mean, summary.max])
    assert rows, "no steady-state samples collected"
    print("\nE7: steady-state bcast→all-delivered latency vs d")
    print(format_table(["n", "d used", "mean", "max"], rows))


@pytest.mark.benchmark(group="e7-end-to-end")
def test_e7_bench_full_stack_scenario(benchmark):
    def run():
        _processors, _service, runtime = run_heal_scenario(5, seed=2)
        return len(runtime.deliveries)

    deliveries = benchmark.pedantic(run, rounds=3, iterations=1)
    assert deliveries == 5 * 18
