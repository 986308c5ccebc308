"""E11 — recovery cost of the state-exchange protocol.

Scripted split/heal scenarios measure what reconciliation costs: how
long from heal to full delivery agreement, how many state-exchange
summaries flow, and how many view formations the membership layer runs.
Includes the quorum-system ablation (majority vs a small explicit
quorum): which partition side can confirm determines how much work the
merge must reconcile.
"""

import pytest

from repro.analysis.stats import format_table
from repro.apps.totalorder import TotalOrderBroadcast
from repro.core.quorums import ExplicitQuorumSystem, MajorityQuorumSystem
from repro.core.vstoto.process import is_summary
from repro.faults import FaultSchedule

PROCS = (1, 2, 3, 4, 5)


def run_split_heal(seed, quorums=None, heal_at=300.0, sends=15):
    tob = TotalOrderBroadcast(PROCS, quorums=quorums, seed=seed)
    service, runtime = tob.vs, tob.runtime
    (
        FaultSchedule()
        .add_layout(40.0, [[1, 2, 3], [4, 5]])
        .add_layout(heal_at, [[1, 2, 3, 4, 5]])
        .install(service)
    )
    for i in range(sends):
        runtime.schedule_broadcast(10.0 + 17.0 * i, PROCS[i % 5], f"r{i}")
    runtime.start()
    runtime.run_until(heal_at + 500.0)
    return service, runtime


def recovery_metrics(service, runtime, heal_at=300.0, sends=15):
    """Time from heal to full agreement, plus exchange message counts."""
    last_delivery = max(
        (d.time for d in runtime.deliveries), default=float("inf")
    )
    summaries_sent = sum(
        1
        for e in service.trace.events
        if e.action.name == "gpsnd" and is_summary(e.action.args[0])
    )
    complete = all(
        len(runtime.delivered_values(p)) == sends for p in PROCS
    )
    return {
        "recovery_time": last_delivery - heal_at,
        "summaries": summaries_sent,
        "formations": service.stats()["formations"],
        "complete": complete,
    }


def test_e11_recovery_completes_and_costs():
    rows = []
    for seed in range(4):
        service, runtime = run_split_heal(seed)
        metrics = recovery_metrics(service, runtime)
        assert metrics["complete"], f"seed={seed}: deliveries incomplete"
        rows.append(
            [
                seed,
                metrics["recovery_time"],
                metrics["summaries"],
                metrics["formations"],
            ]
        )
    print("\nE11a: split/heal recovery cost (majority quorums)")
    print(
        format_table(
            ["seed", "heal→agreement", "summaries sent", "formations"],
            rows,
        )
    )


def test_e11_quorum_ablation():
    """Ablation: with majority quorums, the 3-side confirms during the
    split; with an explicit {4,5} quorum the 2-side confirms instead.
    Either way the merge reconciles to identical histories."""
    rows = []
    for label, quorums in (
        ("majority", MajorityQuorumSystem(PROCS)),
        ("explicit{4,5}", ExplicitQuorumSystem([[4, 5]])),
    ):
        service, runtime = run_split_heal(2, quorums=quorums)
        reference = runtime.delivered_values(1)
        for p in PROCS[1:]:
            assert runtime.delivered_values(p) == reference
        # count deliveries that happened during the split window
        during_split = [
            d for d in runtime.deliveries if 40.0 < d.time < 300.0
        ]
        majority_side = sum(1 for d in during_split if d.dst in (1, 2, 3))
        minority_side = sum(1 for d in during_split if d.dst in (4, 5))
        rows.append([label, majority_side, minority_side, len(reference)])
    print("\nE11b: quorum ablation — which side confirms during the split")
    print(
        format_table(
            ["quorums", "deliveries@{1,2,3}", "deliveries@{4,5}", "final len"],
            rows,
        )
    )
    # majority quorums: 3-side progresses; explicit {4,5}: 2-side does.
    majority_row, explicit_row = rows
    assert majority_row[1] > 0 and majority_row[2] == 0
    assert explicit_row[2] > 0 and explicit_row[1] == 0


def test_e11_repeated_cycles_converge():
    tob = TotalOrderBroadcast(PROCS, seed=6)
    service, runtime = tob.vs, tob.runtime
    scenario = FaultSchedule()
    scenario.add_layout(40.0, [[1, 2, 3], [4, 5]])
    scenario.add_layout(200.0, [[1, 2, 3, 4, 5]])
    scenario.add_layout(360.0, [[1, 2], [3, 4, 5]])
    scenario.add_layout(520.0, [[1, 2, 3, 4, 5]])
    scenario.install(service)
    for i in range(20):
        runtime.schedule_broadcast(10.0 + 30.0 * i, PROCS[i % 5], f"c{i}")
    runtime.start()
    runtime.run_until(1200.0)
    reference = runtime.delivered_values(1)
    assert len(reference) == 20
    for p in PROCS[1:]:
        assert runtime.delivered_values(p) == reference


@pytest.mark.benchmark(group="e11-recovery")
def test_e11_bench_split_heal(benchmark):
    def run():
        service, runtime = run_split_heal(1)
        return recovery_metrics(service, runtime)["summaries"]

    summaries = benchmark.pedantic(run, rounds=3, iterations=1)
    assert summaries > 0
