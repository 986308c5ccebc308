"""End-to-end integration scenarios exercising the whole stack under
adversarial failure schedules."""

import pytest

from repro.core.quorums import MajorityQuorumSystem
from repro.core.to_spec import TO_EXTERNAL, TOPropertyChecker, check_to_trace
from repro.core.vs_spec import VS_EXTERNAL, check_vs_trace
from repro.core.vstoto.runtime import VStoTORuntime
from repro.membership.bounds import VSBounds
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from repro.faults import FaultSchedule

PROCS = (1, 2, 3, 4, 5, 6, 7)
DELTA, PI, MU = 1.0, 12.0, 30.0


def build(seed, work_conserving=True):
    service = TokenRingVS(
        PROCS,
        RingConfig(delta=DELTA, pi=PI, mu=MU, work_conserving=work_conserving),
        seed=seed,
    )
    runtime = VStoTORuntime(service, MajorityQuorumSystem(PROCS))
    return service, runtime


def assert_full_conformance(service, runtime):
    vs_actions = [
        e.action
        for e in service.merged_trace().events
        if e.action.name in VS_EXTERNAL
    ]
    vs_report = check_vs_trace(vs_actions, PROCS, service.initial_view)
    assert vs_report.ok, f"VS level: {vs_report.reason}"
    to_actions = [
        e.action
        for e in runtime.merged_trace().events
        if e.action.name in TO_EXTERNAL
    ]
    to_report = check_to_trace(to_actions, PROCS)
    assert to_report.ok, f"TO level: {to_report.reason}"


class TestSevenNodeScenarios:
    @pytest.mark.parametrize("seed", range(3))
    def test_rolling_partitions(self, seed):
        """Cascading reconfigurations: each epoch reshuffles the
        partition; messages flow throughout; both spec levels conform;
        final heal reaches agreement."""
        service, runtime = build(seed)
        scenario = (
            FaultSchedule()
            .add_layout(50.0, [[1, 2, 3, 4], [5, 6, 7]])
            .add_layout(220.0, [[1, 2], [3, 4, 5], [6, 7]])
            .add_layout(400.0, [[1, 2, 3], [4, 5, 6, 7]])
            .add_layout(600.0, [[1, 2, 3, 4, 5, 6, 7]])
        )
        scenario.install(service)
        for i in range(25):
            runtime.schedule_broadcast(
                10.0 + 31.0 * i, PROCS[i % 7], f"roll{i}"
            )
        runtime.start()
        runtime.run_until(1400.0)
        assert_full_conformance(service, runtime)
        reference = runtime.delivered_values(1)
        assert len(reference) == 25
        for p in PROCS[1:]:
            assert runtime.delivered_values(p) == reference

    def test_flapping_link_period_then_stability(self):
        """An ugly, flapping period (capricious views allowed) followed
        by stabilisation: safety throughout, liveness after."""
        service, runtime = build(seed=5)
        scenario = (
            FaultSchedule()
            .add_layout(
                40.0,
                [[1, 2, 3, 4, 5, 6, 7]],
                ugly_links=[(1, 2), (2, 1), (3, 5), (6, 7)],
            )
            .add_layout(
                140.0,
                [[1, 2, 3, 4, 5, 6, 7]],
                ugly_links=[(4, 1), (5, 3)],
            )
            .add_layout(260.0, [[1, 2, 3, 4, 5, 6, 7]])
        )
        scenario.install(service)
        for i in range(15):
            runtime.schedule_broadcast(
                20.0 + 25.0 * i, PROCS[i % 7], f"flap{i}"
            )
        runtime.start()
        runtime.run_until(1200.0)
        assert_full_conformance(service, runtime)
        for p in PROCS:
            assert len(runtime.delivered_values(p)) == 15

    def test_majority_survives_successive_crashes(self):
        """Processors crash one at a time down to a bare majority; the
        survivors keep confirming."""
        service, runtime = build(seed=8)
        scenario = (
            FaultSchedule()
            .add_layout(50.0, [[1, 2, 3, 4, 5, 6]])     # 7 crashes
            .add_layout(150.0, [[1, 2, 3, 4, 5]])       # 6 crashes
            .add_layout(250.0, [[1, 2, 3, 4]])          # 5 crashes — still quorum
        )
        scenario.install(service)
        for i in range(12):
            runtime.schedule_broadcast(60.0 + 30.0 * i, (i % 4) + 1, f"s{i}")
        runtime.start()
        runtime.run_until(900.0)
        assert_full_conformance(service, runtime)
        survivors = (1, 2, 3, 4)
        reference = runtime.delivered_values(1)
        assert len(reference) == 12
        for p in survivors[1:]:
            assert runtime.delivered_values(p) == reference

    def test_below_quorum_no_progress_then_recovery(self):
        """Shrinking below a quorum halts confirmation; restoring it
        resumes and reconciles."""
        service, runtime = build(seed=9)
        scenario = (
            FaultSchedule()
            .add_layout(50.0, [[1, 2, 3]])              # only 3 of 7 alive
            .add_layout(300.0, [[1, 2, 3, 4, 5, 6, 7]])
        )
        scenario.install(service)
        runtime.schedule_broadcast(100.0, 1, "below-quorum")
        runtime.start()
        runtime.run_until(290.0)
        # 3 < majority(7) = 4: nothing can be confirmed
        assert all(not runtime.delivered_values(p) for p in PROCS)
        runtime.run_until(1000.0)
        for p in PROCS:
            assert runtime.delivered_values(p) == ["below-quorum"]

    def test_to_property_on_rolling_scenario(self):
        service, runtime = build(seed=1)
        scenario = (
            FaultSchedule()
            .add_layout(50.0, [[1, 2, 3, 4], [5, 6, 7]])
            .add_layout(300.0, [[1, 2, 3, 4, 5, 6, 7]])
        )
        scenario.install(service)
        for i in range(14):
            runtime.schedule_broadcast(10.0 + 26.0 * i, PROCS[i % 7], i)
        runtime.start()
        runtime.run_until(1200.0)
        bounds = VSBounds(DELTA, PI, MU)
        d = bounds.d_impl(7, work_conserving=True) + 8.0
        checker = TOPropertyChecker(
            b=bounds.b(7) + d, d=d, group=PROCS
        )
        report = checker.check(runtime.merged_trace(), PROCS)
        assert report.holds, report.reason
        assert report.obligations > 0
