"""Conformance of the token-ring implementation to the VS specification:
trace membership (safety) across many seeds and scenario shapes, and the
conditional performance property with the implementation bounds."""

import pytest

from repro.core.vs_spec import (
    VS_EXTERNAL,
    VSPropertyChecker,
    check_vs_trace,
)
from repro.membership.bounds import VSBounds
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from repro.faults import FaultSchedule

PROCS = (1, 2, 3, 4, 5)
DELTA, PI, MU = 1.0, 10.0, 30.0


def run_scenario(seed, scenario=None, sends=15, until=800.0, **ring_kwargs):
    vs = TokenRingVS(
        PROCS,
        RingConfig(delta=DELTA, pi=PI, mu=MU, **ring_kwargs),
        seed=seed,
    )
    if scenario is not None:
        scenario.install(vs)
    for i in range(sends):
        vs.schedule_send(10.0 + 23.0 * i, PROCS[i % 5], f"m{i}")
    vs.run_until(until)
    return vs


def assert_conformant(vs):
    trace = vs.merged_trace()
    untimed = [e.action for e in trace.events if e.action.name in VS_EXTERNAL]
    report = check_vs_trace(untimed, PROCS, vs.initial_view)
    assert report.ok, report.reason
    return trace


class TestTraceConformance:
    @pytest.mark.parametrize("seed", range(6))
    def test_stable_group(self, seed):
        assert_conformant(run_scenario(seed))

    @pytest.mark.parametrize("seed", range(6))
    def test_split_and_heal(self, seed):
        scenario = (
            FaultSchedule()
            .add_layout(50.0, [[1, 2, 3], [4, 5]])
            .add_layout(400.0, [[1, 2, 3, 4, 5]])
        )
        assert_conformant(run_scenario(seed, scenario))

    @pytest.mark.parametrize("seed", range(4))
    def test_churny_scenario(self, seed):
        scenario = (
            FaultSchedule()
            .add_layout(40.0, [[1, 2], [3, 4, 5]])
            .add_layout(150.0, [[1], [2, 3], [4, 5]])
            .add_layout(260.0, [[1, 2, 3, 4], [5]])
            .add_layout(420.0, [[1, 2, 3, 4, 5]])
        )
        assert_conformant(run_scenario(seed, scenario))

    @pytest.mark.parametrize("seed", range(4))
    def test_ugly_links_period(self, seed):
        """An unstable interval with ugly links may produce capricious
        views, but safety must hold throughout."""
        scenario = (
            FaultSchedule()
            .add_layout(
                40.0,
                [[1, 2, 3, 4, 5]],
                ugly_links=[(1, 2), (2, 3), (4, 1)],
            )
            .add_layout(300.0, [[1, 2, 3, 4, 5]])
        )
        assert_conformant(run_scenario(seed, scenario))

    @pytest.mark.parametrize("seed", range(3))
    def test_work_conserving_mode(self, seed):
        scenario = (
            FaultSchedule()
            .add_layout(50.0, [[1, 2, 3], [4, 5]])
            .add_layout(400.0, [[1, 2, 3, 4, 5]])
        )
        assert_conformant(
            run_scenario(seed, scenario, work_conserving=True)
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_crash_and_recover(self, seed):
        scenario = (
            FaultSchedule()
            .add_layout(60.0, [[1, 2, 3, 4]])  # 5 crashes
            .add_layout(300.0, [[1, 2, 3, 4, 5]])
        )
        assert_conformant(run_scenario(seed, scenario))


class TestVSPropertyConformance:
    @pytest.mark.parametrize("work_conserving", (False, True))
    @pytest.mark.parametrize("seed", range(3))
    def test_property_after_heal(self, seed, work_conserving):
        scenario = (
            FaultSchedule()
            .add_layout(50.0, [[1, 2, 3], [4, 5]])
            .add_layout(300.0, [[1, 2, 3, 4, 5]])
        )
        vs = run_scenario(
            seed, scenario, work_conserving=work_conserving
        )
        bounds = VSBounds(DELTA, PI, MU)
        checker = VSPropertyChecker(
            b=bounds.b(5),
            d=bounds.d_impl(5, work_conserving),
            group=PROCS,
        )
        report = checker.check(vs.merged_trace(), PROCS, vs.initial_view)
        assert report.holds, report.reason
        assert report.obligations > 0

    def test_property_for_partition_side(self):
        """VS-property holds with Q = the majority side of a split that
        never heals (per-component guarantee)."""
        scenario = FaultSchedule().add_layout(50.0, [[1, 2, 3], [4, 5]])
        vs = run_scenario(2, scenario, until=600.0)
        bounds = VSBounds(DELTA, PI, MU)
        checker = VSPropertyChecker(
            b=bounds.b(3), d=bounds.d_impl(3, False), group=(1, 2, 3)
        )
        report = checker.check(vs.merged_trace(), PROCS, vs.initial_view)
        assert report.holds, report.reason
