"""Layouts: the time-ordered consistent-partition entries of a schedule."""

import pytest

from repro.faults import FaultSchedule, Layout, PartitionInjector
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from repro.net.status import FailureStatus


def service(procs):
    return TokenRingVS(procs, RingConfig(delta=1.0, pi=10.0, mu=30.0), seed=0)


class TestScenarioConstruction:
    def test_add_returns_self_for_chaining(self):
        schedule = (
            FaultSchedule().add_layout(1.0, [[1, 2]]).add_layout(2.0, [[1], [2]])
        )
        assert len(schedule.layouts) == 2

    def test_out_of_order_rejected(self):
        schedule = FaultSchedule().add_layout(5.0, [[1]])
        with pytest.raises(ValueError, match="time order"):
            schedule.add_layout(1.0, [[1]])

    def test_horizon_covers_last_layout(self):
        schedule = FaultSchedule().add_layout(1.0, [[1]]).add_layout(9.0, [[1]])
        assert schedule.horizon == 9.0


class TestInstall:
    def test_events_applied_at_their_times(self):
        vs = service([1, 2, 3])
        oracle = vs.network.oracle
        FaultSchedule().add_layout(5.0, [[1, 2], [3]]).install(vs)
        vs.simulator.run_until(4.0)
        assert oracle.link_good(1, 3)
        vs.simulator.run_until(6.0)
        assert oracle.link_status(1, 3) is FailureStatus.BAD
        assert oracle.is_consistently_partitioned([1, 2])

    def test_ugly_links_after_layout(self):
        vs = service([1, 2])
        FaultSchedule().add_layout(1.0, [[1, 2]], ugly_links=[(1, 2)]).install(vs)
        vs.simulator.run_until(2.0)
        assert vs.network.oracle.link_status(1, 2) is FailureStatus.UGLY
        assert vs.network.oracle.link_good(2, 1)

    def test_ugly_processors(self):
        vs = service([1, 2])
        FaultSchedule().add_layout(1.0, [[1, 2]], ugly_processors=[2]).install(vs)
        vs.simulator.run_until(2.0)
        assert vs.network.oracle.processor_status(2) is FailureStatus.UGLY

    def test_processors_outside_every_group_become_bad(self):
        vs = service([1, 2, 3])
        FaultSchedule().add_layout(1.0, [[1, 2]]).install(vs)
        vs.simulator.run_until(2.0)
        assert vs.network.oracle.processor_status(3) is FailureStatus.BAD
        assert vs.network.oracle.processor_good(1)

    def test_layouts_apply_after_windows_in_insertion_order(self):
        vs = service([1, 2, 3])
        schedule = (
            FaultSchedule()
            .add_layout(5.0, [[1], [2, 3]])
            .add_layout(5.0, [[1, 2, 3]])
            .add(PartitionInjector("cut", [[1], [2, 3]]), 5.0, 9.0)
        )
        schedule.install(vs)
        vs.simulator.run_until(6.0)
        # The window opened first; the later of the two layouts won.
        assert vs.network.oracle.is_consistently_partitioned([1, 2, 3])


class TestGroupDisjointnessValidation:
    """Overlapping groups would install an inconsistent oracle layout
    (or blow up mid-run inside a simulator callback); they are rejected
    at construction time."""

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            FaultSchedule().add_layout(1.0, [[1, 2], [2, 3]])

    def test_duplicate_within_one_group_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            FaultSchedule().add_layout(1.0, [[1, 1, 2]])

    def test_direct_event_construction_validated(self):
        with pytest.raises(ValueError, match="disjoint"):
            Layout(time=0.0, groups=((1,), (1,)))

    def test_disjoint_groups_accepted(self):
        schedule = FaultSchedule().add_layout(1.0, [[1, 2], [3], [4, 5]])
        assert schedule.layouts[0].groups == ((1, 2), (3,), (4, 5))
