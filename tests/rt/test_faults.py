"""The live firewall's view of a partition, and the canonical split."""

from __future__ import annotations

import pytest

from repro.faults import PartitionInjector, majority_split
from repro.faults.schedule import FaultSchedule, FaultWindow
from repro.rt.faults import live_windows, single_partition_window


class TestBlockedFor:
    def test_blocked_for_is_everything_outside_own_component(self):
        partition = PartitionInjector("cut", (("p1", "p2"), ("p3",)))
        assert partition.blocked_for("p1") == ("p3",)
        assert partition.blocked_for("p3") == ("p1", "p2")

    def test_unknown_processor_blocks_all_groups(self):
        partition = PartitionInjector("cut", (("p1",), ("p2",)))
        assert partition.blocked_for("p9") == ("p1", "p2")

    def test_rejects_processor_in_two_components(self):
        with pytest.raises(ValueError, match="two groups"):
            PartitionInjector("cut", (("p1", "p2"), ("p2",)))


class TestFirewallWindow:
    """A live firewall window is a FaultWindow over a PartitionInjector."""

    def test_rejects_bad_interval(self):
        partition = PartitionInjector("cut", (("p1",),))
        with pytest.raises(ValueError):
            FaultWindow(1.0, 1.0, partition)
        with pytest.raises(ValueError):
            FaultWindow(-0.1, 1.0, partition)


class TestMajoritySplit:
    @pytest.mark.parametrize(
        "n,major", [(2, 2), (3, 2), (4, 3), (5, 3), (7, 4)]
    )
    def test_majority_side_has_quorum(self, n, major):
        procs = tuple(f"p{i + 1}" for i in range(n))
        big, small = majority_split(procs)
        assert len(big) == major
        assert set(big) | set(small) == set(procs)
        assert not set(big) & set(small)
        assert len(big) > n // 2  # a MajorityQuorumSystem quorum

    def test_single_partition_window_wraps_split(self):
        partition = single_partition_window(("p3", "p1", "p2"), 0.5, 2.0)
        assert partition.groups == (("p1", "p2"), ("p3",))


def cut(name="cut"):
    return PartitionInjector(name, ((1, 2), (3,)))


class TestWindowsFromSchedule:
    def test_schedule_windows_scale_to_wall_time(self):
        schedule = FaultSchedule()
        schedule.add(cut("a"), 10.0, 30.0)
        schedule.add(cut("b"), 40.0, 50.0)
        windows = live_windows(schedule, (1, 2, 3), ("p1", "p2", "p3"), 0.05)
        assert [w.start for w in windows] == [0.5, 2.0]
        assert [w.stop for w in windows] == [1.5, 2.5]
        assert all(w.injector.groups == (("p1", "p2"), ("p3",)) for w in windows)

    def test_windows_sorted_regardless_of_insertion_order(self):
        schedule = FaultSchedule()
        schedule.add(cut("late"), 5.0, 6.0)
        schedule.add(cut("early"), 1.0, 2.0)
        windows = live_windows(schedule, (1, 2, 3), ("p1", "p2", "p3"))
        assert [w.start for w in windows] == [1.0, 5.0]
