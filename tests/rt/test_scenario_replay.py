"""Mapping sim scenarios onto live firewall windows (no cluster needed)."""

import pytest

from repro.faults import FaultSchedule, PacketLossInjector, PartitionInjector
from repro.faults.triggers import TriggerSpec
from repro.rt.faults import UnenactableFault, live_windows
from repro.scenarios import build_journey

LIVE = ("p1", "p2", "p3", "p4", "p5")


class TestWindowsFromScenario:
    def test_majority_split_journey_maps_groups_and_scales_time(self):
        spec = build_journey("majority_split", processors=5, seed=0)
        schedule = spec.build_schedule()
        windows = live_windows(
            schedule, spec.proc_ids, LIVE, time_scale=0.05
        )
        assert len(windows) == 1
        window = windows[0]
        sim = schedule.windows[0]
        assert window.start == pytest.approx(sim.start * 0.05)
        assert window.stop == pytest.approx(sim.stop * 0.05)
        # Sim ids 1..5 map onto p1..p5 by sorted position, so the
        # journey's partition groups survive verbatim.
        sim_groups = sim.injector.groups
        assert window.injector.groups == tuple(
            tuple(f"p{p}" for p in group) for group in sim_groups
        )
        flat = [p for group in window.injector.groups for p in group]
        assert sorted(flat) == sorted(LIVE)

    def test_cascade_journey_yields_one_window_per_cut(self):
        spec = build_journey("cascade", processors=5, seed=0)
        windows = live_windows(
            spec.build_schedule(), spec.proc_ids, LIVE
        )
        assert len(windows) == 3
        starts = [w.start for w in windows]
        assert starts == sorted(starts)

    def test_loss_window_is_refused(self):
        schedule = FaultSchedule(horizon=100.0)
        schedule.add(PacketLossInjector("noise", rate=0.5), 10.0, 30.0)
        with pytest.raises(UnenactableFault, match="'noise'"):
            live_windows(schedule, (1, 2, 3, 4, 5), LIVE, time_scale=2.0)

    def test_triggered_window_is_refused(self):
        schedule = FaultSchedule(horizon=100.0)
        schedule.add_triggered(
            PartitionInjector("late", ((1, 2), (3, 4, 5))),
            TriggerSpec(event="newview", duration=10.0),
        )
        with pytest.raises(UnenactableFault, match="'late'"):
            live_windows(schedule, (1, 2, 3, 4, 5), LIVE)

    def test_layout_is_refused(self):
        schedule = FaultSchedule().add_layout(40.0, [[1, 2, 3], [4, 5]])
        with pytest.raises(UnenactableFault, match="t=40"):
            live_windows(schedule, (1, 2, 3, 4, 5), LIVE)

    def test_processor_count_mismatch_rejected(self):
        schedule = FaultSchedule(horizon=50.0)
        schedule.add(
            PartitionInjector("cut", groups=((1, 2), (3,))), 10.0, 20.0
        )
        with pytest.raises(ValueError, match="processors"):
            live_windows(schedule, (1, 2, 3), LIVE)
