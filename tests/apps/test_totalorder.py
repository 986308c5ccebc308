"""Tests for the user-facing TotalOrderBroadcast façade."""

from repro.apps.totalorder import TotalOrderBroadcast
from repro.core.quorums import ExplicitQuorumSystem
from repro.core.to_spec import TO_EXTERNAL, check_to_trace
from repro.core.vs_spec import VS_EXTERNAL, check_vs_trace
from repro.membership.ring import RingConfig
from repro.faults import FaultSchedule

PROCS = (1, 2, 3, 4, 5)


class TestBasics:
    def test_agreement_and_completeness(self):
        tob = TotalOrderBroadcast(PROCS, seed=1)
        for i in range(10):
            tob.schedule_broadcast(5.0 + 5 * i, PROCS[i % 5], f"v{i}")
        tob.run_until(300.0)
        reference = tob.delivered(1)
        assert sorted(reference) == sorted(f"v{i}" for i in range(10))
        for p in PROCS[1:]:
            assert tob.delivered(p) == reference

    def test_immediate_broadcast_api(self):
        tob = TotalOrderBroadcast(PROCS, seed=2)
        tob.run_until(10.0)
        tob.broadcast(3, "now")
        tob.run_until(100.0)
        assert "now" in tob.delivered(5)

    def test_traces_conform_to_both_levels(self):
        tob = TotalOrderBroadcast(PROCS, seed=3)
        for i in range(8):
            tob.schedule_broadcast(5.0 + 9 * i, PROCS[i % 5], i)
        tob.run_until(300.0)
        to_actions = [
            e.action
            for e in tob.to_trace().events
            if e.action.name in TO_EXTERNAL
        ]
        assert check_to_trace(to_actions, PROCS).ok
        vs_actions = [
            e.action
            for e in tob.vs_trace().events
            if e.action.name in VS_EXTERNAL
        ]
        assert check_vs_trace(
            vs_actions, PROCS, tob.vs.initial_view
        ).ok

    def test_stats_report_deliveries(self):
        tob = TotalOrderBroadcast(PROCS, seed=4)
        tob.schedule_broadcast(5.0, 1, "x")
        tob.run_until(100.0)
        assert tob.stats()["deliveries"] == 5

    def test_now_tracks_virtual_time(self):
        tob = TotalOrderBroadcast(PROCS, seed=5)
        tob.run_until(42.0)
        assert tob.now == 42.0

    def test_deliver_callback(self):
        seen = []
        tob = TotalOrderBroadcast(
            PROCS, seed=6, on_deliver=lambda v, o, d: seen.append((v, o, d))
        )
        tob.schedule_broadcast(5.0, 2, "cb")
        tob.run_until(100.0)
        assert ("cb", 2, 1) in seen
        assert len(seen) == 5


class TestQuorumChoice:
    def test_explicit_quorums_change_primaries(self):
        # Only views containing {1, 2} are primary.
        quorums = ExplicitQuorumSystem([[1, 2]])
        tob = TotalOrderBroadcast(PROCS, quorums=quorums, seed=7)
        scenario = FaultSchedule().add_layout(20.0, [[1, 2], [3, 4, 5]])
        scenario.install(tob.vs)
        tob.schedule_broadcast(100.0, 1, "small-side")
        tob.schedule_broadcast(100.0, 3, "big-side")
        tob.run_until(400.0)
        # {1,2} contains the quorum and confirms; {3,4,5} does not.
        assert "small-side" in tob.delivered(1)
        assert "big-side" not in tob.delivered(3)


class TestPartitionSemantics:
    def test_no_delivery_disagreement_across_partition(self):
        tob = TotalOrderBroadcast(PROCS, seed=8)
        scenario = (
            FaultSchedule()
            .add_layout(20.0, [[1, 2, 3], [4, 5]])
            .add_layout(250.0, [[1, 2, 3, 4, 5]])
        )
        scenario.install(tob.vs)
        for i in range(12):
            tob.schedule_broadcast(10.0 + 25 * i, PROCS[i % 5], f"w{i}")
        tob.run_until(900.0)
        reference = tob.delivered(1)
        for p in PROCS[1:]:
            mine = tob.delivered(p)
            assert mine == reference[: len(mine)] or mine == reference

    def test_custom_ring_config(self):
        config = RingConfig(delta=0.5, pi=5.0, mu=15.0, work_conserving=True)
        tob = TotalOrderBroadcast(PROCS, config=config, seed=9)
        tob.schedule_broadcast(5.0, 1, "fast")
        tob.run_until(60.0)
        assert "fast" in tob.delivered(4)
