"""Tests for the TokenRingVS façade."""

from repro.ioa.actions import act
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from repro.faults import FaultSchedule

PROCS = (1, 2, 3)


def service(seed=0, **kwargs):
    return TokenRingVS(
        PROCS, RingConfig(delta=1.0, pi=10.0, mu=30.0), seed=seed, **kwargs
    )


class TestFacade:
    def test_start_idempotent(self):
        vs = service()
        vs.start()
        vs.start()
        vs.run_until(50.0)

    def test_initial_view_id_uses_min_member(self):
        vs = service()
        assert vs.initial_view.id == (0, 1)
        assert vs.initial_view.set == set(PROCS)

    def test_initial_members_subset(self):
        vs = service(initial_members=(2, 3))
        assert vs.initial_view.set == {2, 3}
        assert vs.current_view(1) is None
        assert vs.current_view(2) == vs.initial_view

    def test_gpsnd_records_trace_event(self):
        vs = service()
        vs.start()
        vs.gpsnd(1, "payload")
        assert vs.trace.events[0].action == act("gpsnd", "payload", 1)

    def test_callbacks_invoked(self):
        vs = service()
        got = []
        vs.on_gprcv = lambda m, src, dst: got.append(("rcv", m, src, dst))
        vs.on_safe = lambda m, src, dst: got.append(("safe", m, src, dst))
        vs.schedule_send(5.0, 1, "x")
        vs.run_until(100.0)
        kinds = {g[0] for g in got}
        assert kinds == {"rcv", "safe"}
        assert ("rcv", "x", 1, 2) in got

    def test_newview_callback(self):
        vs = service()
        views = []
        vs.on_newview = lambda view, p: views.append((view, p))
        FaultSchedule().add_layout(30.0, [[1, 2], [3]]).install(vs)
        vs.run_until(200.0)
        assert views
        assert all(p in view.set for view, p in views)

    def test_merged_trace_includes_failure_events(self):
        vs = service()
        FaultSchedule().add_layout(30.0, [[1, 2], [3]]).install(vs)
        vs.run_until(100.0)
        merged = vs.merged_trace()
        names = {e.action.name for e in merged.events}
        assert "bad" in names and "good" in names

    def test_merged_trace_is_time_ordered(self):
        vs = service()
        FaultSchedule().add_layout(30.0, [[1, 2], [3]]).install(vs)
        vs.schedule_send(5.0, 1, "x")
        vs.run_until(200.0)
        merged = vs.merged_trace()
        times = [e.time for e in merged.events]
        assert times == sorted(times)

    def test_stats_keys(self):
        vs = service()
        vs.run_until(50.0)
        stats = vs.stats()
        for key in (
            "messages_sent",
            "messages_delivered",
            "formations",
            "tokens_processed",
            "events_processed",
        ):
            assert key in stats
        assert stats["tokens_processed"] > 0
