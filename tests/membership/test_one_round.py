"""Unit tests for the one-round membership variant (§8 footnote 7)."""

from repro.core.vs_spec import VS_EXTERNAL, check_vs_trace
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from repro.faults import FaultSchedule

PROCS = (1, 2, 3, 4)


def service(seed=0, mu=25.0):
    return TokenRingVS(
        PROCS,
        RingConfig(delta=1.0, pi=8.0, mu=mu, one_round=True),
        seed=seed,
    )


class TestConnectivityEstimate:
    def test_estimate_includes_recent_speakers(self):
        vs = service()
        vs.run_until(30.0)
        member = vs.members[1]
        estimate = member._connectivity_estimate()
        # token traffic means everyone has been heard from recently
        assert set(estimate) == set(PROCS)

    def test_estimate_always_includes_self(self):
        vs = service()
        member = vs.members[2]
        assert 2 in member._connectivity_estimate()

    def test_estimate_drops_silent_processors(self):
        vs = service()
        FaultSchedule().add_layout(20.0, [[1, 2, 3]]).install(vs)
        member = vs.members[1]
        # run long past the alive window after 4 went silent
        vs.run_until(20.0 + member.config.alive_window + 60.0)
        estimate = member._connectivity_estimate()
        assert 4 not in estimate
        assert {1, 2, 3} <= set(estimate)

    def test_alive_window_scales_with_mu(self):
        assert RingConfig(mu=10.0, one_round=True).alive_window == 15.0
        assert RingConfig(mu=40.0, one_round=True).alive_window == 60.0


class TestOneRoundFormation:
    def test_no_newgroup_traffic(self):
        vs = service(seed=2)
        seen_types = set()
        original = vs.network.send

        def spying_send(src, dst, message):
            from repro.membership.messages import Sequenced

            body = message.body if isinstance(message, Sequenced) else message
            seen_types.add(type(body).__name__)
            original(src, dst, message)

        vs.network.send = spying_send
        FaultSchedule().add_layout(30.0, [[1, 2], [3, 4]]).install(vs)
        vs.run_until(400.0)
        assert "Join" in seen_types
        assert "NewGroup" not in seen_types
        assert "Accept" not in seen_types

    def test_split_eventually_stabilizes(self):
        vs = service(seed=3)
        FaultSchedule().add_layout(50.0, [[1, 2], [3, 4]]).install(vs)
        vs.run_until(900.0)
        assert vs.current_view(1) == vs.current_view(2)
        assert vs.current_view(1).set == {1, 2}
        assert vs.current_view(3) == vs.current_view(4)
        assert vs.current_view(3).set == {3, 4}

    def test_trace_conformant_under_churn(self):
        vs = service(seed=4)
        (
            FaultSchedule()
            .add_layout(40.0, [[1, 2, 3], [4]])
            .add_layout(250.0, [[1, 2], [3, 4]])
            .add_layout(500.0, [[1, 2, 3, 4]])
            .install(vs)
        )
        for i in range(10):
            vs.schedule_send(10.0 + 60.0 * i, PROCS[i % 4], f"or{i}")
        vs.run_until(1500.0)
        actions = [
            e.action
            for e in vs.merged_trace().events
            if e.action.name in VS_EXTERNAL
        ]
        report = check_vs_trace(actions, PROCS, vs.initial_view)
        assert report.ok, report.reason

    def test_messages_flow_after_stabilization(self):
        vs = service(seed=5)
        FaultSchedule().add_layout(50.0, [[1, 2, 3, 4]]).install(vs)
        vs.schedule_send(300.0, 2, "late")
        vs.run_until(600.0)
        delivered = {
            e.action.args[2]
            for e in vs.trace.events
            if e.action.name == "gprcv" and e.action.args[0] == "late"
        }
        assert delivered == set(PROCS)
