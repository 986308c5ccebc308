"""Edge cases of the membership/token protocol: lost Joins, concurrent
initiators, stale tokens, epoch uniqueness, direct protocol surgery."""

from repro.core.vs_spec import VS_EXTERNAL, check_vs_trace
from repro.membership.messages import Join, NewGroup, Probe, Token
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from repro.faults import FaultSchedule

PROCS = (1, 2, 3, 4)


def service(seed=0, **kwargs):
    return TokenRingVS(
        PROCS, RingConfig(delta=1.0, pi=10.0, mu=30.0), seed=seed, **kwargs
    )


class TestInstallFromToken:
    def test_member_missing_join_installs_from_token(self):
        """Deliver a token for a committed-but-not-installed view: the
        member must install from the token's membership."""
        vs = service()
        vs.start()
        vs.run_until(5.0)
        member = vs.members[2]
        viewid = (5, 1)
        # Simulate having accepted the view (committed) but lost the Join.
        member.committed = viewid
        token = Token(
            viewid=viewid,
            members=(1, 2, 3, 4),
            order=[("hello", 1)],
        )
        member.on_message(1, token)
        assert member.view is not None
        assert member.view.id == viewid
        assert member.delivered_idx == 1  # the order entry was delivered

    def test_token_for_uncommittable_view_ignored(self):
        vs = service()
        vs.start()
        vs.run_until(5.0)
        member = vs.members[2]
        member.committed = (9, 2)  # committed higher than the token
        before = member.view
        token = Token(viewid=(5, 1), members=(1, 2, 3, 4))
        member.on_message(1, token)
        assert member.view == before

    def test_stale_token_dies(self):
        vs = service()
        vs.start()
        vs.run_until(5.0)
        member = vs.members[2]
        current = member.view
        stale = Token(viewid=(0, 0), members=(2,))  # below current, not ours
        member.on_message(1, stale)
        assert member.view == current
        # nothing delivered from the stale token
        assert member.delivered_idx == member.delivered_idx


class TestConcurrentInitiators:
    def test_simultaneous_formations_converge(self):
        """Force every member to initiate at the same instant; the
        highest identifier wins and all members install one view."""
        vs = service(seed=3)
        vs.start()
        vs.run_until(5.0)
        for p in PROCS:
            vs.simulator.schedule_at(
                6.0, lambda member=vs.members[p]: member.initiate_formation()
            )
        vs.run_until(300.0)
        views = {vs.current_view(p) for p in PROCS}
        assert len(views) == 1
        final = views.pop()
        assert final.set == set(PROCS)
        # trace still conformant after the storm
        actions = [
            e.action
            for e in vs.merged_trace().events
            if e.action.name in VS_EXTERNAL
        ]
        assert check_vs_trace(actions, PROCS, vs.initial_view).ok

    def test_epochs_never_reused_by_one_initiator(self):
        vs = service(seed=4)
        vs.start()
        vs.run_until(5.0)
        member = vs.members[1]
        member.initiate_formation()
        first = member._forming_viewid
        member._cancel_formation()
        member.initiate_formation()
        second = member._forming_viewid
        assert first is not None and second is not None
        assert second > first

    def test_lower_newgroup_after_commit_is_not_accepted(self):
        vs = service()
        vs.start()
        vs.run_until(5.0)
        member = vs.members[2]
        member.on_message(3, NewGroup(viewid=(7, 3), initiator=3))
        assert member.committed == (7, 3)
        sent_before = vs.network.messages_sent
        member.on_message(4, NewGroup(viewid=(5, 4), initiator=4))
        assert member.committed == (7, 3)  # unchanged
        assert vs.network.messages_sent == sent_before  # no Accept sent


class TestJoinHandling:
    def test_join_excluding_self_ignored(self):
        vs = service()
        vs.start()
        vs.run_until(5.0)
        member = vs.members[2]
        before = member.view
        member.on_message(1, Join(viewid=(9, 1), members=(1, 3)))
        assert member.view == before

    def test_join_below_current_ignored(self):
        vs = service()
        FaultSchedule().add_layout(20.0, [[1, 2], [3, 4]]).install(vs)
        vs.run_until(200.0)
        member = vs.members[1]
        current = member.view
        assert current.id > (0, 1)
        member.on_message(3, Join(viewid=(0, 1), members=PROCS))
        assert member.view == current


class TestProbeHandling:
    def test_probe_from_co_member_same_view_is_noop(self):
        vs = service()
        vs.start()
        vs.run_until(5.0)
        member = vs.members[2]
        formations_before = member.formations_initiated
        member.on_message(
            1, Probe(sender=1, viewid=member.view.id)
        )
        assert member.formations_initiated == formations_before

    def test_probe_with_divergent_view_triggers_formation(self):
        vs = service()
        vs.start()
        vs.run_until(5.0)
        member = vs.members[2]
        formations_before = member.formations_initiated
        member.on_message(1, Probe(sender=1, viewid=(99, 1)))
        assert member.formations_initiated == formations_before + 1

    def test_probe_during_pending_formation_is_noop(self):
        vs = service()
        vs.start()
        vs.run_until(5.0)
        member = vs.members[2]
        member.initiate_formation()
        count = member.formations_initiated
        member.on_message(3, Probe(sender=3, viewid=(99, 3)))
        assert member.formations_initiated == count
