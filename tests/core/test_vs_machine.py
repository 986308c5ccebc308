"""Tests for VS-machine (Fig. 6), WeakVS-machine, and the trace checker
covering the Lemma 4.1/4.2 properties."""

import pytest

from repro.core.types import BOTTOM, View
from repro.core.vs_spec import VSMachine, WeakVSMachine, check_vs_trace
from repro.ioa.actions import act
from repro.ioa.automaton import TransitionError
from repro.ioa.execution import RandomScheduler, run_automaton

PROCS = ("p", "q", "r")


def machine(initial_members=None, **kwargs):
    return VSMachine(PROCS, initial_members=initial_members, **kwargs)


class TestInitialState:
    def test_hybrid_initial_view(self):
        m = machine(initial_members=("p", "q"))
        assert m.current_viewid["p"] == 0
        assert m.current_viewid["q"] == 0
        assert m.current_viewid["r"] is BOTTOM
        assert m.initial_view == View(0, {"p", "q"})

    def test_default_members_is_all(self):
        m = machine()
        assert m.initial_view.set == set(PROCS)

    def test_unknown_initial_member_rejected(self):
        with pytest.raises(ValueError):
            machine(initial_members=("zz",))


class TestCreateView:
    def test_requires_increasing_ids(self):
        m = machine()
        m.step(act("createview", View(5, {"p"})))
        with pytest.raises(TransitionError):
            m.step(act("createview", View(3, {"p", "q"})))

    def test_duplicate_id_rejected(self):
        m = machine()
        m.step(act("createview", View(5, {"p"})))
        with pytest.raises(TransitionError):
            m.step(act("createview", View(5, {"q"})))

    def test_weak_machine_allows_out_of_order(self):
        m = WeakVSMachine(PROCS)
        m.step(act("createview", View(5, {"p"})))
        m.step(act("createview", View(3, {"p", "q"})))
        assert set(m.created) == {0, 3, 5}

    def test_weak_machine_still_requires_unique_ids(self):
        m = WeakVSMachine(PROCS)
        m.step(act("createview", View(5, {"p"})))
        with pytest.raises(TransitionError):
            m.step(act("createview", View(5, {"p"})))

    def test_offer_view_generates_next_id(self):
        m = machine()
        view = m.offer_view({"p", "q"})
        assert view.id == 1
        assert act("createview", view) in list(m.enabled_actions())
        m.step(act("createview", view))
        assert view.id in m.created
        assert view not in m.view_candidates


class TestNewview:
    def test_member_learns_view(self):
        m = machine()
        view = View(1, {"p", "q"})
        m.step(act("createview", view))
        m.step(act("newview", view, "p"))
        assert m.current_viewid["p"] == 1
        assert m.current_view("p") == view

    def test_non_member_cannot_learn(self):
        m = machine()
        view = View(1, {"p"})
        m.step(act("createview", view))
        with pytest.raises(TransitionError):
            m.step(act("newview", view, "q"))

    def test_monotone_per_location(self):
        m = machine()
        v1, v2 = View(1, {"p"}), View(2, {"p"})
        m.step(act("createview", v1))
        m.step(act("createview", v2))
        m.step(act("newview", v2, "p"))
        with pytest.raises(TransitionError):
            m.step(act("newview", v1, "p"))

    def test_skipping_views_allowed(self):
        """A processor need not learn every view including it."""
        m = machine()
        v1, v2 = View(1, {"p", "q"}), View(2, {"p", "q"})
        m.step(act("createview", v1))
        m.step(act("createview", v2))
        m.step(act("newview", v2, "p"))  # p jumps straight to v2
        assert m.current_viewid["p"] == 2

    def test_bottom_processor_can_join(self):
        m = machine(initial_members=("p",))
        view = View(1, {"p", "q"})
        m.step(act("createview", view))
        m.step(act("newview", view, "q"))
        assert m.current_viewid["q"] == 1


class TestMessageFlow:
    def test_gpsnd_goes_to_current_view_pending(self):
        m = machine()
        m.step(act("gpsnd", "m1", "p"))
        assert m.pending[("p", 0)] == ["m1"]

    def test_gpsnd_with_bottom_view_ignored(self):
        m = machine(initial_members=("p",))
        m.step(act("gpsnd", "m1", "q"))
        assert all(not v for v in m.pending.values())

    def test_vs_order_appends_to_view_queue(self):
        m = machine()
        m.step(act("gpsnd", "m1", "p"))
        m.step(act("vs-order", "m1", "p", 0))
        assert m.queue[0] == [("m1", "p")]
        assert m.pending[("p", 0)] == []

    def test_gprcv_delivers_in_queue_order(self):
        m = machine()
        for msg in ("m1", "m2"):
            m.step(act("gpsnd", msg, "p"))
            m.step(act("vs-order", msg, "p", 0))
        m.step(act("gprcv", "m1", "p", "q"))
        with pytest.raises(TransitionError):
            m.step(act("gprcv", "m1", "p", "q"))  # already consumed
        m.step(act("gprcv", "m2", "p", "q"))
        assert m.get_next("q", 0) == 3

    def test_gprcv_requires_current_view_match(self):
        m = machine()
        m.step(act("gpsnd", "m1", "p"))
        m.step(act("vs-order", "m1", "p", 0))
        view = View(1, {"q"})
        m.step(act("createview", view))
        m.step(act("newview", view, "q"))
        # q's current view is now 1; the view-0 message is unreachable.
        with pytest.raises(TransitionError):
            m.step(act("gprcv", "m1", "p", "q"))

    def test_safe_requires_all_members_delivered(self):
        m = machine()
        m.step(act("gpsnd", "m1", "p"))
        m.step(act("vs-order", "m1", "p", 0))
        m.step(act("gprcv", "m1", "p", "p"))
        m.step(act("gprcv", "m1", "p", "q"))
        with pytest.raises(TransitionError):
            m.step(act("safe", "m1", "p", "p"))  # r hasn't delivered
        m.step(act("gprcv", "m1", "p", "r"))
        m.step(act("safe", "m1", "p", "p"))
        assert m.get_next_safe("p", 0) == 2

    def test_safe_in_smaller_view_needs_only_members(self):
        m = machine(initial_members=("p", "q"))
        m.step(act("gpsnd", "m1", "p"))
        m.step(act("vs-order", "m1", "p", 0))
        m.step(act("gprcv", "m1", "p", "p"))
        m.step(act("gprcv", "m1", "p", "q"))
        m.step(act("safe", "m1", "p", "q"))  # r is not a member of v0

    def test_message_stays_in_sending_view(self):
        """Sending-view delivery: a message sent in view 0 is never
        delivered to a processor whose current view moved on."""
        m = machine()
        m.step(act("gpsnd", "m1", "p"))
        view = View(1, set(PROCS))
        m.step(act("createview", view))
        for proc in PROCS:
            m.step(act("newview", view, proc))
        m.step(act("vs-order", "m1", "p", 0))
        for proc in PROCS:
            with pytest.raises(TransitionError):
                m.step(act("gprcv", "m1", "p", proc))


class TestEnabledEnumeration:
    def test_enumerates_deliveries_and_safe(self):
        m = machine()
        m.step(act("gpsnd", "m1", "p"))
        assert act("vs-order", "m1", "p", 0) in list(m.enabled_actions())
        m.step(act("vs-order", "m1", "p", 0))
        enabled = list(m.enabled_actions())
        for proc in PROCS:
            assert act("gprcv", "m1", "p", proc) in enabled
        for proc in PROCS:
            m.step(act("gprcv", "m1", "p", proc))
        assert act("safe", "m1", "p", "p") in list(m.enabled_actions())


class TestRandomRunsConform:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_walks_produce_conformant_traces(self, seed):
        m = machine()
        step_count = [0]

        def inputs(step):
            step_count[0] = step
            if step % 4 == 0:
                return act("gpsnd", f"m{step}", PROCS[step % 3])
            if step % 17 == 0 and step > 0:
                m.offer_view(set(PROCS))
            return None

        execution = run_automaton(
            m, RandomScheduler(seed), max_steps=400, input_source=inputs
        )
        trace = execution.trace({"gpsnd", "gprcv", "safe", "newview"})
        report = check_vs_trace(trace, PROCS, m.initial_view)
        assert report.ok, report.reason


class TestTraceChecker:
    V0 = View(0, set(PROCS))

    def test_rejects_non_member_newview(self):
        trace = [act("newview", View(1, {"p"}), "q")]
        report = check_vs_trace(trace, PROCS, self.V0)
        assert not report.ok
        assert "self-inclusion" in report.reason

    def test_rejects_non_monotone_newview(self):
        v1, v2 = View(1, set(PROCS)), View(2, set(PROCS))
        trace = [act("newview", v2, "p"), act("newview", v1, "p")]
        report = check_vs_trace(trace, PROCS, self.V0)
        assert not report.ok
        assert "monotonicity" in report.reason

    def test_rejects_conflicting_memberships(self):
        trace = [
            act("newview", View(1, {"p", "q"}), "p"),
            act("newview", View(1, {"q"}), "q"),
        ]
        report = check_vs_trace(trace, PROCS, self.V0)
        assert not report.ok
        assert "two memberships" in report.reason

    def test_rejects_receive_order_divergence(self):
        trace = [
            act("gpsnd", "a", "p"),
            act("gpsnd", "b", "q"),
            act("gprcv", "a", "p", "p"),
            act("gprcv", "b", "q", "q"),
        ]
        report = check_vs_trace(trace, PROCS, self.V0)
        assert not report.ok

    def test_rejects_receive_before_send(self):
        trace = [act("gprcv", "a", "p", "q"), act("gpsnd", "a", "p")]
        assert not check_vs_trace(trace, PROCS, self.V0).ok

    def test_rejects_safe_before_all_receive(self):
        trace = [
            act("gpsnd", "a", "p"),
            act("gprcv", "a", "p", "p"),
            act("gprcv", "a", "p", "q"),
            act("safe", "a", "p", "p"),  # r hasn't received
        ]
        assert not check_vs_trace(trace, PROCS, self.V0).ok

    def test_rejects_receive_from_sender_outside_p(self):
        """A receive whose sender is not in P is a violation, not a
        crash.  (An event *at* a processor outside P still raises
        ``KeyError``: callers filter such events out first, as
        ``verify_events`` does.)"""
        trace = [act("gpsnd", "a", "p"), act("gprcv", "a", "zz", "q")]
        report = check_vs_trace(trace, PROCS, self.V0)
        assert not report.ok
        assert "'zz'" in report.reason

    def test_skips_internal_and_status_actions(self):
        trace = [
            act("gpsnd", "a", "p"),
            act("vs-order", "a", "p", 0),
            act("bad", "q"),
            act("gprcv", "a", "p", "p"),
        ]
        assert check_vs_trace(trace, PROCS, self.V0).ok

    def test_rejects_unexpected_action(self):
        report = check_vs_trace([act("brcv", "a", "p", "q")], PROCS, self.V0)
        assert not report.ok
        assert "unexpected action" in report.reason

    def test_accepts_clean_exchange(self):
        trace = [
            act("gpsnd", "a", "p"),
            act("gprcv", "a", "p", "p"),
            act("gprcv", "a", "p", "q"),
            act("gprcv", "a", "p", "r"),
            act("safe", "a", "p", "p"),
            act("safe", "a", "p", "q"),
        ]
        report = check_vs_trace(trace, PROCS, self.V0)
        assert report.ok, report.reason
        assert report.per_view_order[0] == [("a", "p")]
