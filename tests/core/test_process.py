"""Unit tests for the VStoTO_p automaton (Figs. 9–10), driven directly
with actions (no VS layer)."""

import pytest

from repro.core.quorums import MajorityQuorumSystem, NoQuorumSystem
from repro.core.types import BOTTOM, Label, View
from repro.core.vstoto.process import (
    Status,
    TimedVStoTOProcess,
    VStoTOProcess,
)
from repro.core.vstoto.summary import Summary
from repro.ioa.actions import act
from repro.ioa.automaton import TransitionError
from repro.ioa.explore import restore_snapshot

PROCS = ("p", "q", "r")
V0 = View(0, set(PROCS))


def process(proc="p", quorums=None, initial=V0):
    if quorums is None:
        quorums = MajorityQuorumSystem(PROCS)
    return VStoTOProcess(proc, quorums, initial)


def exchange(proc_obj, view, summaries):
    """Drive proc through newview and a full state exchange."""
    proc_obj.step(act("newview", view, proc_obj.proc_id))
    own = proc_obj.state_summary()
    proc_obj.step(act("gpsnd", own, proc_obj.proc_id))
    for sender, x in summaries.items():
        proc_obj.step(act("gprcv", x, sender, proc_obj.proc_id))
    proc_obj.step(act("gprcv", own, proc_obj.proc_id, proc_obj.proc_id))


class TestInitialState:
    def test_member_of_p0(self):
        proc = process()
        assert proc.current == V0
        assert proc.highprimary == 0
        assert proc.status is Status.NORMAL
        assert proc.established == {0: True}

    def test_outsider(self):
        proc = process(initial=View(0, {"q", "r"}))
        assert proc.current is BOTTOM
        assert proc.highprimary is BOTTOM
        assert proc.established == {}

    def test_primary_derived_variable(self):
        assert process().primary  # 3 of 3 is a majority
        proc = process(initial=View(0, {"p"}))
        assert not proc.primary
        assert not process(quorums=NoQuorumSystem()).primary


class TestNormalPath:
    def test_bcast_goes_to_delay(self):
        proc = process()
        proc.step(act("bcast", "a", "p"))
        assert proc.delay == ["a"]

    def test_bcast_for_other_location_ignored(self):
        proc = process()
        proc.step(act("bcast", "a", "q"))
        assert proc.delay == []

    def test_label_assigns_and_buffers(self):
        proc = process()
        proc.step(act("bcast", "a", "p"))
        proc.step(act("label", "a", "p"))
        label = Label(0, 1, "p")
        assert proc.buffer == [label]
        assert (label, "a") in proc.content
        assert proc.nextseqno == 2
        assert proc.delay == []

    def test_label_requires_view(self):
        proc = process(initial=View(0, {"q", "r"}))
        proc.step(act("bcast", "a", "p"))
        with pytest.raises(TransitionError):
            proc.step(act("label", "a", "p"))

    def test_gpsnd_pops_buffer(self):
        proc = process()
        proc.step(act("bcast", "a", "p"))
        proc.step(act("label", "a", "p"))
        label = Label(0, 1, "p")
        proc.step(act("gpsnd", (label, "a"), "p"))
        assert proc.buffer == []

    def test_gpsnd_requires_normal_status(self):
        proc = process()
        proc.step(act("bcast", "a", "p"))
        proc.step(act("label", "a", "p"))
        proc.step(act("newview", View(1, set(PROCS)), "p"))
        label = Label(0, 1, "p")
        with pytest.raises(TransitionError):
            proc.step(act("gpsnd", (label, "a"), "p"))

    def test_gprcv_orders_in_primary(self):
        proc = process()
        label = Label(0, 1, "q")
        proc.step(act("gprcv", (label, "x"), "q", "p"))
        assert proc.order == [label]
        assert (label, "x") in proc.content

    def test_gprcv_does_not_order_in_nonprimary(self):
        proc = process(quorums=NoQuorumSystem())
        label = Label(0, 1, "q")
        proc.step(act("gprcv", (label, "x"), "q", "p"))
        assert proc.order == []
        assert (label, "x") in proc.content

    def test_gprcv_idempotent_for_ordered_label(self):
        proc = process()
        label = Label(0, 1, "q")
        proc.step(act("gprcv", (label, "x"), "q", "p"))
        proc.step(act("gprcv", (label, "x"), "q", "p"))
        assert proc.order == [label]

    def test_safe_then_confirm_then_brcv(self):
        proc = process()
        label = Label(0, 1, "q")
        proc.step(act("gprcv", (label, "x"), "q", "p"))
        with pytest.raises(TransitionError):
            proc.step(act("confirm", "p"))  # not yet safe
        proc.step(act("safe", (label, "x"), "q", "p"))
        assert label in proc.safe_labels
        proc.step(act("confirm", "p"))
        assert proc.nextconfirm == 2
        proc.step(act("brcv", "x", "q", "p"))
        assert proc.nextreport == 2

    def test_brcv_requires_confirmed(self):
        proc = process()
        label = Label(0, 1, "q")
        proc.step(act("gprcv", (label, "x"), "q", "p"))
        with pytest.raises(TransitionError):
            proc.step(act("brcv", "x", "q", "p"))

    def test_brcv_checks_origin(self):
        proc = process()
        label = Label(0, 1, "q")
        proc.step(act("gprcv", (label, "x"), "q", "p"))
        proc.step(act("safe", (label, "x"), "q", "p"))
        proc.step(act("confirm", "p"))
        with pytest.raises(TransitionError):
            proc.step(act("brcv", "x", "r", "p"))

    def test_safe_ignored_in_nonprimary(self):
        proc = process(quorums=NoQuorumSystem())
        label = Label(0, 1, "q")
        proc.step(act("gprcv", (label, "x"), "q", "p"))
        proc.step(act("safe", (label, "x"), "q", "p"))
        assert proc.safe_labels == set()


class TestRecovery:
    def test_newview_resets_per_view_state(self):
        proc = process()
        proc.step(act("bcast", "a", "p"))
        proc.step(act("label", "a", "p"))
        view = View(1, {"p", "q"})
        proc.step(act("newview", view, "p"))
        assert proc.current == view
        assert proc.status is Status.SEND
        assert proc.buffer == []
        assert proc.nextseqno == 1
        assert proc.gotstate == {}
        assert proc.safe_exch == set()
        assert proc.safe_labels == set()
        # content and order survive the view change
        assert proc.content

    def test_summary_gpsnd_moves_to_collect(self):
        proc = process()
        view = View(1, {"p", "q"})
        proc.step(act("newview", view, "p"))
        own = proc.state_summary()
        assert act("gpsnd", own, "p") in list(proc.enabled_actions())
        proc.step(act("gpsnd", own, "p"))
        assert proc.status is Status.COLLECT

    def test_exchange_completion_primary_adopts_fullorder(self):
        proc = process()
        label_q = Label(0, 1, "q")
        other = Summary(
            con=frozenset({(label_q, "z")}), ord=(label_q,), next=1, high=0
        )
        view = View(1, {"p", "q"})
        exchange(proc, view, {"q": other})
        assert proc.status is Status.NORMAL
        assert proc.highprimary == 1  # primary: set to new view id
        assert label_q in proc.order
        assert proc.established.get(1)

    def test_exchange_completion_nonprimary_adopts_shortorder(self):
        proc = process(initial=View(0, {"p"}))
        # singleton non-primary view of just p
        label = Label(0, 1, "p")
        view = View(1, {"p"})
        proc.step(act("newview", view, "p"))
        own = proc.state_summary()
        proc.step(act("gpsnd", own, "p"))
        proc.step(act("gprcv", own, "p", "p"))
        assert proc.status is Status.NORMAL
        # maxprimary of the summaries: p's own initial highprimary g0.
        assert proc.highprimary == 0
        assert proc.order == []

    def test_exchange_not_complete_until_all_members(self):
        proc = process()
        view = View(1, set(PROCS))
        proc.step(act("newview", view, "p"))
        own = proc.state_summary()
        proc.step(act("gpsnd", own, "p"))
        proc.step(act("gprcv", own, "p", "p"))
        assert proc.status is Status.COLLECT  # q, r summaries missing

    def test_safe_exchange_marks_labels(self):
        proc = process()
        label_q = Label(0, 1, "q")
        other = Summary(
            con=frozenset({(label_q, "z")}), ord=(label_q,), next=1, high=0
        )
        view = View(1, {"p", "q"})
        exchange(proc, view, {"q": other})
        own = proc.gotstate["p"]
        proc.step(act("safe", other, "q", "p"))
        assert proc.safe_labels == set()  # p's summary not yet safe
        proc.step(act("safe", own, "p", "p"))
        assert label_q in proc.safe_labels

    def test_nextconfirm_takes_max(self):
        proc = process()
        label_q = Label(0, 1, "q")
        other = Summary(
            con=frozenset({(label_q, "z")}), ord=(label_q,), next=2, high=0
        )
        view = View(1, {"p", "q"})
        exchange(proc, view, {"q": other})
        assert proc.nextconfirm == 2


class TestSnapshotRestore:
    @staticmethod
    def confirmed(label, value):
        """A process at p whose one ordered label is confirmed but not
        yet delivered."""
        proc = process()
        proc.order = [label]
        proc.content = {(label, value)}
        proc.nextconfirm = 2
        return proc

    def test_restore_rebuilds_indexes_of_equal_length_state(self):
        """The derived indexes key on the identity of ``order`` and
        ``content``, not only their length: a restored snapshot of the
        same lengths must not be read through the old indexes."""
        a = self.confirmed(Label(0, 1, "p"), "a")
        b = self.confirmed(Label(0, 1, "q"), "b")
        assert list(a.enabled_actions()) == [act("brcv", "a", "p", "p")]
        snap = b.snapshot()
        restore_snapshot(a, snap)
        fresh = process()
        restore_snapshot(fresh, snap)
        restored = list(a.enabled_actions())
        assert restored == list(fresh.enabled_actions())
        assert restored == [act("brcv", "b", "q", "p")]


class TestTimedWrapper:
    def test_failure_status_gates_local_actions(self):
        proc = TimedVStoTOProcess("p", MajorityQuorumSystem(PROCS), V0)
        proc.step(act("bcast", "a", "p"))
        assert list(proc.enabled_actions())
        proc.step(act("bad", "p"))
        assert proc.failure_status == "bad"
        assert list(proc.enabled_actions()) == []
        with pytest.raises(TransitionError):
            proc.step(act("label", "a", "p"))

    def test_recovery_to_good(self):
        proc = TimedVStoTOProcess("p", MajorityQuorumSystem(PROCS), V0)
        proc.step(act("bad", "p"))
        proc.step(act("bcast", "a", "p"))  # inputs still accepted
        proc.step(act("good", "p"))
        proc.step(act("label", "a", "p"))
        assert proc.buffer

    def test_status_events_for_other_locations_ignored(self):
        proc = TimedVStoTOProcess("p", MajorityQuorumSystem(PROCS), V0)
        proc.step(act("bad", "q"))
        assert proc.failure_status == "good"

    def test_ugly_does_not_gate(self):
        proc = TimedVStoTOProcess("p", MajorityQuorumSystem(PROCS), V0)
        proc.step(act("ugly", "p"))
        proc.step(act("bcast", "a", "p"))
        proc.step(act("label", "a", "p"))
        assert proc.buffer

    def test_time_passage_blocked_while_good_and_enabled(self):
        """Section 7: nu(t) has precondition 'if good then no output or
        internal action is enabled'."""
        proc = TimedVStoTOProcess("p", MajorityQuorumSystem(PROCS), V0)
        assert proc.can_advance(1.0)  # quiescent: time may pass
        proc.step(act("bcast", "a", "p"))  # label becomes enabled
        assert not proc.can_advance(1.0)
        proc.step(act("label", "a", "p"))
        assert not proc.can_advance(1.0)  # gpsnd enabled now

    def test_time_passes_freely_when_bad_or_ugly(self):
        proc = TimedVStoTOProcess("p", MajorityQuorumSystem(PROCS), V0)
        proc.step(act("bcast", "a", "p"))
        proc.step(act("bad", "p"))
        assert proc.can_advance(1.0)
        proc.step(act("ugly", "p"))
        assert proc.can_advance(1.0)

    def test_time_passage_rejects_nonpositive(self):
        proc = TimedVStoTOProcess("p", MajorityQuorumSystem(PROCS), V0)
        assert not proc.can_advance(0.0)
