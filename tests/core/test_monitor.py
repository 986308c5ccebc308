"""Tests for the online VS conformance monitor."""

import pytest

from repro.core.monitor import OnlineVSMonitor, VSConformanceError
from repro.core.types import View
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from repro.faults import FaultSchedule

PROCS = ("p", "q", "r")
V0 = View(0, frozenset(PROCS))
V1 = View(1, frozenset(PROCS))


def monitor(strict=True):
    return OnlineVSMonitor(PROCS, V0, strict=strict)


class TestHappyPath:
    def test_clean_exchange_accepted(self):
        mon = monitor()
        mon.on_gpsnd("a", "p")
        for dst in PROCS:
            mon.on_gprcv("a", "p", dst)
        mon.on_safe("a", "p", "p")
        assert mon.ok
        assert mon.events_checked == 5

    def test_view_change_accepted(self):
        mon = monitor()
        for p in PROCS:
            mon.on_newview(V1, p)
        mon.on_gpsnd("a", "q")
        for dst in PROCS:
            mon.on_gprcv("a", "q", dst)
        assert mon.ok

    def test_interleaved_senders_share_order(self):
        mon = monitor()
        mon.on_gpsnd("a", "p")
        mon.on_gpsnd("b", "q")
        # p receives a then b; q must match
        mon.on_gprcv("a", "p", "p")
        mon.on_gprcv("b", "q", "p")
        mon.on_gprcv("a", "p", "q")
        mon.on_gprcv("b", "q", "q")
        assert mon.ok


class TestViolations:
    def test_non_member_newview(self):
        mon = monitor()
        with pytest.raises(VSConformanceError, match="non-member"):
            mon.on_newview(View(1, frozenset({"p"})), "q")

    def test_non_monotone_newview(self):
        mon = monitor()
        mon.on_newview(View(2, frozenset(PROCS)), "p")
        with pytest.raises(VSConformanceError, match="not above"):
            mon.on_newview(V1, "p")

    def test_membership_conflict(self):
        mon = monitor()
        mon.on_newview(V1, "p")
        with pytest.raises(VSConformanceError, match="memberships"):
            mon.on_newview(View(1, frozenset({"q", "r"})), "q")

    def test_receive_without_send(self):
        mon = monitor()
        with pytest.raises(VSConformanceError, match="send sequence"):
            mon.on_gprcv("ghost", "p", "q")

    def test_order_divergence(self):
        mon = monitor()
        mon.on_gpsnd("a", "p")
        mon.on_gpsnd("b", "q")
        mon.on_gprcv("a", "p", "p")
        with pytest.raises(VSConformanceError, match="other members saw"):
            mon.on_gprcv("b", "q", "q")  # q starts with b, p started with a

    def test_sender_fifo_violation(self):
        mon = monitor()
        mon.on_gpsnd("a", "p")
        mon.on_gpsnd("b", "p")
        with pytest.raises(VSConformanceError):
            mon.on_gprcv("b", "p", "q")

    def test_premature_safe(self):
        mon = monitor()
        mon.on_gpsnd("a", "p")
        mon.on_gprcv("a", "p", "p")
        mon.on_gprcv("a", "p", "q")
        with pytest.raises(VSConformanceError, match="before member"):
            mon.on_safe("a", "p", "p")  # r has not received

    def test_safe_not_next_entry(self):
        mon = monitor()
        mon.on_gpsnd("a", "p")
        for dst in PROCS:
            mon.on_gprcv("a", "p", dst)
        with pytest.raises(VSConformanceError, match="next common-order"):
            mon.on_safe("zzz", "p", "p")

    def test_permissive_mode_collects(self):
        mon = monitor(strict=False)
        mon.on_gprcv("ghost", "p", "q")
        mon.on_gprcv("ghost2", "p", "q")
        assert not mon.ok
        assert len(mon.violations) == 2


class TestPermissiveMode:
    """strict=False must record violations without raising and keep
    checking soundly afterwards (the mode every chaos run relies on to
    produce a complete report instead of dying at the first anomaly)."""

    def test_every_violation_kind_records_instead_of_raising(self):
        feeds = [
            lambda m: m.on_newview(View(1, frozenset({"p"})), "q"),
            lambda m: m.on_newview(View(0, frozenset(PROCS)), "p"),
            lambda m: m.on_gprcv("ghost", "p", "q"),
            lambda m: m.on_safe("zzz", "p", "p"),
        ]
        for feed in feeds:
            mon = monitor(strict=False)
            feed(mon)  # must not raise
            assert len(mon.violations) == 1
            assert not mon.ok

    def test_keeps_checking_after_a_violation(self):
        mon = monitor(strict=False)
        mon.on_gprcv("ghost", "p", "q")  # violation 1
        # A clean exchange afterwards is still tracked correctly...
        mon.on_gpsnd("a", "p")
        for dst in PROCS:
            mon.on_gprcv("a", "p", dst)
        mon.on_safe("a", "p", "p")
        assert len(mon.violations) == 1
        # ...and a later genuine violation is still caught.
        mon.on_safe("never-sent", "p", "q")
        assert len(mon.violations) == 2
        assert mon.events_checked == 7

    def test_rejected_event_does_not_corrupt_order_state(self):
        mon = monitor(strict=False)
        mon.on_gpsnd("a", "p")
        mon.on_gprcv("phantom", "q", "p")  # rejected: q never sent
        assert len(mon.violations) == 1
        # The phantom receive must not have entered the common order:
        # the real receive sequence is still accepted at every member.
        for dst in PROCS:
            mon.on_gprcv("a", "p", dst)
        mon.on_safe("a", "p", "p")
        assert len(mon.violations) == 1

    def test_membership_conflict_recorded_once_per_event(self):
        mon = monitor(strict=False)
        mon.on_newview(V1, "p")
        mon.on_newview(View(1, frozenset({"q", "r"})), "q")
        assert len(mon.violations) == 1
        assert any("memberships" in v for v in mon.violations)


class TestAttachedToService:
    @pytest.mark.parametrize("seed", range(3))
    def test_live_ring_passes_under_monitor(self, seed):
        vs = TokenRingVS(
            (1, 2, 3, 4),
            RingConfig(delta=1.0, pi=10.0, mu=30.0, work_conserving=True),
            seed=seed,
        )
        mon = OnlineVSMonitor((1, 2, 3, 4), vs.initial_view)
        mon.attach(vs)
        (
            FaultSchedule()
            .add_layout(40.0, [[1, 2], [3, 4]])
            .add_layout(200.0, [[1, 2, 3, 4]])
            .install(vs)
        )
        for i in range(12):
            vs.schedule_send(5.0 + 13.0 * i, (i % 4) + 1, f"mon{i}")
        vs.run_until(700.0)
        assert mon.ok
        assert mon.events_checked > 50
