"""The work-conserving wake: a member's send launches the idle token.

In work-conserving mode a non-leader that has seen its view's token
since its last wake, and whose log is all safe, sends one
:class:`~repro.membership.messages.Wake` to the leader when its client
sends.  The leader launches the token if it holds it for that view and
drops every other wake (E36).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.membership.messages import Probe, Wake
from repro.membership.ring import RingConfig, RingMember
from repro.membership.service import TokenRingVS
from repro.faults import FaultSchedule
from repro.obs.digest import rng_digest

DELTA = 1.0
PI = 50.0  # far from the sends below, so a launch at the tick shows


def service(n: int, seed: int = 0, work_conserving: bool = True) -> TokenRingVS:
    config = RingConfig(
        delta=DELTA, pi=PI, mu=1000.0, work_conserving=work_conserving
    )
    return TokenRingVS(range(1, n + 1), config, seed=seed)


def gprcv_times(vs: TokenRingVS, payload: str) -> dict[int, float]:
    return {
        e.action.args[2]: e.time
        for e in vs.trace.events
        if e.action.name == "gprcv" and e.action.args[0] == payload
    }


def wakes(vs: TokenRingVS) -> dict[int, int]:
    return {p: m.wakes_sent for p, m in vs.members.items()}


def after_gprcv(vs: TokenRingVS, payload: str, at: int, then) -> None:
    """Run ``then()`` just after ``at`` delivers ``payload``: within the
    same token visit, once the visit is over."""

    def listener(_time, name, args) -> None:
        if name == "gprcv" and args[0] == payload and args[2] == at:
            vs.simulator.call_soon(then)

    vs.add_vs_listener(listener)


class TestAWakeLaunchesTheIdleToken:
    @pytest.mark.parametrize("n", [3, 5])
    def test_a_non_leaders_send_is_delivered_within_a_lap(self, n):
        """The sender at ring position k (the leader is 1): the wake
        (δ), the lap to the leader ((n+1)δ in all, the bound for the
        leader's successor), then the next lap up to position k−1 — all
        of it long before the π tick at 50."""
        for k in range(2, n + 1):
            vs = service(n, seed=k)
            vs.schedule_send(20.0, k, "m")
            vs.run_until(PI - 1.0)
            times = gprcv_times(vs, "m")
            assert sorted(times) == list(range(1, n + 1))
            assert max(times.values()) - 20.0 <= (n + k - 1) * DELTA
            assert max(times[1], times[k]) - 20.0 <= (n + 1) * DELTA
            assert wakes(vs) == {p: int(p == k) for p in vs.members}

    def test_a_lost_wake_waits_for_the_tick(self, monkeypatch):
        monkeypatch.setattr(RingMember, "_on_wake", lambda member, message: None)
        vs = service(3)
        vs.schedule_send(20.0, 3, "m")
        vs.run_until(PI + 10.0)
        assert min(gprcv_times(vs, "m").values()) > PI
        assert wakes(vs)[3] == 1


class TestOtherWakesAreDropped:
    def idle(self) -> TokenRingVS:
        vs = service(3)
        vs.run_until(20.0)
        assert vs.members[1].held_token is not None
        return vs

    def test_a_stale_view_wake_starts_nothing(self):
        vs = self.idle()
        leader = vs.members[1]
        leader.on_message(2, Wake((-1, 2)))
        pending = vs.simulator.pending
        vs.run_until(PI - 1.0)
        assert leader.held_token is not None  # not launched
        assert vs.stats()["formations"] == 0
        assert leader._forming_viewid is None
        assert not leader._join_watchdog.armed
        assert vs.simulator.pending == pending

    def test_a_stale_same_member_probe_would_start_a_formation(self):
        # Why the wake is no same-view Probe: a member of the view
        # probing with another view id is outside contact.
        vs = self.idle()
        vs.members[1].on_message(2, Probe(2, (-1, 2)))
        assert vs.stats()["formations"] == 1
        assert vs.members[1]._forming_viewid is not None

    def test_a_wake_while_the_token_circulates_is_dropped(self):
        vs = self.idle()
        leader = vs.members[1]
        state = []

        def wake_now() -> None:
            pending = vs.simulator.pending
            leader.on_message(3, Wake(leader.view.id))
            state.append((leader.held_token, vs.simulator.pending - pending))

        after_gprcv(vs, "m", 2, wake_now)
        vs.gpsnd(2, "m")  # its wake launches the token
        vs.run_until(PI - 1.0)
        assert state == [(None, 0)]


class TestNoWakeIsSent:
    def test_while_the_log_is_not_all_safe(self):
        vs = service(5, seed=1)
        member = vs.members[3]
        state = []

        def second_send() -> None:
            state.append((member.safe_idx, len(member.log)))
            vs.gpsnd(3, "m2")

        after_gprcv(vs, "m1", 3, second_send)
        vs.schedule_send(20.0, 3, "m1")
        vs.run_until(PI - 1.0)
        assert state == [(0, 1)]
        assert wakes(vs)[3] == 1
        # the relaunch for m1's safe counts carries m2
        assert len(gprcv_times(vs, "m2")) == 5

    def test_twice_within_one_visit(self):
        vs = service(5, seed=2)
        for i in range(3):
            vs.schedule_send(20.0 + 0.1 * i, 4, f"m{i}")
        vs.run_until(PI - 1.0)
        assert wakes(vs)[4] == 1
        assert all(len(gprcv_times(vs, f"m{i}")) == 5 for i in range(3))

    def test_before_the_views_first_token(self):
        vs = service(3, seed=3)
        state = []

        def early_send(_time, name, args) -> None:
            if name != "newview":
                return
            view, p = args
            if p == 3 and view.id != vs.initial_view.id:
                state.append(vs.members[3].tokens_processed)
                vs.simulator.call_soon(lambda: vs.gpsnd(3, "early"))

        vs.add_vs_listener(early_send)
        vs.schedule_send(0.0, 2, "first")  # before the initial view's token
        vs.simulator.schedule_at(20.0, vs.members[1].initiate_formation)
        vs.run_until(PI - 1.0)
        assert len(state) == 1  # the new view was installed at 3
        assert wakes(vs) == {1: 0, 2: 0, 3: 0}
        assert len(gprcv_times(vs, "first")) == len(gprcv_times(vs, "early")) == 3

    def test_from_the_leader(self):
        vs = service(3, seed=4)
        leader = vs.members[1]
        state = []

        def leader_send() -> None:
            state.append(leader.held_token)
            vs.gpsnd(1, "lead")

        after_gprcv(vs, "m", 2, leader_send)
        vs.schedule_send(20.0, 2, "m")
        vs.run_until(PI - 1.0)
        assert state == [None]  # the token was out
        assert wakes(vs) == {1: 0, 2: 1, 3: 0}
        assert len(gprcv_times(vs, "lead")) == 3

    def test_in_periodic_mode(self):
        vs = service(3, work_conserving=False)
        vs.schedule_send(20.0, 2, "m")
        vs.run_until(PI + 10.0)
        assert wakes(vs) == {1: 0, 2: 0, 3: 0}
        assert min(gprcv_times(vs, "m").values()) > PI


#: Digest of :func:`periodic_run` computed on the tree before the wake
#: existed: periodic mode sends no wake, so its executions are unchanged
#: event for event, RNG draw for RNG draw.
PERIODIC_DIGEST = "3e427684e06ffd212d433ca07467996a95cb424a293c38fd0c1846187bdaedbc"


def periodic_run() -> str:
    """n = 5, sends from every member, a split at 100 healed at 300."""
    vs = TokenRingVS(
        range(1, 6), RingConfig(delta=1.0, pi=10.0, mu=30.0), seed=11
    )
    (
        FaultSchedule().add_layout(100.0, [[1, 2, 3], [4, 5]]).add_layout(300.0, [[1, 2, 3, 4, 5]])
        .install(vs)
    )
    for i in range(60):
        vs.schedule_send(5.0 + 6.5 * i, 1 + i % 5, f"v{i}")
    vs.run_until(600.0)
    digest = hashlib.sha256()
    for event in vs.events:
        digest.update(f"{event.time!r}|{event.action!r}\n".encode())
    digest.update(f"{rng_digest(vs.rngs)}|{vs.simulator.events_processed}".encode())
    return digest.hexdigest()


def test_a_periodic_run_is_the_parents_event_for_event():
    assert periodic_run() == PERIODIC_DIGEST
