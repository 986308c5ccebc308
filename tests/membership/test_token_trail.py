"""``Token.trail`` is capped at one lap.

The ring order is fixed within a view, so once the token has been round
once the last ``n`` hops name every member a longer trail would, and
``RingMember.last_heard`` only reads the trail as a set.  The reference
the cap is held to — the append-only trail every hop used to carry —
lives here, as a patch over ``_process_token``: runs with and without it
must agree on every member's ``last_heard`` after every hop, on every
view installed and on every delivery.
"""

import dataclasses

import pytest

from repro.membership.messages import Sequenced, Token
from repro.membership.ring import RingConfig, RingMember
from repro.membership.service import TokenRingVS
from repro.faults import FaultSchedule
from repro.net.status import FailureStatus
from repro.rt.wire import BinaryWire


def spy_on_forwards(monkeypatch):
    """Every token handed to the network, as its forwarder built it."""
    forwards = []
    original = RingMember._encode_for

    def spying(self, successor, token):
        out = original(self, successor, token)
        forwards.append((self.proc_id, out, list(out.trail)))
        return out

    monkeypatch.setattr(RingMember, "_encode_for", spying)
    return forwards


def hop_overhead_bytes(token):
    """Wire size of the token with its window and its (legitimately
    growing) absolute counters blanked: what a hop costs before it
    carries anything."""
    zeros = dict.fromkeys(token.members, 0)
    blank = dataclasses.replace(
        token, base=0, order=[], delivered=zeros, safed=zeros, seen=zeros, hop=0
    )
    return len(BinaryWire().encode(Sequenced(1, blank)))


# ----------------------------------------------------------------------
# (a) bound
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n, pi, spacing", [(3, 10.0, 0.25), (11, 16.5, 1.0)])
def test_trail_is_bounded_over_2000_continuous_hops(monkeypatch, n, pi, spacing):
    forwards = spy_on_forwards(monkeypatch)
    procs = tuple(range(1, n + 1))
    vs = TokenRingVS(
        procs,
        RingConfig(delta=1.0, pi=pi, mu=50.0, work_conserving=True),
        seed=4,
    )
    # Sends this dense keep some entry unsafe at every return to the
    # leader, so the token never rests and no launch tick resets it.
    for i in range(int(1300 / spacing)):
        vs.schedule_send(5.0 + i * spacing, procs[i % n], f"m{i}")
    vs.run_until(1300.0)
    assert vs.stats()["formations"] == 0
    for _, out, trail in forwards:
        assert len(trail) <= len(out.members)
    # The first laps run before the load arrives and end in a rest; from
    # then on the circulation is continuous: every forward carries one
    # full lap, never a trail a launch tick has just emptied.
    steady = forwards[2 * n : 2 * n + 2000]
    assert len(steady) == 2000
    assert all(sorted(trail) == list(procs) for _, _, trail in steady)
    assert hop_overhead_bytes(steady[19][1]) == hop_overhead_bytes(steady[1999][1])


# ----------------------------------------------------------------------
# (b) identity with the append-only trail
# ----------------------------------------------------------------------
def append_only_trail(monkeypatch):
    """The reference: nothing is ever dropped from the trail between
    launch ticks (what ``_process_token`` did before the cap)."""
    capped = RingMember._process_token

    def reference(self, token):
        full = token.trail + [self.proc_id]
        capped(self, token)
        token.trail = full

    monkeypatch.setattr(RingMember, "_process_token", reference)


def journey(monkeypatch, n, seed, **config):
    """A seeded run through a partition and heal and a crash-restart,
    under steady load; returns what must not depend on the trail's
    length, plus the longest trail seen."""
    hops = []
    longest = [0]
    processing = RingMember._process_token

    def recording(self, token):
        processing(self, token)
        longest[0] = max(longest[0], len(token.trail))
        hops.append(
            (self._sim.now, self.proc_id, token.hop, sorted(self.last_heard.items()))
        )

    monkeypatch.setattr(RingMember, "_process_token", recording)
    procs = tuple(range(1, n + 1))
    vs = TokenRingVS(
        procs, RingConfig(delta=1.0, pi=12.0, mu=30.0, **config), seed=seed
    )
    minority, majority = procs[: n // 2], procs[n // 2 :]
    (
        FaultSchedule().add_layout(120.0, [minority, majority]).add_layout(260.0, [procs])
        .install(vs)
    )
    sim, oracle, victim = vs.simulator, vs.network.oracle, procs[-1]
    sim.schedule_at(
        420.0, lambda: oracle.set_processor(victim, FailureStatus.BAD, time=sim.now)
    )

    def recover():
        vs.restart_processor(victim)
        oracle.set_processor(victim, FailureStatus.GOOD, time=sim.now)

    sim.schedule_at(480.0, recover)
    for i in range(640):
        vs.schedule_send(5.0 + i, procs[i % n], f"m{i}")
    vs.run_until(700.0)
    events = [(e.time, e.action) for e in vs.merged_trace().events]
    newviews = [e for e in events if e[1].name == "newview"]
    deliveries = [e for e in events if e[1].name == "gprcv"]
    assert vs.members[victim].restarts == 1
    assert len(newviews) > n and len(deliveries) > 100
    return (hops, newviews, deliveries, events, vs.stats()), longest[0]


@pytest.mark.parametrize("n", [5, 7])
@pytest.mark.parametrize(
    "config",
    [
        dict(work_conserving=True),
        dict(work_conserving=True, one_round=True),
        dict(work_conserving=False),
    ],
    ids=["work_conserving", "one_round", "periodic"],
)
def test_one_lap_of_trail_decides_exactly_what_the_whole_trail_did(
    monkeypatch, n, config
):
    with monkeypatch.context() as patch:
        capped, capped_longest = journey(patch, n, seed=11, **config)
    with monkeypatch.context() as patch:
        append_only_trail(patch)
        reference, reference_longest = journey(patch, n, seed=11, **config)
    assert capped_longest <= n
    if config["work_conserving"]:
        assert reference_longest > 5 * n  # the reference really is unbounded
    for got, expected in zip(capped, reference, strict=True):
        assert got == expected


# ----------------------------------------------------------------------
# (c) periodic mode
# ----------------------------------------------------------------------
def test_periodic_mode_still_starts_the_trail_afresh_at_each_launch(monkeypatch):
    forwards = spy_on_forwards(monkeypatch)
    procs = (1, 2, 3, 4)
    vs = TokenRingVS(procs, RingConfig(delta=1.0, pi=10.0, mu=50.0), seed=2)
    for i in range(40):
        vs.schedule_send(5.0 + 3 * i, procs[i % 4], f"m{i}")
    vs.run_until(200.0)
    assert len(forwards) >= 4 * 15
    for forwarder, _, trail in forwards:
        # Launched with an empty trail, so on the wire it is always the
        # ring prefix ending at the forwarder.
        assert trail == list(procs[: procs.index(forwarder) + 1])


def test_a_longer_trail_off_the_wire_is_cut_to_one_lap():
    vs = TokenRingVS((1, 2, 3), RingConfig(), seed=0)
    member = vs.members[2]
    token = Token(
        viewid=member.view.id, members=(1, 2, 3), trail=[1, 2, 3] * 40 + [1]
    )
    member._process_token(token)
    assert token.trail == [3, 1, 2]
    assert set(member.last_heard) == {1, 3}
