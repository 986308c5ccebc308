"""Delta-encoded token windows: steady-state payload, equivalence with
the full-order-every-hop reference (``tests/reference.py``, patched
in), and the behind-the-window resync path.

The resync branch is *structurally unreachable* through honest
circulations — a forwarder only trims the window to the successor's own
acknowledged ``seen`` position — so it is exercised white-box by handing
a member a forged token whose window starts beyond the member's log.
"""

from repro.membership.messages import Token
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from tests.reference import full_order_tokens

PROCS = (1, 2, 3)


def _stable_service(delta_token=True, sends=6, horizon=120.0):
    if not delta_token:
        with full_order_tokens():
            return _stable_service(True, sends, horizon)
    vs = TokenRingVS(
        PROCS,
        RingConfig(delta=1.0, pi=10.0, mu=50.0, work_conserving=True),
        seed=0,
    )
    for i in range(sends):
        vs.schedule_send(20.0 + 5.0 * i, PROCS[i % len(PROCS)], f"m{i}")
    vs.run_until(horizon)
    return vs


def _external_events(vs):
    return [(e.time, e.action) for e in vs.merged_trace().events]


# ----------------------------------------------------------------------
def test_delta_and_legacy_encodings_produce_identical_traces():
    """The encoding is wire-level only: every externally visible VS
    event (and its time) is identical with and without delta tokens."""
    delta = _stable_service(delta_token=True)
    legacy = _stable_service(delta_token=False)
    assert _external_events(delta) == _external_events(legacy)
    assert delta.stats()["events_processed"] == legacy.stats()["events_processed"]


def test_delta_payload_smaller_than_legacy():
    delta = _stable_service(delta_token=True, sends=12, horizon=200.0)
    legacy = _stable_service(delta_token=False, sends=12, horizon=200.0)
    assert delta.stats()["token"]["entries_max"] < legacy.stats()["token"]["entries_max"]
    assert delta.stats()["token"]["entries_sent"] < legacy.stats()["token"]["entries_sent"]


def test_honest_circulations_never_resync():
    vs = _stable_service(delta_token=True, sends=12, horizon=200.0)
    assert vs.stats()["token"]["resyncs"] == 0


def test_token_total_accounts_for_base():
    token = Token(viewid=(1, 1), members=PROCS, base=7, order=[("a", 1), ("b", 2)])
    assert token.total == 9
    clone = token.copy()
    assert clone.base == 7 and clone.total == 9
    assert clone.order is not token.order


# ----------------------------------------------------------------------
def test_forged_behind_window_token_triggers_resync():
    """A member handed a window starting beyond its log takes nothing,
    counts a resync, and re-advertises its true position so the next
    circulation can re-expand for it."""
    vs = _stable_service(delta_token=True)
    member = vs.members[2]
    log_before = list(member.log)
    delivered_before = member.delivered_idx
    assert member.view is not None
    forged = Token(
        viewid=member.view.id,
        members=member._ring_order(),
        base=len(member.log) + 5,
        order=[("phantom", 1)],
        seen={p: len(member.log) + 5 for p in member._ring_order()},
    )
    member._process_token(forged)
    assert member.token_resyncs == 1
    # Nothing absorbed, nothing delivered beyond the previous position.
    assert member.log == log_before
    assert member.delivered_idx == delivered_before
    # The true position is advertised for the next trimmer.
    assert forged.seen[2] == len(log_before)


def test_resync_recovers_on_full_window():
    """After a behind-window pass, a full-order window (base=0) brings
    the member back in sync: log extends and deliveries resume."""
    vs = _stable_service(delta_token=True)
    member = vs.members[2]
    assert member.view is not None
    view = member.view
    # Knock the member behind: forge a too-far window first.
    behind = Token(
        viewid=view.id,
        members=member._ring_order(),
        base=len(member.log) + 3,
        order=[],
        seen={p: len(member.log) + 3 for p in member._ring_order()},
    )
    member._process_token(behind)
    assert member.token_resyncs == 1
    # Recovery circulation: the full order from position 0, extended
    # with entries this member has not seen.
    full_order = list(member.log) + [("late1", 1), ("late2", 3)]
    recovery = Token(
        viewid=view.id,
        members=member._ring_order(),
        base=0,
        order=list(full_order),
        seen={p: len(full_order) for p in member._ring_order()},
    )
    member._process_token(recovery)
    assert member.log == full_order
    assert member.token_resyncs == 1  # no new resync: window overlapped
    assert recovery.seen[2] == len(full_order)
