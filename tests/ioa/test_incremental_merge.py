"""`IncrementalStatusMerger` — incremental primary/secondary trace merge.

The merger must reproduce, at every point in time, exactly what a
batch sort of the same two sources by ``(time, stream, index)``
(``tests.reference.batch_status_merge``) produces — including at equal
timestamps (all primary events precede all secondary events) — while
answering unchanged queries from cache, self-healing when a source is
reset, and building one ``TimedEvent`` per status event only.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import given
from hypothesis import strategies as st

from repro.ioa import timed
from repro.ioa.actions import act
from repro.ioa.timed import IncrementalStatusMerger, TimedTrace
from tests.reference import batch_status_merge


@dataclass
class _Status:
    """Duck-typed like the oracle's status events."""

    time: float
    status: _Kind
    target: object


@dataclass
class _Kind:
    value: str


def _status(time, name, target):
    return _Status(time, _Kind(name), target)


def _events(trace):
    return [(e.time, e.action) for e in trace.events]


def test_matches_batch_merge_at_every_step():
    primary = TimedTrace()
    secondary: list = []
    merger = IncrementalStatusMerger(primary, lambda: secondary)
    assert _events(merger.merged()) == []

    primary.append(1.0, act("newview", "v1"))
    assert _events(merger.merged()) == batch_status_merge(primary, secondary)

    secondary.append(_status(1.5, "good", (1, 2)))
    secondary.append(_status(2.0, "bad", 3))
    assert _events(merger.merged()) == batch_status_merge(primary, secondary)

    primary.append(2.5, act("gprcv", "m"))
    primary.append(2.5, act("safe", "m"))
    assert _events(merger.merged()) == batch_status_merge(primary, secondary)


def test_equal_times_order_primary_before_secondary():
    """At equal timestamps every primary event precedes every secondary
    one — even when the secondary event was merged *before* the primary
    arrived (tail repair)."""
    primary = TimedTrace()
    secondary: list = []
    merger = IncrementalStatusMerger(primary, lambda: secondary)

    secondary.append(_status(5.0, "good", 1))
    assert _events(merger.merged()) == [(5.0, act("good", 1))]

    # A primary event at the same time arrives later; it must sort first.
    primary.append(5.0, act("newview", "v2"))
    assert _events(merger.merged()) == [
        (5.0, act("newview", "v2")),
        (5.0, act("good", 1)),
    ]
    assert _events(merger.merged()) == batch_status_merge(primary, secondary)


def test_unchanged_query_returns_cached_object():
    primary = TimedTrace()
    secondary: list = []
    merger = IncrementalStatusMerger(primary, lambda: secondary)
    primary.append(1.0, act("newview", "v1"))
    first = merger.merged()
    assert merger.merged() is first  # O(1) cache hit
    primary.append(2.0, act("gprcv", "m"))
    second = merger.merged()
    assert second is not first
    # Previously returned traces are never mutated.
    assert _events(first) == [(1.0, act("newview", "v1"))]


def test_self_heals_when_a_source_shrinks():
    primary = TimedTrace()
    secondary: list = []
    merger = IncrementalStatusMerger(primary, lambda: secondary)
    primary.append(1.0, act("newview", "v1"))
    secondary.append(_status(2.0, "good", 1))
    merger.merged()
    # A test reset: the secondary stream is emptied.  The merger notices
    # the shrink (fewer events than already merged) and rebuilds.
    secondary.clear()
    assert _events(merger.merged()) == [(1.0, act("newview", "v1"))]
    secondary.append(_status(3.0, "bad", 2))
    assert _events(merger.merged()) == batch_status_merge(primary, secondary)


def test_tuple_targets_expand_to_action_args():
    primary = TimedTrace()
    secondary = [_status(1.0, "good", (1, 2, 3)), _status(2.0, "ugly", 7)]
    merger = IncrementalStatusMerger(primary, lambda: secondary)
    assert _events(merger.merged()) == [
        (1.0, act("good", 1, 2, 3)),
        (2.0, act("ugly", 7)),
    ]


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["primary", "status", "call", "reset_primary", "reset_status"]),
        st.sampled_from([0.0, 0.0, 1.0]),
    ),
    max_size=40,
)


@given(ops=_OPS)
def test_differential_against_batch_sort(ops):
    """Interleaved appends at a non-decreasing clock — equal timestamps
    across streams, several calls between appends, source resets — give
    at every call what the batch sort gives, reusing the previous
    result's events and the primary's own events by identity and
    building exactly one event per new status event."""
    real_event = timed.TimedEvent
    built = 0

    def counting(time, action):
        nonlocal built
        built += 1
        return real_event(time, action)

    primary = TimedTrace()
    secondary: list = []
    merger = IncrementalStatusMerger(primary, lambda: secondary)
    clock = 0.0
    previous = None
    returned: list = []
    new_status = 0
    timed.TimedEvent = counting
    try:
        for op, dt in ops + [("call", 0.0)]:
            if op == "primary":
                clock += dt
                primary.append(clock, act("gprcv", len(primary)))
                continue
            if op == "status":
                clock += dt
                target = (1, 2) if len(secondary) % 3 == 0 else len(secondary)
                secondary.append(_status(clock, "good", target))
                new_status += 1
                continue
            if op == "reset_primary":
                primary.events.clear()
            elif op == "reset_status":
                secondary.clear()
            built = 0
            got = merger.merged()
            assert _events(got) == batch_status_merge(primary, secondary)
            if op == "call" and previous is not None:
                ids = {id(e) for e in got.events}
                assert {id(e) for e in previous.events} <= ids
                assert {id(e) for e in primary.events} <= ids
                assert built == new_status
            new_status = 0
            previous = got
            returned.append((got, _events(got)))
    finally:
        timed.TimedEvent = real_event
    for trace, snapshot in returned:
        assert _events(trace) == snapshot
