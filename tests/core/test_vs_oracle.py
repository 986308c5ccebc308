"""Differential test of the one VS oracle.

``repro.core.vs_spec.check_vs_trace`` decides a trace by feeding it
through ``OnlineVSMonitor``; ``tests.reference.check_vs_trace`` is the
batch checker it replaced, kept as the reference.  Traces come from

- ``VSMachine`` and ``WeakVSMachine`` runs under ``RandomScheduler``
  (drawn seed, n in 2..5, drawn ``offer_view`` calls),
- two seeded ``TokenRingVS`` split/heal runs,

and from one single-edit mutant of each (:data:`KINDS`).  The two
checkers must agree on ok versus not ok; on a trace that passes they
must also agree on ``views_seen`` and on the ``per_view_order`` of
every view with traffic.

One disagreement is known, and asserted rather than hidden: a receive
whose sender is outside P (``foreign_sender``).  The reference checks
the prefix property only for senders in P, so such a receive reaches
its causality step and raises ``KeyError``; the feed reports a
violation.  Every other ``KeyError`` from the reference fails the test.

Under the default ``gate`` profile the examples are derandomized.  The
nightly soak job's ``HYPOTHESIS_PROFILE=explore python -m pytest
tests`` step runs this module with fresh draws.
"""

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import assume, event, given
from hypothesis import strategies as st

from repro.core.to_spec import FAILURE_STATUS_NAMES
from repro.core.types import BOTTOM, View
from repro.core.vs_spec import VS_EXTERNAL, VSMachine, WeakVSMachine, check_vs_trace
from repro.ioa.actions import act
from repro.ioa.execution import RandomScheduler, run_automaton
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from repro.faults import FaultSchedule
from tests import reference

KINDS = (
    "drop",
    "duplicate",
    "swap",
    "retarget",
    "early_safe",
    "regress_view",
    "recv_before_send",
    "foreign_sender",
)
#: A sender name no generated P contains.
FOREIGN = "outsider"
RING_SEEDS = (0, 1)


# ----------------------------------------------------------------------
# Trace sources
# ----------------------------------------------------------------------
def machine_trace(weak, n, seed, offers, steps=160):
    """One seeded spec-machine run: ``offers`` is a list of
    ``(step, members, vid)``; each queues a candidate view at ``step``."""
    procs = tuple(f"p{i}" for i in range(n))
    machine = (WeakVSMachine if weak else VSMachine)(procs)
    due = {}
    for step, members, vid in offers:
        due.setdefault(step, []).append((members, vid))
    counter = iter(range(10**6))

    def inputs(step):
        # A candidate whose id is taken, or (VSMachine) not above every
        # created id, is simply never enabled.
        for members, vid in due.get(step, ()):
            machine.offer_view([procs[i % n] for i in members], vid)
        if step % 3 == 0:
            return act("gpsnd", f"m{next(counter)}", procs[step % n])
        return None

    execution = run_automaton(
        machine, RandomScheduler(seed), max_steps=steps, input_source=inputs
    )
    return execution.trace(VS_EXTERNAL), procs, machine.initial_view


@functools.lru_cache(maxsize=None)
def ring_trace(seed):
    """A seeded split/heal run of the token ring, with its failure-status
    events (both checkers skip them)."""
    procs = (1, 2, 3, 4)
    vs = TokenRingVS(procs, RingConfig(delta=1.0, pi=10.0, mu=30.0), seed=seed)
    (
        FaultSchedule()
        .add_layout(60.0, [[1, 2], [3, 4]])
        .add_layout(250.0, [[1, 2, 3, 4]])
        .install(vs)
    )
    for i in range(14):
        vs.schedule_send(10.0 + 29.0 * i, procs[i % 4], f"m{i}")
    vs.run_until(600.0)
    names = VS_EXTERNAL | FAILURE_STATUS_NAMES
    trace = [e.action for e in vs.merged_trace().events if e.action.name in names]
    return trace, procs, vs.initial_view


@st.composite
def machine_traces(draw):
    n = draw(st.integers(2, 5))
    offers = draw(
        st.lists(
            st.tuples(
                st.integers(0, 150),
                st.sets(st.integers(0, n - 1), min_size=1),
                st.integers(1, 12),
            ),
            max_size=4,
        )
    )
    return machine_trace(draw(st.booleans()), n, draw(st.integers(0, 10**6)), offers)


traces = st.one_of(machine_traces(), st.sampled_from(RING_SEEDS).map(ring_trace))


# ----------------------------------------------------------------------
# Single-edit mutants
# ----------------------------------------------------------------------
def mutate(kind, trace, procs, v0, rng):
    """``trace`` with one edit of ``kind``, or None when the trace offers
    no place for that edit."""
    t = list(trace)

    def where(name):
        return [i for i, a in enumerate(t) if a.name == name]

    if kind in ("drop", "duplicate", "swap"):
        if len(t) < 2:
            return None
        i = rng.randrange(len(t) - 1)
        if kind == "drop":
            del t[i]
        elif kind == "duplicate":
            t.insert(i, t[i])
        else:
            t[i], t[i + 1] = t[i + 1], t[i]
        return t
    if kind == "early_safe":
        safes = [i for i in where("safe") if i > 0]
        if not safes:
            return None
        i = rng.choice(safes)
        t.insert(rng.randrange(i), t.pop(i))
        return t
    if kind == "regress_view":
        # p's newview carries the id of the view p held before it.
        held = {p: (v0.id if p in v0.set else BOTTOM) for p in procs}
        choices = []
        for i, a in enumerate(t):
            if a.name == "newview":
                view, p = a.args
                if held[p] is not BOTTOM:
                    choices.append((i, held[p]))
                held[p] = view.id
        if not choices:
            return None
        i, old_id = rng.choice(choices)
        view, p = t[i].args
        t[i] = act("newview", View(old_id, view.set), p)
        return t
    receives = where("gprcv")
    if not receives:
        return None
    i = rng.choice(receives)
    m, p, q = t[i].args
    if kind == "retarget":
        t[i] = act("gprcv", m, p, rng.choice([r for r in procs if r != q]))
    elif kind == "foreign_sender":
        t[i] = act("gprcv", m, FOREIGN, q)
    else:  # recv_before_send
        sends = [k for k in where("gpsnd") if k < i and t[k].args == (m, p)]
        if not sends:
            return None
        t.insert(sends[-1], t.pop(i))
    return t


# ----------------------------------------------------------------------
# The comparison
# ----------------------------------------------------------------------
def compare(trace, procs, v0, kind=None):
    """Hold the feed to the reference on one trace; return the feed's
    report."""
    feed = check_vs_trace(trace, procs, v0)
    try:
        ref = reference.check_vs_trace(trace, procs, v0)
    except KeyError:
        # The known finding: the reference crashes on a foreign sender
        # that no earlier check rejected; the feed reports it.
        assert kind == "foreign_sender", f"reference raised KeyError on {kind}"
        assert not feed.ok
        assert repr(FOREIGN) in feed.reason
        event("reference KeyError")
        return feed
    assert feed.ok == ref.ok, (kind, feed.reason, ref.reason)
    if feed.ok:
        assert feed.views_seen == ref.views_seen
        for g, order in ref.per_view_order.items():
            assert feed.per_view_order[g] == order
    return feed


@given(source=machine_traces())
def test_machine_traces_agree_and_pass(source):
    assert compare(*source).ok


@pytest.mark.parametrize("seed", RING_SEEDS)
def test_ring_traces_agree_and_pass(seed):
    trace, procs, v0 = ring_trace(seed)
    assert any(a.name == "newview" for a in trace)
    report = compare(trace, procs, v0)
    assert report.ok, report.reason
    assert len(report.views_seen) >= 2  # the split and the heal


@pytest.mark.parametrize("kind", KINDS)
@given(source=traces, pick=st.integers(0, 2**32))
def test_mutants_agree(kind, source, pick):
    trace, procs, v0 = source
    mutant = mutate(kind, trace, procs, v0, random.Random(pick))
    assume(mutant is not None)
    event("accepted" if compare(mutant, procs, v0, kind).ok else "rejected")
