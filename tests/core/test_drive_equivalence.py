"""Driving ``VStoTO_p`` to quiescence: what the runtime maintains
instead of re-deriving is wall-clock only.

The definitions the driver is held to: the old ``Automaton.step`` body
(two signature scans per step; ``tests/conftest.py``), and here the old
``primary`` (a quorum test per evaluation) and the old bookkeeping
around the unchanged drain loop (a rebuilt ``Action`` per logged event,
a status string compared after every step).  Hypothesis feeds both
stacks the same input schedule — well-formed or not; the automaton is
input-enabled — and every observable must agree: each action applied
and in what order, each ``TransitionError`` (and the ``ValueError`` of
an exchange VS rules out), each status edge, each
``gpsnd``/delivery handed on, the TO trace and the final snapshots.
"""

from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.quorums import MajorityQuorumSystem, NoQuorumSystem
from repro.core.types import BOTTOM, Label, View
from repro.core.vstoto.process import VStoTOProcess
from repro.core.vstoto.runtime import Delivery, VStoTORuntime
from repro.core.vstoto.summary import Summary
from repro.ioa.actions import act
from repro.ioa.automaton import TransitionError
from tests.conftest import old_automaton_step

PROCS = (1, 2, 3)
V0 = View(0, frozenset(PROCS))


# ----------------------------------------------------------------------
# The reference: the pre-change bodies
# ----------------------------------------------------------------------
class OldDriveProcess(VStoTOProcess):
    step = old_automaton_step

    @property
    def primary(self):
        return self.current is not BOTTOM and self.quorums.is_primary(
            self.current.set
        )


class OldLoopRuntime(VStoTORuntime):
    def __init__(self, service, quorums, on_deliver=None):
        super().__init__(service, quorums, on_deliver)
        self.procs = {
            p: OldDriveProcess(p, quorums, service.initial_view)
            for p in self.processors
        }
        self._last_status = {p: proc.status.value for p, proc in self.procs.items()}

    def _emit_status_edge(self, p):
        new = self.procs[p].status.value
        old = self._last_status[p]
        if new == old:
            return
        self._last_status[p] = new
        now = self.service.simulator.now
        if self._tracer is not None:
            self._tracer.on_status_edge(now, p, old, new)
        for fn in self._status_listeners:
            fn(now, p, old, new)

    def broadcast(self, p, value):
        self._record("bcast", value, p)
        self.procs[p].step(act("bcast", value, p))
        self._emit_status_edge(p)
        self._drain(p)

    def _after_local_action(self, p, action):
        if action.name == "gpsnd":
            payload, _p = action.args
            self.service.gpsnd(p, payload)
        elif action.name == "brcv":
            value, origin, dst = action.args
            self._record("brcv", value, origin, dst)
            self.deliveries.append(
                Delivery(
                    time=self.service.simulator.now, value=value, origin=origin, dst=dst
                )
            )
            if self.on_deliver is not None:
                self.on_deliver(value, origin, dst)

    def _record(self, name, *args):
        self.trace.append(self.service.simulator.now, act(name, *args))
        if self._tracer is not None:
            self._tracer.on_to_event(self.service.simulator.now, name, args)


# ----------------------------------------------------------------------
# A VS service that is only a recorder
# ----------------------------------------------------------------------
class StubService:
    """The slice of ``TokenRingVS`` the runtime touches; every call the
    runtime makes on it lands in ``observed``."""

    def __init__(self, observed):
        self.processors = PROCS
        self.initial_view = V0
        self.bad = set()
        self.observed = observed
        self.simulator = SimpleNamespace(now=0.0, call_soon=lambda fn: fn())
        oracle = SimpleNamespace(
            history=[], processor_bad=self.bad.__contains__, add_listener=lambda fn: None
        )
        self.network = SimpleNamespace(oracle=oracle)

    def gpsnd(self, p, payload):
        self.observed.append(("vs.gpsnd", p, payload))


class RecordingTracer:
    def __init__(self, observed):
        self.observed = observed

    def __getattr__(self, hook):
        return lambda *args: self.observed.append((hook, args))


def build(runtime_class, quorums):
    observed = []
    service = StubService(observed)
    runtime = runtime_class(
        service, quorums, lambda *args: observed.append(("deliver", args))
    )
    runtime._tracer = RecordingTracer(observed)
    runtime.add_status_listener(lambda *edge: observed.append(("edge", edge)))
    for proc in runtime.procs.values():
        applying = proc.apply

        def apply(action, applying=applying):
            observed.append(("apply", action))
            applying(action)

        proc.apply = apply
    return service, runtime, observed


def perform(service, runtime, observed, item):
    kind, p, *rest = item
    service.simulator.now += 1.0
    try:
        if kind == "bcast":
            runtime.broadcast(p, rest[0])
        elif kind == "gprcv":
            runtime._on_gprcv(rest[0], rest[1], p)
        elif kind == "safe":
            runtime._on_safe(rest[0], rest[1], p)
        elif kind == "newview":
            runtime._on_newview(rest[0], p)
        elif kind == "step":  # straight at the automaton, enabled or not
            runtime.procs[p].step(rest[0])
        elif kind == "assign":  # what a snapshot restore or a test does
            runtime.procs[p].current = rest[0]
        elif kind == "status":
            (service.bad.add if rest[0] else service.bad.discard)(p)
            runtime._drain(p)
    except (TransitionError, ValueError) as error:
        # ValueError: ``chosenrep`` of an empty ``gotstate`` -- a summary
        # made safe at a member that received none, which VS rules out
        # and an arbitrary schedule does not.
        observed.append((type(error).__name__, str(error)))
    proc = runtime.procs[p]
    assert proc.primary == (
        proc.current is not BOTTOM and proc.quorums.is_primary(proc.current.set)
    )


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
procs = st.sampled_from(PROCS)
values = st.sampled_from(["a", "b", "c"])
viewids = st.integers(0, 4)
views = st.builds(View, viewids, st.frozensets(procs, min_size=1))
labels = st.builds(Label, viewids, st.integers(1, 3), procs)
ordinary = st.tuples(labels, values)
summaries = st.builds(
    Summary,
    con=st.frozensets(ordinary, max_size=4),
    ord=st.lists(labels, max_size=4, unique=True).map(tuple),
    next=st.integers(1, 4),
    high=st.one_of(st.just(BOTTOM), viewids),
)
messages = st.one_of(ordinary, summaries)
forced = st.one_of(
    st.builds(lambda p: act("confirm", p), procs),
    st.builds(lambda a, q, p: act("brcv", a, q, p), values, procs, procs),
    st.builds(lambda a, p: act("label", a, p), values, procs),
    st.builds(lambda m, p: act("gpsnd", m, p), messages, procs),
    st.builds(lambda p: act("tick", p), procs),
)
items = st.one_of(
    st.tuples(st.just("bcast"), procs, values),
    st.tuples(st.just("gprcv"), procs, messages, procs),
    st.tuples(st.just("safe"), procs, messages, procs),
    st.tuples(st.just("newview"), procs, views),
    st.tuples(st.just("step"), procs, forced),
    st.tuples(st.just("assign"), procs, st.one_of(st.just(BOTTOM), views)),
    st.tuples(st.just("status"), procs, st.booleans()),
)


@st.composite
def exchanges(draw):
    """A newview at every member of a view, then each member's own
    summary echoed round (sent, received and made safe everywhere): the
    well-formed path into NORMAL that random items rarely complete."""
    view = draw(views)
    out = [("newview", p, view) for p in sorted(view.set)]
    out.append(("echo", view))
    return out


def run(runtime_class, quorums, schedule):
    service, runtime, observed = build(runtime_class, quorums)
    for item in schedule:
        if item[0] == "echo":
            members = sorted(item[1].set)
            sent = [e for e in observed if e[0] == "vs.gpsnd" and e[1] in members]
            for deliver in ("gprcv", "safe"):
                for _, src, payload in sent[-len(members) :]:
                    for dst in members:
                        perform(service, runtime, observed, (deliver, dst, payload, src))
        else:
            perform(service, runtime, observed, item)
    final = {p: proc.snapshot() for p, proc in runtime.procs.items()}
    for snap in final.values():
        del snap["apply"]  # build()'s recorder, an instance attribute
    trace = [(e.time, e.action) for e in runtime.trace.events]
    return observed, trace, runtime.deliveries, final


schedules = st.lists(
    st.one_of(items.map(lambda item: [item]), exchanges()), max_size=30
).map(lambda chunks: [item for chunk in chunks for item in chunk])


@settings(max_examples=300, deadline=None)
@given(schedule=schedules, quorate=st.booleans())
@example(
    schedule=[
        ("newview", 2, View(0, frozenset({2, 3}))),
        ("safe", 2, Summary(frozenset(), (), 1, BOTTOM), 2),
        ("safe", 2, Summary(frozenset(), (), 1, BOTTOM), 3),
    ],
    quorate=True,
)
def test_drain_performs_what_the_old_loop_performed(schedule, quorate):
    quorums = MajorityQuorumSystem(PROCS) if quorate else NoQuorumSystem()
    assert run(VStoTORuntime, quorums, schedule) == run(OldLoopRuntime, quorums, schedule)


def test_the_schedules_reach_every_locally_controlled_action():
    """The property above is only worth its examples if they confirm
    and deliver: one written-out journey through exchange, label, send,
    safe, confirm and brcv, compared the same way."""
    label = Label(1, 1, 1)
    view = View(1, frozenset(PROCS))
    schedule = [("newview", p, view) for p in PROCS] + [("echo", view)]
    schedule += [("bcast", 1, "a")]
    schedule += [("gprcv", p, (label, "a"), 1) for p in PROCS]
    schedule += [("safe", p, (label, "a"), 1) for p in PROCS]
    observed, _, deliveries, final = run(VStoTORuntime, MajorityQuorumSystem(PROCS), schedule)
    applied = {e[1].name for e in observed if e[0] == "apply"}
    assert applied == {
        "newview", "gpsnd", "gprcv", "safe", "bcast", "label", "confirm", "brcv"
    }
    assert [(d.value, d.origin, d.dst) for d in deliveries] == [
        ("a", 1, p) for p in PROCS
    ]
    assert {e[1][2:] for e in observed if e[0] == "edge"} == {
        ("normal", "send"), ("send", "collect"), ("collect", "normal")
    }
    assert all(snap["status"] == "normal" for snap in final.values())
    assert run(OldLoopRuntime, MajorityQuorumSystem(PROCS), schedule)[0] == observed


def test_primary_follows_a_directly_assigned_current():
    proc = VStoTOProcess(1, MajorityQuorumSystem(PROCS), V0)
    assert proc.primary
    proc.current = View(1, frozenset({1}))
    assert not proc.primary
    proc.current = View(2, frozenset({1, 2}))
    assert proc.primary
    proc.current = BOTTOM
    assert not proc.primary
    proc.current = V0
    assert proc.primary
    assert "primary" not in proc.snapshot() and "_primary" not in proc.snapshot()
