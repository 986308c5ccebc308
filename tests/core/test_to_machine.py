"""Tests for TO-machine (Fig. 3) and the trace membership checker."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.to_spec import TOMachine, check_to_trace
from repro.ioa.actions import act
from repro.ioa.automaton import TransitionError
from repro.ioa.execution import RandomScheduler, run_automaton

PROCS = ("p", "q", "r")


def machine():
    return TOMachine(PROCS)


class TestTransitions:
    def test_bcast_appends_to_pending(self):
        m = machine()
        m.step(act("bcast", "a", "p"))
        m.step(act("bcast", "b", "p"))
        assert m.pending["p"] == ["a", "b"]

    def test_to_order_moves_head_to_queue(self):
        m = machine()
        m.step(act("bcast", "a", "p"))
        m.step(act("to-order", "a", "p"))
        assert m.queue == [("a", "p")]
        assert m.pending["p"] == []

    def test_to_order_requires_head(self):
        m = machine()
        m.step(act("bcast", "a", "p"))
        m.step(act("bcast", "b", "p"))
        with pytest.raises(TransitionError):
            m.step(act("to-order", "b", "p"))

    def test_brcv_walks_queue_per_destination(self):
        m = machine()
        for value in ("a", "b"):
            m.step(act("bcast", value, "p"))
            m.step(act("to-order", value, "p"))
        m.step(act("brcv", "a", "p", "q"))
        assert m.next["q"] == 2
        m.step(act("brcv", "b", "p", "q"))
        assert m.next["q"] == 3
        # destination r is independent
        m.step(act("brcv", "a", "p", "r"))
        assert m.next["r"] == 2

    def test_brcv_requires_matching_entry(self):
        m = machine()
        m.step(act("bcast", "a", "p"))
        m.step(act("to-order", "a", "p"))
        with pytest.raises(TransitionError):
            m.step(act("brcv", "wrong", "p", "q"))
        with pytest.raises(TransitionError):
            m.step(act("brcv", "a", "r", "q"))  # wrong origin

    def test_brcv_beyond_queue_disabled(self):
        m = machine()
        with pytest.raises(TransitionError):
            m.step(act("brcv", "a", "p", "q"))

    def test_enabled_actions(self):
        m = machine()
        assert list(m.enabled_actions()) == []
        m.step(act("bcast", "a", "p"))
        assert act("to-order", "a", "p") in list(m.enabled_actions())
        m.step(act("to-order", "a", "p"))
        enabled = list(m.enabled_actions())
        for dest in PROCS:
            assert act("brcv", "a", "p", dest) in enabled


class TestRandomRunsAreTraces:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_executions_yield_valid_traces(self, seed):
        m = machine()
        rng_values = iter(range(100))

        def inputs(step):
            if step % 3 == 0:
                return act("bcast", f"v{next(rng_values)}", PROCS[step % 3])
            return None

        execution = run_automaton(
            m, RandomScheduler(seed), max_steps=300, input_source=inputs
        )
        trace = execution.trace({"bcast", "brcv"})
        report = check_to_trace(trace, PROCS)
        assert report.ok, report.reason


class TestTraceChecker:
    def test_accepts_empty(self):
        assert check_to_trace([], PROCS).ok

    def test_accepts_prefix_deliveries(self):
        trace = [
            act("bcast", "a", "p"),
            act("bcast", "b", "q"),
            act("brcv", "a", "p", "q"),
            act("brcv", "a", "p", "r"),
            act("brcv", "b", "q", "q"),
        ]
        report = check_to_trace(trace, PROCS)
        assert report.ok
        assert report.common_order == [("a", "p"), ("b", "q")]

    def test_rejects_inconsistent_orders(self):
        trace = [
            act("bcast", "a", "p"),
            act("bcast", "b", "q"),
            act("brcv", "a", "p", "q"),
            act("brcv", "b", "q", "q"),
            act("brcv", "b", "q", "r"),
            act("brcv", "a", "p", "r"),
        ]
        report = check_to_trace(trace, PROCS)
        assert not report.ok
        assert "inconsistent" in report.reason

    def test_rejects_delivery_before_bcast(self):
        trace = [act("brcv", "a", "p", "q")]
        report = check_to_trace(trace, PROCS)
        assert not report.ok
        assert "precedes" in report.reason

    def test_rejects_sender_fifo_violation(self):
        trace = [
            act("bcast", "a", "p"),
            act("bcast", "b", "p"),
            act("brcv", "b", "p", "q"),
        ]
        report = check_to_trace(trace, PROCS)
        assert not report.ok

    def test_rejects_duplicate_delivery_of_single_bcast(self):
        trace = [
            act("bcast", "a", "p"),
            act("brcv", "a", "p", "q"),
            act("brcv", "a", "p", "q"),
        ]
        assert not check_to_trace(trace, PROCS).ok

    def test_accepts_repeated_values_bcast_twice(self):
        trace = [
            act("bcast", "a", "p"),
            act("bcast", "a", "p"),
            act("brcv", "a", "p", "q"),
            act("brcv", "a", "p", "q"),
        ]
        assert check_to_trace(trace, PROCS).ok

    def test_rejects_unknown_action(self):
        assert not check_to_trace([act("mystery")], PROCS).ok

    def test_ignores_failure_status_actions(self):
        trace = [act("bcast", "a", "p"), act("bad", "p"), act("good", "p")]
        assert check_to_trace(trace, PROCS).ok

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 2), min_size=0, max_size=30), st.integers(0, 999))
    def test_property_random_machine_walks_produce_traces(self, sends, seed):
        """Any schedule of the machine yields a valid trace."""
        m = machine()
        sends_iter = iter(sends)

        def inputs(step):
            try:
                origin_index = next(sends_iter)
            except StopIteration:
                return None
            return act("bcast", f"s{step}", PROCS[origin_index])

        execution = run_automaton(
            m, RandomScheduler(seed), max_steps=150, input_source=inputs
        )
        report = check_to_trace(execution.trace({"bcast", "brcv"}), PROCS)
        assert report.ok, report.reason


# ----------------------------------------------------------------------
# check_to_trace keeps a running count per (destination, origin); the
# definition it replaced recounted the destination's deliveries on
# every brcv.  The definition stays here as the reference.
# ----------------------------------------------------------------------
def reference_check_to_trace(trace, processors):
    from repro.core.to_spec import (
        FAILURE_STATUS_NAMES,
        TO_INTERNALS,
        TOTraceReport,
    )

    processors = tuple(processors)
    delivered = {p: [] for p in processors}
    bcast_seq = {p: [] for p in processors}
    bcast_count = {p: 0 for p in processors}
    for action in trace:
        if action.name == "bcast":
            a, p = action.args
            bcast_seq[p].append(a)
            bcast_count[p] += 1
        elif action.name == "brcv":
            a, p, q = action.args
            delivered[q].append((a, p))
            origin_rank = sum(1 for (_, src) in delivered[q] if src == p)
            if origin_rank > bcast_count[p]:
                return TOTraceReport(
                    ok=False,
                    reason=f"delivery of {a!r} at {q!r} precedes its bcast at {p!r}",
                )
        elif action.name in TO_INTERNALS or action.name in FAILURE_STATUS_NAMES:
            continue
        else:
            return TOTraceReport(ok=False, reason=f"unexpected action {action}")
    common = []
    for q in processors:
        seq = delivered[q]
        limit = min(len(seq), len(common))
        if seq[:limit] != common[:limit]:
            return TOTraceReport(
                ok=False,
                reason=f"delivery order at {q!r} inconsistent with other locations",
            )
        if len(seq) > len(common):
            common = list(seq)
    for p in processors:
        from_p = [a for (a, src) in common if src == p]
        if from_p != bcast_seq[p][: len(from_p)]:
            return TOTraceReport(
                ok=False,
                reason=(
                    f"order of {p!r}'s values in the common order does not "
                    f"match its bcast order"
                ),
            )
    return TOTraceReport(ok=True, common_order=common)


@st.composite
def interleavings(draw):
    """A correct run (bcasts ordered as sent, every location delivering
    a prefix), then damaged: actions swapped (premature and mis-ordered
    deliveries), dropped, duplicated, relabelled with the other value,
    or replaced by a stray action."""
    trace = []
    queue = []
    delivered_upto = {p: 0 for p in PROCS}
    sends = draw(
        st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from(PROCS)), max_size=8)
    )
    for value, origin in sends:
        trace.append(act("bcast", value, origin))
        queue.append((value, origin))
        for q in draw(st.lists(st.sampled_from(PROCS), max_size=4)):
            if delivered_upto[q] < len(queue):
                a, p = queue[delivered_upto[q]]
                trace.append(act("brcv", a, p, q))
                delivered_upto[q] += 1
    for _ in range(draw(st.integers(0, 3))):
        if not trace:
            break
        i = draw(st.integers(0, len(trace) - 1))
        j = draw(st.integers(0, len(trace) - 1))
        damage = draw(
            st.sampled_from(["swap", "drop", "duplicate", "relabel", "stray"])
        )
        if damage == "swap":
            trace[i], trace[j] = trace[j], trace[i]
        elif damage == "drop":
            del trace[i]
        elif damage == "duplicate":
            trace.insert(j, trace[i])
        elif damage == "relabel":
            value, *rest = trace[i].args
            trace[i] = act(trace[i].name, "b" if value == "a" else "a", *rest)
        else:
            trace[i] = act(draw(st.sampled_from(["to-order", "bad", "mystery"])), "a", "p")
    return trace


class TestTraceCheckerAgainstDefinition:
    @settings(max_examples=300, deadline=None)
    @given(interleavings())
    def test_same_verdict_reason_and_order(self, trace):
        got = check_to_trace(trace, PROCS)
        want = reference_check_to_trace(trace, PROCS)
        assert (got.ok, got.reason, got.common_order) == (
            want.ok,
            want.reason,
            want.common_order,
        )

    def test_strategy_reaches_every_verdict(self):
        # Not vacuous: the damaged interleavings include accepted
        # traces and each kind of rejection.
        reasons = set()

        @settings(max_examples=300, deadline=None, database=None, derandomize=True)
        @given(interleavings())
        def collect(trace):
            report = reference_check_to_trace(trace, PROCS)
            reasons.update(
                word
                for word in ("precedes", "inconsistent", "bcast order", "unexpected")
                if word in report.reason
            )
            if report.ok:
                reasons.add("ok")

        collect()
        assert reasons == {"ok", "precedes", "inconsistent", "bcast order", "unexpected"}
