"""The span reader held to what ``repro.analysis.measure`` produced.

Every case here was a case of the retired ``TimedTrace`` scrape (l′,
send→safe and bcast→delivered latency) and keeps its events and its
expected numbers; the events now go through
:func:`repro.rt.trace.sim_entries` and
:func:`repro.obs.live.stitch.stitch_events` to the one reader,
:class:`repro.obs.tracing.LifecycleTracer`.  One input changed shape: a
span opens at ``gpsnd``, so the TO-level cases record, at each
``bcast``, the ``gpsnd`` of the labelled value that VStoTO performs for
it (the old scrape matched ``bcast`` to ``brcv`` with no VS event in
between, which no run of the stack produces).
"""

import math

from repro.core.types import Label, View
from repro.ioa.actions import act
from repro.ioa.timed import TimedTrace
from repro.obs.live.stitch import stitch_events
from repro.rt.trace import sim_entries

PROCS = ("p", "q")
V0 = View(0, set(PROCS))
V1 = View(1, set(PROCS))


def tracer_of(trace):
    return stitch_events(sim_entries(trace.events), PROCS, V0, t0=0.0).tracer


def stabilization_interval(trace, group, stable_at):
    return tracer_of(trace).timeline(group, stable_at)


def safe_latencies_in_final_view(trace, group, final_view):
    samples = tracer_of(trace).safe_latencies(final_view.id, group)
    return [safe - sent for sent, safe in samples]


def all_members_delivery_latencies(trace, group, after=0.0):
    samples = tracer_of(trace).delivery_latencies(group, after)
    return [done - sent for sent, done in samples]


def bcast(trace, time, value, p):
    trace.append(time, act("bcast", value, p))
    trace.append(time, act("gpsnd", (Label(0, 1, p), value), p))


class TestStabilizationInterval:
    def test_measures_last_newview(self):
        trace = TimedTrace()
        trace.append(12.0, act("newview", V1, "p"))
        trace.append(14.0, act("newview", V1, "q"))
        result = stabilization_interval(trace, PROCS, 10.0)
        assert result.alpha1_length == 4.0
        assert result.final_view == V1

    def test_unstabilized_when_views_differ(self):
        trace = TimedTrace()
        trace.append(12.0, act("newview", V1, "p"))
        result = stabilization_interval(trace, PROCS, 10.0)
        assert math.isinf(result.alpha1_length)

    def test_unstabilized_when_membership_mismatch(self):
        v_small = View(1, {"p"})
        trace = TimedTrace()
        trace.append(12.0, act("newview", v_small, "p"))
        result = stabilization_interval(trace, ("p",), 10.0)
        # group ("p",) — view matches the group: stabilized
        assert result.alpha1_length == 2.0
        result2 = stabilization_interval(trace, PROCS, 10.0)
        assert math.isinf(result2.alpha1_length)

    def test_zero_interval_when_settled_before(self):
        trace = TimedTrace()
        trace.append(5.0, act("newview", V1, "p"))
        trace.append(6.0, act("newview", V1, "q"))
        result = stabilization_interval(trace, PROCS, 10.0)
        assert result.alpha1_length == 0.0


class TestSafeLatencies:
    def build_trace(self):
        trace = TimedTrace()
        trace.append(1.0, act("newview", V1, "p"))
        trace.append(1.0, act("newview", V1, "q"))
        trace.append(10.0, act("gpsnd", "m", "p"))
        trace.append(12.0, act("safe", "m", "p", "p"))
        trace.append(15.0, act("safe", "m", "p", "q"))
        return trace

    def test_latency_to_last_safe(self):
        samples = safe_latencies_in_final_view(self.build_trace(), PROCS, V1)
        assert samples == [5.0]

    def test_incomplete_messages_excluded(self):
        trace = self.build_trace()
        trace.append(20.0, act("gpsnd", "m2", "p"))  # never safe
        samples = safe_latencies_in_final_view(trace, PROCS, V1)
        assert len(samples) == 1

    def test_messages_in_other_views_excluded(self):
        trace = TimedTrace()
        trace.append(5.0, act("gpsnd", "early", "p"))  # in V0
        samples = safe_latencies_in_final_view(trace, PROCS, V1)
        assert samples == []


class TestDeliveryLatencies:
    def test_all_members_latency(self):
        trace = TimedTrace()
        bcast(trace, 10.0, "a", "p")
        trace.append(12.0, act("brcv", "a", "p", "p"))
        trace.append(14.0, act("brcv", "a", "p", "q"))
        assert all_members_delivery_latencies(trace, PROCS) == [4.0]

    def test_after_filter(self):
        trace = TimedTrace()
        bcast(trace, 1.0, "a", "p")
        trace.append(2.0, act("brcv", "a", "p", "p"))
        trace.append(3.0, act("brcv", "a", "p", "q"))
        assert all_members_delivery_latencies(trace, PROCS, after=5.0) == []
        assert all_members_delivery_latencies(trace, PROCS, after=1.0) == [2.0]

    def test_repeated_values_matched_by_occurrence(self):
        trace = TimedTrace()
        bcast(trace, 1.0, "a", "p")
        trace.append(2.0, act("brcv", "a", "p", "p"))
        trace.append(2.0, act("brcv", "a", "p", "q"))
        bcast(trace, 10.0, "a", "p")
        trace.append(20.0, act("brcv", "a", "p", "p"))
        trace.append(21.0, act("brcv", "a", "p", "q"))
        assert all_members_delivery_latencies(trace, PROCS) == [1.0, 11.0]

    def test_undelivered_excluded(self):
        trace = TimedTrace()
        bcast(trace, 1.0, "a", "p")
        trace.append(2.0, act("brcv", "a", "p", "p"))
        assert all_members_delivery_latencies(trace, PROCS) == []
