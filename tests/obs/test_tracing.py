"""Lifecycle tracer: span construction from fed events, decompositions,
unmatched-event accounting.  All feeds here are synthetic; end-to-end
feeds from a live stack are covered by ``test_determinism.py`` and the
E19 bench."""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from repro.core.types import View
from repro.obs.tracing import LifecycleTracer

A, B, C = "a", "b", "c"


@dataclass(frozen=True)
class FakeLabel:
    """Shaped like a VStoTO label: anything with an ``origin``."""

    origin: object
    seq: int = 0


def make_tracer(members=(A, B)) -> LifecycleTracer:
    tracer = LifecycleTracer()
    tracer.set_initial_view(View(1, frozenset(members)))
    return tracer


class TestMessageSpans:
    def test_vs_lifecycle_points(self):
        tracer = make_tracer()
        tracer.on_vs_event(1.0, "gpsnd", ("m0", A))
        tracer.on_vs_event(2.0, "gprcv", ("m0", A, A))
        tracer.on_vs_event(2.5, "gprcv", ("m0", A, B))
        tracer.on_vs_event(3.0, "safe", ("m0", A, A))
        tracer.on_vs_event(3.5, "safe", ("m0", A, B))
        (span,) = tracer.message_spans
        assert span.origin == A and span.viewid == 1 and span.seq == 0
        assert span.gpsnd_at == 1.0
        assert span.gprcv_at == {A: 2.0, B: 2.5}
        assert span.safe_complete_at((A, B)) == 3.5
        assert span.safe_complete_at((A, B, C)) is None
        assert tracer.unmatched_events == 0

    def test_fifo_matching_disambiguates_identical_payloads(self):
        tracer = make_tracer()
        tracer.on_vs_event(1.0, "gpsnd", ("dup", A))
        tracer.on_vs_event(2.0, "gpsnd", ("dup", A))
        tracer.on_vs_event(3.0, "gprcv", ("dup", A, B))
        tracer.on_vs_event(4.0, "gprcv", ("dup", A, B))
        first, second = tracer.message_spans
        assert (first.seq, second.seq) == (0, 1)
        assert first.gprcv_at == {B: 3.0}
        assert second.gprcv_at == {B: 4.0}

    def test_to_level_bracketing(self):
        tracer = make_tracer()
        tracer.on_to_event(0.5, "bcast", ("v", A))
        tracer.on_vs_event(1.0, "gpsnd", ((FakeLabel(A), "v"), A))
        tracer.on_to_event(4.0, "brcv", ("v", A, A))
        tracer.on_to_event(4.5, "brcv", ("v", A, B))
        (span,) = tracer.message_spans
        assert span.bcast_at == 0.5
        assert span.brcv_at == {A: 4.0, B: 4.5}
        assert span.delivered_complete_at((A, B)) == 4.5
        assert tracer.delivery_latencies((A, B)) == [(0.5, 4.5)]
        assert tracer.delivery_latencies((A, B), after=1.0) == []

    def test_resend_in_new_view_matches_second_span(self):
        # VStoTO re-labels and re-sends pending values after a view
        # change; the k-th brcv matches the k-th carrying span.
        tracer = make_tracer()
        tracer.on_to_event(0.5, "bcast", ("v", A))
        tracer.on_vs_event(1.0, "gpsnd", ((FakeLabel(A), "v"), A))
        tracer.on_vs_event(5.0, "newview", (View(2, frozenset({A, B})), A))
        tracer.on_vs_event(6.0, "gpsnd", ((FakeLabel(A), "v"), A))
        tracer.on_to_event(8.0, "brcv", ("v", A, B))
        tracer.on_to_event(9.0, "brcv", ("v", A, B))
        first, second = tracer.message_spans
        assert first.bcast_at == 0.5
        assert second.bcast_at is None  # only one TO-level bcast happened
        assert first.brcv_at == {B: 8.0}
        assert second.brcv_at == {B: 9.0}

    def test_safe_latencies_decomposition(self):
        tracer = make_tracer()
        tracer.on_vs_event(1.0, "gpsnd", ("m", A))
        tracer.on_vs_event(2.0, "safe", ("m", A, A))
        tracer.on_vs_event(4.0, "safe", ("m", A, B))
        assert tracer.safe_latencies(1) == [(1.0, 4.0)]
        assert tracer.safe_latencies(99) == []


class TestUnmatchedEvents:
    def test_receive_without_send(self):
        tracer = make_tracer()
        tracer.on_vs_event(1.0, "gprcv", ("phantom", A, B))
        assert tracer.unmatched_events == 1
        assert tracer.message_spans == []

    def test_receive_at_unknown_processor(self):
        tracer = make_tracer()
        tracer.on_vs_event(1.0, "gprcv", ("m", A, "zz"))
        assert tracer.unmatched_events == 1

    def test_brcv_without_carrying_span(self):
        tracer = make_tracer()
        tracer.on_to_event(1.0, "brcv", ("v", A, B))
        assert tracer.unmatched_events == 1


class TestViewSpans:
    def test_formation_to_establishment(self):
        tracer = make_tracer()
        members = frozenset({A, B})
        tracer.on_formation(10.0, 2, A)
        tracer.on_formation(11.0, 2, B)  # concurrent attempt; first wins
        tracer.on_createview(12.0, 2, members)
        tracer.on_vs_event(13.0, "newview", (View(2, members), A))
        tracer.on_vs_event(13.5, "newview", (View(2, members), B))
        tracer.on_established(14.0, 2, A)
        tracer.on_established(14.5, 2, B)
        span = tracer.view_spans[2]
        assert span.proposed_at == 10.0 and span.initiator == A
        assert span.announced_at == 12.0
        assert span.members == members
        assert span.installed_everywhere_at() == 13.5
        assert span.established_at == {A: 14.0, B: 14.5}
        assert span.start_time() == 10.0
        assert span.end_time() == 14.5

    def test_partial_installation_is_incomplete(self):
        tracer = make_tracer()
        members = frozenset({A, B})
        tracer.on_createview(12.0, 2, members)
        tracer.on_vs_event(13.0, "newview", (View(2, members), A))
        assert tracer.view_spans[2].installed_everywhere_at() is None

    def test_stabilization_point(self):
        tracer = make_tracer()
        members = frozenset({A, B})
        tracer.on_vs_event(100.0, "newview", (View(2, members), A))
        tracer.on_vs_event(130.0, "newview", (View(2, members), B))
        assert tracer.timeline((A, B), 90.0).alpha1_length == 40.0
        # no reconfiguration after the stable point -> settled at once
        assert tracer.timeline((A, B), 200.0).alpha1_length == 0.0
        # the view's membership is not the group: never stabilised, and
        # that reads inf, not 0
        assert tracer.timeline((A,), 90.0).alpha1_length == inf

    def test_final_view_of(self):
        tracer = make_tracer()
        assert tracer.timeline((A, B), 0.0).final_view.id == 1
        tracer.on_vs_event(5.0, "newview", (View(2, frozenset({A, B})), A))
        divergent = tracer.timeline((A, B), 0.0)
        assert divergent.final_view is None
        assert divergent.alpha1_length == inf
        tracer.on_vs_event(6.0, "newview", (View(2, frozenset({A, B})), B))
        assert tracer.timeline((A, B), 0.0).final_view.id == 2


class TestFaultAnnotations:
    def test_windows_recorded(self):
        tracer = make_tracer()
        tracer.on_fault_window("crash", "crash(a)", 10.0, 20.0)
        tracer.on_fault_window("loss", "loss(a->b)", 15.0, 30.0)
        assert [f.kind for f in tracer.faults] == ["crash", "loss"]
        assert tracer.faults[0].stop == 20.0
