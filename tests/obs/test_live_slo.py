"""Latency SLOs and the Section 8 bounds checker."""

from __future__ import annotations

import pytest

from repro.core.types import View
from repro.membership.bounds import VSBounds
from repro.obs.live.slo import (
    LatencySummary,
    SLOSpec,
    check_bounds,
    default_slos,
    delivery_samples,
    evaluate_slos,
    first_hop_samples,
    latency_summaries,
    quantile,
    safe_samples,
    view_install_samples,
)
from repro.obs.live.stitch import stitch_events

PROCS = ("p1", "p2", "p3")
BOUNDS = VSBounds(delta=0.05, pi=0.2, mu=1.0)


def run_with_latencies(first_hop=0.001, safe_after=0.01, timeline=()):
    """A one-message stitched run with controlled lifecycle timing."""
    events = [
        {"ts": 100.0, "seq": 1, "node": "p1", "ev": "gpsnd",
         "args": ["m0", "p1"]},
    ]
    seq = 2
    for p in PROCS:
        events.append(
            {"ts": 100.0 + first_hop, "seq": seq, "node": p,
             "ev": "gprcv", "args": ["m0", "p1", p]}
        )
        seq += 1
    for p in PROCS:
        events.append(
            {"ts": 100.0 + safe_after, "seq": seq, "node": p,
             "ev": "safe", "args": ["m0", "p1", p]}
        )
        seq += 1
    return stitch_events(events, PROCS, timeline=timeline)


class TestQuantile:
    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        assert quantile(samples, 0.5) == 50
        assert quantile(samples, 0.99) == 99
        assert quantile(samples, 0.999) == 100
        assert quantile(samples, 1.0) == 100

    def test_empty_and_single(self):
        assert quantile([], 0.99) == 0.0
        assert quantile([0.3], 0.5) == 0.3

    def test_invalid_q_rejected(self):
        with pytest.raises(ValueError):
            quantile([1.0], 0.0)
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)


class TestLatencySummary:
    def test_summary_and_fixed_buckets(self):
        summary = LatencySummary.from_samples("safe", [0.002, 0.02, 0.2])
        assert summary.count == 3
        assert summary.p50 == 0.02
        assert summary.max == 0.2
        assert summary.buckets["0.005"] == 1
        assert summary.buckets["+Inf"] == 3

    def test_stat_lookup(self):
        summary = LatencySummary.from_samples("x", [1.0])
        assert summary.stat("p99") == 1.0
        with pytest.raises(ValueError):
            summary.stat("nope")


class TestSLOSpec:
    def test_pass_and_fail(self):
        summary = LatencySummary.from_samples("safe", [0.1, 0.2])
        ok = SLOSpec("fast", "safe", "max", 0.5).evaluate(summary)
        assert ok.ok and ok.observed == 0.2
        bad = SLOSpec("strict", "safe", "max", 0.15).evaluate(summary)
        assert not bad.ok and "0.15" in bad.detail

    def test_empty_passes_unless_samples_required(self):
        empty = LatencySummary.from_samples("safe", [])
        assert SLOSpec("lax", "safe", "p99", 0.1).evaluate(empty).ok
        gated = SLOSpec(
            "need-data", "safe", "p99", 0.1, require_samples=1
        ).evaluate(empty)
        assert not gated.ok and "0 samples" in gated.detail

    def test_default_slos_derive_from_bounds(self):
        specs = {s.name: s for s in default_slos(BOUNDS, 3)}
        assert specs["safe-p99-under-d"].threshold == pytest.approx(
            BOUNDS.d(3)
        )
        assert specs["delivery-p99-under-b+d"].threshold == pytest.approx(
            BOUNDS.b(3) + BOUNDS.d(3)
        )

    def test_evaluate_slos_tolerates_missing_summary(self):
        verdicts = evaluate_slos(
            {}, (SLOSpec("x", "absent", "p99", 1.0),)
        )
        assert verdicts[0].ok and verdicts[0].samples == 0


class TestSampleExtraction:
    def test_clean_run_yields_all_samples(self):
        run = run_with_latencies()
        assert safe_samples(run) == [pytest.approx(0.01)]
        assert first_hop_samples(run) == [pytest.approx(0.001)]
        assert delivery_samples(run) == []  # no TO layer in this run
        assert view_install_samples(run) == []
        summaries = latency_summaries(run)
        assert summaries["safe"].count == 1
        assert summaries["view_install"].count == 0

    def test_view_install_starts_at_the_formation_line(self):
        view = View((1, "p1"), frozenset(PROCS))
        events = [
            {"ts": 100.0, "seq": 1, "node": "p1", "ev": "formation",
             "args": [view.id, "p1"]},
            {"ts": 100.1, "seq": 2, "node": "p1", "ev": "createview",
             "args": [view.id, PROCS, "p1"]},
        ]
        for i, p in enumerate(PROCS):
            events.append({"ts": 100.2 + 0.05 * i, "seq": 3 + i, "node": p,
                           "ev": "newview", "args": [view, p]})
        assert view_install_samples(stitch_events(events, PROCS)) == [
            pytest.approx(0.3)
        ]
        # Without the proposal, first to last newview is no sample.
        assert view_install_samples(stitch_events(events[1:], PROCS)) == []

    def test_fault_window_excludes_overlapping_spans(self):
        timeline = [
            {"t": 99.0, "event": "partition", "groups": [["p1"], ["p2", "p3"]]},
            {"t": 103.0, "event": "heal"},
        ]
        run = run_with_latencies(timeline=timeline)
        assert safe_samples(run) == []            # span inside the window
        assert safe_samples(run, clean_only=False) == [pytest.approx(0.01)]


class TestBoundsChecker:
    def test_clean_run_satisfies_bounds(self):
        verdict = check_bounds(run_with_latencies(), BOUNDS)
        assert verdict.ok
        assert verdict.n == 3
        assert verdict.delta_measured == pytest.approx(0.001)
        # d = 2π + nδ* with the measured δ*, not the configured δ.
        assert verdict.d_bound == pytest.approx(2 * 0.2 + 3 * 0.001)
        assert verdict.violations == ()

    def test_slow_safe_completion_violates_d(self):
        # First hops of 1 ms say the links are fast (δ* small, so
        # d ≈ 2π); a safe round that still takes 2 s must be flagged.
        verdict = check_bounds(
            run_with_latencies(first_hop=0.001, safe_after=2.0), BOUNDS
        )
        assert not verdict.ok
        assert verdict.safe_p99 == pytest.approx(2.0)
        assert any("exceeds d" in v for v in verdict.violations)

    def test_faulted_spans_do_not_trip_bounds(self):
        timeline = [
            {"t": 99.0, "event": "partition", "groups": [["p1"], ["p2", "p3"]]},
            {"t": 103.0, "event": "heal"},
        ]
        verdict = check_bounds(
            run_with_latencies(safe_after=2.0, timeline=timeline), BOUNDS
        )
        assert verdict.ok           # the slow span rode through a fault
        assert verdict.safe_count == 0

    def test_idle_run_passes_vacuously(self):
        verdict = check_bounds(stitch_events([], PROCS), BOUNDS)
        assert verdict.ok
        assert verdict.delta_measured == BOUNDS.delta  # unmeasured
        assert verdict.to_dict()["violations"] == []
