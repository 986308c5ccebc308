"""E19 — observability: a pinned execution, valid export, and agreement.

The observability layer (:mod:`repro.obs`) promises:

1. **A pinned execution** — the E18 chaos configuration at seed 7
   reproduces cross-process golden digests of its timed trace and RNG
   stream positions (``tests/obs/test_determinism.py`` also replays it
   twice in one process).  Counters are plain attributes read by
   ``stats()``, so no hub exists whose attachment could perturb it.
2. **Valid export** — the Chrome trace-event output is structurally
   sound: balanced async begin/end arcs, unique arc ids, virtual time
   scaled by :data:`repro.obs.export.TS_SCALE`.
3. **Agreement** — the spans stitched from the run's recorded events
   (:func:`repro.obs.live.stitch.stitch_sim`, the one way spans are
   built) give the l' and delivery latency the retired
   ``analysis.measure`` scrape read (pinned).  That they equal the
   spans the retired in-run tracer built is pinned in
   ``tests/obs/test_sim_parity.py``.
"""

from __future__ import annotations

import json

from repro.analysis.experiments import observability_table, split_heal_run
from repro.analysis.stats import format_table, summarize
from repro.faults.chaos import ChaosRunner
from repro.faults.schedule import FaultSchedule
from repro.obs.live.stitch import stitch_sim
from repro.obs.digest import rng_digest, trace_shape_digest
from repro.obs.export import TS_SCALE, chrome_trace

PROCS = (1, 2, 3, 4, 5)

# Pinned seed-7 chaos execution; tests/obs/test_determinism.py asserts
# the same goldens in tier-1 (re-pinned in EXPERIMENTS E36).
GOLDEN_SHAPE = (
    "27e8ba827d4ed2df6b721de100fd12eb61f8917c8348c517aaccf38bb83a7ee2"
)
GOLDEN_RNG = (
    "6a248f96d7e122357d2d915cd05c80978693164b79a574ac50ba066a47e4af1c"
)


def chaos_run() -> ChaosRunner:
    schedule = FaultSchedule.random(7, PROCS, horizon=200.0, intensity=0.6)
    runner = ChaosRunner(PROCS, schedule, seed=7, sends=8, settle=400.0)
    runner.run()
    return runner


def test_e19_pinned_execution():
    """The seed-7 chaos run matches its cross-process goldens."""
    run = chaos_run()
    trace = run.service.merged_trace()
    assert trace_shape_digest(trace) == GOLDEN_SHAPE
    assert rng_digest(run.service.rngs) == GOLDEN_RNG
    stats = run.service.stats()
    assert stats["events_processed"] == run.service.simulator.events_processed
    print(
        f"\nE19 pinned: {len(trace.events)} VS events, "
        f"{stats['events_processed']} sim events, goldens hold"
    )


def test_e19_chrome_trace_is_structurally_valid():
    observed = chaos_run()
    trace = chrome_trace(stitch_sim(observed.service, observed.schedule).tracer)
    json.dumps(trace)  # serialisable as-is
    events = trace["traceEvents"]
    arcs: dict = {}
    for event in events:
        if event["ph"] in ("b", "e"):
            arcs.setdefault(
                (event["cat"], event["id"]), []
            ).append(event["ph"])
    assert arcs, "no spans exported"
    for key, phases in arcs.items():
        assert phases == ["b", "e"], f"unbalanced arc {key}: {phases}"
    for event in events:
        if "ts" in event:
            assert event["ts"] >= 0
            assert event["ts"] <= TS_SCALE * 700.0  # horizon + settle
    kinds = {e["ph"] for e in events}
    assert "X" in kinds, "no fault windows on the nemesis track"
    print(
        f"\nE19 export: {len(events)} trace events, "
        f"{len(arcs)} balanced arcs"
    )


def test_e19_spans_agree_with_measurement():
    """Spans stitched from the recorded events read what
    ``analysis.measure`` read before it was retired (re-pinned in
    EXPERIMENTS E36, when non-leader sends began to wake the token)."""
    pinned = {0: (2.65, 137.5), 1: (3.108, 138.9), 2: (2.519, 137.9)}
    for seed in (0, 1, 2):
        tracer = stitch_sim(split_heal_run(seed)).tracer
        assert tracer.unmatched_events == 0
        span_l = tracer.timeline(PROCS, 300.0).alpha1_length
        span_mean = summarize(
            c - b for b, c in tracer.delivery_latencies(PROCS)
        ).mean
        assert (float(f"{span_l:.4g}"), float(f"{span_mean:.4g}")) == pinned[seed]

    headers, rows = observability_table()
    print("\n" + format_table(headers, rows))
