"""Determinism regression: a seed fixes the whole execution.

Two layers of defence:

- the same-process check runs the pinned E18 chaos configuration twice
  and compares complete event-for-event trace digests, exact RNG
  stream positions and the counters ``stats()`` reports (reading them
  and rebuilding spans afterwards must not move the replay);
- the cross-process goldens pin the execution's shape digest and RNG
  digest (both ``PYTHONHASHSEED``-independent), so *any* change to
  event order, timing or randomness consumption fails loudly here
  rather than silently shifting every measured table.
"""

from __future__ import annotations

import pytest

from repro.faults.chaos import ChaosRunner
from repro.faults.schedule import FaultSchedule
from repro.obs.live.stitch import stitch_sim
from repro.obs.digest import (
    rng_digest,
    trace_full_digest,
    trace_shape_digest,
)

PROCS = (1, 2, 3, 4, 5)

# Pinned seed-7 chaos execution (benchmarks/bench_observability.py
# asserts the same goldens).
# Re-pinned in EXPERIMENTS E36: a non-leader's send now wakes the idle
# token, so launches, packets and channel-delay draws moved.
GOLDEN_SHAPE = (
    "27e8ba827d4ed2df6b721de100fd12eb61f8917c8348c517aaccf38bb83a7ee2"
)
GOLDEN_RNG = (
    "6a248f96d7e122357d2d915cd05c80978693164b79a574ac50ba066a47e4af1c"
)
GOLDEN_VS_EVENTS = 468
GOLDEN_SIM_EVENTS = 1475


def run_chaos_pinned() -> ChaosRunner:
    schedule = FaultSchedule.random(7, PROCS, horizon=200.0, intensity=0.6)
    runner = ChaosRunner(PROCS, schedule, seed=7, sends=8, settle=400.0)
    runner.run()
    return runner


@pytest.fixture(scope="module")
def plain_and_observed():
    """Two bare runs of one seed; the second is read and stitched
    before the comparisons (watching must not perturb the replay)."""
    plain = run_chaos_pinned()
    observed = run_chaos_pinned()
    observed.service.stats()
    stitch_sim(observed.service, observed.schedule)
    return plain, observed


class TestZeroPerturbation:
    def test_full_trace_identical(self, plain_and_observed):
        plain, observed = plain_and_observed
        assert trace_full_digest(plain.service.merged_trace()) == (
            trace_full_digest(observed.service.merged_trace())
        )

    def test_rng_streams_identical(self, plain_and_observed):
        plain, observed = plain_and_observed
        assert rng_digest(plain.service.rngs) == rng_digest(
            observed.service.rngs
        )

    def test_same_simulator_event_count(self, plain_and_observed):
        plain, observed = plain_and_observed
        assert (
            plain.service.simulator.events_processed
            == observed.service.simulator.events_processed
        )
        assert plain.service.stats() == observed.service.stats()


class TestGoldenExecution:
    def test_shape_digest(self, plain_and_observed):
        plain, observed = plain_and_observed
        for runner in (plain, observed):
            assert (
                trace_shape_digest(runner.service.merged_trace())
                == GOLDEN_SHAPE
            )

    def test_rng_digest(self, plain_and_observed):
        plain, _ = plain_and_observed
        assert rng_digest(plain.service.rngs) == GOLDEN_RNG

    def test_event_counts(self, plain_and_observed):
        plain, _ = plain_and_observed
        assert len(plain.service.merged_trace().events) == GOLDEN_VS_EVENTS
        assert plain.service.simulator.events_processed == GOLDEN_SIM_EVENTS


class TestObservedRunIsWatched:
    """The replayed run must have done something to watch — a
    determinism proof over an idle run would be vacuous."""

    def test_metrics_populated_across_layers(self, plain_and_observed):
        _, observed = plain_and_observed
        stats = observed.service.stats()
        assert stats["events_processed"] == GOLDEN_SIM_EVENTS
        assert stats["messages_sent"] > 0
        assert stats["tokens_processed"] > 0
        assert stats["token"]["forwards"] > 0
        assert sum(stats["drops"].values()) > 0
        assert observed.runtime.deliveries

    def test_tracer_populated(self, plain_and_observed):
        _, observed = plain_and_observed
        tracer = stitch_sim(observed.service, observed.schedule).tracer
        assert tracer.message_spans
        assert tracer.view_spans
        assert tracer.faults  # nemesis windows annotated
