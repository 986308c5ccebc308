"""Zero-perturbation regression: attaching observability must not
change an execution.

Two layers of defence:

- the same-process check runs the pinned E18 chaos configuration twice
  — bare, and with a hub attached — and compares complete
  event-for-event trace digests and exact RNG stream positions;
- the cross-process goldens pin the execution's shape digest and RNG
  digest (both ``PYTHONHASHSEED``-independent), so *any* change to
  event order, timing or randomness consumption — obs-related or not —
  fails loudly here rather than silently shifting every measured table.
"""

from __future__ import annotations

import pytest

from repro.faults.chaos import ChaosRunner
from repro.faults.schedule import FaultSchedule
from repro.obs import Observability
from repro.obs.live.stitch import stitch_sim
from repro.obs.digest import (
    rng_digest,
    trace_full_digest,
    trace_shape_digest,
)

PROCS = (1, 2, 3, 4, 5)

# Pinned seed-7 chaos execution (see benchmarks/bench_observability.py
# for the same goldens asserted alongside the overhead budget).
GOLDEN_SHAPE = (
    "b4ed75838a0c6dedcdb25ca73a89b0c01f5e0f531a80ea2316c9bce059944939"
)
GOLDEN_RNG = (
    "9f1352c9cc4c25a21fc7781b777663b245d2d78090df4a9784abfd7911b4d479"
)
GOLDEN_VS_EVENTS = 430
GOLDEN_SIM_EVENTS = 1442


def run_chaos_pinned(obs=None) -> ChaosRunner:
    schedule = FaultSchedule.random(7, PROCS, horizon=200.0, intensity=0.6)
    runner = ChaosRunner(
        PROCS, schedule, seed=7, sends=8, settle=400.0, obs=obs
    )
    runner.run()
    return runner


@pytest.fixture(scope="module")
def plain_and_observed():
    plain = run_chaos_pinned()
    observed = run_chaos_pinned(Observability())
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
    """The observed run must actually have observed something — a
    perturbation-freedom proof over a no-op hub would be vacuous."""

    def test_metrics_populated_across_layers(self, plain_and_observed):
        _, observed = plain_and_observed
        metrics = observed.service.obs.metrics
        assert metrics.total("sim_events_fired_total") == GOLDEN_SIM_EVENTS
        assert metrics.total("net_packets_sent_total") > 0
        assert metrics.total("ring_tokens_processed_total") > 0
        assert metrics.total("vstoto_views_installed_total") > 0

    def test_tracer_populated(self, plain_and_observed):
        _, observed = plain_and_observed
        tracer = stitch_sim(observed.service, observed.schedule).tracer
        assert tracer.message_spans
        assert tracer.view_spans
        assert tracer.faults  # nemesis windows annotated
