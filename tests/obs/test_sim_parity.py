"""A simulated run is read by the live readers.

``repro.rt.trace.sim_entries`` reshapes the events a simulated stack
recorded into the entries a live node logs, so ``stitch_events``,
``verify_events``, ``check_bounds`` and ``content_digest`` read both
substrates.  Two things are held here:

- *parity* — the spans stitched offline from those entries are, field
  for field, the spans an in-run tracer built while the run happened
  (which needs the order events happened in: a merge of the two
  ``TimedTrace``\\ s by time alone loses it);
- *oracle parity, non-vacuous* — ``verify_events`` over the entries
  returns the verdict the simulator's own oracles return, and rejects
  the entries once they are corrupted.
"""

from __future__ import annotations

import pytest

from repro.core.quorums import MajorityQuorumSystem
from repro.core.to_spec import check_to_trace
from repro.core.vstoto.runtime import VStoTORuntime
from repro.faults.chaos import ChaosRunner
from repro.faults.schedule import FaultSchedule
from repro.membership.bounds import VSBounds
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from repro.net.scenarios import PartitionScenario
from repro.obs import Observability
from repro.obs.live.slo import check_bounds
from repro.obs.live.stitch import stitch_events, stitch_sim
from repro.rt.trace import (
    content_digest,
    sim_entries,
    sim_timeline,
    verify_events,
)

PROCS = (1, 2, 3, 4, 5)
CONFIG = dict(delta=1.0, pi=10.0, mu=30.0, work_conserving=True)


@pytest.fixture(scope="module")
def split_heal():
    """n = 5, seed 3, split at 100, healed at 300, 60 sends, traced."""
    obs = Observability()
    service = TokenRingVS(PROCS, RingConfig(**CONFIG), seed=3, obs=obs)
    runtime = VStoTORuntime(service, MajorityQuorumSystem(PROCS))
    scenario = (
        PartitionScenario()
        .add(100.0, [[1, 2, 3], [4, 5]])
        .add(300.0, [list(PROCS)])
    )
    service.install_scenario(scenario)
    for i in range(60):
        runtime.schedule_broadcast(10.0 + 7.0 * i, PROCS[i % 5], f"v{i}")
    runtime.start()
    runtime.run_until(800.0)
    return service, runtime, scenario, obs.tracer


def newview_times(tracer):
    """Per installed view, who installed it when (the in-run tracer
    also holds spans for formations that installed nowhere: the ring
    feeds it proposals, which are not external events)."""
    return {
        vid: span.newview_at
        for vid, span in tracer.view_spans.items()
        if span.newview_at
    }


class TestSpanParity:
    def test_offline_spans_equal_in_run_spans(self, split_heal):
        service, _runtime, scenario, in_run = split_heal
        offline = stitch_sim(service, scenario).tracer
        assert len(offline.message_spans) >= 60
        assert offline.message_spans == in_run.message_spans
        assert newview_times(offline) == newview_times(in_run)
        assert offline.unmatched_events == in_run.unmatched_events == 0
        for query in (
            lambda t: t.timeline(PROCS, 300.0).alpha1_length,
            lambda t: t.delivery_latencies(PROCS),
            lambda t: t.safe_latencies(),
        ):
            assert query(offline) == query(in_run)
        assert len(offline.delivery_latencies(PROCS)) == 60

    def test_a_merge_by_time_alone_loses_the_order(self, split_heal):
        service, runtime, _scenario, in_run = split_heal
        by_time = sorted(
            service.trace.events + runtime.trace.events, key=lambda e: e.time
        )
        assert by_time != service.events
        merged = stitch_events(
            sim_entries(by_time), PROCS, service.initial_view, t0=0.0
        ).tracer
        assert merged.message_spans != in_run.message_spans
        lost = sum(span.bcast_at is None for span in merged.message_spans)
        assert lost > len(in_run.message_spans) // 2

    def test_entries_have_the_live_log_shape(self, split_heal):
        service, _runtime, scenario, _ = split_heal
        entries = sim_entries(service.events)
        assert len(entries) == len(service.events)
        assert set(entries[0]) == {"ts", "seq", "node", "ev", "args"}
        last: dict = {}
        for entry in entries:
            assert entry["node"] == entry["args"][-1]
            assert entry["seq"] == last.get(entry["node"], 0) + 1
            last[entry["node"]] = entry["seq"]
        assert [m["event"] for m in sim_timeline(scenario, PROCS)] == [
            "partition",
            "heal",
        ]

    def test_the_split_is_a_fault_window_and_bounds_are_judged(self, split_heal):
        service, _runtime, scenario, _ = split_heal
        run = stitch_sim(service, scenario)
        (window,) = run.tracer.faults
        assert (window.kind, window.start, window.stop) == (
            "partition", 100.0, 300.0,
        )
        verdict = check_bounds(run, VSBounds(1.0, 10.0, 30.0))
        assert verdict.safe_count > 0 and verdict.n == 5


class TestOracleParity:
    """The golden seed-7 chaos run, judged by the live oracle."""

    @pytest.fixture(scope="class")
    def chaos(self):
        # The pinned execution of tests/obs/test_determinism.py.
        schedule = FaultSchedule.random(7, PROCS, horizon=200.0, intensity=0.6)
        runner = ChaosRunner(PROCS, schedule, seed=7, sends=8, settle=400.0)
        runner.run()
        return runner, sim_entries(runner.service.events)

    def verify(self, runner, entries):
        return verify_events(entries, PROCS, runner.service.initial_view)

    def test_same_verdict_as_the_simulators_oracles(self, chaos):
        runner, entries = chaos
        report = self.verify(runner, entries)
        to_actions = [e.action for e in runner.runtime.trace.events]
        reference = check_to_trace(to_actions, PROCS)
        assert report.violations == list(runner.monitor.violations) == []
        assert (report.to_ok, report.to_reason) == (
            reference.ok, reference.reason,
        )
        assert report.ok and report.delivered_complete
        assert report.sends == 8 and report.deliveries == 8 * len(PROCS)
        assert report.events == len(entries) > 430
        assert len(content_digest(entries)) == 64

    def test_a_dropped_brcv_is_rejected(self, chaos):
        runner, entries = chaos
        at_3 = [i for i, e in enumerate(entries) if e["ev"] == "brcv" and e["node"] == 3]
        corrupted = entries[: at_3[2]] + entries[at_3[2] + 1 :]
        assert not self.verify(runner, corrupted).to_ok

    def test_two_swapped_brcv_are_rejected(self, chaos):
        runner, entries = chaos
        at_4 = [i for i, e in enumerate(entries) if e["ev"] == "brcv" and e["node"] == 4]
        i, j = at_4[1], at_4[2]
        corrupted = list(entries)
        corrupted[i], corrupted[j] = corrupted[j], corrupted[i]
        assert not self.verify(runner, corrupted).to_ok
