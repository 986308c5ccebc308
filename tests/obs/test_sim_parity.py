"""A simulated run is read by the live readers.

``repro.rt.trace.sim_entries`` reshapes the events a simulated stack
recorded into the entries a live node logs, so ``stitch_events``,
``verify_events``, ``check_bounds`` and ``content_digest`` read both
substrates.  Three things are held here:

- *parity* — the spans stitched offline from those entries are the
  spans the retired in-run tracer built while the run happened.  That
  tracer is gone, so its output is the reference: the sha256 of its
  JSONL records (``json.dumps(r, sort_keys=True, separators=(",",
  ":"))`` per line), computed with it under ``PYTHONHASHSEED`` 0, 1, 77
  and 123, all four equal.  Formation attempts that installed nowhere
  are spans too, since ``formation`` and ``createview`` are events;
- *oracle parity, non-vacuous* — ``verify_events`` over the entries
  returns the verdict the simulator's own oracles return, and rejects
  the entries once they are corrupted;
- the oracles read none of the three view-lifecycle events.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.quorums import MajorityQuorumSystem
from repro.core.to_spec import check_to_trace
from repro.core.vstoto.runtime import VStoTORuntime
from repro.faults.chaos import ChaosRunner
from repro.faults.injectors import PartitionInjector
from repro.faults.schedule import FaultSchedule
from repro.membership.bounds import VSBounds
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from repro.obs.live.slo import check_bounds
from repro.obs.live.stitch import jsonl_records, stitch_events, stitch_sim
from repro.rt.trace import (
    TO_EVENTS,
    VIEW_EVENTS,
    VS_EVENTS,
    content_digest,
    sim_entries,
    verify_events,
)

PROCS = (1, 2, 3, 4, 5)
CONFIG = dict(delta=1.0, pi=10.0, mu=30.0, work_conserving=True)

#: (records, sha256) of the retired in-run tracer's output; the two
#: view-span pins were re-pinned on the stitched spans in EXPERIMENTS
#: E36, when a non-leader's send began to wake the idle token.
SPLIT_VIEW_SPANS = (
    9, "46d422719c89ea79bc008dcf6d45e238d4d77d1ace31dcb313580ef7760f3f91"
)
CHAOS_VIEW_SPANS = (
    33, "190ba84b87b08e2b1f75b5d2fdc51a21583d3d11ba1c828448ac50aaccb6b482"
)
CHAOS_FAULT_WINDOWS = (
    10, "943c24684083f9db4c01d5ad6d92a19ec1a1a302ad2fd405cf91bc8cc4e8ef72"
)


def pin(tracer, kind):
    """(count, sha256) of the tracer's JSONL records of one type."""
    records = [r for r in jsonl_records(tracer) if r["type"] == kind]
    blob = "".join(
        json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
        for r in records
    )
    return len(records), hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture(scope="module")
def split_heal():
    """n = 5, seed 3, split at 100, healed at 300, 60 sends."""
    service = TokenRingVS(PROCS, RingConfig(**CONFIG), seed=3)
    runtime = VStoTORuntime(service, MajorityQuorumSystem(PROCS))
    (
        FaultSchedule()
        .add_layout(100.0, [[1, 2, 3], [4, 5]])
        .add_layout(300.0, [list(PROCS)])
        .install(service)
    )
    for i in range(60):
        runtime.schedule_broadcast(10.0 + 7.0 * i, PROCS[i % 5], f"v{i}")
    runtime.start()
    runtime.run_until(800.0)
    return service, runtime


@pytest.fixture(scope="module")
def chaos():
    """The pinned execution of tests/obs/test_determinism.py."""
    schedule = FaultSchedule.random(7, PROCS, horizon=200.0, intensity=0.6)
    runner = ChaosRunner(PROCS, schedule, seed=7, sends=8, settle=400.0)
    runner.run()
    return runner, sim_entries(runner.service.events)


class TestSpanParity:
    def test_offline_spans_equal_in_run_spans(self, split_heal):
        service, _runtime = split_heal
        offline = stitch_sim(service).tracer
        assert pin(offline, "view_span") == SPLIT_VIEW_SPANS
        installed = [s for s in offline.view_spans.values() if s.newview_at]
        assert len(installed) == 3
        assert all(s.proposed_at is not None for s in offline.view_spans.values())
        assert len(offline.message_spans) >= 60
        assert offline.unmatched_events == 0
        assert len(offline.delivery_latencies(PROCS)) == 60

    def test_chaos_spans_and_fault_windows_equal_in_run(self, chaos):
        runner, _entries = chaos
        offline = stitch_sim(runner.service, runner.schedule).tracer
        assert pin(offline, "view_span") == CHAOS_VIEW_SPANS
        assert pin(offline, "fault_window") == CHAOS_FAULT_WINDOWS

    def test_a_merge_by_time_alone_loses_the_order(self, split_heal):
        service, runtime = split_heal
        in_order = stitch_sim(service).tracer
        by_time = sorted(
            service.trace.events + runtime.trace.events, key=lambda e: e.time
        )
        recorded = [e for e in service.events if e.action.name not in VIEW_EVENTS]
        assert by_time != recorded
        merged = stitch_events(
            sim_entries(by_time), PROCS, service.initial_view, t0=0.0
        ).tracer
        assert merged.message_spans != in_order.message_spans
        lost = sum(span.bcast_at is None for span in merged.message_spans)
        assert lost > len(in_order.message_spans) // 2

    def test_entries_have_the_live_log_shape(self, split_heal):
        service, _runtime = split_heal
        entries = sim_entries(service.events)
        assert len(entries) == len(service.events)
        assert set(entries[0]) == {"ts", "seq", "node", "ev", "args"}
        assert {e["ev"] for e in entries} == {*VS_EVENTS, *TO_EVENTS, *VIEW_EVENTS}
        last: dict = {}
        for entry in entries:
            assert entry["node"] == entry["args"][-1]
            assert entry["seq"] == last.get(entry["node"], 0) + 1
            last[entry["node"]] = entry["seq"]

    def test_view_events_stay_out_of_the_vs_trace(self, split_heal):
        service, _runtime = split_heal
        assert not any(e.action.name in VIEW_EVENTS for e in service.trace)
        assert sum(e.action.name in VIEW_EVENTS for e in service.events) > 0

    def test_the_split_is_a_fault_window_and_bounds_are_judged(self, split_heal):
        service, _runtime = split_heal
        split = FaultSchedule().add(
            PartitionInjector("split", [[1, 2, 3], [4, 5]]), 100.0, 300.0
        )
        run = stitch_sim(service, split)
        (window,) = run.tracer.faults
        assert (window.kind, window.name, window.start, window.stop) == (
            "PartitionInjector", "split", 100.0, 300.0,
        )
        verdict = check_bounds(run, VSBounds(1.0, 10.0, 30.0))
        assert verdict.safe_count > 0 and verdict.n == 5


class TestOracleParity:
    """The golden seed-7 chaos run, judged by the live oracle."""

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

    def test_the_oracles_ignore_the_view_events(self, chaos):
        runner, entries = chaos
        kept = [e for e in entries if e["ev"] not in VIEW_EVENTS]
        assert len(kept) < len(entries)
        full, bare = self.verify(runner, entries), self.verify(runner, kept)
        assert (full.events, bare.events) == (len(entries), len(kept))
        assert full.violations == bare.violations == []
        assert (full.to_ok, full.to_reason) == (bare.to_ok, bare.to_reason)
        assert full.delivered_complete and bare.delivered_complete
        assert content_digest(entries) == content_digest(kept)
