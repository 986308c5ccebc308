"""Coverage reports: merging, serialization, pair reconstruction."""

import json

from repro.scenarios import CoverageReport
from repro.scenarios.coverage import CoverageTracker

from repro.core.quorums import MajorityQuorumSystem
from repro.core.vstoto.runtime import VStoTORuntime
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from repro.faults import FaultSchedule

PROCS = (1, 2, 3, 4, 5)


class TestReport:
    def test_merge_unions_edges_and_sums_runs(self):
        a = CoverageReport(
            runs=1,
            statuses=("normal", "send"),
            status_edges=("normal->send",),
            view_edges=("shrink:primary",),
            fault_status_pairs=("loss@normal",),
            triggered_windows=1,
        )
        b = CoverageReport(
            runs=2,
            statuses=("collect", "normal"),
            status_edges=("normal->send", "send->collect"),
            view_edges=("grow:primary",),
            fault_status_pairs=("loss@send",),
            triggered_windows=0,
        )
        merged = a.merge(b)
        assert merged.runs == 3
        assert merged.statuses == ("collect", "normal", "send")
        assert merged.status_edges == ("normal->send", "send->collect")
        assert merged.view_edges == ("grow:primary", "shrink:primary")
        assert merged.fault_status_pairs == ("loss@normal", "loss@send")
        assert merged.triggered_windows == 1
        assert merged.protocol_edges == 4

    def test_merge_is_order_independent(self):
        reports = [
            CoverageReport(statuses=("send",), status_edges=("a->b",)),
            CoverageReport(statuses=("normal",), status_edges=("b->c",)),
            CoverageReport(statuses=("collect",), status_edges=("a->b",)),
        ]
        forward = CoverageReport.merge_all(reports)
        backward = CoverageReport.merge_all(reversed(reports))
        assert forward == backward

    def test_json_round_trip(self):
        report = CoverageReport(
            runs=4,
            statuses=("normal",),
            status_edges=("normal->send",),
            view_edges=("shift:non_primary",),
            fault_status_pairs=("delay@collect",),
            triggered_windows=2,
        )
        clone = CoverageReport.from_dict(
            json.loads(json.dumps(report.to_dict()))
        )
        assert clone == report


class TestTracker:
    def run_split(self):
        service = TokenRingVS(
            PROCS, RingConfig(delta=1.0, pi=10.0, mu=30.0), seed=0
        )
        runtime = VStoTORuntime(service, MajorityQuorumSystem(PROCS))
        tracker = CoverageTracker(runtime)
        (
            FaultSchedule()
            .add_layout(40.0, ((1, 2, 3), (4, 5)))
            .add_layout(80.0, (PROCS,))
            .install(service)
        )
        runtime.run_until(300.0)
        return tracker

    def test_records_statuses_and_edges(self):
        report = self.run_split().report()
        assert set(report.statuses) == {"normal", "send", "collect"}
        assert "normal->send" in report.status_edges
        assert "send->collect" in report.status_edges
        assert "collect->normal" in report.status_edges
        assert "shrink:primary" in report.view_edges
        assert "grow:primary" in report.view_edges

    def test_fault_status_pairs_cross_timeline_with_windows(self):
        tracker = self.run_split()
        # A window spanning the whole run overlaps every status; a
        # window before any transition overlaps only the initial one.
        tracker.note_window("loss", 0.0, 300.0)
        tracker.note_window("crash_restart", 0.0, 1.0)
        report = tracker.report()
        assert {"loss@normal", "loss@send", "loss@collect"} <= set(
            report.fault_status_pairs
        )
        crash_pairs = {
            pair
            for pair in report.fault_status_pairs
            if pair.startswith("crash_restart@")
        }
        assert crash_pairs == {"crash_restart@normal"}

    def test_triggered_windows_counted_separately(self):
        tracker = self.run_split()
        tracker.note_window("loss", 0.0, 10.0)
        tracker.note_triggered_window("token_loss", 50.0, 60.0)
        report = tracker.report()
        assert report.triggered_windows == 1
