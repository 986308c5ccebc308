"""Event-log capture and offline verification of live captures."""

from __future__ import annotations

import json

import pytest

from repro.core.types import View
from repro.rt.node import initial_view_for
from repro.rt.trace import (
    ONE_GROUP,
    EventLog,
    EventLogError,
    event_log_path,
    group_event_logs,
    load_event_logs,
    verify_events,
    verify_log_dir,
)
from repro.shard.live import shard_log_paths
from repro.shard.routing import group_names

PROCS = ("p1", "p2", "p3")
V0 = initial_view_for(PROCS)


def write_events(tmp_path, node, events):
    log = EventLog(tmp_path / f"{node}.events.jsonl", node)
    for name, *args in events:
        log.record(name, *args)
    log.close()
    return log


def healthy_run(tmp_path, values=("m0", "m1")):
    """Synthesise the capture of a fault-free run with a realistic
    global interleaving: for each value, bcast + gpsnd at p1, gprcv at
    every processor, then (everyone having received) safe and brcv at
    every processor.  Logs are kept open so write-time stamps give the
    intended merge order."""
    logs = {p: EventLog(tmp_path / f"{p}.events.jsonl", p) for p in PROCS}
    for value in values:
        logs["p1"].record("bcast", value, "p1")
        logs["p1"].record("gpsnd", value, "p1")
        for p in PROCS:
            logs[p].record("gprcv", value, "p1", p)
        for p in PROCS:
            logs[p].record("safe", value, "p1", p)
            logs[p].record("brcv", value, "p1", p)
    for log in logs.values():
        log.close()


class TestLogNames:
    """``event_log_path`` names a group's log; ``group_event_logs``
    reads the names back."""

    @pytest.mark.parametrize("count", [1, 2])
    def test_round_trip(self, tmp_path, count):
        groups = group_names(count)
        written = {
            g: {p: event_log_path(tmp_path, p, g, count) for p in PROCS}
            for g in groups
        }
        for paths in written.values():
            for path in paths.values():
                path.touch()
        (tmp_path / "p1.report.json").touch()  # not an event log
        assert group_event_logs(tmp_path) == written
        for g in groups:
            assert shard_log_paths(tmp_path, g) == list(written[g].values())

    def test_one_group_names_carry_no_group(self, tmp_path):
        assert ONE_GROUP == group_names(1)[0]
        path = event_log_path(tmp_path, "p1", ONE_GROUP, 1)
        assert path == tmp_path / "p1.events.jsonl"
        assert (
            event_log_path(tmp_path, "p1", "g1", 2)
            == tmp_path / "p1@g1.events.jsonl"
        )

    def test_empty_directory_has_no_groups(self, tmp_path):
        assert group_event_logs(tmp_path) == {}
        assert shard_log_paths(tmp_path, ONE_GROUP) == []


class TestEventLog:
    def test_records_are_json_lines_with_clock_and_seq(self, tmp_path):
        log = write_events(
            tmp_path, "p1", [("gpsnd", "m0", "p1"), ("newview", V0, "p1")]
        )
        assert log.events_recorded == 2
        lines = (tmp_path / "p1.events.jsonl").read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["node"] == "p1"
        assert first["ev"] == "gpsnd"
        assert first["seq"] == 1
        assert isinstance(first["ts"], float)

    def test_merge_orders_by_timestamp_and_decodes_args(self, tmp_path):
        write_events(tmp_path, "p1", [("gpsnd", "m0", "p1")])
        write_events(tmp_path, "p2", [("newview", V0, "p2")])
        events = load_event_logs(sorted(tmp_path.glob("*.events.jsonl")))
        assert [e["ev"] for e in events] == ["gpsnd", "newview"]
        view = events[1]["args"][0]
        assert isinstance(view, View) and view == V0

    def test_torn_tail_line_is_skipped(self, tmp_path):
        path = tmp_path / "p1.events.jsonl"
        write_events(tmp_path, "p1", [("gpsnd", "m0", "p1")])
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"ts": 1.0, "seq": 2, "node": "p1", "ev": "gp')  # killed
        events = load_event_logs([path])
        assert len(events) == 1

    def test_corrupt_interior_line_is_an_error_naming_path_and_line(self, tmp_path):
        # Only the tail may be torn: a bad line with events after it
        # would silently delete an event from the oracle's input.
        path = tmp_path / "p1.events.jsonl"
        write_events(
            tmp_path, "p1", [("gpsnd", f"m{i}", "p1") for i in range(3)]
        )
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = lines[1][: len(lines[1]) // 2] + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(EventLogError) as caught:
            load_event_logs([path])
        assert str(path) in str(caught.value)
        assert "line 2" in str(caught.value)


class TestVerifyEvents:
    def test_healthy_run_verifies_clean(self, tmp_path):
        healthy_run(tmp_path)
        report = verify_log_dir(tmp_path, PROCS, V0)
        assert report.ok
        assert report.violations == []
        assert report.to_ok
        assert report.sends == 2
        assert report.deliveries == 6
        assert report.delivered_complete
        events = load_event_logs(sorted(tmp_path.glob("*.events.jsonl")))
        assert report.events == len(events)

    def test_detects_to_order_violation(self, tmp_path):
        # p2 delivers the two values in the opposite order from p1.
        write_events(
            tmp_path,
            "p1",
            [
                ("bcast", "m0", "p1"),
                ("bcast", "m1", "p1"),
                ("brcv", "m0", "p1", "p1"),
                ("brcv", "m1", "p1", "p1"),
                ("brcv", "m1", "p1", "p2"),
                ("brcv", "m0", "p1", "p2"),
            ],
        )
        report = verify_log_dir(tmp_path, PROCS, V0)
        assert not report.to_ok
        assert not report.ok

    def test_detects_vs_violation_duplicate_delivery(self, tmp_path):
        write_events(
            tmp_path,
            "p1",
            [
                ("gpsnd", "m0", "p1"),
                ("gprcv", "m0", "p1", "p1"),
                ("gprcv", "m0", "p1", "p1"),  # duplicate at same processor
            ],
        )
        report = verify_log_dir(tmp_path, PROCS, V0)
        assert report.violations

    def test_expect_at_scopes_completeness_to_survivors(self, tmp_path):
        # p3 (killed) delivered nothing; survivors delivered everything.
        for p in ("p1", "p2"):
            write_events(
                tmp_path,
                p,
                [("bcast", "m0", "p1")] * (1 if p == "p1" else 0)
                + [("brcv", "m0", "p1", p)],
            )
        write_events(tmp_path, "p3", [])
        full = verify_log_dir(tmp_path, PROCS, V0)
        assert not full.delivered_complete
        scoped = verify_log_dir(tmp_path, PROCS, V0, expect_at=("p1", "p2"))
        assert scoped.delivered_complete

    def test_empty_capture_is_not_complete(self, tmp_path):
        report = verify_events([], PROCS, V0)
        assert report.ok  # vacuously conformant
        assert not report.delivered_complete

    def test_a_stray_node_log_is_a_violation_not_a_crash(self, tmp_path):
        # A p4.events.jsonl left beside a 3-node capture.
        healthy_run(tmp_path)
        write_events(
            tmp_path,
            "p4",
            [("newview", V0, "p4"), ("gpsnd", "x", "p4"), ("brcv", "m0", "p1", "p4")],
        )
        write_events(tmp_path, "p5", [("brcv", "m9", "p5", "p1")])
        events = load_event_logs(sorted(tmp_path.glob("*.events.jsonl")))
        report = verify_events(events, PROCS, V0)
        assert not report.ok
        assert report.to_ok  # the strays were not fed to the checkers
        assert len(report.violations) == 4
        assert report.violations[0].startswith("newview(")
        assert "logged by 'p4'" in report.violations[0]
        assert "gpsnd('x', 'p4') logged by 'p4'" in report.violations[1]
        assert "brcv('m9', 'p5', 'p1') logged by 'p5'" in report.violations[3]
        assert report.deliveries == 6 and report.delivered_complete

    def test_expect_at_outside_the_processors_is_refused(self, tmp_path):
        healthy_run(tmp_path)
        events = load_event_logs(sorted(tmp_path.glob("*.events.jsonl")))
        with pytest.raises(ValueError, match=r"expect_at names \['p9'\]"):
            verify_events(events, PROCS, V0, expect_at=("p1", "p9"))
