"""Cross-node span stitching: distributed spans, fault annotation,
and byte-identical determinism under log arrival order."""

from __future__ import annotations

import json

from repro.core.types import Label, View
from repro.obs.live.stitch import (
    jsonl_records,
    stitch_events,
    stitch_log_dir,
    stitched_jsonl,
    stitched_records,
)
from repro.rt import node, trace
from repro.rt.trace import EventLog, load_event_logs

PROCS = ("p1", "p2", "p3")


def healthy_logs(tmp_path, values=("m0", "m1")):
    """Per-node logs of a fault-free run: bcast/gpsnd at p1, gprcv,
    safe and brcv at every member — each node records only its own
    side, so spans only exist if stitching crosses the logs.  VS
    payloads carry the real VStoTO ``(label, value)`` shape so the
    TO-level bcast/brcv events match their spans."""
    logs = {p: EventLog(tmp_path / f"{p}.events.jsonl", p) for p in PROCS}
    for seqno, value in enumerate(values, start=1):
        payload = (Label(id=(0, "p1"), seqno=seqno, origin="p1"), value)
        logs["p1"].record("bcast", value, "p1")
        logs["p1"].record("gpsnd", payload, "p1")
        for p in PROCS:
            logs[p].record("gprcv", payload, "p1", p)
        for p in PROCS:
            logs[p].record("safe", payload, "p1", p)
            logs[p].record("brcv", value, "p1", p)
    for log in logs.values():
        log.close()


class TestStitching:
    def test_spans_cross_process_boundaries(self, tmp_path):
        healthy_logs(tmp_path)
        run = stitch_log_dir(tmp_path)
        assert run.processors == PROCS
        assert len(run.tracer.message_spans) == 2
        assert run.cross_node_spans() == 2
        assert run.tracer.unmatched_events == 0
        span = run.tracer.message_spans[0]
        # Lifecycle points recorded by three different OS processes
        # landed on one span.
        assert set(span.gprcv_at) == set(PROCS)
        assert set(span.safe_at) == set(PROCS)
        assert set(span.brcv_at) == set(PROCS)
        assert span.bcast_at is not None
        # Times are rebased: the first event of the run is t = 0.
        assert span.bcast_at == 0.0
        assert run.duration >= 0.0

    def test_initial_view_matches_live_default(self):
        # One v0 for the node, the verifier and the stitcher.
        assert node.initial_view_for is trace.initial_view_for
        view = trace.initial_view_for(("p2", "p1"))
        assert view == View((0, "p1"), frozenset({"p1", "p2"}))
        run = stitch_events([], ("p2", "p1"))
        assert run.initial_view == view

    def test_fault_marks_become_windows(self):
        t0 = 1000.0
        events = [
            {"ts": t0, "seq": 1, "node": "p1", "ev": "gpsnd",
             "args": ["m0", "p1"]},
        ]
        timeline = [
            {"t": t0 + 1.0, "event": "partition",
             "groups": [["p1", "p2"], ["p3"]]},
            {"t": t0 + 3.0, "event": "heal"},
            {"t": t0 + 4.0, "event": "kill", "node": "p3"},
        ]
        run = stitch_events(events, PROCS, timeline=timeline)
        kinds = {(f.kind, f.name): (f.start, f.stop)
                 for f in run.tracer.faults}
        assert kinds[("partition", "p1,p2|p3")] == (1.0, 3.0)
        crash_start, crash_stop = kinds[("crash", "SIGKILL p3")]
        assert crash_start == 4.0 and crash_stop >= crash_start

    def test_other_timeline_marks_annotate_nothing(self):
        """Only partition/heal/kill marks are faults; the driver's
        config and restart marks leave the tracer's fault list empty."""
        events = [
            {"ts": 10.0, "seq": 1, "node": "p1", "ev": "gpsnd",
             "args": ["m0", "p1"]},
        ]
        timeline = [
            {"t": 9.0, "event": "config", "pi": 0.4, "mu": 2.0},
            {"t": 11.0, "event": "restart", "node": "p2"},
        ]
        run = stitch_events(events, PROCS, timeline=timeline)
        assert run.tracer.faults == []

    def test_unhealed_partition_closes_at_capture_end(self):
        events = [
            {"ts": 10.0, "seq": 1, "node": "p1", "ev": "gpsnd",
             "args": ["m0", "p1"]},
            {"ts": 15.0, "seq": 2, "node": "p1", "ev": "gpsnd",
             "args": ["m1", "p1"]},
        ]
        timeline = [{"t": 12.0, "event": "partition",
                     "groups": [["p1"], ["p2", "p3"]]}]
        run = stitch_events(events, PROCS, timeline=timeline)
        assert len(run.tracer.faults) == 1
        assert run.tracer.faults[0].stop == 5.0  # last event, rebased


class TestDeterminism:
    def test_arrival_order_gives_identical_bytes(self, tmp_path):
        healthy_logs(tmp_path)
        paths = sorted(tmp_path.glob("*.events.jsonl"))
        orders = [paths, paths[::-1], [paths[1], paths[2], paths[0]]]
        outputs = set()
        for order in orders:
            run = stitch_events(load_event_logs(order), PROCS)
            outputs.add(stitched_jsonl(run).encode("utf-8"))
        assert len(outputs) == 1

    def test_torn_tail_does_not_change_the_rest(self, tmp_path):
        healthy_logs(tmp_path)
        baseline = stitched_jsonl(stitch_log_dir(tmp_path))
        # A node killed mid-write leaves a torn last line; the stitcher
        # must produce the same spans as if the line never existed.
        with open(tmp_path / "p3.events.jsonl", "a", encoding="utf-8") as f:
            f.write('{"ts": 99.0, "seq": 99, "node": "p3", "ev": "gp')
        assert stitched_jsonl(stitch_log_dir(tmp_path)) == baseline

    def test_stitched_records_have_provenance_header(self, tmp_path):
        healthy_logs(tmp_path, values=("m0",))
        run = stitch_log_dir(tmp_path)
        records = stitched_records(run)
        header = records[0]
        assert header["type"] == "stitched_run"
        assert header["cross_node_spans"] == 1
        assert header["processors"] == list(PROCS)
        types = {record["type"] for record in records[1:]}
        assert "message_span" in types
        # Canonical form: every line parses back, keys sorted.
        for line in stitched_jsonl(run).splitlines():
            record = json.loads(line)
            assert list(record) == sorted(record)

    def test_stitched_records_are_the_header_then_the_tracer(self, tmp_path):
        healthy_logs(tmp_path)
        run = stitch_log_dir(tmp_path)
        header, *rest = stitched_records(run)
        assert header["type"] == "stitched_run"
        assert rest == list(jsonl_records(run.tracer))
        assert [r["type"] for r in rest].count("message_span") == 2


class TestEmptyCapture:
    def test_empty_inputs_stitch_to_empty_run(self):
        run = stitch_events([], PROCS)
        assert run.events == 0
        assert run.tracer.message_spans == []
        assert stitched_jsonl(run).startswith('{"cross_node_spans":0')
