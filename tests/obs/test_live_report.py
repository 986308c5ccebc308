"""The run-report CLI: ``python -m repro.obs report <logdir>``."""

from __future__ import annotations

import json

from repro.obs.__main__ import main as obs_main
from repro.obs.live.report import (
    bounds_from_timeline,
    build_report,
    render_text,
    wire_summary,
)
from repro.obs.live.snapshot import ClusterTimeline, MetricsSnapshot

PROCS = ("p1", "p2", "p3")


def write_log(tmp_path, node, entries):
    path = tmp_path / f"{node}.events.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for seq, (ts, ev, args) in enumerate(entries, start=1):
            handle.write(
                json.dumps(
                    {"ts": ts, "seq": seq, "node": node, "ev": ev,
                     "args": args}
                )
                + "\n"
            )


def write_log_append(tmp_path, node, entry):
    ts, ev, args = entry
    with open(tmp_path / f"{node}.events.jsonl", "a", encoding="utf-8") as handle:
        handle.write(
            json.dumps({"ts": ts, "seq": 99, "node": node, "ev": ev, "args": args})
            + "\n"
        )


def synth_run(tmp_path, safe_after=0.01, config_mark=True):
    """A one-message capture with controlled latencies: gpsnd at p1,
    1 ms first hops, safe everywhere after ``safe_after`` seconds."""
    t0 = 500.0
    per_node = {p: [] for p in PROCS}
    per_node["p1"].append((t0, "gpsnd", ["m0", "p1"]))
    for p in PROCS:
        per_node[p].append((t0 + 0.001, "gprcv", ["m0", "p1", p]))
        per_node[p].append((t0 + safe_after, "safe", ["m0", "p1", p]))
    for p, entries in per_node.items():
        write_log(tmp_path, p, entries)
    timeline = []
    if config_mark:
        timeline.append(
            {"t": t0, "event": "config", "delta": 0.05, "pi": 0.2,
             "mu": 1.0, "nodes": 3}
        )
    (tmp_path / "cluster.timeline.json").write_text(
        json.dumps(timeline), encoding="utf-8"
    )


class TestBuildReport:
    def test_clean_run_is_ok(self, tmp_path):
        synth_run(tmp_path)
        report = build_report(tmp_path)
        assert report.ok and report.exit_code == 0
        assert report.run.cross_node_spans() == 1
        assert report.bounds.pi == 0.2  # from the config mark
        data = report.to_dict()
        assert data["ok"] is True
        assert data["bounds"]["ok"] is True
        assert data["latency"]["safe"]["count"] == 1

    def test_slow_run_fails_slo_and_bounds(self, tmp_path):
        synth_run(tmp_path, safe_after=2.0)
        report = build_report(tmp_path)
        assert not report.ok and report.exit_code == 1
        failed = [v for v in report.slos if not v.ok]
        assert any(v.spec.name == "safe-p99-under-d" for v in failed)
        assert not report.bounds_verdict.ok
        text = render_text(report)
        assert "VERDICT: FAIL" in text
        assert "BOUND VIOLATION" in text

    def test_heal_shows_l_prime_against_b(self, tmp_path):
        """The report reads l′ off the same tracer query the E-tables
        use: last newview after the heal, against b at the run's δ."""
        synth_run(tmp_path)
        view = {"!": "view", "id": {"!": "t", "v": [1, "p1"]}, "set": list(PROCS)}
        for i, p in enumerate(PROCS):
            write_log_append(tmp_path, p, (503.1 + 0.1 * i, "newview", [view, p]))
        marks = json.loads((tmp_path / "cluster.timeline.json").read_text())
        marks.append({"t": 501.0, "event": "partition", "groups": [["p1", "p2"], ["p3"]]})
        marks.append({"t": 503.0, "event": "heal"})
        (tmp_path / "cluster.timeline.json").write_text(json.dumps(marks))
        text = render_text(build_report(tmp_path))
        assert "l' after the heal = 0.300s   (b = 1.450s" in text

    def test_delta_override_beats_config(self, tmp_path):
        synth_run(tmp_path)
        report = build_report(tmp_path, delta=0.2)
        assert report.bounds.delta == 0.2
        assert report.bounds.pi == 0.8  # rescaled, config mark ignored

    def test_bounds_default_when_no_config_recorded(self, tmp_path):
        synth_run(tmp_path, config_mark=False)
        report = build_report(tmp_path)
        assert report.bounds.delta == 0.05
        assert bounds_from_timeline(()).pi == 0.2


def wire_stats(node, seq, frames, in_frames):
    """A hand-built ``stats`` reply carrying only wire counters."""
    tx = {"frames": frames, "entries": 3 * frames, "batches": 1,
          "flushes": frames, "bytes_on_wire": 100 * frames,
          "encode_seconds": 0.5, "entries_per_frame": 3.0}
    rx = {"frames": in_frames, "entries": in_frames, "batches": 0,
          "bytes_on_wire": 10 * in_frames, "decode_seconds": 0.25,
          "entries_per_frame": 1.0}
    return {"node": node, "seq": seq, "ts": float(seq), "uptime": 0.0,
            "transport": {"wire": {"flush_after": 0.0,
                                   "tx": {"binary": tx},
                                   "rx": {"binary": rx}}}}


class TestWireSummary:
    def test_totals_per_key_over_latest_frames(self):
        timeline = ClusterTimeline.from_snapshots([
            MetricsSnapshot.from_stats(wire_stats("p1", 1, 1, 1)),
            MetricsSnapshot.from_stats(wire_stats("p1", 2, 4, 2)),
            MetricsSnapshot.from_stats(wire_stats("p2", 1, 6, 5)),
        ])
        assert wire_summary(timeline) == {
            "decode/binary": {"seconds": 0.5},
            "encode/binary": {"seconds": 1.0},
            "in/binary": {"frames": 7.0, "bytes": 70.0, "entries": 7.0},
            "out/binary": {"frames": 10.0, "bytes": 1000.0,
                           "entries": 30.0, "flushes": 10.0},
        }

    def test_no_wire_counters_renders_nothing(self):
        timeline = ClusterTimeline.from_snapshots([
            MetricsSnapshot.from_stats(
                {"node": "p1", "seq": 1, "ts": 0.0, "uptime": 0.0}
            )
        ])
        assert wire_summary(timeline) == {}


class TestReportCLI:
    def test_exit_zero_on_clean_run(self, tmp_path, capsys):
        synth_run(tmp_path)
        assert obs_main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "VERDICT: OK" in out
        assert "1 cross-node" in out

    def test_exit_one_on_violation(self, tmp_path, capsys):
        synth_run(tmp_path, safe_after=2.0)
        assert obs_main(["report", str(tmp_path)]) == 1
        assert "VERDICT: FAIL" in capsys.readouterr().out

    def test_exit_two_on_missing_log_dir(self, tmp_path, capsys):
        # Usage-class failure, distinct from a judged violation (1).
        code = obs_main(["report", str(tmp_path / "nope")])
        assert code == 2
        assert "no *.events.jsonl" in capsys.readouterr().out

    def test_json_mode_and_out_file(self, tmp_path, capsys):
        synth_run(tmp_path)
        out_path = tmp_path / "report.json"
        code = obs_main(
            ["report", str(tmp_path), "--json", "--out", str(out_path)]
        )
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        on_disk = json.loads(out_path.read_text(encoding="utf-8"))
        assert printed == on_disk
        assert printed["type"] == "run_report"
        assert printed["cross_node_spans"] == 1
