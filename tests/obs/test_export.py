"""Exporters: Chrome trace-event structure, JSONL records, and the
failed-test capture hook of ``tests/conftest.py``."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.core.quorums import MajorityQuorumSystem
from repro.core.vstoto.runtime import VStoTORuntime
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from repro.net.scenarios import PartitionScenario
from repro.obs import Observability
from repro.obs.export import (
    TS_SCALE,
    chrome_trace,
    jsonl_records,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.live.stitch import stitch_sim
from tests.conftest import CAPTURE_ENV, start_capture

PROCS = (1, 2, 3)


@pytest.fixture(scope="module")
def observed_run():
    """One small healthy execution with a hub attached: its metrics,
    and the spans stitched from its events."""
    obs = Observability()
    service = TokenRingVS(
        PROCS,
        RingConfig(delta=1.0, pi=10.0, mu=30.0, work_conserving=True),
        seed=3,
        obs=obs,
    )
    runtime = VStoTORuntime(service, MajorityQuorumSystem(PROCS))
    service.install_scenario(
        PartitionScenario().add(40.0, [[1, 2], [3]]).add(150.0, [[1, 2, 3]])
    )
    for i in range(4):
        runtime.schedule_broadcast(5.0 + 11.0 * i, PROCS[i % 3], f"m{i}")
    runtime.start()
    runtime.run_until(400.0)
    tracer = stitch_sim(service).tracer
    tracer.on_fault_window("loss", "loss(1->2)", 40.0, 60.0)
    return SimpleNamespace(metrics=obs.metrics, tracer=tracer), service, runtime


class TestChromeTrace:
    def test_structure(self, observed_run):
        obs, _, _ = observed_run
        trace = chrome_trace(obs.tracer)
        assert set(trace) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert trace["displayTimeUnit"] == "ms"
        assert trace["traceEvents"]
        json.dumps(trace)  # must be serialisable as-is

    def test_async_arcs_balanced(self, observed_run):
        obs, _, _ = observed_run
        events = chrome_trace(obs.tracer)["traceEvents"]
        opens: dict = {}
        closes: dict = {}
        for event in events:
            if event["ph"] == "b":
                opens[(event["cat"], event["id"])] = (
                    opens.get((event["cat"], event["id"]), 0) + 1
                )
            elif event["ph"] == "e":
                closes[(event["cat"], event["id"])] = (
                    closes.get((event["cat"], event["id"]), 0) + 1
                )
        assert opens and opens == closes
        # ids are unique per arc
        assert all(count == 1 for count in opens.values())

    def test_timestamps_scaled_from_virtual_time(self, observed_run):
        obs, _, _ = observed_run
        span = obs.tracer.message_spans[0]
        events = chrome_trace(obs.tracer)["traceEvents"]
        begin = next(
            e for e in events
            if e["ph"] == "b" and e["cat"] == "message"
        )
        assert begin["ts"] == TS_SCALE * span.start_time()
        assert all(e["ts"] >= 0 for e in events if "ts" in e)

    def test_instants_carry_members(self, observed_run):
        obs, _, _ = observed_run
        events = chrome_trace(obs.tracer)["traceEvents"]
        instants = [e for e in events if e["ph"] == "n"]
        assert {e["name"] for e in instants} >= {"gprcv", "safe", "brcv"}

    def test_fault_windows_on_nemesis_track(self, observed_run):
        obs, _, _ = observed_run
        events = chrome_trace(obs.tracer)["traceEvents"]
        (window,) = [e for e in events if e["ph"] == "X"]
        assert window["cat"] == "fault"
        assert window["ts"] == TS_SCALE * 40.0
        assert window["dur"] == TS_SCALE * 20.0

    def test_write_chrome_trace(self, observed_run, tmp_path):
        obs, _, _ = observed_run
        path = tmp_path / "run.trace.json"
        write_chrome_trace(obs.tracer, str(path))
        assert json.loads(path.read_text())["traceEvents"]


class TestJsonl:
    def test_record_types(self, observed_run):
        obs, _, _ = observed_run
        records = list(jsonl_records(tracer=obs.tracer, metrics=obs.metrics))
        kinds = {r["type"] for r in records}
        assert kinds == {"message_span", "view_span", "fault_window", "metric"}
        for record in records:
            json.dumps(record)

    def test_write_jsonl_counts_lines(self, observed_run, tmp_path):
        obs, _, _ = observed_run
        path = tmp_path / "run.jsonl"
        count = write_jsonl(str(path), tracer=obs.tracer)
        lines = path.read_text().splitlines()
        assert len(lines) == count > 0
        for line in lines:
            json.loads(line)

    def test_partial_inputs_allowed(self):
        assert list(jsonl_records()) == []


class TestCapture:
    def test_registration_is_env_gated(self, monkeypatch):
        monkeypatch.delenv(CAPTURE_ENV, raising=False)
        assert start_capture(monkeypatch) is None
        monkeypatch.setenv(CAPTURE_ENV, "1")
        capture = start_capture(monkeypatch)
        registered = TokenRingVS(
            PROCS, RingConfig(delta=1.0, pi=10.0, mu=30.0), seed=0
        )
        assert registered in capture.services()

    def test_export_failed_writes_artifacts(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CAPTURE_ENV, "1")
        capture = start_capture(monkeypatch)
        service = TokenRingVS(
            PROCS,
            RingConfig(delta=1.0, pi=10.0, mu=30.0, work_conserving=True),
            seed=1,
        )
        service.start()
        service.simulator.run_until(120.0)
        written = capture.export("tests/x.py::test_y[p-1]", tmp_path)
        assert len(written) == 2
        jsonl_path, chrome_path = sorted(written)
        assert jsonl_path.endswith(".jsonl")
        for line in open(jsonl_path):
            json.loads(line)
        assert json.loads(open(chrome_path).read())["traceEvents"]
        # the label is slugged into a safe filename
        assert "::" not in jsonl_path.rsplit("/", 1)[-1]

    def test_export_without_registrations_is_noop(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(CAPTURE_ENV, "1")
        capture = start_capture(monkeypatch)
        assert capture.export("tests/x.py::test_none", tmp_path) == []
        assert list(tmp_path.iterdir()) == []
