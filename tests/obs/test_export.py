"""The span records' JSONL rendering, and the failed-test capture hook
of ``tests/conftest.py``."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.core.quorums import MajorityQuorumSystem
from repro.core.vstoto.runtime import VStoTORuntime
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from repro.faults import FaultSchedule
from repro.obs.live.stitch import jsonl_records, stitch_sim
from repro.obs.tracing import LifecycleTracer
from tests.conftest import CAPTURE_ENV, start_capture

PROCS = (1, 2, 3)


@pytest.fixture(scope="module")
def observed_run():
    """One small healthy execution and the spans stitched from its
    events."""
    service = TokenRingVS(
        PROCS,
        RingConfig(delta=1.0, pi=10.0, mu=30.0, work_conserving=True),
        seed=3,
    )
    runtime = VStoTORuntime(service, MajorityQuorumSystem(PROCS))
    (
        FaultSchedule().add_layout(40.0, [[1, 2], [3]]).add_layout(150.0, [[1, 2, 3]])
        .install(service)
    )
    for i in range(4):
        runtime.schedule_broadcast(5.0 + 11.0 * i, PROCS[i % 3], f"m{i}")
    runtime.start()
    runtime.run_until(400.0)
    tracer = stitch_sim(service).tracer
    tracer.on_fault_window("loss", "loss(1->2)", 40.0, 60.0)
    return SimpleNamespace(tracer=tracer), service, runtime


class TestJsonl:
    def test_record_types(self, observed_run):
        obs, _, _ = observed_run
        records = list(jsonl_records(obs.tracer))
        kinds = {r["type"] for r in records}
        assert kinds == {"message_span", "view_span", "fault_window"}
        for record in records:
            json.dumps(record)
        # Per-member times and fault windows: what a timeline view needs.
        first = next(r for r in records if r["type"] == "message_span")
        assert set(first["safe_at"]) == {"1", "2", "3"}
        (window,) = [r for r in records if r["type"] == "fault_window"]
        assert (window["start"], window["stop"]) == (40.0, 60.0)

    def test_records_run_messages_then_views_then_faults(self, observed_run):
        obs, _, _ = observed_run
        order = ["message_span", "view_span", "fault_window"]
        ranks = [order.index(r["type"]) for r in jsonl_records(obs.tracer)]
        assert ranks == sorted(ranks)

    def test_view_records_follow_the_partition_layouts(self, observed_run):
        """The split at 40 and the heal at 150 each establish views
        whose members all record newview and established times."""
        obs, _, _ = observed_run
        established = [
            r for r in jsonl_records(obs.tracer)
            if r["type"] == "view_span" and r["established_at"]
        ]
        assert [r["members"] for r in established] == [
            ["1", "2"], ["3"], ["1", "2", "3"],
        ]
        for record in established:
            assert sorted(record["newview_at"]) == record["members"]
            assert sorted(record["established_at"]) == record["members"]
            assert record["initiator"] in record["members"]

    def test_empty_tracer_has_no_records(self):
        assert list(jsonl_records(LifecycleTracer())) == []


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
        assert len(written) == 1
        (jsonl_path,) = written
        assert jsonl_path.endswith(".jsonl")
        records = [json.loads(line) for line in open(jsonl_path)]
        assert records[0]["type"] == "stitched_run"
        assert records[0]["processors"] == list(PROCS)
        # the label is slugged into a safe filename
        assert "::" not in jsonl_path.rsplit("/", 1)[-1]

    def test_export_without_registrations_is_noop(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(CAPTURE_ENV, "1")
        capture = start_capture(monkeypatch)
        assert capture.export("tests/x.py::test_none", tmp_path) == []
        assert list(tmp_path.iterdir()) == []
