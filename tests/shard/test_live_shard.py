"""Sharded live runtime: the op string codec, the group envelope demux,
the driver's per-key session pinning, and the full subprocess episode
with per-group verification and per-group span reports."""

from __future__ import annotations

import asyncio

import pytest

from repro.obs.__main__ import main as obs_main
from repro.obs.live.report import build_reports
from repro.obs.live.stitch import StitchError, stitch_events
from repro.rt.cluster import LiveShardLoad, run_cluster
from repro.shard.routing import HashRing, group_names
from repro.shard.live import (
    GroupDemux,
    ShardEnvelope,
    encode_live_op,
    parse_live_op,
)


class Sink:
    def __init__(self, proc_id):
        self.proc_id = proc_id
        self.received = []

    def on_message(self, src, message):
        self.received.append((src, message))


class TestLiveOpCodec:
    def test_round_trip(self):
        value = encode_live_op("k3", 17, "v17")
        assert value == "k3#17#v17"
        assert parse_live_op(value) == ("k3", 17, "v17")

    def test_payload_may_contain_the_separator(self):
        assert parse_live_op(encode_live_op("k", 0, "a#b")) == ("k", 0, "a#b")

    def test_key_may_not_contain_the_separator(self):
        with pytest.raises(ValueError):
            encode_live_op("bad#key", 0, "v")

    def test_foreign_values_parse_to_none(self):
        assert parse_live_op("m17") is None
        assert parse_live_op("a#b") is None
        assert parse_live_op("a#nope#c") is None
        assert parse_live_op(42) is None


class TestGroupDemux:
    def test_routes_envelopes_and_defaults_bare_messages(self):
        g0, g1 = Sink("p1"), Sink("p1")
        demux = GroupDemux("p1", {"g0": g0, "g1": g1}, default="g0")
        demux.on_message("p2", ShardEnvelope("g1", "hello"))
        demux.on_message("p2", "bare")
        assert g1.received == [("p2", "hello")]
        assert g0.received == [("p2", "bare")]
        demux.on_message("p2", ShardEnvelope("g9", "lost"))
        assert demux.unknown_group_drops == 1


class FakeClient:
    def __init__(self):
        self.sent = []

    def send_nowait(self, ctl):
        self.sent.append(ctl.data["v"])


class FakeCluster:
    """All a ``LiveShardLoad`` may use of its cluster."""

    def __init__(self, nodes):
        self.processors = tuple(f"p{i + 1}" for i in range(nodes))
        self.clients = {p: FakeClient() for p in self.processors}
        self.dead = set()

    def alive(self):
        return tuple(p for p in self.processors if p not in self.dead)


class TestSessionPinning:
    """One sender per key for the whole episode: the premise of
    ``check_cross_shard_order``."""

    KEYS = [f"k{i}" for i in range(24)]

    def test_pins_do_not_move_when_a_node_dies(self):
        cluster = FakeCluster(3)
        load = LiveShardLoad(cluster, HashRing(group_names(2)), window=None)
        before = {key: load.session_node(key) for key in self.KEYS}
        assert set(before.values()) == set(cluster.processors)
        for i, key in enumerate(self.KEYS):
            load.submit(key, i, "a")
        cluster.dead.add("p3")
        assert {key: load.session_node(key) for key in self.KEYS} == before
        for i, key in enumerate(self.KEYS):
            load.submit(key, 100 + i, "b")
        for node, client in cluster.clients.items():
            keys = [parse_live_op(value)[0] for value in client.sent]
            assert keys and all(before[key] == node for key in keys)

    def test_live_keys_are_those_pinned_to_survivors(self):
        cluster = FakeCluster(3)
        load = LiveShardLoad(cluster, HashRing(group_names(1)))
        assert load.live_keys(self.KEYS) == self.KEYS
        cluster.dead.add("p3")
        live = load.live_keys(self.KEYS)
        assert live and len(live) < len(self.KEYS)
        assert all(load.session_node(key) != "p3" for key in live)


class TestLiveEpisode:
    def test_two_shard_cluster_delivers_and_verifies(self, tmp_path):
        self.run_and_check(tmp_path, sends=12)
        self.check_group_reports(tmp_path, sends=12)

    @pytest.mark.soak
    def test_two_shard_partition_heals_and_verifies(self, tmp_path):
        """Nightly: the 2-shard partition episode the retired E27
        script gated (per-group verdicts plus cross-shard order)."""
        self.run_and_check(tmp_path, sends=24, partition=True)

    @pytest.mark.soak
    @pytest.mark.parametrize("shards", [1, 2])
    def test_killed_node_leaves_a_conformant_capture(self, tmp_path, shards):
        """Nightly: SIGKILL mid-run at one and at two groups.  The dead
        node may take accepted values with it, so completeness is not
        asserted; conformance and the per-key order are."""
        report = asyncio.run(
            run_cluster(
                nodes=3, shards=shards, sends=24, kill=True, log_dir=tmp_path,
                delta=0.05, send_interval=0.02,
            )
        )
        assert report["ok"], report["violations"] or report["to_reason"]
        assert report["cross_shard"]["ok"], report["cross_shard"]["reason"]
        assert len(report["groups"]) == shards
        assert report["deliveries"] > 0

    def check_group_reports(self, log_dir, sends):
        """``python -m repro.obs report`` judges each group on its own:
        three processors, every send a span, nothing unmatched."""
        reports = build_reports(log_dir)
        assert list(reports) == ["g0", "g1"]
        group_sends = 0
        for report in reports.values():
            run = report.run
            assert run.processors == ("p1", "p2", "p3")
            assert report.bounds_verdict.n == 3
            bcasts = sum(s.bcast_at is not None for s in run.tracer.message_spans)
            assert bcasts > 0 and len(run.tracer.message_spans) >= bcasts
            assert run.tracer.unmatched_events == 0
            group_sends += bcasts
        assert group_sends == sends
        assert obs_main(["report", str(log_dir)]) == 0

    def run_and_check(self, log_dir, sends, partition=False):
        report = asyncio.run(
            run_cluster(
                nodes=3,
                shards=2,
                sends=sends,
                partition=partition,
                log_dir=log_dir,
                delta=0.05,
                send_interval=0.02,
            )
        )
        assert report["ok"], report["violations"]
        assert report["delivered_complete"]
        assert report["cross_shard"]["ok"]
        assert set(report["groups"]) == {"g0", "g1"}
        for group, entry in report["groups"].items():
            assert entry["ok"], f"{group} failed verification"
            assert entry["deliveries"] > 0
        # Every send was routed, completed and accounted for.
        assert report["sends"] == sends
        assert report["router"]["pending_total"] == 0
        assert report["polled_complete"]
        obs = build_reports(log_dir)
        for group, entry in report["groups"].items():
            tracer = obs[group].run.tracer
            assert len(tracer.message_spans) >= entry["sends"]
            assert tracer.unmatched_events == 0


class TestVacuousCapture:
    def test_sends_that_open_no_span_are_a_stitch_failure(self, tmp_path, capsys):
        """What the two-group report used to pass with ``n = 6`` and 0
        spans: processors named after log files, not nodes."""
        events = [
            {"ts": 1.0, "seq": 1, "node": "p1", "ev": "gpsnd", "args": ["m", "p1"]},
        ]
        with pytest.raises(StitchError):
            stitch_events(events, ("p1@g0", "p2@g0"))
        # A log directory is never read that way: node ids come from
        # the log-name functions, so the same event stitches.
        (tmp_path / "p1@g0.events.jsonl").write_text(
            '{"ts":1.0,"seq":1,"node":"p1","ev":"gpsnd","args":["m","p1"]}\n'
        )
        (tmp_path / "p1@g1.events.jsonl").write_text("")
        reports = build_reports(tmp_path)
        assert reports["g0"].run.processors == ("p1",)
        assert len(reports["g0"].run.tracer.message_spans) == 1
        # And a capture whose sends belong to no processor it names
        # exits non-zero instead of VERDICT: OK over nothing.
        (tmp_path / "p1@g1.events.jsonl").write_text(
            '{"ts":1.0,"seq":1,"node":"p1","ev":"gpsnd","args":["m","p9"]}\n'
        )
        assert obs_main(["report", str(tmp_path)]) != 0
        assert "opened no message span" in capsys.readouterr().out
