"""Sharded live runtime: the op string codec, the group envelope demux,
and the full subprocess episode with per-group verification."""

from __future__ import annotations

import asyncio

import pytest

from repro.rt.cluster import run_sharded_cluster
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


class TestLiveEpisode:
    def test_two_shard_cluster_delivers_and_verifies(self):
        self.run_and_check(sends=12, partition=False)

    @pytest.mark.soak
    def test_two_shard_partition_heals_and_verifies(self):
        """Nightly: the 2-shard partition episode the retired E27
        script gated (per-group verdicts plus cross-shard order)."""
        self.run_and_check(sends=24, partition=True)

    def run_and_check(self, sends, partition):
        report = asyncio.run(
            run_sharded_cluster(
                nodes=3,
                shards=2,
                sends=sends,
                partition=partition,
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
