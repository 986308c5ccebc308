"""Live-runtime integration: in-process transport loopback and the
full subprocess cluster smoke (tier-1 acceptance surface)."""

from __future__ import annotations

import asyncio
import json
import socket
import time

import pytest

from repro.obs.live.report import bounds_for_delta, bounds_from_timeline
from repro.rt.cluster import LiveCluster, free_port, run_cluster
from repro.rt.clock import LiveScheduler
from repro.rt.node import (
    LiveNode,
    default_ring_config,
    initial_view_for,
    parse_peers,
)
from repro.rt.trace import group_event_logs, load_event_logs
from repro.rt.transport import Ctl, LiveNetwork
from repro.shard.live import GroupDemux


def loopback_peers(n):
    peers = {}
    for i in range(n):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            peers[f"p{i + 1}"] = ("127.0.0.1", s.getsockname()[1])
    return peers


class Sink:
    """A NetworkNode that just records what arrives."""

    def __init__(self, proc_id):
        self.proc_id = proc_id
        self.received = []

    def on_message(self, src, message):
        self.received.append((src, message))


async def connected_networks(peers):
    loop = asyncio.get_running_loop()
    nets, sinks = {}, {}
    for p in peers:
        net = LiveNetwork(p, peers, LiveScheduler(loop))
        sinks[p] = Sink(p)
        net.register(sinks[p])
        nets[p] = net
    for net in nets.values():
        await net.start()
    for net in nets.values():
        await net.wait_connected(timeout=10.0)
    return nets, sinks


async def drain(condition, timeout=5.0, interval=0.01):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        if condition():
            return True
        await asyncio.sleep(interval)
    return condition()


class TestTransportLoopback:
    def test_three_node_exchange_and_firewall(self):
        async def scenario():
            peers = loopback_peers(3)
            nets, sinks = await connected_networks(peers)
            try:
                # Point-to-point and broadcast delivery.
                nets["p1"].send("p1", "p2", ("hello", 1))
                nets["p2"].broadcast("p2", "ping")
                ok = await drain(
                    lambda: ("p1", ("hello", 1)) in sinks["p2"].received
                    and ("p2", "ping") in sinks["p1"].received
                    and ("p2", "ping") in sinks["p3"].received
                )
                assert ok, f"delivery incomplete: { {p: s.received for p, s in sinks.items()} }"
                assert ("p2", "ping") not in sinks["p2"].received  # no self-echo

                # Firewall: p1 -/- p3 in both directions, p2 unaffected.
                nets["p1"].block(["p3"])
                nets["p3"].block(["p1"])
                before = len(sinks["p3"].received)
                nets["p1"].send("p1", "p3", "dropped")
                nets["p1"].send("p1", "p2", "kept")
                await drain(lambda: ("p1", "kept") in sinks["p2"].received)
                assert len(sinks["p3"].received) == before
                assert nets["p1"].stats()["blocked_out"] >= 1

                # Heal and verify traffic resumes on the same connections.
                nets["p1"].unblock()
                nets["p3"].unblock()
                nets["p1"].send("p1", "p3", "after-heal")
                ok = await drain(
                    lambda: ("p1", "after-heal") in sinks["p3"].received
                )
                assert ok
            finally:
                for net in nets.values():
                    await net.close()

        asyncio.run(scenario())

    def test_send_validates_source_and_self_send(self):
        async def scenario():
            peers = loopback_peers(2)
            loop = asyncio.get_running_loop()
            net = LiveNetwork("p1", peers, LiveScheduler(loop))
            net.register(Sink("p1"))
            try:
                with pytest.raises(ValueError):
                    net.send("p2", "p1", "spoofed")
                with pytest.raises(ValueError):
                    net.send("p1", "p1", "self")
            finally:
                await net.close()

        asyncio.run(scenario())


class TestClusterHelpers:
    def test_parse_peers_roundtrips_cluster_spec(self):
        cluster = LiveCluster(3, "/tmp/unused-spec-check")
        peers = parse_peers(cluster.peer_spec())
        assert set(peers) == {"p1", "p2", "p3"}
        assert peers["p1"] == ("127.0.0.1", cluster.ports["p1"])

    def test_parse_peers_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_peers("p1=localhost")  # no port
        with pytest.raises(ValueError):
            parse_peers("p1=127.0.0.1:9000")  # fewer than two peers

    def test_free_port_is_bindable(self):
        port = free_port()
        with socket.socket() as s:
            s.bind(("127.0.0.1", port))

    def test_default_ring_config_scales_from_delta(self):
        config = default_ring_config(0.1)
        assert config.pi == pytest.approx(0.4)
        assert config.mu == pytest.approx(2.0)
        assert config.work_conserving

    @pytest.mark.parametrize("delta", [0.02, 0.05, 0.1])
    def test_one_timing_scaling(self, delta, tmp_path):
        """The driver's ``config`` mark and the report's bounds both
        come from what the nodes run."""
        config = default_ring_config(delta)
        cluster = LiveCluster(3, tmp_path, delta=delta)
        cluster.mark_config()
        mark = cluster.timeline[-1]
        assert mark["event"] == "config"
        for bounds in (
            bounds_for_delta(delta),
            bounds_from_timeline(cluster.timeline),
        ):
            assert (bounds.delta, bounds.pi, bounds.mu) == (delta, config.pi, config.mu)
        assert (mark["pi"], mark["mu"]) == (config.pi, config.mu)
        assert bounds_for_delta() == bounds_for_delta(default_ring_config().delta)

    def test_initial_view_matches_simulated_default(self):
        view = initial_view_for(("p2", "p1", "p3"))
        assert view.id == (0, "p1")
        assert view.set == frozenset({"p1", "p2", "p3"})


class TestOneNodeShape:
    """A one-group node is the N = 1 case of the N-group node (built in
    this process; nothing is started, no socket is bound)."""

    @staticmethod
    def on_node(tmp_path, shards, body):
        async def scenario():
            node = LiveNode("p1", loopback_peers(3), tmp_path, shards=shards)
            try:
                return await body(node)
            finally:
                await node.close()

        return asyncio.run(scenario())

    def test_one_group_sits_behind_the_demux_and_keeps_no_tracer(self, tmp_path):
        async def body(node):
            demux = node.network._node
            assert isinstance(demux, GroupDemux)
            assert list(demux.handlers) == ["g0"] and demux.default == "g0"
            assert vars(node.obs) == {"metrics": node.obs.metrics}

        self.on_node(tmp_path, 1, body)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_send_in_either_form_reaches_the_first_group(self, tmp_path, shards):
        async def body(node):
            await node._on_ctl("driver", Ctl("send", "bare"), lambda reply: None)
            await node._on_ctl(
                "driver", Ctl("send", {"g": "g0", "v": "named"}), lambda reply: None
            )
            await node._on_ctl(
                "driver", Ctl("send", {"g": "g7", "v": "lost"}), lambda reply: None
            )
            assert (node.sends_accepted, node.sends_rejected) == (2, 1)
            stats = node.stats()
            assert (stats["sends_accepted"], stats["sends_rejected"]) == (2, 1)
            node._write_report()
            report = json.loads((tmp_path / "p1.report.json").read_text())
            assert report["stats"]["sends_rejected"] == 1

        self.on_node(tmp_path, shards, body)
        logs = group_event_logs(tmp_path)
        assert list(logs) == [f"g{i}" for i in range(shards)]
        assert list(logs["g0"]) == ["p1"]
        assert [
            e["args"][0]
            for e in load_event_logs(logs["g0"].values())
            if e["ev"] == "bcast"
        ] == ["bare", "named"]

    def test_stats_answer_in_one_shape(self, tmp_path):
        def shape(value):
            if isinstance(value, dict):
                return {k: shape(v) for k, v in value.items() if k != "groups"}
            return type(value).__name__

        async def body(node):
            for wakes, stack in enumerate(node._stacks.values(), 2):
                stack.member.wakes_sent = wakes
            return node.stats()

        one = self.on_node(tmp_path / "one", 1, body)
        two = self.on_node(tmp_path / "two", 2, body)
        assert shape(one) == shape(two)
        assert [g["token"]["wakes"] for g in two["groups"].values()] == [2, 3]
        assert two["token"]["wakes"] == 5
        for stats, shards in ((one, 1), (two, 2)):
            assert stats["shards"] == shards
            assert list(stats["groups"]) == [f"g{i}" for i in range(shards)]
            for group in stats["groups"].values():
                assert shape(group) == shape(one["groups"]["g0"])
        # For one group the totals are that group's numbers.
        group = one["groups"]["g0"]
        assert {k: one[k] for k in group} == group


class TestClosedNode:
    """A node closed while its loop lives on — the in-process cluster,
    whose nodes share one loop — takes no further step: its ring
    timers are stopped, so nothing reaches its closed log."""

    def test_a_closed_node_stays_quiet_past_two_watchdogs(self, tmp_path, caplog):
        config = default_ring_config(0.02)
        watchdog = config.token_timeout(3)

        async def scenario():
            peers = loopback_peers(3)
            nodes = {p: LiveNode(p, peers, tmp_path, config=config) for p in peers}
            try:
                for node in nodes.values():
                    await node.start()
                for p in ("p2", "p3", "p1"):  # the leader last
                    await nodes[p]._on_ctl("driver", Ctl("go"), lambda reply: None)
                for i, p in enumerate(("p1", "p2", "p3")):
                    await nodes[p]._on_ctl("driver", Ctl("send", f"m{i}"), lambda reply: None)
                await asyncio.sleep(2 * watchdog)
                closed = nodes.pop("p2")
                await closed.close()
                closed_at = time.time()
                recorded = closed.stats()["events_recorded"]
                await asyncio.sleep(2.5 * watchdog)
                # Without a token from p2 the others form a new view.
                assert any(node.stats()["formations"] for node in nodes.values())
                assert closed.stats()["events_recorded"] == recorded
                return closed_at
            finally:
                for node in nodes.values():
                    await node.close()
                await asyncio.sleep(0.1)  # stream handlers see EOF and end

        closed_at = asyncio.run(scenario())
        assert not [r for r in caplog.records if "Exception in callback" in r.getMessage()]
        text = (tmp_path / "p2.events.jsonl").read_text(encoding="utf-8")
        assert text.endswith("\n")
        events = load_event_logs([tmp_path / "p2.events.jsonl"])
        assert len(events) == len(text.splitlines()) > 0
        assert max(e["ts"] for e in events) <= closed_at


class TestLiveClusterSmoke:
    """The tier-1 acceptance surface: real OS processes over TCP."""

    def test_three_node_loopback_run_is_violation_free(self, tmp_path):
        report = asyncio.run(
            run_cluster(
                nodes=3,
                sends=6,
                log_dir=tmp_path,
                delta=0.05,
                send_interval=0.01,
                settle=0.5,
            )
        )
        assert report["ok"], report["violations"] or report["to_reason"]
        assert report["sends"] == 6
        assert report["delivered_complete"]
        assert report["deliveries"] == 18  # 6 values at 3 nodes
        # Every node left an event log and a final report.
        for p in ("p1", "p2", "p3"):
            assert (tmp_path / f"{p}.events.jsonl").exists()
            assert (tmp_path / f"{p}.report.json").exists()
        # The driver wrote the cluster-wide observability artifacts:
        # streamed metrics, the driver timeline, stitched spans and the
        # whole-cluster Perfetto trace.
        assert (tmp_path / "metrics.jsonl").exists()
        assert (tmp_path / "cluster.timeline.json").exists()
        assert (tmp_path / "cluster.spans.jsonl").exists()
        assert (tmp_path / "cluster.trace.json").exists()
        obs = report["obs"]
        assert "stitch_error" not in obs
        # Snapshots streamed from every node (at minimum the final
        # stats poll in stop()), and the spans genuinely crossed nodes.
        assert sorted(obs["metrics_nodes"]) == ["p1", "p2", "p3"]
        assert obs["metrics_snapshots"] >= 3
        assert obs["message_spans"] >= 6
        assert obs["cross_node_spans"] > 0
        assert obs["slo_ok"] and obs["bounds_ok"]

    def test_report_cli_judges_live_run_clean(self, tmp_path):
        from repro.obs.__main__ import main as obs_main

        asyncio.run(
            run_cluster(
                nodes=3,
                sends=4,
                log_dir=tmp_path,
                delta=0.05,
                send_interval=0.01,
                settle=0.5,
            )
        )
        assert obs_main(["report", str(tmp_path)]) == 0


@pytest.mark.soak
class TestLivePartitionSoak:
    """Nightly: the conformance gates the retired E22/E24/E25 scripts
    ran at sizes tier-1 does not.  n=3 is here for E24's fault-window
    gate; its verdict under a partition is also checked on every push
    by ``test_wire_equivalence.py``."""

    @pytest.mark.parametrize("nodes", [3, 5, 7])
    def test_partition_heal_verifies_complete_and_stitches(self, tmp_path, nodes):
        report = asyncio.run(
            run_cluster(
                nodes=nodes,
                sends=30,
                partition=True,
                log_dir=tmp_path,
                delta=0.05,
                send_interval=0.01,
                metrics_interval=0.1,
            )
        )
        assert report["ok"], report["violations"] or report["to_reason"]
        assert report["delivered_complete"]
        assert report["deliveries"] == 30 * nodes
        # The split and the heal each installed a view at every node.
        assert report["views_installed"] >= 2 * nodes
        # The capture stitches across nodes, with the firewall window
        # annotated so faulted spans leave the SLO population.
        obs = report["obs"]
        assert "stitch_error" not in obs
        assert obs["cross_node_spans"] > 0
        assert obs["fault_windows"] >= 1
        assert sorted(obs["metrics_nodes"]) == sorted(
            f"p{i + 1}" for i in range(nodes)
        )
