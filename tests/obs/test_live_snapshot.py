"""The nodes' stats stream: snapshot frames and the cluster timeline
(repro.obs.live)."""

from __future__ import annotations

import json

from repro.obs.live.snapshot import ClusterTimeline, MetricsSnapshot


def make_stats(node: str = "p1", seq: int = 1) -> dict:
    """A hand-built ``stats`` reply: a node's ``stats()`` plus stamps."""
    return {
        "node": node,
        "seq": seq,
        "ts": 100.0 + seq,
        "uptime": float(seq),
        "delivered": 7,
        "token": {"forwards": 3, "entries_max": 2},
        "transport": {"frames_sent": 11},
    }


def make_snapshot(node: str = "p1", seq: int = 1) -> MetricsSnapshot:
    return MetricsSnapshot.from_stats(make_stats(node, seq))


class TestMetricsSnapshot:
    def test_dict_round_trip(self):
        snapshot = make_snapshot()
        clone = MetricsSnapshot.from_dict(
            json.loads(json.dumps(snapshot.to_dict()))
        )
        assert clone == snapshot

    def test_from_stats_moves_the_stamps_out_of_metrics(self):
        stats = make_stats("p2", 4)
        snapshot = MetricsSnapshot.from_stats(stats)
        assert (snapshot.node, snapshot.seq) == ("p2", 4)
        assert (snapshot.ts, snapshot.uptime) == (104.0, 4.0)
        assert snapshot.metrics == {
            k: v for k, v in stats.items() if k not in ("seq", "ts", "uptime")
        }
        assert snapshot.metrics["token"]["forwards"] == 3


class TestClusterTimeline:
    def make_timeline(self) -> ClusterTimeline:
        timeline = ClusterTimeline()
        for node in ("p2", "p1"):
            for seq in (2, 1, 3):
                timeline.add(make_snapshot(node, seq))
        return timeline

    def test_ordered_by_node_then_seq(self):
        timeline = self.make_timeline()
        keys = [(s.node, s.seq) for s in timeline.snapshots()]
        assert keys == sorted(keys)
        assert timeline.nodes() == ("p1", "p2")
        assert len(timeline) == 6

    def test_duplicate_frames_collapse(self):
        timeline = ClusterTimeline()
        timeline.add(make_snapshot("p1", 1))
        timeline.add(make_snapshot("p1", 1))
        assert len(timeline) == 1

    def test_latest(self):
        timeline = self.make_timeline()
        latest = timeline.latest("p1")
        assert latest is not None and latest.seq == 3
        assert latest.ts == 103.0
        assert timeline.latest("p9") is None

    def test_jsonl_round_trip_and_arrival_independence(self, tmp_path):
        timeline = self.make_timeline()
        path = tmp_path / "metrics.jsonl"
        assert timeline.write_jsonl(path) == 6
        loaded = ClusterTimeline.load_jsonl(path)
        assert [s.to_dict() for s in loaded.snapshots()] == [
            s.to_dict() for s in timeline.snapshots()
        ]
        # Same frames added in a different order write identical bytes.
        reordered = ClusterTimeline.from_snapshots(
            list(timeline.snapshots())[::-1]
        )
        other = tmp_path / "other.jsonl"
        reordered.write_jsonl(other)
        assert other.read_bytes() == path.read_bytes()

    def test_torn_tail_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        timeline = ClusterTimeline.from_snapshots([make_snapshot()])
        timeline.write_jsonl(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n")
            handle.write('{"node": "p1", "seq": 2, "ts"')  # torn
        loaded = ClusterTimeline.load_jsonl(path)
        assert len(loaded) == 1
