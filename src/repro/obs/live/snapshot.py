"""Stats snapshot frames and the cluster metrics timeline.

A live node's counters are plain attributes, reported by its
:meth:`~repro.rt.node.LiveNode.stats`.  The cluster driver polls the
control plane; every ``stats`` reply is that dict stamped with a
per-node sequence number, the node's wall clock and its uptime, and
becomes one :class:`MetricsSnapshot` (:meth:`MetricsSnapshot.from_stats`).
The driver feeds the frames into a :class:`ClusterTimeline`, which keeps
the per-node series in arrival-independent order and writes the whole
run out as ``metrics.jsonl`` (one snapshot per line, grep/jq-friendly).

This module is pure data: it never reads a clock (the *node* stamps
``ts``, over in the :mod:`repro.rt` wall-clock carve-out) and never
touches sockets, so it is importable and testable without a cluster.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any
from collections.abc import Iterator, Sequence

#: The keys a ``stats`` reply adds to the node's ``stats()`` dict.
STAMP_KEYS = ("seq", "ts", "uptime")


@dataclass(frozen=True)
class MetricsSnapshot:
    """One node's ``stats()`` at one control-plane poll.

    ``ts`` is the node's wall clock (epoch seconds, same clock as its
    event log, so snapshots and stitched spans share a time base);
    ``uptime`` its scheduler clock (seconds since node start); ``seq``
    a per-node monotonic counter, so reordered or duplicated frames are
    detectable.
    """

    node: str
    seq: int
    ts: float
    uptime: float
    metrics: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        return {
            "node": self.node,
            "seq": self.seq,
            "ts": self.ts,
            "uptime": self.uptime,
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> MetricsSnapshot:
        return cls(
            node=str(data["node"]),
            seq=int(data["seq"]),
            ts=float(data["ts"]),
            uptime=float(data["uptime"]),
            metrics=dict(data["metrics"]),
        )

    @classmethod
    def from_stats(cls, stats: dict[str, Any]) -> MetricsSnapshot:
        """One frame of a node's stats stream: a ``stats`` reply, whose
        stamp keys become the frame's and whose rest is ``metrics``."""
        return cls(
            node=str(stats["node"]),
            seq=int(stats["seq"]),
            ts=float(stats["ts"]),
            uptime=float(stats["uptime"]),
            metrics={
                k: v for k, v in stats.items() if k not in STAMP_KEYS
            },
        )


class ClusterTimeline:
    """Per-node metrics series, merged cluster-wide.

    Snapshots are kept sorted by ``(node, seq)`` so the timeline's
    contents — and the ``metrics.jsonl`` it writes — are independent of
    poll interleaving and arrival order.  Duplicate ``(node, seq)``
    frames (a retried poll) collapse to the first-seen frame.
    """

    def __init__(self) -> None:
        self._by_key: dict[tuple[str, int], MetricsSnapshot] = {}

    def add(self, snapshot: MetricsSnapshot) -> None:
        self._by_key.setdefault((snapshot.node, snapshot.seq), snapshot)

    def __len__(self) -> int:
        return len(self._by_key)

    def snapshots(self) -> Iterator[MetricsSnapshot]:
        """All snapshots, ordered by ``(node, seq)``."""
        for key in sorted(self._by_key):
            yield self._by_key[key]

    def nodes(self) -> tuple[str, ...]:
        return tuple(sorted({node for node, _seq in self._by_key}))

    def latest(self, node: str) -> MetricsSnapshot | None:
        """The highest-seq snapshot of one node (None if never seen)."""
        best: MetricsSnapshot | None = None
        for (n, _seq), snapshot in self._by_key.items():
            if n == node and (best is None or snapshot.seq > best.seq):
                best = snapshot
        return best

    # ------------------------------------------------------------------
    def write_jsonl(self, path: str | Path) -> int:
        """Write every snapshot as one JSON line; returns the count."""
        count = 0
        with open(path, "w", encoding="utf-8") as handle:
            for snapshot in self.snapshots():
                handle.write(
                    json.dumps(
                        snapshot.to_dict(), sort_keys=True,
                        separators=(",", ":"),
                    )
                    + "\n"
                )
                count += 1
        return count

    @classmethod
    def load_jsonl(cls, path: str | Path) -> ClusterTimeline:
        """Read a ``metrics.jsonl`` back (torn tail lines skipped, like
        the event-log loader)."""
        timeline = cls()
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue
                timeline.add(MetricsSnapshot.from_dict(entry))
        return timeline

    @classmethod
    def from_snapshots(
        cls, snapshots: Sequence[MetricsSnapshot]
    ) -> ClusterTimeline:
        timeline = cls()
        for snapshot in snapshots:
            timeline.add(snapshot)
        return timeline


__all__ = ["MetricsSnapshot", "ClusterTimeline"]
