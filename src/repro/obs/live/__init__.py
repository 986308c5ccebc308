"""Cluster-wide live observability (E24).

The live runtime (:mod:`repro.rt`) runs the protocol stack across real
OS processes; each node observes *itself* (its ``stats()`` counters, a
per-node event log).  This package assembles those per-node views into
one cluster-wide picture:

- :mod:`repro.obs.live.snapshot` — the nodes' stats stream: one
  :class:`~repro.obs.live.snapshot.MetricsSnapshot` per ``stats``
  reply, and the :class:`~repro.obs.live.snapshot.ClusterTimeline`
  that aggregates the per-node series into ``metrics.jsonl``;
- :mod:`repro.obs.live.stitch` — the post-run stitcher: merges one
  group's per-node event logs and reconstructs *distributed* spans
  (bcast→gpsnd→per-node gprcv/safe→brcv message spans, view-formation
  spans) that cross OS-process boundaries, with firewall/SIGKILL
  windows annotated, reusing :mod:`repro.obs.tracing` span types so
  :mod:`repro.obs.export` renders whole-cluster Perfetto traces;
- :mod:`repro.obs.live.slo` — fixed-bucket latency distributions
  (p50/p99/p999), SLO evaluation, and the Section 8 bounds checker
  comparing measured safe-delivery latency against d = 2π + nδ;
- :mod:`repro.obs.live.report` — the run-report builder behind
  ``python -m repro.obs report <logdir>``, one judged report per VS
  group the directory holds.

Everything here is *passive and deterministic*: the package never reads
the host clock (timestamps come from the captured logs and control
frames) and the stitcher's output is byte-identical however the
per-node logs arrive (torn tails included) — the determinism tests
assert both.
"""

from __future__ import annotations

from repro.obs.live.report import (
    RunReport,
    build_report,
    build_reports,
    render_text,
)
from repro.obs.live.snapshot import ClusterTimeline, MetricsSnapshot
from repro.obs.live.slo import (
    BoundsVerdict,
    LatencySummary,
    SLOSpec,
    SLOVerdict,
    check_bounds,
)
from repro.obs.live.stitch import (
    StitchError,
    StitchedRun,
    stitch_events,
    stitch_log_dir,
    stitch_sim,
    stitched_jsonl,
)

__all__ = [
    "BoundsVerdict",
    "ClusterTimeline",
    "LatencySummary",
    "MetricsSnapshot",
    "RunReport",
    "SLOSpec",
    "SLOVerdict",
    "StitchError",
    "StitchedRun",
    "build_report",
    "build_reports",
    "check_bounds",
    "render_text",
    "stitch_events",
    "stitch_log_dir",
    "stitch_sim",
    "stitched_jsonl",
]
