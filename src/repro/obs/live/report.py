"""Run reports: everything one live run produced, judged in one place.

``python -m repro.obs report <logdir>`` points at a cluster run's log
directory — the per-node ``*.events.jsonl`` logs, the driver's
``cluster.timeline.json``, and (when the driver streamed metrics)
``metrics.jsonl`` — and produces one verdict per VS group the
directory holds (:func:`build_reports`; a group is a complete
single-group capture, judged on its own):

- the stitcher's cross-node span counts (did the capture actually
  stitch into distributed spans?),
- the latency summaries over clean spans (p50/p99/p999 per quantity),
- every SLO verdict (thresholds derived from the run's configured
  δ/π/μ via the paper's closed forms),
- the Section 8 bounds verdict at measured δ*
  (:func:`~repro.obs.live.slo.check_bounds`).

Exit status is the contract: 0 iff every SLO holds and the bounds
checker is satisfied in every group, 1 otherwise — so CI can gate on the report
directly and a human reading the text rendering sees exactly which
number went over which line.

Timing parameters come from the driver's ``config`` timeline mark when
present (the driver records the δ it launched the nodes with);
otherwise :func:`~repro.rt.node.default_ring_config`, default δ
included, is assumed.  That function is the one statement of the live
timing scaling; this module reads π and μ from it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.membership.bounds import VSBounds
from repro.obs.live.snapshot import ClusterTimeline
from repro.obs.live.slo import (
    BoundsVerdict,
    LatencySummary,
    SLOVerdict,
    check_bounds,
    default_slos,
    evaluate_slos,
    latency_summaries,
)
from repro.obs.live.stitch import StitchedRun, stitch_log_dir
from repro.rt.trace import ONE_GROUP, group_event_logs, group_tag

#: The wire-metric families synced by the live transport (see
#: ``LiveNetwork._sync_wire_metrics``), mapped to summary keys.
_WIRE_FAMILIES = {
    "rt_wire_frames": "frames",
    "rt_wire_bytes": "bytes",
    "rt_wire_entries": "entries",
    "rt_wire_flushes": "flushes",
    "rt_wire_codec_seconds": "seconds",
}


def wire_summary(timeline: ClusterTimeline) -> dict[str, dict[str, float]]:
    """Cluster-wide wire totals per codec, from each node's latest
    snapshot.

    Keys look like ``"out/binary"`` (direction/codec) mapping to the
    summed frames/bytes/entries; codec time lands under
    ``"encode/binary"``/``"decode/json"``.  Empty when the run predates
    wire metrics — the report renders nothing rather than zeros.
    """
    totals: dict[str, dict[str, float]] = {}
    for node in timeline.nodes():
        snapshot = timeline.latest(node)
        if snapshot is None:
            continue
        for family_name, key in _WIRE_FAMILIES.items():
            family = snapshot.metrics.get(family_name)
            if family is None:
                continue
            for sample in family.get("samples", ()):
                labels = sample.get("labels", {})
                codec = labels.get("codec", "?")
                # Flushes carry no dir label; they are a tx-side count.
                axis = labels.get("dir") or labels.get("op") or "out"
                bucket = totals.setdefault(f"{axis}/{codec}", {})
                bucket[key] = bucket.get(key, 0.0) + float(
                    sample.get("value", 0.0)
                )
    return {k: totals[k] for k in sorted(totals)}


def bounds_for_delta(delta: float | None = None) -> VSBounds:
    """The live node's timing at δ (its default δ when None), read from
    :func:`~repro.rt.node.default_ring_config`."""
    # Imported here: repro.rt.node imports this package.
    from repro.rt.node import default_ring_config

    config = default_ring_config() if delta is None else default_ring_config(float(delta))
    return VSBounds(delta=config.delta, pi=config.pi, mu=config.mu)


def bounds_from_timeline(marks: Any) -> VSBounds:
    """The run's timing parameters: the driver's ``config`` mark when
    recorded, the live node's defaults otherwise."""
    for mark in marks or ():
        if isinstance(mark, dict) and mark.get("event") == "config":
            scaled = bounds_for_delta(mark.get("delta"))
            return VSBounds(
                delta=scaled.delta,
                pi=float(mark.get("pi", scaled.pi)),
                mu=float(mark.get("mu", scaled.mu)),
            )
    return bounds_for_delta()


@dataclass
class RunReport:
    """One run's stitched evidence plus every verdict over it."""

    log_dir: str
    run: StitchedRun
    bounds: VSBounds
    summaries: dict[str, LatencySummary]
    slos: list[SLOVerdict]
    bounds_verdict: BoundsVerdict
    metrics: ClusterTimeline | None
    #: what the group adds to the directory's name (see ``group_tag``)
    tag: str = ""

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.slos) and self.bounds_verdict.ok

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def to_dict(self) -> dict[str, Any]:
        metrics_summary: dict[str, Any] | None = None
        if self.metrics is not None:
            metrics_summary = {
                "snapshots": len(self.metrics),
                "nodes": list(self.metrics.nodes()),
                "last_seq": {
                    node: latest.seq
                    for node in self.metrics.nodes()
                    if (latest := self.metrics.latest(node)) is not None
                },
            }
        return {
            "type": "run_report",
            "log_dir": self.log_dir,
            "ok": self.ok,
            "processors": list(self.run.processors),
            "events": self.run.events,
            "message_spans": len(self.run.tracer.message_spans),
            "cross_node_spans": self.run.cross_node_spans(),
            "view_spans": len(self.run.tracer.view_spans),
            "fault_windows": len(self.run.tracer.faults),
            "unmatched_events": self.run.tracer.unmatched_events,
            "duration": self.run.duration,
            "config": {
                "delta": self.bounds.delta,
                "pi": self.bounds.pi,
                "mu": self.bounds.mu,
            },
            "latency": {
                name: summary.to_dict()
                for name, summary in sorted(self.summaries.items())
            },
            "slos": [v.to_dict() for v in self.slos],
            "bounds": self.bounds_verdict.to_dict(),
            "metrics": metrics_summary,
            "wire": (
                wire_summary(self.metrics)
                if self.metrics is not None
                else {}
            ),
        }


def build_report(
    log_dir: str | Path, delta: float | None = None, group: str = ONE_GROUP
) -> RunReport:
    """Stitch one group of ``log_dir`` and judge it (see module
    docstring)."""
    root = Path(log_dir)
    run = stitch_log_dir(root, group=group)
    if delta is not None:
        bounds = bounds_for_delta(delta)
    else:
        bounds = bounds_from_timeline(run.timeline)
    summaries = latency_summaries(run)
    slos = evaluate_slos(
        summaries, default_slos(bounds, len(run.processors))
    )
    verdict = check_bounds(run, bounds)
    metrics: ClusterTimeline | None = None
    metrics_path = root / "metrics.jsonl"
    if metrics_path.exists():
        metrics = ClusterTimeline.load_jsonl(metrics_path)
    return RunReport(
        log_dir=str(root),
        run=run,
        bounds=bounds,
        summaries=summaries,
        slos=slos,
        bounds_verdict=verdict,
        metrics=metrics,
        tag=group_tag(group, len(group_event_logs(root))),
    )


def build_reports(
    log_dir: str | Path, delta: float | None = None
) -> dict[str, RunReport]:
    """One judged report per group ``log_dir`` holds."""
    groups = group_event_logs(log_dir) or (ONE_GROUP,)
    return {g: build_report(log_dir, delta, group=g) for g in groups}


def reports_json(reports: dict[str, RunReport]) -> str:
    """The JSON rendering: one group's document as it is, several
    keyed by group."""
    docs = {group: report.to_dict() for group, report in reports.items()}
    document = (
        next(iter(docs.values()))
        if len(docs) == 1
        else {"type": "run_reports", "groups": docs}
    )
    return json.dumps(document, indent=2, sort_keys=True)


def render_text(report: RunReport) -> str:
    """The human rendering: one screen, every verdict attributable."""
    run = report.run
    verdict = report.bounds_verdict
    lines = [
        f"run report: {report.log_dir}{report.tag}",
        "  processors: {procs}   events: {events}   duration: {dur:.3f}s".format(
            procs=",".join(run.processors),
            events=run.events,
            dur=run.duration,
        ),
        "  spans: {msgs} messages ({cross} cross-node), {views} views, "
        "{faults} fault windows, {unmatched} unmatched events".format(
            msgs=len(run.tracer.message_spans),
            cross=run.cross_node_spans(),
            views=len(run.tracer.view_spans),
            faults=len(run.tracer.faults),
            unmatched=run.tracer.unmatched_events,
        ),
    ]
    for fault in run.tracer.faults:
        lines.append(
            f"    fault: {fault.kind} {fault.name} "
            f"[{fault.start:.3f}s, {fault.stop:.3f}s]"
        )
        if fault.kind == "partition":
            # Shown, not judged: holding the ring to b after a heal is
            # ROADMAP direction 2.
            settled = run.tracer.timeline(run.processors, fault.stop)
            lines.append(
                "      l' after the heal = {l:.3f}s   (b = {b:.3f}s; inf: "
                "the group did not reconverge)".format(
                    l=settled.alpha1_length,
                    b=report.bounds.b(len(run.processors)),
                )
            )
    if report.metrics is not None:
        lines.append(
            "  metrics: {count} snapshots from {nodes} node(s)".format(
                count=len(report.metrics),
                nodes=len(report.metrics.nodes()),
            )
        )
        wire = wire_summary(report.metrics)
        if wire:
            lines.append("  wire (cluster totals per direction/codec):")
            for key, bucket in wire.items():
                if "frames" not in bucket:
                    lines.append(
                        f"    {key:<15} codec_time="
                        f"{bucket.get('seconds', 0.0):.6g}s"
                    )
                    continue
                frames = bucket.get("frames", 0.0)
                entries = bucket.get("entries", 0.0)
                lines.append(
                    "    {key:<15} frames={frames:.0f} entries={entries:.0f} "
                    "bytes={bytes:.0f} entries/frame={epf:.2f}".format(
                        key=key,
                        frames=frames,
                        entries=entries,
                        bytes=bucket.get("bytes", 0.0),
                        epf=(entries / frames) if frames else 0.0,
                    )
                )
    lines.append("  latency over clean spans (seconds):")
    for name in sorted(report.summaries):
        summary = report.summaries[name]
        lines.append(
            "    {name:<13} n={n:<5} p50={p50:.6g} p99={p99:.6g} "
            "p999={p999:.6g} max={mx:.6g}".format(
                name=name, n=summary.count, p50=summary.p50,
                p99=summary.p99, p999=summary.p999, mx=summary.max,
            )
        )
    lines.append("  SLOs (thresholds from configured δ/π/μ):")
    for slo in report.slos:
        status = "ok  " if slo.ok else "FAIL"
        lines.append(
            "    {status} {name}: {summary}.{stat} = {obs:.6g}s "
            "<= {thr:.6g}s (n={n})".format(
                status=status, name=slo.spec.name,
                summary=slo.spec.summary, stat=slo.spec.statistic,
                obs=slo.observed, thr=slo.spec.threshold, n=slo.samples,
            )
        )
        if slo.detail:
            lines.append(f"         {slo.detail}")
    lines.append(
        "  Section 8 bounds at measured δ* = {dstar:.6g}s "
        "(config δ = {dcfg:.6g}s, π = {pi:.6g}s, μ = {mu:.6g}s, n = {n}):".format(
            dstar=verdict.delta_measured, dcfg=verdict.delta_config,
            pi=verdict.pi, mu=verdict.mu, n=verdict.n,
        )
    )
    lines.append(
        "    d = 2π + nδ* = {d:.6g}s   safe p99 = {p99:.6g}s "
        "over {count} sample(s)".format(
            d=verdict.d_bound, p99=verdict.safe_p99,
            count=verdict.safe_count,
        )
    )
    lines.append(
        "    b + d = {bd:.6g}s   view install max = {mx:.6g}s "
        "over {count} view(s)".format(
            bd=verdict.b_bound + verdict.d_bound,
            mx=verdict.view_install_max, count=verdict.view_count,
        )
    )
    for violation in verdict.violations:
        lines.append(f"    BOUND VIOLATION: {violation}")
    lines.append(f"  VERDICT: {'OK' if report.ok else 'FAIL'}")
    return "\n".join(lines) + "\n"
