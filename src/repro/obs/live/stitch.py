"""Cross-node span stitching: distributed spans from per-node logs.

A live run leaves one JSONL event log per OS process and VS group (see
:mod:`repro.rt.trace`).  Each log sees only its own side of a message's
lifecycle — the origin logs ``bcast``/``gpsnd``, every member logs its
own ``gprcv``/``safe``/``brcv``.  The stitcher merges one group's logs
on the shared host clock and replays them through the *same*
:class:`~repro.obs.tracing.LifecycleTracer` the simulator uses (the
live nodes keep none of their own: every live span is built here), so
one
:class:`~repro.obs.tracing.MessageSpan` ends up holding lifecycle
points recorded by several different processes — a genuinely
distributed span — and :mod:`repro.obs.export` renders the whole
cluster into one Perfetto trace without knowing it was live.

Fault context comes from the driver's timeline (``cluster.timeline.json``):
``partition``/``heal`` marks pair into firewall windows and ``kill``
marks become crash annotations, so the exported trace shows what the
driver was doing to the network while a view formed.

Determinism contract (asserted by the tests): stitched output is a
pure function of the *set* of log lines.  :func:`~repro.rt.trace.
load_event_logs` sorts the merged events by ``(ts, node, seq)`` and
skips torn tail lines, every derived structure is filled in that merged
order, and :func:`stitched_jsonl` serialises with sorted keys — so the
bytes are identical however the per-node files arrive.

Times are rebased to seconds from the run's first event (``t0``), which
keeps stitched live spans in the same "small floats from zero" shape as
simulated ones (and Perfetto scrubbing comfortable).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any
from collections.abc import Iterable, Sequence

from repro.core.types import View
from repro.ioa.actions import act
from repro.ioa.timed import TimedTrace
from repro.obs.export import jsonl_records
from repro.obs.tracing import LifecycleTracer
from repro.rt.trace import (
    ONE_GROUP,
    TO_EVENTS,
    VS_EVENTS,
    group_event_logs,
    load_event_logs,
    sim_entries,
    sim_timeline,
)

#: Driver-timeline mark names that become trace annotations.
FAULT_MARKS = ("partition", "heal", "kill", "restart")


class StitchError(ValueError):
    """A capture whose events could not be stitched into spans: it
    holds sends, and none of them opened a message span (the processor
    set does not name the nodes that logged them)."""


@dataclass
class StitchedRun:
    """One live run, stitched: spans, fault windows, provenance."""

    processors: tuple[str, ...]
    initial_view: View
    #: epoch time of the first event; every span time is relative to it
    t0: float
    #: merged events fed to the tracer
    events: int
    tracer: LifecycleTracer
    #: driver timeline marks, times rebased to t0
    timeline: tuple[dict[str, Any], ...] = ()

    @property
    def duration(self) -> float:
        """Seconds from t0 to the last recorded lifecycle point."""
        last = 0.0
        for span in self.tracer.message_spans:
            last = max(last, span.end_time(), span.start_time())
        for view_span in self.tracer.view_spans.values():
            last = max(last, view_span.end_time())
        return max(last, 0.0)

    def cross_node_spans(self) -> int:
        """Message spans whose lifecycle points came from more than one
        node — the stitching acceptance measure (a span recorded by the
        origin alone never left its process)."""
        count = 0
        for span in self.tracer.message_spans:
            nodes = {str(span.origin)}
            nodes.update(str(p) for p in span.gprcv_at)
            nodes.update(str(p) for p in span.safe_at)
            nodes.update(str(p) for p in span.brcv_at)
            if len(nodes) > 1:
                count += 1
        return count


def default_initial_view(processors: Sequence[str]) -> View:
    """The live stack's v0: whole group, id (0, min) — mirrors
    :func:`repro.rt.node.initial_view_for` without importing the node
    daemon module."""
    procs = tuple(sorted(processors))
    return View((0, min(procs)), frozenset(procs))


def stitch_events(
    events: Sequence[dict[str, Any]],
    processors: Sequence[str],
    initial_view: View | None = None,
    timeline: Sequence[dict[str, Any]] = (),
    t0: float | None = None,
) -> StitchedRun:
    """Stitch a merged event sequence (see
    :func:`~repro.rt.trace.load_event_logs`) into distributed spans.

    ``timeline`` takes the cluster driver's marks (``{"t": epoch,
    "event": name, ...}``); partition/heal pairs become firewall
    annotations, kills become crash annotations.  ``t0`` overrides the
    rebasing origin (default: the earliest event or mark).
    """
    procs = tuple(sorted(processors))
    view0 = initial_view if initial_view is not None else default_initial_view(procs)
    candidates = [e["ts"] for e in events]
    candidates.extend(m["t"] for m in timeline if "t" in m)
    origin = t0 if t0 is not None else min(candidates, default=0.0)

    tracer = LifecycleTracer()
    tracer.set_initial_view(view0)
    fed = 0
    for entry in events:
        name = entry["ev"]
        time = entry["ts"] - origin
        args = tuple(entry["args"])
        if name in VS_EVENTS:
            tracer.on_vs_event(time, name, args)
            fed += 1
        elif name in TO_EVENTS:
            tracer.on_to_event(time, name, args)
            fed += 1
    sends = sum(1 for entry in events if entry["ev"] == "gpsnd")
    if sends and not tracer.message_spans:
        raise StitchError(
            f"{sends} gpsnd events at processors {','.join(procs)} "
            f"opened no message span"
        )

    marks = _rebase_timeline(timeline, origin)
    end = max(
        [e["ts"] - origin for e in events] + [m["t"] for m in marks],
        default=0.0,
    )
    _annotate_faults(tracer, marks, end)
    return StitchedRun(
        processors=procs,
        initial_view=view0,
        t0=origin,
        events=fed,
        tracer=tracer,
        timeline=tuple(marks),
    )


def stitch_sim(service: Any, scenario: Any = None) -> StitchedRun:
    """A simulated run read the way a live capture is: the events of a
    :class:`~repro.membership.service.TokenRingVS` (with or without a
    VStoTO runtime on top) through :func:`~repro.rt.trace.sim_entries`,
    the layout changes of ``scenario`` (a ``PartitionScenario``) as
    ``partition``/``heal`` marks.  Times stay virtual."""
    marks = () if scenario is None else sim_timeline(scenario, service.processors)
    return stitch_events(
        sim_entries(service.events),
        service.processors,
        service.initial_view,
        timeline=marks,
        t0=0.0,
    )


def stitch_log_dir(
    log_dir: str | Path,
    processors: Sequence[str] | None = None,
    initial_view: View | None = None,
    group: str = ONE_GROUP,
) -> StitchedRun:
    """Stitch one group's event logs under ``log_dir``.

    Processors default to the nodes that logged the group; the driver
    timeline is read from ``cluster.timeline.json`` when present.
    """
    root = Path(log_dir)
    logs = group_event_logs(root).get(group, {})
    if processors is None:
        processors = tuple(logs)
    if not processors:
        raise FileNotFoundError(
            f"no *.events.jsonl of group {group} under {root}"
        )
    events = load_event_logs(logs.values())
    timeline: Sequence[dict[str, Any]] = ()
    timeline_path = root / "cluster.timeline.json"
    if timeline_path.exists():
        timeline = json.loads(timeline_path.read_text(encoding="utf-8"))
    return stitch_events(
        events, processors, initial_view=initial_view, timeline=timeline
    )


def _rebase_timeline(
    timeline: Sequence[dict[str, Any]], origin: float
) -> list[dict[str, Any]]:
    marks = []
    for mark in timeline:
        if "t" not in mark or "event" not in mark:
            continue
        rebased = dict(mark)
        rebased["t"] = float(mark["t"]) - origin
        marks.append(rebased)
    marks.sort(key=lambda m: (m["t"], str(m["event"])))
    return marks


def _groups_text(groups: Iterable[Iterable[str]]) -> str:
    return "|".join(
        ",".join(sorted(str(p) for p in group)) for group in groups
    )


def _annotate_faults(
    tracer: LifecycleTracer, marks: Sequence[dict[str, Any]], end: float
) -> None:
    """Pair driver marks into tracer fault windows.

    The live firewall holds one partition at a time (episodes are
    applied, held, healed sequentially — see the cluster driver), so
    pairing is first-open-first-close; a window still open at the end
    of the capture closes at ``end``.  SIGKILLs never heal: the crash
    window runs to ``end``.
    """
    open_at: float | None = None
    open_name = ""
    for mark in marks:
        kind = str(mark["event"])
        time = float(mark["t"])
        if kind == "partition":
            if open_at is None:
                open_at = time
                open_name = _groups_text(mark.get("groups", ())) or "partition"
        elif kind == "heal" and open_at is not None:
            tracer.on_fault_window(
                "partition", open_name, open_at, max(time, open_at)
            )
            open_at = None
        elif kind == "kill":
            node = str(mark.get("node", "?"))
            tracer.on_fault_window(
                "crash", f"SIGKILL {node}", time, max(end, time)
            )
        elif kind == "restart":
            node = str(mark.get("node", "?"))
            tracer.on_fault_window("restart", f"restart {node}", time, time)
    if open_at is not None:
        tracer.on_fault_window(
            "partition", open_name, open_at, max(end, open_at)
        )


# ----------------------------------------------------------------------
# Canonical serialisation (the determinism surface)
# ----------------------------------------------------------------------
def stitched_records(run: StitchedRun) -> list[dict[str, Any]]:
    """Structured records for one stitched run: a provenance header,
    then the tracer's span/fault records in export order."""
    header = {
        "type": "stitched_run",
        "processors": list(run.processors),
        "initial_view": str(run.initial_view.id),
        "events": run.events,
        "message_spans": len(run.tracer.message_spans),
        "view_spans": len(run.tracer.view_spans),
        "fault_windows": len(run.tracer.faults),
        "cross_node_spans": run.cross_node_spans(),
        "unmatched_events": run.tracer.unmatched_events,
    }
    return [header, *jsonl_records(tracer=run.tracer)]


def stitched_jsonl(run: StitchedRun) -> str:
    """Canonical JSONL rendering: sorted keys, compact separators.

    Byte-identical for any arrival order of the same per-node logs —
    the determinism tests diff this string.
    """
    return "".join(
        json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        for record in stitched_records(run)
    )


# ----------------------------------------------------------------------
# Timed-trace view (tracefmt rendering of live runs)
# ----------------------------------------------------------------------
def live_timed_trace(
    events: Sequence[dict[str, Any]],
    timeline: Sequence[dict[str, Any]] = (),
    t0: float | None = None,
) -> TimedTrace:
    """A :class:`TimedTrace` over the merged live events plus driver
    fault marks, rebased to ``t0`` — so
    :func:`repro.analysis.tracefmt.format_timeline` renders a live
    capture exactly like a simulated one (fault marks get their own
    action names: ``firewall_on``/``firewall_off`` per processor,
    ``sigkill``/``restart`` per node)."""
    candidates = [e["ts"] for e in events]
    candidates.extend(m["t"] for m in timeline if "t" in m)
    origin = t0 if t0 is not None else min(candidates, default=0.0)
    timed: list[tuple[float, Any]] = [
        (e["ts"] - origin, act(e["ev"], *e["args"])) for e in events
    ]
    for mark in _rebase_timeline(timeline, origin):
        kind = str(mark["event"])
        time = float(mark["t"])
        if kind == "partition":
            groups = [
                tuple(sorted(str(p) for p in group))
                for group in mark.get("groups", ())
            ]
            for group in groups:
                for p in group:
                    timed.append(
                        (time, act("firewall_on", p, _groups_text([group])))
                    )
        elif kind == "heal":
            nodes = sorted(str(p) for p in mark.get("nodes", ()))
            for p in nodes:
                timed.append((time, act("firewall_off", p)))
            if not nodes:
                timed.append((time, act("firewall_off")))
        elif kind == "kill":
            timed.append((time, act("sigkill", str(mark.get("node", "?")))))
        elif kind == "restart":
            timed.append((time, act("restart", str(mark.get("node", "?")))))
    timed.sort(key=lambda pair: pair[0])  # stable: ties keep merge order
    trace = TimedTrace()
    for time, action in timed:
        trace.append(time, action)
    return trace
