"""Trace export: JSONL structured events and Chrome trace-event JSON.

Two output formats for one execution:

- **JSONL** — one JSON object per line (spans and fault
  annotations); grep/jq-friendly, the post-mortem artifact CI
  uploads for failed tests;
- **Chrome trace-event format** — the ``{"traceEvents": [...]}`` JSON
  consumed by ``chrome://tracing`` and by Perfetto's legacy importer
  (ui.perfetto.dev → open trace file), so a whole partitioned execution
  can be scrubbed visually: one row per processor, async span arcs per
  message and per view, and a nemesis row showing fault windows.

Timestamps: the trace-event format wants microseconds; virtual time is
unitless, so we export 1 virtual time unit = 1 ms (``ts = 1000 * t``),
which makes typical δ/π/μ executions comfortably scrubbably sized.
"""

from __future__ import annotations

import json
from collections.abc import Hashable, Iterable
from typing import Any, TextIO

from repro.obs.tracing import LifecycleTracer

ProcId = Hashable

#: virtual time unit -> trace-event microseconds
TS_SCALE = 1000.0

_PID_SERVICE = 1
_PID_FAULTS = 2


def _ts(time: float) -> float:
    return TS_SCALE * time


def _tid(proc: ProcId, tids: dict) -> int:
    tid = tids.get(proc)
    if tid is None:
        tid = len(tids) + 1
        tids[proc] = tid
    return tid


def chrome_trace_events(tracer: LifecycleTracer) -> list[dict]:
    """Flatten a tracer into Chrome trace-event dicts."""
    events: list[dict] = []
    tids: dict = {}
    next_id = iter(range(1, 1 << 30))

    def meta(pid: int, tid: int, name: str) -> None:
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": name},
            }
        )

    events.append(
        {
            "ph": "M",
            "pid": _PID_SERVICE,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "group-communication-service"},
        }
    )
    events.append(
        {
            "ph": "M",
            "pid": _PID_FAULTS,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "nemesis"},
        }
    )

    # Message lifecycles: one async arc per message, instants per point.
    for span in tracer.message_spans:
        start = span.start_time()
        end = span.end_time()
        if start > end:
            continue  # sent but never progressed; nothing to draw
        span_id = next(next_id)
        name = f"msg {span.payload!r}"[:64]
        origin_tid = _tid(span.origin, tids)
        common = {
            "cat": "message",
            "name": name,
            "id": span_id,
            "pid": _PID_SERVICE,
        }
        events.append(
            {**common, "ph": "b", "tid": origin_tid, "ts": _ts(start),
             "args": {"origin": str(span.origin), "view": str(span.viewid),
                      "seq": span.seq}}
        )
        for kind, points in (
            ("gprcv", span.gprcv_at),
            ("safe", span.safe_at),
            ("brcv", span.brcv_at),
        ):
            for member, time in sorted(points.items(), key=lambda kv: kv[1]):
                events.append(
                    {
                        "ph": "n",
                        "cat": "message",
                        "name": kind,
                        "id": span_id,
                        "pid": _PID_SERVICE,
                        "tid": _tid(member, tids),
                        "ts": _ts(time),
                        "args": {"member": str(member)},
                    }
                )
        if span.bcast_at is not None:
            events.append(
                {
                    "ph": "n",
                    "cat": "message",
                    "name": "bcast",
                    "id": span_id,
                    "pid": _PID_SERVICE,
                    "tid": origin_tid,
                    "ts": _ts(span.bcast_at),
                    "args": {},
                }
            )
        events.append(
            {**common, "ph": "e", "tid": origin_tid, "ts": _ts(end),
             "args": {}}
        )

    # View lifecycles.
    for span in tracer.view_spans.values():
        start = span.start_time()
        end = span.end_time()
        if start > end:
            continue
        span_id = next(next_id)
        anchor = span.initiator
        if anchor is None and span.newview_at:
            anchor = min(span.newview_at, key=lambda p: span.newview_at[p])
        tid = _tid(anchor, tids) if anchor is not None else 0
        members = (
            sorted(str(m) for m in span.members) if span.members else []
        )
        common = {
            "cat": "view",
            "name": f"view {span.viewid}",
            "id": span_id,
            "pid": _PID_SERVICE,
        }
        events.append(
            {**common, "ph": "b", "tid": tid, "ts": _ts(start),
             "args": {"members": members,
                      "initiator": str(span.initiator)}}
        )
        for kind, points in (
            ("newview", span.newview_at),
            ("established", span.established_at),
        ):
            for member, time in sorted(points.items(), key=lambda kv: kv[1]):
                events.append(
                    {
                        "ph": "n",
                        "cat": "view",
                        "name": kind,
                        "id": span_id,
                        "pid": _PID_SERVICE,
                        "tid": _tid(member, tids),
                        "ts": _ts(time),
                        "args": {"member": str(member)},
                    }
                )
        events.append(
            {**common, "ph": "e", "tid": tid, "ts": _ts(end), "args": {}}
        )

    # Fault windows as complete slices on the nemesis track.
    fault_tids: dict = {}
    for annotation in tracer.faults:
        tid = fault_tids.setdefault(annotation.kind, len(fault_tids) + 1)
        events.append(
            {
                "ph": "X",
                "cat": "fault",
                "name": annotation.name,
                "pid": _PID_FAULTS,
                "tid": tid,
                "ts": _ts(annotation.start),
                "dur": _ts(annotation.stop - annotation.start),
                "args": {"kind": annotation.kind},
            }
        )
    for kind, tid in fault_tids.items():
        meta(_PID_FAULTS, tid, kind)
    for proc, tid in tids.items():
        meta(_PID_SERVICE, tid, f"proc {proc}")
    return events


def chrome_trace(tracer: LifecycleTracer) -> dict:
    """The complete Chrome trace-event JSON object."""
    return {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs", "ts_scale": TS_SCALE},
    }


def write_chrome_trace(tracer: LifecycleTracer, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(chrome_trace(tracer), handle)


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def jsonl_records(tracer: LifecycleTracer | None = None) -> Iterable[dict]:
    """Structured-event records for JSONL export, in a stable order:
    message spans, view spans, fault annotations."""
    if tracer is not None:
        for span in tracer.message_spans:
            yield {
                "type": "message_span",
                "payload": repr(span.payload),
                "origin": str(span.origin),
                "view": str(span.viewid),
                "seq": span.seq,
                "bcast_at": span.bcast_at,
                "gpsnd_at": span.gpsnd_at,
                "gprcv_at": {str(k): v for k, v in span.gprcv_at.items()},
                "safe_at": {str(k): v for k, v in span.safe_at.items()},
                "brcv_at": {str(k): v for k, v in span.brcv_at.items()},
            }
        for span in tracer.view_spans.values():
            yield {
                "type": "view_span",
                "view": str(span.viewid),
                "members": sorted(str(m) for m in span.members or ()),
                "initiator": (
                    None if span.initiator is None else str(span.initiator)
                ),
                "proposed_at": span.proposed_at,
                "announced_at": span.announced_at,
                "newview_at": {str(k): v for k, v in span.newview_at.items()},
                "established_at": {
                    str(k): v for k, v in span.established_at.items()
                },
            }
        for annotation in tracer.faults:
            yield {
                "type": "fault_window",
                "kind": annotation.kind,
                "name": annotation.name,
                "start": annotation.start,
                "stop": annotation.stop,
            }


def write_jsonl(path_or_handle: str | TextIO, **kwargs: Any) -> int:
    """Write :func:`jsonl_records` as JSON lines; returns the count."""
    if isinstance(path_or_handle, str):
        with open(path_or_handle, "w") as handle:
            return write_jsonl(handle, **kwargs)
    handle: TextIO = path_or_handle
    count = 0
    for record in jsonl_records(**kwargs):
        handle.write(json.dumps(record) + "\n")
        count += 1
    return count
