"""Per-node event capture and offline verification of live runs.

Each node appends one JSON line per external event to its own log:

``{"ts": <epoch seconds>, "seq": <per-node counter>, "node": <id>,
"ev": <name>, "args": <codec-encoded argument list>}``

Events are the VS interface (``gpsnd``/``gprcv``/``safe``/``newview``)
and the TO interface (``bcast``/``brcv``) — exactly the external
actions the specifications constrain.  The file is line-buffered so a
SIGKILL loses at most the event being written; a killed node's log is
a valid prefix, which is all trace inclusion needs.

:func:`load_event_logs` merges the per-node files into one global
sequence ordered by ``(ts, node, seq)``.  All nodes run on one host in
the supported deployment, so timestamps come from a single clock; the
protocol's causal gaps (a token hop, a TCP round trip) are orders of
magnitude above its resolution.

:func:`verify_events` then replays the merged sequence through the
*same* checkers the simulator uses — :class:`~repro.core.monitor.
OnlineVSMonitor` in permissive mode for the VS events and
:func:`~repro.core.to_spec.check_to_trace` for TO-machine trace
membership.  It is an oracle: it returns verdicts and counts, never
timings.  Throughput and latency are measured from outside by
``benchmarks/perf`` and judged against the Section 8 SLOs by
``python -m repro.obs report``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, TextIO
from collections.abc import Iterable, Sequence

from repro.core.monitor import OnlineVSMonitor
from repro.core.to_spec import check_to_trace
from repro.core.types import View
from repro.ioa.actions import Action, act
from repro.rt.framing import decode_value, encode_value

#: Event names captured at the VS layer (fed to OnlineVSMonitor).
VS_EVENTS = ("gpsnd", "gprcv", "safe", "newview")
#: Event names captured at the TO layer (fed to check_to_trace).
TO_EVENTS = ("bcast", "brcv")


class EventLog:
    """Append-only JSONL capture of one node's external events."""

    def __init__(self, path: str | Path, node: str) -> None:
        self.path = Path(path)
        self.node = node
        self._seq = 0
        self._file: TextIO = open(self.path, "w", buffering=1, encoding="utf-8")

    def record(self, name: str, *args: Any) -> None:
        """Append one event, stamped with the shared host clock."""
        self._seq += 1
        entry = {
            "ts": time.time(),
            "seq": self._seq,
            "node": self.node,
            "ev": name,
            "args": [encode_value(a) for a in args],
        }
        self._file.write(json.dumps(entry, separators=(",", ":")) + "\n")

    def close(self) -> None:
        self._file.close()

    @property
    def events_recorded(self) -> int:
        return self._seq


def load_event_logs(paths: Iterable[str | Path]) -> list[dict[str, Any]]:
    """Merge per-node JSONL logs into one time-ordered event list.

    Argument lists are decoded back to protocol values (tuples, views).
    A trailing partial line (a node killed mid-write) is skipped.
    """
    events: list[dict[str, Any]] = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail write of a killed node
                entry["args"] = [decode_value(a) for a in entry["args"]]
                events.append(entry)
    events.sort(key=lambda e: (e["ts"], str(e["node"]), e["seq"]))
    return events


@dataclass
class VerifyReport:
    """Verdict and counts over one captured live run."""

    processors: tuple[str, ...]
    events: int = 0
    #: VS-level conformance violations (must be empty).
    violations: list[str] = field(default_factory=list)
    to_ok: bool = True
    to_reason: str = ""
    sends: int = 0
    deliveries: int = 0
    views_installed: int = 0
    #: every bcast value delivered at every processor in ``expect_at``.
    delivered_complete: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations and self.to_ok

    def to_dict(self) -> dict[str, Any]:
        return {
            "processors": list(self.processors),
            "events": self.events,
            "violations": list(self.violations),
            "to_ok": self.to_ok,
            "to_reason": self.to_reason,
            "sends": self.sends,
            "deliveries": self.deliveries,
            "views_installed": self.views_installed,
            "delivered_complete": self.delivered_complete,
            "ok": self.ok,
        }


def verify_events(
    events: Sequence[dict[str, Any]],
    processors: Iterable[str],
    initial_view: View,
    expect_at: Iterable[str] | None = None,
) -> VerifyReport:
    """Check a merged live capture against the VS and TO specifications.

    ``expect_at`` names the processors required to have delivered every
    broadcast value for ``delivered_complete`` (default: all of them;
    pass the survivors when the run killed nodes).
    """
    procs = tuple(sorted(processors))
    report = VerifyReport(processors=procs, events=len(events))
    monitor = OnlineVSMonitor(procs, initial_view, strict=False)
    to_actions: list[Action] = []
    bcast_values: list[Any] = []
    delivered_at: dict[str, list[Any]] = {p: [] for p in procs}

    for entry in events:
        name, args = entry["ev"], entry["args"]
        if name == "newview":
            view, p = args
            monitor.on_newview(view, p)
            report.views_installed += 1
        elif name == "gpsnd":
            payload, p = args
            monitor.on_gpsnd(payload, p)
        elif name == "gprcv":
            payload, src, dst = args
            monitor.on_gprcv(payload, src, dst)
        elif name == "safe":
            payload, src, dst = args
            monitor.on_safe(payload, src, dst)
        elif name == "bcast":
            value, p = args
            to_actions.append(act("bcast", value, p))
            report.sends += 1
            bcast_values.append(value)
        elif name == "brcv":
            value, origin, dst = args
            to_actions.append(act("brcv", value, origin, dst))
            report.deliveries += 1
            delivered_at[dst].append(value)

    report.violations = list(monitor.violations)
    to_report = check_to_trace(to_actions, procs)
    report.to_ok = to_report.ok
    report.to_reason = to_report.reason

    required = tuple(sorted(expect_at)) if expect_at is not None else procs
    report.delivered_complete = bool(bcast_values) and all(
        set(bcast_values) <= set(delivered_at[p]) for p in required
    )
    return report


def verify_log_dir(
    log_dir: str | Path,
    processors: Iterable[str],
    initial_view: View,
    expect_at: Iterable[str] | None = None,
) -> VerifyReport:
    """Convenience: merge every ``*.events.jsonl`` under ``log_dir``
    and verify the result."""
    paths = sorted(Path(log_dir).glob("*.events.jsonl"))
    events = load_event_logs(paths)
    return verify_events(events, processors, initial_view, expect_at)


def content_digest(events: Sequence[dict[str, Any]]) -> str:
    """A timing-independent digest of *what* a live run did.

    Live executions are wall-clock scheduled, so two runs of the same
    seeded scenario never produce byte-identical logs — but they must
    agree on the TO client contract: which values were broadcast, and
    the exact multiset each node delivered (``brcv``, value + origin).
    The digest hashes exactly that, canonically ordered and stripped of
    timestamps/sequence numbers, so a json-wire run and a binary-wire
    run of one scenario must collide iff the codecs are equivalent end
    to end (encode → wire → decode → protocol → event log).

    VS-internal traffic (``gprcv``) is deliberately excluded: its
    state-exchange Summary payloads depend on where view formation cut
    each run's timeline, so they differ between two runs of *one* codec
    and cannot witness codec equivalence.
    """
    bcast: list[Any] = []
    brcv: dict[str, list[Any]] = {}
    for entry in events:
        name, args = entry["ev"], entry["args"]
        if name == "bcast":
            value, _p = args
            bcast.append(encode_value(value))
        elif name == "brcv":
            value, origin, dst = args
            brcv.setdefault(dst, []).append(encode_value((value, origin)))
    doc = {
        "bcast": sorted(bcast, key=repr),
        "brcv": {p: sorted(brcv[p], key=repr) for p in sorted(brcv)},
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def content_digest_for_dir(log_dir: str | Path) -> str:
    """The content digest of every event log under ``log_dir``."""
    paths = sorted(Path(log_dir).glob("*.events.jsonl"))
    return content_digest(load_event_logs(paths))
