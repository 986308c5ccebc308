"""Per-node event capture and offline verification of live runs.

Each node appends one JSON line per external event to one log per
group it hosts (:func:`event_log_path` names the file,
:func:`group_event_logs` lists a directory's groups and their files):

``{"ts": <epoch seconds>, "seq": <per-node counter>, "node": <id>,
"ev": <name>, "args": <codec-encoded argument list>}``

Nine event names are logged.  Six are the external actions the
specifications constrain, and the oracles read only these: the VS
interface (``gpsnd``/``gprcv``/``safe``/``newview``) and the TO
interface (``bcast``/``brcv``).  Three record the view lifecycle for
the span readers: ``formation(viewid, p)`` when ``p`` starts a formation
attempt, ``createview(viewid, members, p)`` when the initiator ``p``
fixes the membership, and ``established(viewid, p)`` when state
exchange completes at ``p``.  A steady-state run logs none of them.
In all nine the processor the event occurs at is the last argument.

The log-line contract: a line is ``json.dumps(entry, separators=(",",
":"))`` of the entry above, byte for byte; the file is line-buffered,
one ``write`` per event, so a SIGKILL loses at most the line being
written and a killed node's log is a valid prefix, which is all trace
inclusion needs; and the line is written ahead of the action it
records (``gpsnd`` is in the file before the frame leaves the node).

:func:`load_event_logs` merges the per-node files into one global
sequence ordered by ``(ts, node, seq)``.  All nodes run on one host in
the supported deployment, so timestamps come from a single clock; the
protocol's causal gaps (a token hop, a TCP round trip) are orders of
magnitude above its resolution.  Only a file's last line may be torn;
an undecodable line before it, or JSON that is no entry, raises
:class:`EventLogError`.  Each line is decoded in one pass of ``json``'s
scanner by the call's :class:`~repro.rt.framing.TaggedDecoder`, which
interns labels: a payload's label is one object on all its lines
(seven at n = 3: ``gpsnd``, three ``gprcv``, three ``safe``), so the
checkers' label comparisons end at identity.  Nothing mutable is shared.

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
from repro.ioa.timed import TimedEvent
from repro.rt.framing import TaggedDecoder, encode_value

#: Event names captured at the VS layer (fed to OnlineVSMonitor).
VS_EVENTS = ("gpsnd", "gprcv", "safe", "newview")
#: Event names captured at the TO layer (fed to check_to_trace).
TO_EVENTS = ("bcast", "brcv")
#: View-lifecycle event names (read by the span stitcher only).
VIEW_EVENTS = ("formation", "createview", "established")


#: The group of a one-group capture, whose file names carry no group
#: (``repro.shard.routing.group_names(1)[0]``).
ONE_GROUP = "g0"

_LOG_SUFFIX = ".events.jsonl"


def group_tag(group: str, groups: int) -> str:
    """What ``group`` adds to a file name in a capture of ``groups``
    groups: nothing when it is the only one, ``@<group>`` otherwise.
    The one place the group count shapes anything."""
    return "" if groups == 1 else f"@{group}"


def event_log_path(
    log_dir: str | Path, node: str, group: str, groups: int
) -> Path:
    """Where ``node`` logs ``group``'s events when it hosts ``groups``
    groups: ``p1.events.jsonl``, or ``p1@g0.events.jsonl``."""
    return Path(log_dir) / f"{node}{group_tag(group, groups)}{_LOG_SUFFIX}"


def group_event_logs(log_dir: str | Path) -> dict[str, dict[str, Path]]:
    """The inverse of :func:`event_log_path`: every event log under
    ``log_dir`` as ``{group: {node: path}}``, both levels sorted."""
    found: dict[str, dict[str, Path]] = {}
    for path in sorted(Path(log_dir).glob("*" + _LOG_SUFFIX)):
        node, _, group = path.name[: -len(_LOG_SUFFIX)].partition("@")
        found.setdefault(group or ONE_GROUP, {})[node] = path
    return {group: found[group] for group in sorted(found)}


#: ``json.dumps(x, separators=(",", ":"))`` without building an encoder
#: per call.
_dumps = json.JSONEncoder(separators=(",", ":")).encode

#: Rendered-argument memo ceiling per log; the table is cleared when
#: full.  Strings longer than ``_MEMO_STR_LEN`` are rendered each time.
_MEMO_ENTRIES = 512
_MEMO_STR_LEN = 64


class EventLog:
    """Append-only JSONL capture of one node's external events.

    A line is assembled from pieces rendered once: the ``node``/``ev``
    fragment per event name, and the JSON text of each argument.  A
    tuple argument is remembered by *identity* — the ring hands
    ``gprcv`` and ``safe`` the one payload object it logged, so a node
    renders each payload once — and the memo keeps the tuple alive, so
    its ``id`` cannot be reused by another value while the text is
    held.  Event arguments are protocol values: nothing mutates them
    after they are recorded.
    """

    def __init__(self, path: str | Path, node: str) -> None:
        self.path = Path(path)
        self.node = node
        self._seq = 0
        self._file: TextIO = open(self.path, "w", buffering=1, encoding="utf-8")
        self._heads: dict[str, str] = {}
        #: ``id(tuple)`` or the string itself -> (argument, its JSON).
        self._memo: dict[int | str, tuple[Any, str]] = {}

    def _render(self, arg: Any) -> str:
        kind = type(arg)
        if kind is tuple:
            key: int | str = id(arg)
        elif kind is str and len(arg) <= _MEMO_STR_LEN:
            key = arg
        else:
            return _dumps(encode_value(arg))
        hit = self._memo.get(key)
        if hit is None:
            if len(self._memo) >= _MEMO_ENTRIES:
                self._memo.clear()
            hit = self._memo[key] = (arg, _dumps(encode_value(arg)))
        return hit[1]

    def record(self, name: str, *args: Any) -> None:
        """Append one event, stamped with the shared host clock."""
        ts = time.time()
        self._seq += 1
        head = self._heads.get(name)
        if head is None:
            head = self._heads[name] = (
                f',"node":{_dumps(self.node)},"ev":{_dumps(name)},"args":['
            )
        body = ",".join([self._render(arg) for arg in args])
        self._file.write(f'{{"ts":{ts!r},"seq":{self._seq}{head}{body}]}}\n')

    def close(self) -> None:
        self._file.close()

    @property
    def events_recorded(self) -> int:
        return self._seq


class EventLogError(ValueError):
    """An event log holds an undecodable line that is not its torn
    tail: an event is missing from the middle of the oracle's input."""


def load_event_logs(paths: Iterable[str | Path]) -> list[dict[str, Any]]:
    """Merge per-node JSONL logs into one time-ordered event list.

    Argument lists are decoded back to protocol values (tuples, views).
    A trailing partial line (a node killed mid-write) is skipped; an
    undecodable line anywhere else raises :class:`EventLogError`.
    """
    decoder = TaggedDecoder(labels={})
    events: list[dict[str, Any]] = []
    for path in paths:
        torn: int | None = None
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                if torn is not None:
                    raise EventLogError(
                        f"{path}: line {torn} is not valid JSON and is "
                        f"not the last line of the log"
                    )
                try:
                    entry, untagged = decoder.decode(line)
                except Exception:
                    # A refusal can come before the scanner reaches the
                    # break in a torn line: the line is torn if it is
                    # not JSON at all.
                    try:
                        json.loads(line)
                    except json.JSONDecodeError:
                        # Tolerated only as the tail write of a killed node.
                        torn = number
                        continue
                    raise
                if untagged is not entry or type(entry.get("args")) is not list:
                    raise EventLogError(f"{path}: line {number} is not an event")
                events.append(entry)
    events.sort(key=lambda e: (e["ts"], str(e["node"]), e["seq"]))
    return events


def sim_entries(events: Iterable[TimedEvent]) -> list[dict[str, Any]]:
    """A simulated run's events as the entries :func:`load_event_logs`
    returns, so the readers of live logs read simulated runs too.

    ``events`` is ``TokenRingVS.events``: VS, TO and view-lifecycle
    events in the order they happened, which is the order the entries
    keep (they are not re-sorted — virtual time ties across processors
    are causal).  ``ts`` is virtual time, ``node`` the processor the
    event occurs at (the last argument of all nine event kinds), ``seq``
    counts per node.
    """
    seqs: dict[Any, int] = {}
    entries = []
    for event in events:
        name, args = event.action.name, event.action.args
        node = args[-1]
        seqs[node] = seq = seqs.get(node, 0) + 1
        entries.append(
            {"ts": event.time, "seq": seq, "node": node, "ev": name,
             "args": list(args)}
        )
    return entries


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
    pass the survivors when the run killed nodes; others are a
    ``ValueError``).  An event naming another processor is a violation.
    View-lifecycle events count in ``events`` and feed neither checker.
    """
    procs = tuple(sorted(processors))
    required = tuple(sorted(expect_at)) if expect_at is not None else procs
    if unknown := sorted(set(required) - set(procs)):
        raise ValueError(f"expect_at names {unknown}, not among {list(procs)}")
    report = VerifyReport(processors=procs, events=len(events))
    monitor = OnlineVSMonitor(procs, initial_view, strict=False)
    to_actions: list[Action] = []
    bcast_values: list[Any] = []
    delivered_at: dict[str, list[Any]] = {p: [] for p in procs}
    outside: list[str] = []

    for entry in events:
        name, args = entry["ev"], entry["args"]
        # An event occurs at its last argument; a brcv's value comes
        # from its second.
        if args[-1] not in delivered_at or (name == "brcv" and args[1] not in delivered_at):
            outside.append(f"{name}{tuple(args)!r} logged by {entry['node']!r} "
                           f"names a processor outside {list(procs)}")
            continue
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

    report.violations = [*outside, *monitor.violations]
    to_report = check_to_trace(to_actions, procs)
    report.to_ok = to_report.ok
    report.to_reason = to_report.reason

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
    """Convenience: merge the event logs of a one-group capture under
    ``log_dir`` and verify the result."""
    paths = group_event_logs(log_dir).get(ONE_GROUP, {}).values()
    events = load_event_logs(paths)
    return verify_events(events, processors, initial_view, expect_at)


def content_digest(events: Sequence[dict[str, Any]]) -> str:
    """A timing-independent digest of *what* a live run did.

    Live executions are wall-clock scheduled, so two runs of the same
    seeded scenario never produce byte-identical logs — but they must
    agree on the TO client contract: which values were broadcast, and
    the exact multiset each node delivered (``brcv``, value + origin).
    The digest hashes exactly that, canonically ordered and stripped of
    timestamps/sequence numbers, so two runs of one seeded scenario
    must collide.

    VS-internal traffic (``gprcv``) is deliberately excluded: its
    state-exchange Summary payloads depend on where view formation cut
    each run's timeline, so they differ between two runs.
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
    logs = group_event_logs(log_dir).values()
    return content_digest(
        load_event_logs(path for nodes in logs for path in nodes.values())
    )
