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

The log contract, INV-LOG-1:

- *same bytes* — a line is ``json.dumps(entry, separators=(",",
  ":"))`` of the entry above, byte for byte (arguments are written by
  :func:`~repro.rt.framing.render_value`, that expression by
  definition), except that a VS payload the file already holds is
  written as its back-reference ``{"!":"at","v":<seq>}``, naming the
  earlier line of the same file that holds it (see :class:`EventLog`);
- *one write per turn* — :meth:`EventLog.record` buffers the line, and
  one ``write`` at the end of the event-loop turn empties the buffer;
- *write-ahead* — the node's transport empties its logs before it
  writes any frame to a socket, so every line a frame depends on
  (``gpsnd`` before the token that carries its entry) is in the file
  before the frame leaves;
- *prefix on a kill* — the file grows by whole buffers in order, so a
  SIGKILL leaves a prefix of whole lines plus at most one torn last
  line, which is all trace inclusion needs and what
  :func:`load_event_logs` accepts.

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
checkers' label comparisons end at identity.  A back-reference decodes
to the very payload its file's earlier line decoded to, so within a
file each payload is one object; it names only an earlier line of its
own file, so any prefix a kill leaves still resolves.  A reference
that names no earlier payload line, or stands anywhere but the payload
of a ``gpsnd``/``gprcv``/``safe`` line, raises :class:`EventLogError`.
Only pairs and summaries of atoms are referenced, so nothing mutable is
shared.

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

import asyncio
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, TextIO
from collections.abc import Iterable, Sequence

from repro.core.monitor import OnlineVSMonitor
from repro.core.to_spec import check_to_trace
from repro.core.types import Bottom, Label, View
from repro.core.vstoto.summary import Summary
from repro.ioa.actions import Action, act
from repro.ioa.timed import TimedEvent
from repro.rt.framing import TaggedDecoder, encode_value, render_value

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


#: Payload memo ceiling per log; the table is cleared when full.
_MEMO_ENTRIES = 512

#: The events whose first argument is a VS payload.
_PAYLOAD_EVENTS = frozenset({"gpsnd", "gprcv", "safe"})

#: The value types nothing can change.
_ATOMS = frozenset({str, int, float, bool, type(None), Bottom})


def _atomic(value: Any) -> bool:
    """An atom, or a tuple of atoms (a view id)."""
    kind = type(value)
    return kind in _ATOMS or (kind is tuple and _ATOMS.issuperset(map(type, value)))


def _pair(value: Any) -> bool:
    """A ``(Label, atom)`` pair; a ``Label`` is a frozen record."""
    return (
        type(value) is tuple and len(value) == 2
        and type(value[0]) is Label and type(value[1]) in _ATOMS
    )


def _shareable(payload: Any) -> bool:
    """Whether nothing in ``payload`` can change, so that every line
    naming it may decode to one object: a ``(Label, atom)`` pair, or a
    ``Summary`` of such pairs and labels."""
    if type(payload) is not Summary:
        return _pair(payload)
    return (
        all(map(_pair, payload.con))
        and all(type(label) is Label for label in payload.ord)
        and _atomic(payload.next) and _atomic(payload.high)
    )


class EventLog:
    """Append-only JSONL capture of one node's external events.

    A line is assembled from pieces rendered once: the ``node``/``ev``
    fragment per event name, and the JSON text of each argument.  A VS
    payload (the first argument of ``gpsnd``, ``gprcv`` and ``safe``)
    is remembered by *identity*: the ring hands ``gprcv`` and ``safe``
    the one payload object it logged, and at the origin ``gpsnd``
    already holds it.  The first line that carries a payload writes it
    in full.  When nothing in the payload can change (see
    :func:`_shareable`), a later line writes ``{"!":"at","v":<seq>}``,
    naming that line; any other payload is written in full on each
    line.  So a file holds each pair and each summary once, however
    many lines carry it (three at its origin, two elsewhere).  The memo
    keeps the payload alive, so its ``id`` cannot be reused by another
    value while its entry is held; when the memo is full it is
    cleared, and the next line carrying a forgotten payload writes it
    in full again.

    Lines are buffered and written by :meth:`flush`: at the end of the
    event-loop turn that recorded them, before any frame leaves the
    node (the transport calls it, INV-LOG-1), or on :meth:`close`.
    Without a running loop only those last two write.
    """

    def __init__(self, path: str | Path, node: str) -> None:
        self.path = Path(path)
        self.node = node
        self._seq = 0
        self._file: TextIO = open(self.path, "w", encoding="utf-8")
        self._lines: list[str] = []
        self._heads: dict[str, str] = {}
        #: ``id(payload)`` -> (the payload, its back-reference).
        self._memo: dict[int, tuple[Any, str]] = {}

    def _payload(self, payload: Any) -> str:
        """The payload's text on this line, the last of it to render:
        the memo names only a line that is written."""
        held = self._memo.get(id(payload))
        if held is not None:
            return held[1]
        text = render_value(payload)
        if _shareable(payload):
            if len(self._memo) >= _MEMO_ENTRIES:
                self._memo.clear()
            self._memo[id(payload)] = (payload, f'{{"!":"at","v":{self._seq}}}')
        return text

    def record(self, name: str, *args: Any) -> None:
        """Append one event, stamped with the shared host clock."""
        ts = time.time()
        self._seq += 1
        head = self._heads.get(name)
        if head is None:
            head = self._heads[name] = (
                f',"node":{json.dumps(self.node)},"ev":{json.dumps(name)},"args":['
            )
        if name in _PAYLOAD_EVENTS and args:
            rest = [render_value(arg) for arg in args[1:]]
            body = ",".join([self._payload(args[0]), *rest])
        else:
            body = ",".join(map(render_value, args))
        if not self._lines:
            try:
                asyncio.get_running_loop().call_soon(self.flush)
            except RuntimeError:
                pass  # no loop turn to end
        self._lines.append(f'{{"ts":{ts!r},"seq":{self._seq}{head}{body}]}}\n')

    def flush(self) -> None:
        """Write the buffered lines with one ``write``; a closed log
        drops them (nothing a node does after closing is in its log)."""
        lines, self._lines = self._lines, []
        if lines and not self._file.closed:
            self._file.write("".join(lines))
            self._file.flush()

    def close(self) -> None:
        self.flush()
        self._file.close()

    @property
    def events_recorded(self) -> int:
        return self._seq


class EventLogError(ValueError):
    """An event log holds an undecodable line that is not its torn
    tail, or a back-reference out of place or naming no earlier
    payload line: an event is missing from the oracle's input."""


def load_event_logs(paths: Iterable[str | Path]) -> list[dict[str, Any]]:
    """Merge per-node JSONL logs into one time-ordered event list.

    Argument lists are decoded back to protocol values (tuples, views),
    and a back-reference to the payload its file already holds.  A
    trailing partial line (a node killed mid-write) is skipped; an
    undecodable line anywhere else, or a back-reference anywhere but
    the payload of a ``gpsnd``/``gprcv``/``safe`` line or naming no
    earlier such line of its file, raises :class:`EventLogError`.
    """
    refs: list[Any] = []
    decoder = TaggedDecoder(labels={}, refs=refs)
    events: list[dict[str, Any]] = []
    for path in paths:
        torn: int | None = None
        #: seq -> the payload of the line of this file with that seq
        held: dict[int, Any] = {}
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
                args = entry["args"]
                carries = entry.get("ev") in _PAYLOAD_EVENTS and args
                if refs:
                    if not carries or len(refs) > 1 or args[0] is not refs[0]:
                        raise EventLogError(
                            f"{path}: line {number} holds a back-reference that "
                            f"is not the payload of a gpsnd, gprcv or safe"
                        )
                    seq = refs[0].get("v")
                    if type(seq) is not int or seq not in held:
                        raise EventLogError(
                            f"{path}: line {number} refers to seq {seq!r}, "
                            f"held by no earlier payload line of the log"
                        )
                    args[0] = held[seq]
                if carries and type(entry.get("seq")) is int:
                    held[entry["seq"]] = args[0]
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
