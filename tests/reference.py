"""Reference implementations the one path in ``src/`` is held to.

``src/`` keeps one way of doing each thing; the slower, more literal
way it replaced lives here and is patched in by the equivalence tests
(the ``test_token_trail`` pattern):

- :class:`LegacyVStoTOProcess` reconstructs the original O(order)
  VStoTO hot paths — linear ``label in order`` scans, per-call
  content-dict rebuilds, uncached summaries and copied ``buildorder``
  prefixes — by overriding exactly the indexed helpers the optimised
  :class:`~repro.core.vstoto.process.VStoTOProcess` introduced.
  ``tests/core/test_hotpath_equivalence.py`` compares the two stacks:
  same traces, same deliveries, same simulation events.
- :func:`full_order_tokens` makes every token hop carry the view's
  whole order again (the literal ``queue[g]``-on-the-token reading of
  Section 8) instead of the delta window ``RingMember._encode_for``
  builds.  ``tests/membership/test_delta_token.py`` holds the delta
  encoding to it: both deliver identical sequences.

Installed together they reproduce the full pre-overhaul stack.

The tagged-JSON decoder ``src/`` replaced — ``json.loads`` followed by
a recursive second pass over the document — is kept as
:func:`decode_value`, :func:`decode_message` and
:func:`load_event_logs`; ``tests/rt/test_decode_once.py`` holds
:class:`~repro.rt.framing.TaggedDecoder` and the loader to them.

:func:`check_vs_trace` is the batch VS trace checker ``src/`` replaced
with a feed of :class:`~repro.core.monitor.OnlineVSMonitor`.  It is a
reference, not a second oracle: ``tests/core/test_vs_oracle.py`` holds
the feed to it on generated traces and their single-edit mutants.

:func:`batch_status_merge` is the batch merge of a timed trace with the
failure-status history: one sort by ``(time, stream, index)``.
``tests/ioa/test_incremental_merge.py`` holds
:class:`~repro.ioa.timed.IncrementalStatusMerger` to it.
"""

from __future__ import annotations

import contextlib
import json
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path
from typing import Any
from unittest import mock

from repro.core.to_spec import FAILURE_STATUS_NAMES
from repro.core.types import BOTTOM, Label, View, ViewId, view_id_less
from repro.core.vs_spec import VS_INTERNALS, ProcId, VSTraceReport
from repro.core.vstoto import runtime as _runtime_mod
from repro.core.vstoto.process import VStoTOProcess
from repro.core.vstoto.summary import Summary
from repro.ioa.actions import Action
from repro.ioa.timed import TimedTrace
from repro.membership.messages import Token
from repro.membership.ring import RingMember
from repro.rt.framing import FrameError, lookup_wire_type
from repro.rt.trace import EventLogError


class LegacyVStoTOProcess(VStoTOProcess):
    """Behaviourally identical to :class:`VStoTOProcess`; only the
    asymptotics differ (O(order)/O(content) where the base class is
    O(1)/O(Δ))."""

    def _order_contains(self, label: Label) -> bool:
        return label in self.order

    def _order_append(self, label: Label) -> None:
        self.order.append(label)

    def _replace_order(self, labels: list[Label]) -> None:
        self.order = labels

    def _content_index(self) -> dict[Label, Any]:
        return {lab: value for lab, value in self.content}

    def _content_add(self, label: Label, value: Any) -> None:
        self.content.add((label, value))

    def state_summary(self) -> Summary:
        return Summary(
            con=frozenset(self.content),
            ord=tuple(self.order),
            next=self.nextconfirm,
            high=self.highprimary,
        )

    def _record_buildorder(self) -> None:
        if self.current is not BOTTOM:
            self.buildorder[self.current.id] = tuple(self.order)


@contextlib.contextmanager
def legacy_process_installed() -> Iterator[None]:
    """Make :class:`~repro.core.vstoto.runtime.VStoTORuntime` construct
    legacy processes for the duration of the block."""
    saved = _runtime_mod.VStoTOProcess
    _runtime_mod.VStoTOProcess = LegacyVStoTOProcess
    try:
        yield
    finally:
        _runtime_mod.VStoTOProcess = saved


def _encode_full_order(self: RingMember, successor: Any, token: Token) -> Token:
    """``RingMember._encode_for`` as it was with ``delta_token=False``:
    the window is passed through whole, never trimmed to the successor."""
    order = list(token.order)
    self.token_forwards += 1
    self.token_entries_sent += len(order)
    if len(order) > self.token_entries_max:
        self.token_entries_max = len(order)
    return Token(
        viewid=token.viewid,
        members=token.members,
        base=token.base,
        order=order,
        delivered=dict(token.delivered),
        safed=dict(token.safed),
        seen=dict(token.seen),
        trail=list(token.trail),
        hop=token.hop,
    )


def full_order_tokens() -> Any:
    """Patch the full-order-every-hop encoding in for a ``with`` block."""
    return mock.patch.object(RingMember, "_encode_for", _encode_full_order)


def decode_value(value: Any) -> Any:
    """``repro.rt.framing._dec``: the tagged grammar decoded by a
    recursive walk over a document ``json.loads`` already built."""
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    if not isinstance(value, dict):
        return value
    tag = value.get("!")
    if tag == "bot":
        return BOTTOM
    if tag == "t":
        return tuple(decode_value(v) for v in value["v"])
    if tag == "fs":
        return frozenset(decode_value(v) for v in value["v"])
    if tag == "d":
        return {decode_value(k): decode_value(v) for k, v in value["v"]}
    if tag == "view":
        return View(
            decode_value(value["id"]),
            frozenset(decode_value(p) for p in value["set"]),
        )
    if tag == "m":
        cls = lookup_wire_type(value["m"])
        if cls is None:
            raise FrameError(f"unknown wire type {value['m']!r}")
        return cls(**{k: decode_value(v) for k, v in value["f"].items()})
    raise FrameError(f"unknown codec tag {tag!r}")


def decode_message(payload: bytes) -> Any:
    """One tagged-JSON value read in two passes: ``json.loads``, then
    :func:`decode_value`."""
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"undecodable frame payload: {exc}") from exc
    return decode_value(doc)


def load_event_logs(paths: Iterable[str | Path]) -> list[dict[str, Any]]:
    """``repro.rt.trace.load_event_logs`` over :func:`decode_value`: one
    ``json.loads`` per line, then the argument list decoded."""
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
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    torn = number
                    continue
                entry["args"] = [decode_value(a) for a in entry["args"]]
                events.append(entry)
    events.sort(key=lambda e: (e["ts"], str(e["node"]), e["seq"]))
    return events


def check_vs_trace(
    trace: Sequence[Action],
    processors: Iterable[ProcId],
    initial_view: View,
) -> VSTraceReport:
    """``repro.core.vs_spec.check_vs_trace`` as a batch pass: decide
    whether an external action sequence could be a trace of VS-machine,
    by checking the properties that characterise its traces:

    - view discipline: per-location monotone view ids, self-inclusion,
      consistent membership per view id;
    - all receive/safe events occur in the sender's sending view
      (message integrity, Lemma 4.2(1));
    - per view, receive sequences at all destinations are prefixes of a
      common total order (the prefix property), and that order restricted
      to one sender is a prefix of that sender's send sequence in the
      view (no duplication, no reordering, no losses — Lemma 4.2(2-4));
    - safe events at q within a view form a prefix of the common order,
      and the k-th safe event happens only after every member's k-th
      receive (the safe precondition);
    - causality: the j-th receive of (m, p) in a view follows the j-th
      send by p in that view.
    """
    processors = tuple(processors)
    current: dict[ProcId, Any] = {
        p: (initial_view if p in initial_view.set else BOTTOM) for p in processors
    }
    membership_of: dict[ViewId, frozenset] = {initial_view.id: initial_view.set}

    sent: dict[tuple[ViewId, ProcId], list[Any]] = {}
    sent_index: dict[tuple[ViewId, ProcId], list[int]] = {}
    received: dict[tuple[ViewId, ProcId], list[tuple[Any, ProcId]]] = {}
    received_index: dict[tuple[ViewId, ProcId], list[int]] = {}
    safed: dict[tuple[ViewId, ProcId], list[tuple[Any, ProcId]]] = {}
    safed_index: dict[tuple[ViewId, ProcId], list[int]] = {}
    report = VSTraceReport(ok=True)

    def fail(reason: str) -> VSTraceReport:
        return VSTraceReport(ok=False, reason=reason)

    for index, action in enumerate(trace):
        name = action.name
        if name == "newview":
            view, p = action.args
            if p not in view.set:
                return fail(f"newview {view} at {p!r}: not a member (self-inclusion)")
            prior = current[p]
            if prior is not BOTTOM and not view_id_less(prior.id, view.id):
                return fail(
                    f"newview {view} at {p!r}: id not above current {prior.id!r} "
                    f"(local monotonicity)"
                )
            known = membership_of.get(view.id)
            if known is not None and known != view.set:
                return fail(f"view id {view.id!r} seen with two memberships")
            membership_of[view.id] = view.set
            current[p] = view
            report.views_seen.setdefault(view.id, view)
        elif name == "gpsnd":
            m, p = action.args
            view = current[p]
            if view is BOTTOM:
                continue  # sent before any view: ignored, never delivered
            sent.setdefault((view.id, p), []).append(m)
            sent_index.setdefault((view.id, p), []).append(index)
        elif name == "gprcv":
            m, p, q = action.args
            view = current[q]
            if view is BOTTOM:
                return fail(f"gprcv at {q!r} with no current view")
            received.setdefault((view.id, q), []).append((m, p))
            received_index.setdefault((view.id, q), []).append(index)
        elif name == "safe":
            m, p, q = action.args
            view = current[q]
            if view is BOTTOM:
                return fail(f"safe at {q!r} with no current view")
            safed.setdefault((view.id, q), []).append((m, p))
            safed_index.setdefault((view.id, q), []).append(index)
        elif name in VS_INTERNALS or name in FAILURE_STATUS_NAMES:
            continue
        else:
            return fail(f"unexpected action {action}")

    view_ids = {g for (g, _q) in received} | {g for (g, _q) in safed} | {
        g for (g, _p) in sent
    }
    for g in view_ids:
        # 1. prefix-consistency of receive sequences; compute the lub.
        common: list[tuple[Any, ProcId]] = []
        for q in processors:
            seq = received.get((g, q), [])
            limit = min(len(seq), len(common))
            if seq[:limit] != common[:limit]:
                return fail(
                    f"view {g!r}: receive order at {q!r} inconsistent with "
                    f"other members (prefix property)"
                )
            if len(seq) > len(common):
                common = list(seq)
        report.per_view_order[g] = common

        # 2. the common order restricted to sender p must be a prefix of
        # p's send sequence in g (no dup / no reorder / no loss).
        for p in processors:
            from_p = [m for (m, src) in common if src == p]
            sent_by_p = sent.get((g, p), [])
            if from_p != sent_by_p[: len(from_p)]:
                return fail(
                    f"view {g!r}: delivered sequence from {p!r} is not a "
                    f"prefix of its sends"
                )

        # 3. causality: the j-th delivery of p's messages in g follows
        # p's j-th send in g.
        for q in processors:
            seq = received.get((g, q), [])
            indices = received_index.get((g, q), [])
            per_sender_rank: dict[ProcId, int] = {}
            for (m, p), recv_at in zip(seq, indices):
                rank = per_sender_rank.get(p, 0)
                per_sender_rank[p] = rank + 1
                send_at = sent_index[(g, p)][rank]
                if send_at >= recv_at:
                    return fail(
                        f"view {g!r}: receive of {m!r} at {q!r} precedes "
                        f"its send by {p!r}"
                    )

        # 4. safe discipline.
        members = membership_of.get(g)
        for q in processors:
            sseq = safed.get((g, q), [])
            if not sseq:
                continue
            if members is None:
                return fail(f"safe events in unknown view {g!r}")
            if sseq != common[: len(sseq)]:
                return fail(
                    f"view {g!r}: safe sequence at {q!r} is not a prefix of "
                    f"the common order"
                )
            sidx = safed_index[(g, q)]
            for k, safe_at in enumerate(sidx, start=1):
                for r in members:
                    ridx = received_index.get((g, r), [])
                    if len(ridx) < k or ridx[k - 1] >= safe_at:
                        return fail(
                            f"view {g!r}: {k}-th safe at {q!r} precedes the "
                            f"{k}-th receive at member {r!r}"
                        )
    return report


def batch_status_merge(
    primary: TimedTrace, secondary: Sequence[Any]
) -> list[tuple[float, Action]]:
    """Merge a timed trace (stream 0) with status events (stream 1, duck
    typed: ``time``, ``status``, ``target``) by one stable sort on
    ``(time, stream, index)``, as ``(time, action)`` pairs.  A status
    event becomes the action named after its status whose arguments are
    its target, a tuple target spread out."""
    keyed = [(e.time, 0, i, e.action) for i, e in enumerate(primary.events)]
    for i, s in enumerate(secondary):
        args = s.target if isinstance(s.target, tuple) else (s.target,)
        keyed.append((s.time, 1, i, Action(s.status.value, args)))
    keyed.sort(key=lambda k: k[:3])
    return [(time, action) for time, _stream, _index, action in keyed]
