"""Lifecycle tracing: spans for messages, views and fault windows.

The paper's measured quantities are latency decompositions over message
and view lifecycles.  This module builds those lifecycles from the
stack's external events and is the one place the four timed quantities
are derived, for simulated and live runs alike: l′ and the Fig. 12
boundaries (:meth:`LifecycleTracer.timeline`), send→safe-everywhere
(:meth:`~LifecycleTracer.safe_latencies`) and bcast→delivered-everywhere
(:meth:`~LifecycleTracer.delivery_latencies`).  A tracer has one feed:
event entries, replayed offline by
:func:`repro.obs.live.stitch.stitch_events` — a live run's merged logs,
or a simulated run's recorded events.

Two span kinds:

- :class:`MessageSpan` — one VS-level message: ``gpsnd`` at the origin,
  ``gprcv`` per member, ``safe`` per member, plus (when the VStoTO
  runtime is on top) the TO-level ``bcast`` and per-member ``brcv``
  bracketing it.  Matching uses per-sender sequence positions within a
  view, exact because VS guarantees per-sender FIFO within a view.
- :class:`ViewSpan` — one view id: formation proposal (the
  ``formation`` event: the first ``NewGroup``/one-round announcement for
  the id), membership fix (``createview``), per-member ``newview``
  installation, and per-member state-exchange completion
  (``established``, the VStoTO establishment point).

Fault windows — a :class:`~repro.faults.schedule.FaultSchedule`'s, or
the live driver's partition and kill marks — are attached as
annotations (:class:`FaultAnnotation`), so an exported trace shows what
the nemesis was doing while a view was forming.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from collections.abc import Callable, Hashable, Iterable
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.core.types import View

ProcId = Hashable


@dataclass
class MessageSpan:
    """Lifecycle of one VS-level message."""

    payload: Any
    origin: ProcId
    viewid: Any
    #: position among the origin's sends in this view (0-based)
    seq: int
    bcast_at: float | None = None
    gpsnd_at: float | None = None
    gprcv_at: dict = field(default_factory=dict)   # member -> time
    safe_at: dict = field(default_factory=dict)    # member -> time
    brcv_at: dict = field(default_factory=dict)    # member -> time

    def start_time(self) -> float:
        if self.bcast_at is not None:
            return self.bcast_at
        return self.gpsnd_at if self.gpsnd_at is not None else inf

    def end_time(self) -> float:
        """Latest recorded lifecycle point (-inf when only sent)."""
        times = [
            *self.gprcv_at.values(),
            *self.safe_at.values(),
            *self.brcv_at.values(),
        ]
        return max(times, default=-inf)

    def safe_complete_at(self, members: Iterable[ProcId]) -> float | None:
        """When the message became safe at every member (None if not)."""
        return _latest_over(self.safe_at, members)

    def delivered_complete_at(
        self, members: Iterable[ProcId]
    ) -> float | None:
        """When the TO-level delivery completed at every member."""
        return _latest_over(self.brcv_at, members)


def _latest_over(times: dict, members: Iterable[ProcId] | None) -> float | None:
    """The latest of ``times`` over ``members``; None unless every
    member (of at least one) has a time."""
    found = [times.get(m) for m in members or ()]
    return None if None in found else max(found, default=None)


@dataclass
class ViewSpan:
    """Lifecycle of one view id."""

    viewid: Any
    members: frozenset | None = None
    initiator: ProcId | None = None
    #: first formation attempt (NewGroup broadcast / one-round announce)
    proposed_at: float | None = None
    #: membership fixed and Join announced (the createview point)
    announced_at: float | None = None
    newview_at: dict = field(default_factory=dict)      # member -> time
    established_at: dict = field(default_factory=dict)  # member -> time

    def start_time(self) -> float:
        for t in (self.proposed_at, self.announced_at):
            if t is not None:
                return t
        return min(self.newview_at.values(), default=inf)

    def end_time(self) -> float:
        times = [*self.newview_at.values(), *self.established_at.values()]
        return max(times, default=-inf)

    def installed_everywhere_at(self) -> float | None:
        """When every member had installed the view (None if some never
        did — e.g. the view was superseded mid-formation)."""
        return _latest_over(self.newview_at, self.members)


@dataclass(frozen=True)
class FaultAnnotation:
    """One nemesis activation window, for trace annotation."""

    kind: str
    name: str
    start: float
    stop: float


@dataclass(frozen=True)
class StatusEdge:
    """One VStoTO status transition (Fig. 9), for trace annotation and
    the scenario engine's protocol-state coverage."""

    time: float
    proc: ProcId
    old: str
    new: str


@dataclass(frozen=True)
class Timeline:
    """Boundaries of the Figure 12 decomposition α₀ α₁ α₃ α₄ of a
    stabilising execution (absolute times; ``inf`` when the phase never
    completed, and a run that never stabilised has ``inf`` lengths,
    never 0)."""

    #: end of α₀: the failure pattern stabilises (premise point l)
    l: float
    #: end of α₁: last ``newview`` at the group (VS settled)
    vs_settled_at: float
    #: end of α₃: every state-exchange summary of the final view safe
    exchange_safe_at: float
    final_view: View | None

    @property
    def alpha1_length(self) -> float:
        """Measured l′ — compare against b."""
        return self.vs_settled_at - self.l

    @property
    def alpha3_length(self) -> float:
        """Measured exchange-completion interval — compare against d."""
        return self.exchange_safe_at - self.vs_settled_at

    @property
    def total_stabilization(self) -> float:
        """Measured l′ + exchange interval — compare against b + d."""
        return self.exchange_safe_at - self.l


class LifecycleTracer:
    """Incremental span recorder for one execution.

    It has one feed, :func:`repro.obs.live.stitch.stitch_events`, which
    replays event entries in order through these entry points (each
    optional — the tracer degrades gracefully when a layer is absent,
    e.g. a bare :class:`TokenRingVS` without VStoTO):

    - :meth:`on_vs_event` for ``gpsnd``/``gprcv``/``safe``/``newview``;
    - :meth:`on_to_event` for ``bcast``/``brcv``;
    - :meth:`on_formation` / :meth:`on_createview` / :meth:`on_established`
      for the view-lifecycle events of the same names;
    - :meth:`on_fault_window` for fault windows.
    """

    def __init__(self) -> None:
        self.message_spans: list[MessageSpan] = []
        self.view_spans: dict[Any, ViewSpan] = {}
        self.faults: list[FaultAnnotation] = []
        self.status_edges: list[StatusEdge] = []
        #: events that could not be matched to a span (conformant
        #: executions leave this at zero; chaos debugging reads it)
        self.unmatched_events = 0
        self._current_view: dict[ProcId, Any] = {}   # proc -> View
        self._view_members: dict[Any, frozenset] = {}
        # (viewid, origin) -> spans in send order
        self._sends: dict[tuple, list[MessageSpan]] = {}
        # (viewid, origin, dst) -> next expected position, per event kind
        self._recv_pos: dict[tuple, int] = {}
        self._safe_pos: dict[tuple, int] = {}
        self._brcv_pos: dict[tuple, int] = {}
        # TO-level sends not yet matched to a gpsnd: (value, origin) ->
        # [times]; VStoTO labels each value exactly once at its origin.
        self._pending_bcast: dict[tuple, list[float]] = {}
        # (value, origin) -> spans carrying that value, in send order
        self._value_spans: dict[tuple, list[MessageSpan]] = {}

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def set_initial_view(self, view: View) -> None:
        """Seed per-processor current views from the service's v0."""
        self._view_members.setdefault(view.id, view.set)
        for p in view.set:
            self._current_view.setdefault(p, view)

    # ------------------------------------------------------------------
    # VS-level feed
    # ------------------------------------------------------------------
    def on_vs_event(self, time: float, name: str, args: tuple) -> None:
        if name == "gpsnd":
            payload, p = args
            self._on_gpsnd(time, payload, p)
        elif name == "gprcv":
            payload, src, dst = args
            self._on_lifecycle_point(time, payload, src, dst, "gprcv")
        elif name == "safe":
            payload, src, dst = args
            self._on_lifecycle_point(time, payload, src, dst, "safe")
        elif name == "newview":
            view, p = args
            self._on_newview(time, view, p)

    def _on_gpsnd(self, time: float, payload: Any, p: ProcId) -> None:
        view = self._current_view.get(p)
        if view is None:
            return  # sends with no view are ignored by the service
        key = (view.id, p)
        spans = self._sends.setdefault(key, [])
        span = MessageSpan(
            payload=payload,
            origin=p,
            viewid=view.id,
            seq=len(spans),
            gpsnd_at=time,
        )
        # Link the TO-level bcast that produced this send, if any: the
        # VStoTO payload is (label, value) with label.origin == p.
        value = _to_value(payload)
        if value is not _NO_VALUE:
            pending = self._pending_bcast.get((value, p))
            if pending:
                span.bcast_at = pending.pop(0)
            self._value_spans.setdefault((value, p), []).append(span)
        spans.append(span)
        self.message_spans.append(span)

    def _on_lifecycle_point(
        self, time: float, payload: Any, src: ProcId, dst: ProcId, kind: str
    ) -> None:
        view = self._current_view.get(dst)
        if view is None:
            self.unmatched_events += 1
            return
        positions = self._recv_pos if kind == "gprcv" else self._safe_pos
        key = (view.id, src, dst)
        index = positions.get(key, 0)
        spans = self._sends.get((view.id, src), ())
        if index >= len(spans):
            self.unmatched_events += 1
            return
        positions[key] = index + 1
        span = spans[index]
        target = span.gprcv_at if kind == "gprcv" else span.safe_at
        target.setdefault(dst, time)

    def _on_newview(self, time: float, view: View, p: ProcId) -> None:
        self._current_view[p] = view
        self._view_members.setdefault(view.id, view.set)
        span = self._view_span(view.id)
        if span.members is None:
            span.members = view.set
        span.newview_at.setdefault(p, time)

    # ------------------------------------------------------------------
    # TO-level feed (VStoTO runtime)
    # ------------------------------------------------------------------
    def on_to_event(self, time: float, name: str, args: tuple) -> None:
        if name == "bcast":
            value, p = args
            self._pending_bcast.setdefault((value, p), []).append(time)
        elif name == "brcv":
            value, origin, dst = args
            self._on_brcv(time, value, origin, dst)

    def _on_brcv(
        self, time: float, value: Any, origin: ProcId, dst: ProcId
    ) -> None:
        # The TO order is a single cross-view sequence; match the k-th
        # brcv of (value, origin) at dst to the k-th span carrying that
        # value from that origin, across views in send order.
        key = (value, origin, dst)
        index = self._brcv_pos.get(key, 0)
        matches = self._value_spans.get((value, origin), ())
        if index >= len(matches):
            self.unmatched_events += 1
            return
        self._brcv_pos[key] = index + 1
        matches[index].brcv_at.setdefault(dst, time)

    # ------------------------------------------------------------------
    # Protocol-internal feeds
    # ------------------------------------------------------------------
    def on_formation(
        self, time: float, viewid: Any, initiator: ProcId
    ) -> None:
        """A formation round started for ``viewid`` (first attempt wins)."""
        span = self._view_span(viewid)
        if span.proposed_at is None:
            span.proposed_at = time
            span.initiator = initiator

    def on_createview(
        self, time: float, viewid: Any, members: frozenset
    ) -> None:
        """Membership fixed; the Join announcement is going out."""
        span = self._view_span(viewid)
        if span.announced_at is None:
            span.announced_at = time
        span.members = frozenset(members)

    def on_established(self, time: float, viewid: Any, p: ProcId) -> None:
        """State exchange completed at ``p`` for ``viewid``."""
        self._view_span(viewid).established_at.setdefault(p, time)

    def on_fault_window(
        self, kind: str, name: str, start: float, stop: float
    ) -> None:
        self.faults.append(FaultAnnotation(kind, name, start, stop))

    def on_status_edge(
        self, time: float, proc: ProcId, old: str, new: str
    ) -> None:
        """A VStoTO status transition at ``proc``.  No feed calls it:
        status edges are no logged events."""
        self.status_edges.append(StatusEdge(time, proc, old, new))

    def _view_span(self, viewid: Any) -> ViewSpan:
        span = self.view_spans.get(viewid)
        if span is None:
            span = ViewSpan(viewid=viewid)
            self.view_spans[viewid] = span
        return span

    # ------------------------------------------------------------------
    # The paper's timed quantities (b, d and Fig. 12), one reader each
    # ------------------------------------------------------------------
    def safe_latencies(
        self, viewid: Any = None, members: Iterable[ProcId] | None = None
    ) -> list[tuple[float, float]]:
        """(gpsnd_at, safe-at-every-member_at) per message that got
        there — the d = 2π + nδ measurement.  ``viewid`` keeps one
        view's sends; ``members`` defaults to the sending view's."""
        group = None if members is None else tuple(members)
        return [
            (span.gpsnd_at, done)
            for span in self.message_spans
            if (viewid is None or span.viewid == viewid)
            and (done := span.safe_complete_at(self._members(span, group)))
            is not None
        ]

    def delivery_latencies(
        self, group: Iterable[ProcId] | None = None, after: float = 0.0
    ) -> list[tuple[float, float]]:
        """(bcast_at, delivered-at-every-member_at) per TO message
        broadcast at or after ``after`` — the Theorem 7.2 end-to-end
        measurement.  ``group`` defaults to the sending view's members."""
        group = None if group is None else tuple(group)
        return [
            (span.bcast_at, done)
            for span in self.message_spans
            if span.bcast_at is not None
            and span.bcast_at >= after
            and (done := span.delivered_complete_at(self._members(span, group)))
            is not None
        ]

    def _members(self, span: MessageSpan, group: tuple | None) -> Iterable:
        return self._view_members[span.viewid] if group is None else group

    def timeline(
        self,
        group: Iterable[ProcId],
        stable_at: float,
        is_summary: Callable[[Any], bool] | None = None,
    ) -> Timeline:
        """The Fig. 12 boundaries for ``group``, given that the failure
        pattern is stable from ``stable_at`` on.  ``alpha1_length`` is
        l′ (compare b = 9δ + max{π+(n+3)δ, μ}): the last ``newview`` at
        the group after ``stable_at``, and ``inf`` unless the group has
        converged on one view whose membership is exactly ``group``.
        With ``is_summary`` (the full stack passes
        :func:`repro.core.vstoto.process.is_summary`) the α₃ boundary is
        filled in as well."""
        group = frozenset(group)
        views = {self._current_view.get(p) for p in group}
        final = views.pop() if len(views) == 1 else None
        if final is None or final.set != group:
            return Timeline(stable_at, inf, inf, final)
        settled = stable_at
        for span in self.view_spans.values():
            for p, t in span.newview_at.items():
                if p in group and t > stable_at:
                    settled = max(settled, t)
        exchange = inf
        if is_summary is not None:
            exchange = max(settled, self.exchange_safe_at(final, is_summary))
        return Timeline(stable_at, settled, exchange, final)

    def exchange_safe_at(
        self, view: View, is_summary: Callable[[Any], bool]
    ) -> float:
        """When every member's state-exchange summary sent in ``view``
        was safe at every member (the end of α₃); ``inf`` if never."""
        latest = -inf
        for p in view.set:
            sends = self._sends.get((view.id, p), ())
            first = next((s for s in sends if is_summary(s.payload)), None)
            done = None if first is None else first.safe_complete_at(view.set)
            if done is None:
                return inf
            latest = max(latest, done)
        return latest


_NO_VALUE = object()


def _to_value(payload: Any) -> Any:
    """The TO-level value inside a VS payload, when it has the VStoTO
    ``(label, value)`` shape (labels have an ``origin`` attribute);
    ``_NO_VALUE`` otherwise (summaries, raw payloads)."""
    if (
        isinstance(payload, tuple)
        and len(payload) == 2
        and hasattr(payload[0], "origin")
    ):
        return payload[1]
    return _NO_VALUE
