"""The VS specification (Section 4): *VS-machine*, *WeakVS-machine*,
the trace check for the Lemma 4.2 properties, and
*VS-property(b, d, Q)* (Fig. 7).

:func:`check_vs_trace` has no checking logic of its own: it feeds the
trace through :class:`~repro.core.monitor.OnlineVSMonitor`, the one
implementation of the VS trace properties.

Action encoding (paper subscripts become trailing parameters; the source
location precedes the destination, as in the paper's ``gprcv(m)_{p,q}``):

- ``act("gpsnd", m, p)`` — client at p sends message m (input);
- ``act("gprcv", m, p, q)`` — m from p delivered at q (output);
- ``act("safe", m, p, q)`` — safe notification at q for m from p (output);
- ``act("newview", v, p)`` — view v reported at p, with p in v.set (output);
- ``act("createview", v)`` — internal;
- ``act("vs-order", m, p, g)`` — internal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Hashable, Iterable, Iterator, Sequence
from typing import Any

from repro.core.monitor import OnlineVSMonitor
from repro.core.to_spec import FAILURE_STATUS_NAMES, find_stabilization_point
from repro.core.types import BOTTOM, View, ViewId, view_id_less
from repro.ioa.actions import Action, Signature, act
from repro.ioa.automaton import Automaton
from repro.ioa.timed import TimedTrace

ProcId = Hashable

VS_INPUTS = frozenset({"gpsnd"})
VS_OUTPUTS = frozenset({"gprcv", "safe", "newview"})
VS_INTERNALS = frozenset({"createview", "vs-order"})
VS_EXTERNAL = VS_INPUTS | VS_OUTPUTS


class VSMachine(Automaton):
    """The VS-machine of Fig. 6.

    Parameters
    ----------
    processors:
        The paper's set P.
    initial_members:
        P0, the membership of the distinguished initial view v0.  The
        hybrid initial-view rule: processors in P0 start with current
        view v0; the rest start with current view bottom.
    g0:
        The minimal view identifier.

    View creation is unboundedly nondeterministic in the spec; for
    driving runs, candidate views are queued with :meth:`offer_view` and
    surface as enabled ``createview`` actions.
    """

    #: When True (VS-machine), createview requires the new id to exceed
    #: every created id; when False (WeakVS-machine), only uniqueness.
    REQUIRE_ORDERED_CREATION = True

    def __init__(
        self,
        processors: Iterable[ProcId],
        initial_members: Iterable[ProcId] | None = None,
        g0: ViewId = 0,
        name: str = "VS-machine",
    ) -> None:
        self.name = name
        self.signature = Signature(
            inputs=VS_INPUTS, outputs=VS_OUTPUTS, internals=VS_INTERNALS
        )
        self.processors: tuple[ProcId, ...] = tuple(processors)
        members = (
            frozenset(initial_members)
            if initial_members is not None
            else frozenset(self.processors)
        )
        unknown = members - set(self.processors)
        if unknown:
            raise ValueError(f"initial members not in P: {sorted(map(str, unknown))}")
        self.initial_view = View(g0, members)
        # created ⊆ views, initially {⟨g0, P0⟩}.
        self.created: dict[ViewId, View] = {g0: self.initial_view}
        # current-viewid[p] ∈ G⊥.
        self.current_viewid: dict[ProcId, ViewId] = {
            p: (g0 if p in members else BOTTOM) for p in self.processors
        }
        # pending[p, g], queue[g], next[p, g], next-safe[p, g].
        self.pending: dict[tuple[ProcId, ViewId], list[Any]] = {}
        self.queue: dict[ViewId, list[tuple[Any, ProcId]]] = {}
        self.next: dict[tuple[ProcId, ViewId], int] = {}
        self.next_safe: dict[tuple[ProcId, ViewId], int] = {}
        #: externally offered candidate views for createview
        self.view_candidates: list[View] = []

    # ------------------------------------------------------------------
    # Helpers (default-1 indices, default-empty sequences)
    # ------------------------------------------------------------------
    def get_pending(self, p: ProcId, g: ViewId) -> list[Any]:
        return self.pending.setdefault((p, g), [])

    def get_queue(self, g: ViewId) -> list[tuple[Any, ProcId]]:
        return self.queue.setdefault(g, [])

    def get_next(self, p: ProcId, g: ViewId) -> int:
        return self.next.get((p, g), 1)

    def get_next_safe(self, p: ProcId, g: ViewId) -> int:
        return self.next_safe.get((p, g), 1)

    def offer_view(self, members: Iterable[ProcId], vid: ViewId | None = None) -> View:
        """Queue a candidate view for the internal createview action."""
        if vid is None:
            existing = list(self.created) + [v.id for v in self.view_candidates]
            vid = max(existing) + 1 if existing else 0
        view = View(vid, frozenset(members))
        self.view_candidates.append(view)
        return view

    def current_view(self, p: ProcId) -> Any:
        """The current view at p: a :class:`View`, or BOTTOM."""
        g = self.current_viewid[p]
        if g is BOTTOM:
            return BOTTOM
        return self.created[g]

    # ------------------------------------------------------------------
    def _createview_enabled(self, view: View) -> bool:
        if view.id in self.created:
            return False
        if self.REQUIRE_ORDERED_CREATION:
            return all(view_id_less(w, view.id) for w in self.created)
        return True

    def is_enabled(self, action: Action) -> bool:
        name = action.name
        if name == "gpsnd":
            return True  # input
        if name == "createview":
            (view,) = action.args
            return self._createview_enabled(view)
        if name == "newview":
            view, p = action.args
            if p not in view.set:
                return False  # signature constraint
            if view.id not in self.created or self.created[view.id] != view:
                return False
            current = self.current_viewid[p]
            return current is BOTTOM or view_id_less(current, view.id)
        if name == "vs-order":
            m, p, g = action.args
            pending = self.pending.get((p, g), [])
            return bool(pending) and pending[0] == m
        if name == "gprcv":
            m, p, q = action.args
            g = self.current_viewid[q]
            if g is BOTTOM:
                return False
            queue = self.queue.get(g, [])
            index = self.get_next(q, g)
            return index <= len(queue) and queue[index - 1] == (m, p)
        if name == "safe":
            m, p, q = action.args
            g = self.current_viewid[q]
            if g is BOTTOM or g not in self.created:
                return False
            members = self.created[g].set
            queue = self.queue.get(g, [])
            index = self.get_next_safe(q, g)
            if index > len(queue) or queue[index - 1] != (m, p):
                return False
            return all(self.get_next(r, g) > index for r in members)
        return False

    def apply(self, action: Action) -> None:
        name = action.name
        if name == "gpsnd":
            m, p = action.args
            g = self.current_viewid[p]
            if g is not BOTTOM:
                self.get_pending(p, g).append(m)
        elif name == "createview":
            (view,) = action.args
            self.created[view.id] = view
            if view in self.view_candidates:
                self.view_candidates.remove(view)
        elif name == "newview":
            view, p = action.args
            self.current_viewid[p] = view.id
        elif name == "vs-order":
            m, p, g = action.args
            self.pending[(p, g)].pop(0)
            self.get_queue(g).append((m, p))
        elif name == "gprcv":
            m, p, q = action.args
            g = self.current_viewid[q]
            self.next[(q, g)] = self.get_next(q, g) + 1
        elif name == "safe":
            m, p, q = action.args
            g = self.current_viewid[q]
            self.next_safe[(q, g)] = self.get_next_safe(q, g) + 1

    def enabled_actions(self) -> Iterator[Action]:
        for view in list(self.view_candidates):
            if self._createview_enabled(view):
                yield act("createview", view)
        for view in self.created.values():
            # P's order, not the frozenset's: a str set iterates in hash
            # order, which would make seeded schedules vary by hash seed.
            for p in self.processors:
                if p not in view.set:
                    continue
                current = self.current_viewid[p]
                if current is BOTTOM or view_id_less(current, view.id):
                    yield act("newview", view, p)
        for (p, g), pending in self.pending.items():
            if pending:
                yield act("vs-order", pending[0], p, g)
        for q in self.processors:
            g = self.current_viewid[q]
            if g is BOTTOM:
                continue
            queue = self.queue.get(g, [])
            index = self.get_next(q, g)
            if index <= len(queue):
                m, p = queue[index - 1]
                yield act("gprcv", m, p, q)
            safe_index = self.get_next_safe(q, g)
            if g in self.created and safe_index <= len(queue):
                members = self.created[g].set
                if all(self.get_next(r, g) > safe_index for r in members):
                    m, p = queue[safe_index - 1]
                    yield act("safe", m, p, q)


class WeakVSMachine(VSMachine):
    """WeakVS-machine (the Remark in Section 4.1): createview only
    requires *unique* ids, not in-order creation.  Equivalent to
    VS-machine in the sense of finite-trace equality."""

    REQUIRE_ORDERED_CREATION = False

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        kwargs.setdefault("name", "WeakVS-machine")
        super().__init__(*args, **kwargs)


# ----------------------------------------------------------------------
# The WeakVS → VS reordering argument (Section 8)
# ----------------------------------------------------------------------
def reorder_weak_execution(actions: Sequence[Action]) -> list[Action]:
    """Reorder a WeakVS-machine action sequence into a VS-machine one.

    The Section 8 correctness sketch: WeakVS-machine and VS-machine have
    the same traces because ``createview`` events are internal and can
    be pushed "earlier than any createview event for a bigger view".
    This function performs that reordering executably: createview
    actions are re-emitted in increasing view-id order, each no later
    than its first dependent use — every other action keeps its relative
    order, so the external trace is untouched.

    The result replays verbatim on a VS-machine (validated in the test
    suite), which is the constructive content of the equivalence claim.
    """
    create_of: dict[Any, Action] = {}
    for action in actions:
        if action.name == "createview":
            (view,) = action.args
            create_of[view.id] = action
    pending_ids = sorted(create_of, key=lambda vid: (vid,))
    emitted: set[Any] = set()
    result: list[Action] = []

    def emit_creates_up_to(vid: Any) -> None:
        for candidate in pending_ids:
            if candidate in emitted:
                continue
            if candidate < vid or candidate == vid:
                emitted.add(candidate)
                result.append(create_of[candidate])

    for action in actions:
        if action.name == "createview":
            continue  # re-emitted at its dependency point
        if action.name == "newview":
            view, _p = action.args
            if view.id in create_of and view.id not in emitted:
                emit_creates_up_to(view.id)
        result.append(action)
    for candidate in pending_ids:
        if candidate not in emitted:
            emitted.add(candidate)
            result.append(create_of[candidate])
    return result


# ----------------------------------------------------------------------
# Trace-level checking (Lemma 4.2 properties + view discipline)
# ----------------------------------------------------------------------
@dataclass
class VSTraceReport:
    """Result of :func:`check_vs_trace`.

    ``per_view_order`` maps the id of v0 and of each installed view to
    the lub of receive sequences observed within that view (the
    externally observable part of ``queue[g]``); ``views_seen`` holds
    each view installed by a ``newview``.
    """

    ok: bool
    reason: str = ""
    per_view_order: dict = field(default_factory=dict)
    views_seen: dict = field(default_factory=dict)


def check_vs_trace(
    trace: Sequence[Action],
    processors: Iterable[ProcId],
    initial_view: View,
) -> VSTraceReport:
    """Decide whether an external action sequence could be a trace of
    VS-machine: feed it through :class:`OnlineVSMonitor`, the one
    statement of the properties that characterise its traces (view
    discipline and Lemma 4.2), and report the monitor's first violation.

    Internal and failure-status actions are skipped; any other action
    outside the VS signature fails the trace.
    """
    monitor = OnlineVSMonitor(processors, initial_view, strict=False)
    feeds: dict[str, Callable[..., None]] = {
        "newview": monitor.on_newview,
        "gpsnd": monitor.on_gpsnd,
        "gprcv": monitor.on_gprcv,
        "safe": monitor.on_safe,
    }
    views_seen: dict[ViewId, View] = {}
    for action in trace:
        feed = feeds.get(action.name)
        if feed is None:
            if action.name in VS_INTERNALS or action.name in FAILURE_STATUS_NAMES:
                continue
            return VSTraceReport(ok=False, reason=f"unexpected action {action}")
        feed(*action.args)
        if monitor.violations:
            return VSTraceReport(ok=False, reason=monitor.violations[0])
        if action.name == "newview":
            view = action.args[0]
            views_seen.setdefault(view.id, view)
    return VSTraceReport(
        ok=True,
        per_view_order={g: state.common_order for g, state in monitor.views.items()},
        views_seen=views_seen,
    )


# ----------------------------------------------------------------------
# VS-property(b, d, Q)  (Fig. 7)
# ----------------------------------------------------------------------
@dataclass
class VSPropertyReport:
    """Evaluation of VS-property(b, d, Q) on one timed trace."""

    holds: bool
    reason: str = ""
    stabilization_l: float = 0.0
    #: measured l' — time after l until the last newview at Q plus view
    #: agreement (the membership-stabilisation interval, compare b)
    l_prime_measured: float = 0.0
    final_view: View | None = None
    #: worst observed send→all-safe latency relative to max(t, l + l')
    max_safe_latency: float = 0.0
    obligations: int = 0
    fulfilled: int = 0


class VSPropertyChecker:
    """Checks VS-property(b, d, Q) (Fig. 7) on an admissible timed trace
    containing VS external actions and failure-status actions."""

    def __init__(self, b: float, d: float, group: Iterable[ProcId]) -> None:
        if b < 0 or d < 0:
            raise ValueError("b and d must be nonnegative")
        self.b = b
        self.d = d
        self.group = frozenset(group)

    def check(
        self,
        trace: TimedTrace,
        processors: Sequence[ProcId],
        initial_view: View,
    ) -> VSPropertyReport:
        untimed = [e.action for e in trace.events if e.action.name in VS_EXTERNAL]
        safety = check_vs_trace(untimed, processors, initial_view)
        if not safety.ok:
            return VSPropertyReport(holds=False, reason=f"safety: {safety.reason}")

        l = find_stabilization_point(trace, self.group, processors)
        if l is None:
            return VSPropertyReport(holds=True, reason="premise vacuous")

        # Find l'_min: after l + l' there are no newview events at Q and
        # the latest views at Q agree on ⟨g, Q⟩.
        last_newview_at_q = l
        latest_view: dict[ProcId, Any] = {
            p: (initial_view if p in initial_view.set else None)
            for p in self.group
        }
        for event in trace.events:
            if event.action.name != "newview":
                continue
            view, p = event.action.args
            if p in self.group:
                latest_view[p] = view
                if event.time > l:
                    last_newview_at_q = max(last_newview_at_q, event.time)

        views = set(latest_view.values())
        if len(views) != 1:
            return VSPropertyReport(
                holds=False,
                reason=f"members of Q end in different views: {views}",
                stabilization_l=l,
            )
        final_view = views.pop()
        if final_view is None or final_view.set != self.group:
            return VSPropertyReport(
                holds=False,
                reason=f"final view {final_view} does not have membership Q",
                stabilization_l=l,
            )
        l_prime = last_newview_at_q - l
        report = VSPropertyReport(
            holds=True,
            stabilization_l=l,
            l_prime_measured=l_prime,
            final_view=final_view,
        )
        if l_prime > self.b + 1e-9:
            report.holds = False
            report.reason = (
                f"membership stabilisation took {l_prime:.6g} > b = {self.b:.6g}"
            )
            return report

        # Clause (d) with l' = b (sound: deadlines are monotone in l').
        deadline_base = l + self.b
        g = final_view.id

        # j-th gpsnd by p while in view g  <->  j-th safe event with
        # source p at each q whose current view is g.
        current: dict[ProcId, Any] = {
            p: (initial_view if p in initial_view.set else BOTTOM)
            for p in processors
        }
        send_times: dict[ProcId, list[float]] = {}
        safe_times: dict[tuple[ProcId, ProcId], list[float]] = {}
        for event in trace.events:
            name = event.action.name
            if name == "newview":
                view, p = event.action.args
                current[p] = view
            elif name == "gpsnd":
                m, p = event.action.args
                view = current[p]
                if view is not BOTTOM and view.id == g and p in self.group:
                    send_times.setdefault(p, []).append(event.time)
            elif name == "safe":
                m, p, q = event.action.args
                view = current[q]
                if view is not BOTTOM and view.id == g:
                    safe_times.setdefault((p, q), []).append(event.time)

        for p, times in send_times.items():
            for j, t in enumerate(times):
                deadline = max(t, deadline_base) + self.d
                for q in self.group:
                    report.obligations += 1
                    q_safes = safe_times.get((p, q), [])
                    if len(q_safes) <= j or q_safes[j] > deadline + 1e-9:
                        report.holds = False
                        report.reason = (
                            f"clause (d): send #{j + 1} by {p!r} in view "
                            f"{g!r} at t={t:.6g} not safe at {q!r} by "
                            f"{deadline:.6g}"
                        )
                    else:
                        report.fulfilled += 1
                        lateness = q_safes[j] - max(t, deadline_base)
                        report.max_safe_latency = max(
                            report.max_safe_latency, lateness
                        )
        return report
