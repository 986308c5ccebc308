"""Online runtime verification of the VS interface — the one
implementation of the VS trace properties.

Feed :class:`OnlineVSMonitor` each VS event as it happens and it raises
(or records, in permissive mode) at the **first** non-conformant event —
which is how a deployed system would embed the specification as a
runtime monitor.  :func:`repro.core.vs_spec.check_vs_trace` decides a
complete trace after the fact by feeding it through this monitor.

Checked online, per event:

- ``newview``: self-inclusion, per-location id monotonicity, consistent
  membership per view id;
- ``gprcv``: the receiver has a view; within (view, destination) the
  receive extends a prefix of the view's common order (the monitor
  maintains the lub of receive sequences and flags divergence); the
  per-sender subsequence extends that sender's sends in the view
  (integrity + FIFO + no-dup + no-loss + causality, i.e. Lemma 4.2);
- ``safe``: safe events form a prefix of the common order and the k-th
  safe at q happens only after the k-th receive at every member.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Hashable, Iterable
from typing import Any

from repro.core.types import BOTTOM, View, view_id_less

ProcId = Hashable


class VSConformanceError(AssertionError):
    """An event contradicted the VS specification."""


@dataclass
class _ViewState:
    """Per-view bookkeeping."""

    membership: frozenset
    common_order: list = field(default_factory=list)
    sent: dict = field(default_factory=dict)        # sender -> [payload]
    received: dict = field(default_factory=dict)    # dest -> count
    safed: dict = field(default_factory=dict)       # dest -> count
    #: sender -> number of that sender's entries in common_order; a
    #: running cursor so extending the order is O(1) instead of a
    #: rescan of the whole order per receive.
    order_rank: dict = field(default_factory=dict)


class OnlineVSMonitor:
    """Incremental VS conformance monitor.

    Parameters
    ----------
    processors, initial_view:
        The system configuration (P and v0).
    strict:
        When True (default) violations raise
        :class:`VSConformanceError`; otherwise they are appended to
        :attr:`violations` and checking continues.
    """

    def __init__(
        self,
        processors: Iterable[ProcId],
        initial_view: View,
        strict: bool = True,
    ) -> None:
        self.processors = tuple(processors)
        self.strict = strict
        self.current: dict[ProcId, Any] = {
            p: (initial_view if p in initial_view.set else BOTTOM)
            for p in self.processors
        }
        self.views: dict[Any, _ViewState] = {
            initial_view.id: _ViewState(membership=initial_view.set)
        }
        self.events_checked = 0
        self.violations: list[str] = []

    # ------------------------------------------------------------------
    def _fail(self, message: str) -> None:
        self.violations.append(message)
        if self.strict:
            raise VSConformanceError(message)

    def _view_state(self, view: View) -> _ViewState:
        state = self.views.get(view.id)
        if state is None:
            state = _ViewState(membership=view.set)
            self.views[view.id] = state
        elif state.membership != view.set:
            self._fail(
                f"view id {view.id!r} seen with two memberships "
                f"{sorted(map(str, state.membership))} and "
                f"{sorted(map(str, view.set))}"
            )
        return state

    # ------------------------------------------------------------------
    # Event feeds
    # ------------------------------------------------------------------
    def on_newview(self, view: View, p: ProcId) -> None:
        self.events_checked += 1
        if p not in view.set:
            self._fail(f"newview {view} at non-member {p!r} (self-inclusion)")
            return
        prior = self.current[p]
        if prior is not BOTTOM and not view_id_less(prior.id, view.id):
            self._fail(
                f"newview at {p!r}: id {view.id!r} not above current "
                f"{prior.id!r} (local monotonicity)"
            )
            return
        self._view_state(view)
        self.current[p] = view

    def on_gpsnd(self, payload: Any, p: ProcId) -> None:
        self.events_checked += 1
        view = self.current[p]
        if view is BOTTOM:
            return  # ignored by the service; nothing to track
        state = self._view_state(view)
        state.sent.setdefault(p, []).append(payload)

    def on_gprcv(self, payload: Any, src: ProcId, dst: ProcId) -> None:
        self.events_checked += 1
        view = self.current[dst]
        if view is BOTTOM:
            self._fail(f"gprcv at {dst!r} with no current view")
            return
        state = self._view_state(view)
        index = state.received.get(dst, 0)
        entry = (payload, src)
        if index < len(state.common_order):
            if state.common_order[index] != entry:
                self._fail(
                    f"view {view.id!r}: receive #{index + 1} at {dst!r} is "
                    f"{entry!r}, other members saw "
                    f"{state.common_order[index]!r}"
                )
                return
        else:
            # dst extends the common order; validate against src's sends.
            rank = state.order_rank.get(src, 0)
            sent = state.sent.get(src, [])
            if rank >= len(sent) or sent[rank] != payload:
                self._fail(
                    f"view {view.id!r}: receive of {payload!r} from {src!r} "
                    f"at {dst!r} does not extend the sender's send sequence"
                )
                return
            state.common_order.append(entry)
            state.order_rank[src] = rank + 1
        state.received[dst] = index + 1

    def on_safe(self, payload: Any, src: ProcId, dst: ProcId) -> None:
        self.events_checked += 1
        view = self.current[dst]
        if view is BOTTOM:
            self._fail(f"safe at {dst!r} with no current view")
            return
        state = self._view_state(view)
        index = state.safed.get(dst, 0)
        if index >= len(state.common_order) or state.common_order[index] != (
            payload,
            src,
        ):
            self._fail(
                f"view {view.id!r}: safe #{index + 1} at {dst!r} is not the "
                f"next common-order entry"
            )
            return
        for member in state.membership:
            if state.received.get(member, 0) <= index:
                self._fail(
                    f"view {view.id!r}: safe #{index + 1} at {dst!r} before "
                    f"member {member!r} received entry #{index + 1}"
                )
                return
        state.safed[dst] = index + 1

    # ------------------------------------------------------------------
    def attach(self, service: Any) -> None:
        """Install the monitor in front of a TokenRingVS's callbacks,
        preserving any existing sinks."""
        old_gprcv, old_safe = service.on_gprcv, service.on_safe
        old_newview = service.on_newview

        def gprcv(payload: Any, src: ProcId, dst: ProcId) -> None:
            self.on_gprcv(payload, src, dst)
            if old_gprcv:
                old_gprcv(payload, src, dst)

        def safe(payload: Any, src: ProcId, dst: ProcId) -> None:
            self.on_safe(payload, src, dst)
            if old_safe:
                old_safe(payload, src, dst)

        def newview(view: View, p: ProcId) -> None:
            self.on_newview(view, p)
            if old_newview:
                old_newview(view, p)

        service.on_gprcv = gprcv
        service.on_safe = safe
        service.on_newview = newview
        original_gpsnd = service.gpsnd

        def gpsnd(p: ProcId, payload: Any) -> None:
            self.on_gpsnd(payload, p)
            original_gpsnd(p, payload)

        service.gpsnd = gpsnd

    @property
    def ok(self) -> bool:
        return not self.violations
