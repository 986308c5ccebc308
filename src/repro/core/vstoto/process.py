"""``VStoTO_p`` (Figs. 9 and 10) and the Section 7 timed wrapper.

Action encoding (location subscripts become trailing parameters, source
before destination as in the paper):

- ``act("bcast", a, p)`` — input from the client at p;
- ``act("brcv", a, q, p)`` — output: value a originated at q delivered
  to the client at p (the paper's ``brcv(a)_{q,p}``);
- ``act("label", a, p)``, ``act("confirm", p)`` — internal;
- ``act("gpsnd", m, p)`` — output to VS;
- ``act("gprcv", m, q, p)`` / ``act("safe", m, q, p)`` — inputs from VS
  (m from q delivered/safe at p);
- ``act("newview", v, p)`` — input from VS.

Messages m are either ordinary ``(label, value)`` pairs or
:class:`~repro.core.vstoto.summary.Summary` records, exactly the paper's
``(L x A) ∪ summaries``.

Every per-location automaton declares the same action *names*; instances
are distinguished by the location parameter, and an instance ignores
input actions addressed to other locations (equivalent to the paper's
per-subscript signatures).

One deviation from the letter of Fig. 10, documented in DESIGN.md: the
ordinary-message ``gprcv`` appends the label to ``order`` only when it is
not already present.  A label can already be present when its creator
labelled it between ``newview`` and its state-exchange send, putting it
into the summary's ``con`` and hence into ``fullorder`` before the
ordinary message arrives; an unconditional append would duplicate it.

The module also keeps the two history variables of Section 6
(``established[p, g]`` and ``buildorder[p, g]``), maintained exactly
where the paper inserts them; they do not influence behaviour.
"""

from __future__ import annotations

import enum
from collections.abc import Hashable, Iterator
from typing import Any

from repro.core.quorums import QuorumSystem
from repro.core.types import BOTTOM, Label, View, ViewId
from repro.core.vstoto.summary import (
    SharedOrderPrefix,
    Summary,
    fullorder,
    maxnextconfirm,
    maxprimary,
    shortorder,
)
from repro.ioa.actions import Action, Signature, act
from repro.ioa.automaton import Automaton

ProcId = Hashable

VSTOTO_INPUTS = frozenset({"bcast", "gprcv", "safe", "newview"})
VSTOTO_OUTPUTS = frozenset({"gpsnd", "brcv"})
VSTOTO_INTERNALS = frozenset({"label", "confirm"})


class Status(enum.Enum):
    """Processing status (Fig. 9): normal, or the two phases of the
    first stage of recovery."""

    NORMAL = "normal"
    SEND = "send"
    COLLECT = "collect"


def is_summary(message: Any) -> bool:
    return isinstance(message, Summary)


class VStoTOProcess(Automaton):
    """The automaton ``VStoTO_p`` for one location p.

    Parameters
    ----------
    proc_id:
        The location p.
    quorums:
        The fixed quorum system Q; a view is *primary* when its
        membership contains a quorum.
    initial_view:
        The distinguished initial view v0 = (g0, P0).  If p is in P0 the
        process starts in v0 with highprimary g0, otherwise both start
        bottom (the hybrid initial-view rule).
    """

    def __init__(
        self,
        proc_id: ProcId,
        quorums: QuorumSystem,
        initial_view: View,
    ) -> None:
        self.name = f"VStoTO_{proc_id}"
        self.signature = Signature(
            inputs=VSTOTO_INPUTS,
            outputs=VSTOTO_OUTPUTS,
            internals=VSTOTO_INTERNALS,
        )
        self.proc_id = proc_id
        self.quorums = quorums
        in_p0 = proc_id in initial_view.set
        # --- state (Fig. 9) ---
        self.current: Any = initial_view if in_p0 else BOTTOM
        self.status: Status = Status.NORMAL
        self.content: set[tuple[Label, Any]] = set()
        self.nextseqno: int = 1
        self.buffer: list[Label] = []
        self.order: list[Label] = []
        self.nextconfirm: int = 1
        self.nextreport: int = 1
        self.highprimary: ViewId = initial_view.id if in_p0 else BOTTOM
        self.delay: list[Any] = []
        self.gotstate: dict[ProcId, Summary] = {}
        self.safe_exch: set[ProcId] = set()
        self.safe_labels: set[Label] = set()
        # --- history variables (Section 6) ---
        self.established: dict[ViewId, bool] = {initial_view.id: True} if in_p0 else {}
        # Values are tuple-like label sequences (SharedOrderPrefix or,
        # after a snapshot restore, plain tuples).
        self.buildorder: dict[ViewId, Any] = {}
        # --- derived indexes (not part of the Fig. 9 state) ---
        # Each cache records the identity and length of the structure it
        # was built from; direct reassignment of ``order``/``content``
        # (tests, snapshot restore) invalidates it and forces a rebuild,
        # so the indexes can never silently go stale.
        self._order_set: set[Label] = set()
        self._order_set_len: int = 0
        self._order_set_src: Any = self.order
        self._content_map: dict[Label, Any] = {}
        self._content_map_len: int = 0
        self._content_map_src: Any = self.content
        self._summary_cache: Summary | None = None
        self._summary_key: Any = None
        self._primary: bool = False
        self._primary_src: Any = None  # the ``current`` it was derived from

    # ------------------------------------------------------------------
    # Derived indexes (hot-path bookkeeping; all self-healing)
    # ------------------------------------------------------------------
    def _order_contains(self, label: Label) -> bool:
        """O(1) replacement for ``label in self.order``."""
        if (
            self._order_set_src is not self.order
            or self._order_set_len != len(self.order)
        ):
            self._order_set = set(self.order)
            self._order_set_len = len(self.order)
            self._order_set_src = self.order
        return label in self._order_set

    def _order_append(self, label: Label) -> None:
        """Append to ``order`` keeping the membership index in sync."""
        if (
            self._order_set_src is not self.order
            or self._order_set_len != len(self.order)
        ):
            self._order_set = set(self.order)
            self._order_set_src = self.order
        self.order.append(label)
        self._order_set.add(label)
        self._order_set_len = len(self.order)

    def _replace_order(self, labels: list[Label]) -> None:
        """Wholesale order replacement (state-exchange adoption)."""
        self.order = labels
        self._order_set = set(labels)
        self._order_set_len = len(labels)
        self._order_set_src = labels

    def _content_index(self) -> dict[Label, Any]:
        """Label → value view of ``content`` (O(1) amortised lookups)."""
        if (
            self._content_map_src is not self.content
            or self._content_map_len != len(self.content)
        ):
            mapping: dict[Label, Any] = {}
            for label, value in self.content:
                mapping[label] = value
            self._content_map = mapping
            self._content_map_len = len(self.content)
            self._content_map_src = self.content
        return self._content_map

    def _content_add(self, label: Label, value: Any) -> None:
        """Add a (label, value) pair keeping the index in sync."""
        index = self._content_index()
        before = len(self.content)
        self.content.add((label, value))
        if len(self.content) != before:
            index[label] = value
            self._content_map_len = len(self.content)

    # ------------------------------------------------------------------
    # Derived variables
    # ------------------------------------------------------------------
    @property
    def primary(self) -> bool:
        """Fig. 9's derived variable: current ≠ ⊥ and current.set
        contains a quorum.  Views are immutable and Q is fixed, so it is
        re-derived only when ``current`` is a different object."""
        current = self.current
        if self._primary_src is not current:
            self._primary = current is not BOTTOM and self.quorums.is_primary(
                current.set
            )
            self._primary_src = current
        return self._primary

    def state_summary(self) -> Summary:
        """⟨content, order, nextconfirm, highprimary⟩ — the summary this
        process sends during state exchange.

        Cached: the drain loops re-enumerate enabled actions many times
        while status is SEND, and building a Summary copies content and
        order.  The cache key pins the identity *and* length of both
        structures, so any mutation or reassignment misses the cache.
        """
        key = (
            id(self.content),
            len(self.content),
            id(self.order),
            len(self.order),
            self.nextconfirm,
            self.highprimary,
        )
        if self._summary_cache is None or self._summary_key != key:
            self._summary_cache = Summary(
                con=frozenset(self.content),
                ord=tuple(self.order),
                next=self.nextconfirm,
                high=self.highprimary,
            )
            self._summary_key = key
        return self._summary_cache

    def _record_buildorder(self) -> None:
        if self.current is not BOTTOM:
            # O(1): share the live list as an immutable prefix instead of
            # copying it; ``order`` is append-only within a view, so the
            # prefix is stable.
            self.buildorder[self.current.id] = SharedOrderPrefix(
                self.order, len(self.order)
            )

    # ------------------------------------------------------------------
    # Preconditions
    # ------------------------------------------------------------------
    def is_enabled(self, action: Action) -> bool:
        name = action.name
        if name in VSTOTO_INPUTS:
            return True
        if name == "label":
            a, p = action.args
            if p != self.proc_id:
                return False
            return bool(self.delay) and self.delay[0] == a and self.current is not BOTTOM
        if name == "gpsnd":
            m, p = action.args
            if p != self.proc_id:
                return False
            if is_summary(m):
                # Output gpsnd(x): status = send, x is the state summary.
                return self.status is Status.SEND and m == self.state_summary()
            label, value = m
            return (
                self.status is Status.NORMAL
                and bool(self.buffer)
                and self.buffer[0] == label
                and (label, value) in self.content
            )
        if name == "confirm":
            (p,) = action.args
            if p != self.proc_id:
                return False
            return (
                self.primary
                and self.nextconfirm <= len(self.order)
                and self.order[self.nextconfirm - 1] in self.safe_labels
            )
        if name == "brcv":
            a, q, p = action.args
            if p != self.proc_id:
                return False
            if not self.nextreport < self.nextconfirm:
                return False
            if self.nextreport > len(self.order):
                return False
            label = self.order[self.nextreport - 1]
            return (label, a) in self.content and q == label.origin
        return False

    # ------------------------------------------------------------------
    # Effects
    # ------------------------------------------------------------------
    def apply(self, action: Action) -> None:
        name = action.name
        if name == "bcast":
            a, p = action.args
            if p == self.proc_id:
                self.delay.append(a)
        elif name == "label":
            a, p = action.args
            if p == self.proc_id:
                label = Label(self.current.id, self.nextseqno, self.proc_id)
                self._content_add(label, a)
                self.buffer.append(label)
                self.nextseqno += 1
                self.delay.pop(0)
        elif name == "gpsnd":
            m, p = action.args
            if p == self.proc_id:
                if is_summary(m):
                    self.status = Status.COLLECT
                else:
                    self.buffer.pop(0)
        elif name == "gprcv":
            m, q, p = action.args
            if p == self.proc_id:
                if is_summary(m):
                    self._receive_summary(q, m)
                else:
                    label, value = m
                    self._content_add(label, value)
                    if self.primary and not self._order_contains(label):
                        self._order_append(label)
                        self._record_buildorder()
        elif name == "safe":
            m, q, p = action.args
            if p == self.proc_id:
                if is_summary(m):
                    self.safe_exch.add(q)
                    if (
                        self.current is not BOTTOM
                        and self.safe_exch == set(self.current.set)
                        and self.primary
                    ):
                        self.safe_labels |= set(fullorder(self.gotstate))
                else:
                    label, _value = m
                    if self.primary:
                        self.safe_labels.add(label)
        elif name == "confirm":
            (p,) = action.args
            if p == self.proc_id:
                self.nextconfirm += 1
        elif name == "brcv":
            a, q, p = action.args
            if p == self.proc_id:
                self.nextreport += 1
        elif name == "newview":
            view, p = action.args
            if p == self.proc_id:
                self.current = view
                self.nextseqno = 1
                self.buffer = []
                self.gotstate = {}
                self.safe_exch = set()
                self.safe_labels = set()
                self.status = Status.SEND

    def _receive_summary(self, sender: ProcId, summary: Summary) -> None:
        """Effect of ``gprcv(x)_{q,p}`` for a summary x (Fig. 10)."""
        index = self._content_index()
        before = len(self.content)
        self.content |= summary.con
        if len(self.content) != before:
            for label, value in summary.con:
                index[label] = value
            self._content_map_len = len(self.content)
        self.gotstate[sender] = summary
        if (
            self.current is not BOTTOM
            and set(self.gotstate) == set(self.current.set)
            and self.status is Status.COLLECT
        ):
            self.nextconfirm = maxnextconfirm(self.gotstate)
            if self.primary:
                self._replace_order(list(fullorder(self.gotstate)))
                self.highprimary = self.current.id
            else:
                self._replace_order(list(shortorder(self.gotstate)))
                self.highprimary = maxprimary(self.gotstate)
            self.status = Status.NORMAL
            # History variables (Section 6): establishment happens here.
            self.established[self.current.id] = True
            self._record_buildorder()

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------
    def enabled_actions(self) -> Iterator[Action]:
        p = self.proc_id
        if self.delay and self.current is not BOTTOM:
            yield act("label", self.delay[0], p)
        if self.status is Status.SEND:
            yield act("gpsnd", self.state_summary(), p)
        if self.status is Status.NORMAL and self.buffer:
            head = self.buffer[0]
            index = self._content_index()
            if head in index:
                yield act("gpsnd", (head, index[head]), p)
        if (
            self.primary
            and self.nextconfirm <= len(self.order)
            and self.order[self.nextconfirm - 1] in self.safe_labels
        ):
            yield act("confirm", p)
        if self.nextreport < self.nextconfirm and self.nextreport <= len(self.order):
            label = self.order[self.nextreport - 1]
            index = self._content_index()
            if label in index:
                yield act("brcv", index[label], label.origin, p)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        snap = super().snapshot()
        snap.pop("quorums", None)  # shared, immutable config
        # Derived indexes are rebuildable caches, not Fig. 9 state:
        # excluding them keeps snapshots (and the exhaustive explorer's
        # state fingerprints) identical to the pre-index encoding.
        for key in [k for k in snap if k.startswith("_")]:
            del snap[key]
        snap["status"] = self.status.value
        # Materialise shared prefixes so snapshots never alias live
        # state and freeze() canonicalises them like the tuples they
        # replaced.
        snap["buildorder"] = {
            viewid: tuple(labels) for viewid, labels in snap["buildorder"].items()
        }
        return snap


class TimedVStoTOProcess(VStoTOProcess):
    """``VStoTO'_p`` (Section 7): VStoTO_p plus a failure-status variable.

    Adds input actions ``good_p`` / ``bad_p`` / ``ugly_p`` (encoded as
    ``act("good", p)`` etc.); while the status is *bad* every output and
    internal action is disabled.  The time-passage rule ("a good
    processor takes enabled steps immediately") is enforced by the
    drivers: they run a good processor to quiescence before letting
    virtual time advance.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.signature = Signature(
            inputs=VSTOTO_INPUTS | {"good", "bad", "ugly"},
            outputs=VSTOTO_OUTPUTS,
            internals=VSTOTO_INTERNALS,
        )
        self.failure_status: str = "good"

    def is_enabled(self, action: Action) -> bool:
        if action.name in ("good", "bad", "ugly"):
            return True
        kind_locally_controlled = action.name in (
            VSTOTO_OUTPUTS | VSTOTO_INTERNALS
        )
        if kind_locally_controlled and self.failure_status == "bad":
            return False
        return super().is_enabled(action)

    def apply(self, action: Action) -> None:
        if action.name in ("good", "bad", "ugly"):
            (p,) = action.args
            if p == self.proc_id:
                self.failure_status = action.name
            return
        super().apply(action)

    def enabled_actions(self) -> Iterator[Action]:
        if self.failure_status == "bad":
            return
        yield from super().enabled_actions()

    def can_advance(self, delta: float) -> bool:
        """The Section 7 time-passage rule: while the processor is good,
        time may not pass if any locally controlled action is enabled
        (good processors take enabled steps immediately)."""
        if delta <= 0.0:
            return False
        if self.failure_status == "good":
            return next(iter(super().enabled_actions()), None) is None
        return True
