"""Failure statuses (Figure 4) and the failure oracle.

The paper adds input actions ``good_p``, ``bad_p``, ``ugly_p`` for each
location p and ``good_{p,q}``, ``bad_{p,q}``, ``ugly_{p,q}`` for each
ordered pair; the status of a location/pair after a finite prefix is the
last such action (default *good*).  The :class:`FailureOracle` is the
runtime embodiment: it records status-change events with their times and
answers status queries, and it is what channels and processors consult.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from collections.abc import Hashable, Iterable

ProcId = Hashable


def disjoint_groups(
    groups: Iterable[Iterable[ProcId]],
) -> tuple[tuple[ProcId, ...], ...]:
    """``groups`` as tuples, refused unless no processor appears twice
    (within one group or across two) — the one check behind every
    partition shape: the oracle's layouts, schedule layouts and
    :class:`~repro.faults.injectors.PartitionInjector`."""
    out = tuple(tuple(group) for group in groups)
    seen: set[ProcId] = set()
    for group in out:
        for p in group:
            if p in seen:
                raise ValueError(
                    f"groups are not pairwise disjoint: processor {p!r} "
                    f"in two groups of {out!r}"
                )
            seen.add(p)
    return out


class FailureStatus(enum.Enum):
    """good: prompt and reliable; bad: stopped/dead; ugly: erratic."""

    GOOD = "good"
    BAD = "bad"
    UGLY = "ugly"


@dataclass(frozen=True, slots=True)
class StatusEvent:
    """A recorded failure-status change.

    ``target`` is a processor id for per-processor events, or an ordered
    (src, dst) pair for link events.
    """

    time: float
    target: object
    status: FailureStatus

    @property
    def is_link_event(self) -> bool:
        return isinstance(self.target, tuple)


class FailureOracle:
    """Tracks the current failure status of processors and links.

    Defaults are *good* for every processor and every link, matching the
    paper's default choice when no failure-status action has occurred.
    The oracle also keeps the full event history, which the property
    checkers need to locate the stabilisation point l.
    """

    def __init__(self, processors: Iterable[ProcId]) -> None:
        self.processors: tuple[ProcId, ...] = tuple(processors)
        self._proc_status: dict[ProcId, FailureStatus] = {
            p: FailureStatus.GOOD for p in self.processors
        }
        self._link_status: dict[tuple[ProcId, ProcId], FailureStatus] = {}
        self.history: list[StatusEvent] = []
        self._last_change_time: float = 0.0
        self._listeners: list = []

    def add_listener(self, listener) -> None:
        """Register a callback invoked with each :class:`StatusEvent`.

        Layers above the network use this to react to recoveries (e.g.
        the VStoTO runtime drains a processor's deferred enabled actions
        once it is no longer bad)."""
        self._listeners.append(listener)

    def _notify(self, event: StatusEvent) -> None:
        for listener in self._listeners:
            listener(event)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def processor_status(self, p: ProcId) -> FailureStatus:
        return self._proc_status[p]

    def link_status(self, src: ProcId, dst: ProcId) -> FailureStatus:
        return self._link_status.get((src, dst), FailureStatus.GOOD)

    def processor_good(self, p: ProcId) -> bool:
        return self._proc_status[p] is FailureStatus.GOOD

    def processor_bad(self, p: ProcId) -> bool:
        return self._proc_status[p] is FailureStatus.BAD

    def link_good(self, src: ProcId, dst: ProcId) -> bool:
        return self.link_status(src, dst) is FailureStatus.GOOD

    @property
    def last_change_time(self) -> float:
        """Time of the most recent status change (0.0 if none) — the
        candidate stabilisation point l in the conditional properties."""
        return self._last_change_time

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def set_processor(
        self, p: ProcId, status: FailureStatus, time: float = 0.0
    ) -> None:
        if p not in self._proc_status:
            raise KeyError(f"unknown processor {p!r}")
        self._proc_status[p] = status
        event = StatusEvent(time, p, status)
        self.history.append(event)
        self._last_change_time = max(self._last_change_time, time)
        self._notify(event)

    def set_link(
        self, src: ProcId, dst: ProcId, status: FailureStatus, time: float = 0.0
    ) -> None:
        if src not in self._proc_status or dst not in self._proc_status:
            raise KeyError(f"unknown link ({src!r}, {dst!r})")
        self._link_status[(src, dst)] = status
        event = StatusEvent(time, (src, dst), status)
        self.history.append(event)
        self._last_change_time = max(self._last_change_time, time)
        self._notify(event)

    def set_link_pair(
        self, p: ProcId, q: ProcId, status: FailureStatus, time: float = 0.0
    ) -> None:
        """Set both directions of the link between p and q."""
        self.set_link(p, q, status, time)
        self.set_link(q, p, status, time)

    # ------------------------------------------------------------------
    # Scenario helpers
    # ------------------------------------------------------------------
    def apply_partition(
        self, groups: Iterable[Iterable[ProcId]], time: float = 0.0
    ) -> None:
        """Install a *consistent partition*: processors within a group
        are good with good links; links across groups are bad.

        Processors not mentioned in any group are marked bad.  This is
        exactly the premise shape of TO-property / VS-property clause 2:
        all of Q good internally, (p, q) bad whenever p in Q, q outside.
        """
        member_of = {
            p: index
            for index, group in enumerate(disjoint_groups(groups))
            for p in group
        }
        for p in self.processors:
            if p in member_of:
                self.set_processor(p, FailureStatus.GOOD, time)
            else:
                self.set_processor(p, FailureStatus.BAD, time)
        for p in self.processors:
            for q in self.processors:
                if p == q:
                    continue
                same = (
                    p in member_of
                    and q in member_of
                    and member_of[p] == member_of[q]
                )
                status = FailureStatus.GOOD if same else FailureStatus.BAD
                self.set_link(p, q, status, time)

    def is_consistently_partitioned(self, group: Iterable[ProcId]) -> bool:
        """Does ``group`` currently satisfy the premise of the
        conditional properties?  (All members and internal pairs good;
        all links from a member to a non-member bad.)"""
        members = set(group)
        for p in members:
            if not self.processor_good(p):
                return False
            for q in members:
                if p != q and not self.link_good(p, q):
                    return False
            for q in self.processors:
                if q in members:
                    continue
                if self.link_status(p, q) is not FailureStatus.BAD:
                    return False
                if self.link_status(q, p) is not FailureStatus.BAD:
                    return False
        return True
