"""Protocol-state coverage: which VStoTO edges did a run exercise?

Random chaos (E18) samples the fault space blindly — it can tell you a
run *passed*, not which of the paper's protocol states it visited.  This
module makes coverage first-class:

- :class:`CoverageTracker` rides the passive listener hooks
  (:meth:`~repro.core.vstoto.runtime.VStoTORuntime.add_status_listener`,
  :meth:`~repro.membership.service.TokenRingVS.add_vs_listener`) and
  records, per run, the VStoTO statuses entered, the Fig. 9 status
  edges (``normal->send``, ``send->collect``, ``collect->normal``, and
  the rare ``collect->send`` when a view change lands mid state
  exchange), the view-transition edges (grow/shrink/shift, split by
  whether the installed view is primary), and the fault×status pairs
  (which nemesis kinds were active while a processor sat in each
  status);
- :class:`CoverageReport` is the JSON-shaped, mergeable summary wired
  into :class:`~repro.faults.chaos.ChaosReport` and the sweep envelopes,
  so ``run_chaos_sweep`` reports protocol-state coverage — identical at
  any worker count — and the E23 bench can compare directed journeys
  against the equal-budget random baseline.

The tracker is a pure observer: it draws no randomness and schedules no
simulator events, so attaching it never perturbs an execution (the same
contract as an observability hub, enforced by the zero-perturbation
goldens).

Fault×status pairs are reconstructed *at report time* from the recorded
status timeline crossed with the fault windows — recording them live
would require polling, and polling would mean scheduled events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from collections.abc import Hashable, Iterable
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.core.vstoto.runtime import VStoTORuntime

ProcId = Hashable


@dataclass(frozen=True)
class CoverageReport:
    """Mergeable protocol-state coverage over one or more runs.

    All edge sets are sorted tuples of strings — JSON-stable, digestable
    with :func:`repro.parallel.canonical_digest`, and mergeable by set
    union via :meth:`merge` (or, in dict form, by
    :func:`repro.parallel.merge_coverage_dicts`).
    """

    #: number of runs merged into this report
    runs: int = 1
    #: VStoTO statuses entered ("normal"/"send"/"collect")
    statuses: tuple[str, ...] = ()
    #: Fig. 9 status transitions, as "old->new"
    status_edges: tuple[str, ...] = ()
    #: view transitions, as "kind:primariness" (kind in grow/shrink/
    #: shift, primariness of the newly installed view)
    view_edges: tuple[str, ...] = ()
    #: sized view transitions, as "|old|->|new|:primariness" — the
    #: membership-cardinality abstraction of the view graph the paper's
    #: Figs. 8–10 walk (which component sizes actually formed, and
    #: whether the installed view kept a quorum)
    view_transitions: tuple[str, ...] = ()
    #: nemesis kinds active while some processor sat in a status, as
    #: "kind@status"
    fault_status_pairs: tuple[str, ...] = ()
    #: protocol-event-triggered windows that actually opened
    triggered_windows: int = 0

    @property
    def protocol_edges(self) -> int:
        """The E23 headline number: distinct status edges plus view
        edges, counting sized view transitions."""
        return (
            len(self.status_edges)
            + len(self.view_edges)
            + len(self.view_transitions)
        )

    def merge(self, other: CoverageReport) -> CoverageReport:
        return CoverageReport(
            runs=self.runs + other.runs,
            statuses=_union(self.statuses, other.statuses),
            status_edges=_union(self.status_edges, other.status_edges),
            view_edges=_union(self.view_edges, other.view_edges),
            view_transitions=_union(
                self.view_transitions, other.view_transitions
            ),
            fault_status_pairs=_union(
                self.fault_status_pairs, other.fault_status_pairs
            ),
            triggered_windows=self.triggered_windows
            + other.triggered_windows,
        )

    @classmethod
    def merge_all(cls, reports: Iterable[CoverageReport]) -> CoverageReport:
        merged = cls(runs=0)
        for report in reports:
            merged = merged.merge(report)
        return merged

    def to_dict(self) -> dict[str, Any]:
        return {
            "runs": self.runs,
            "statuses": list(self.statuses),
            "status_edges": list(self.status_edges),
            "view_edges": list(self.view_edges),
            "view_transitions": list(self.view_transitions),
            "fault_status_pairs": list(self.fault_status_pairs),
            "triggered_windows": self.triggered_windows,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> CoverageReport:
        return cls(
            runs=data.get("runs", 1),
            statuses=tuple(sorted(data.get("statuses", ()))),
            status_edges=tuple(sorted(data.get("status_edges", ()))),
            view_edges=tuple(sorted(data.get("view_edges", ()))),
            view_transitions=tuple(
                sorted(data.get("view_transitions", ()))
            ),
            fault_status_pairs=tuple(
                sorted(data.get("fault_status_pairs", ()))
            ),
            triggered_windows=data.get("triggered_windows", 0),
        )


def _union(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(sorted(set(a) | set(b)))


@dataclass
class _Window:
    kind: str
    start: float
    stop: float


class CoverageTracker:
    """Record one run's protocol-state coverage from the passive hooks.

    Construct after the runtime (``ChaosRunner`` does this
    automatically); call :meth:`note_window` for every fault window —
    timed ones at install, triggered ones via
    :meth:`~repro.faults.triggers.ProtocolEventHub.add_window_observer`
    — then :meth:`report` after the run.
    """

    def __init__(self, runtime: VStoTORuntime) -> None:
        self.runtime = runtime
        service = runtime.service
        self._quorums = runtime.quorums
        self._statuses: set[str] = set()
        self._status_edges: set[str] = set()
        self._view_edges: set[str] = set()
        self._view_transitions: set[str] = set()
        self._windows: list[_Window] = []
        self._triggered = 0
        #: per-proc status timeline as [(since, status), ...]
        self._timeline: dict[ProcId, list[tuple[float, str]]] = {}
        self._members: dict[ProcId, frozenset[ProcId]] = {}
        for p in runtime.processors:
            status = runtime.procs[p].status.value
            self._statuses.add(status)
            self._timeline[p] = [(0.0, status)]
            if p in service.initial_view.set:
                self._members[p] = service.initial_view.set
        runtime.add_status_listener(self._on_status_edge)
        service.add_vs_listener(self._on_vs_event)

    # ------------------------------------------------------------------
    # Feeds (pure observers)
    # ------------------------------------------------------------------
    def _on_status_edge(
        self, time: float, p: ProcId, old: str, new: str
    ) -> None:
        self._statuses.add(new)
        self._status_edges.add(f"{old}->{new}")
        self._timeline[p].append((time, new))

    def _on_vs_event(
        self, time: float, name: str, args: tuple[Any, ...]
    ) -> None:
        if name != "newview":
            return
        view, p = args
        previous = self._members.get(p)
        self._members[p] = view.set
        if previous is None or previous == view.set:
            return
        if previous < view.set:
            kind = "grow"
        elif view.set < previous:
            kind = "shrink"
        else:
            kind = "shift"
        primariness = (
            "primary" if self._quorums.is_primary(view.set) else "non_primary"
        )
        self._view_edges.add(f"{kind}:{primariness}")
        self._view_transitions.add(
            f"{len(previous)}->{len(view.set)}:{primariness}"
        )

    def note_window(self, kind: str, start: float, stop: float) -> None:
        """A fault window of spec ``kind`` was active over
        [``start``, ``stop``); triggered windows count separately."""
        self._windows.append(_Window(kind, start, stop))

    def note_triggered_window(
        self, kind: str, start: float, stop: float
    ) -> None:
        self._triggered += 1
        self.note_window(kind, start, stop)

    # ------------------------------------------------------------------
    def report(self) -> CoverageReport:
        """The run's coverage; call after the run completes."""
        pairs: set[str] = set()
        for p in sorted(self._timeline, key=str):
            timeline = self._timeline[p]
            for i, (since, status) in enumerate(timeline):
                until = timeline[i + 1][0] if i + 1 < len(timeline) else inf
                for window in self._windows:
                    if window.start < until and since < window.stop:
                        pairs.add(f"{window.kind}@{status}")
        return CoverageReport(
            runs=1,
            statuses=tuple(sorted(self._statuses)),
            status_edges=tuple(sorted(self._status_edges)),
            view_edges=tuple(sorted(self._view_edges)),
            view_transitions=tuple(sorted(self._view_transitions)),
            fault_status_pairs=tuple(sorted(pairs)),
            triggered_windows=self._triggered,
        )
