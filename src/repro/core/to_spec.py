"""The TO specification (Section 3): *TO-machine*, trace checking, and
*TO-property(b, d, Q)*.

*TO-machine* (Fig. 3) is transcribed action for action.  The state is a
global ``queue`` of (value, origin) pairs, a ``pending`` queue per
location of submitted-but-unordered values, and a ``next`` index per
location pointing into ``queue``.

Action encoding (paper subscripts become trailing parameters):

- ``act("bcast", a, p)`` — client at p submits value a (input);
- ``act("to-order", a, p)`` — a moves from pending[p] to the queue
  (internal);
- ``act("brcv", a, p, q)`` — value a originated by p is delivered at q
  (output).

:func:`check_to_trace` decides membership of an external action sequence
in the trace set of TO-machine (needed because the machine is
nondeterministic: trace inclusion, not equality of runs, is the
correctness statement of Theorem 6.26).  :class:`TOPropertyChecker`
evaluates the conditional performance property of Fig. 5 on timed traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Hashable, Iterable, Iterator, Sequence
from typing import Any

from repro.ioa.actions import Action, Signature, act
from repro.ioa.automaton import Automaton
from repro.ioa.timed import TimedTrace

ProcId = Hashable

TO_INPUTS = frozenset({"bcast"})
TO_OUTPUTS = frozenset({"brcv"})
TO_INTERNALS = frozenset({"to-order"})
TO_EXTERNAL = TO_INPUTS | TO_OUTPUTS

#: Failure-status action names (Fig. 4); ``args`` are (p,) or (p, q).
FAILURE_STATUS_NAMES = frozenset({"good", "bad", "ugly"})


class TOMachine(Automaton):
    """The TO-machine of Fig. 3.

    Parameters
    ----------
    processors:
        The paper's set P.
    """

    _SNAPSHOT_EXCLUDE = frozenset({"signature", "name", "processors"})

    def __init__(self, processors: Iterable[ProcId], name: str = "TO-machine") -> None:
        self.name = name
        self.signature = Signature(
            inputs=TO_INPUTS, outputs=TO_OUTPUTS, internals=TO_INTERNALS
        )
        self.processors: tuple[ProcId, ...] = tuple(processors)
        # queue: finite sequence of (a, p); initially empty.
        self.queue: list[tuple[Any, ProcId]] = []
        # pending[p]: finite sequence of A; initially empty.
        self.pending: dict[ProcId, list[Any]] = {p: [] for p in self.processors}
        # next[p] in N>0; initially 1.
        self.next: dict[ProcId, int] = {p: 1 for p in self.processors}

    # ------------------------------------------------------------------
    def is_enabled(self, action: Action) -> bool:
        if action.name == "bcast":
            return True  # input
        if action.name == "to-order":
            a, p = action.args
            return bool(self.pending[p]) and self.pending[p][0] == a
        if action.name == "brcv":
            a, p, q = action.args
            index = self.next[q]
            if index > len(self.queue):
                return False
            return self.queue[index - 1] == (a, p)
        return False

    def apply(self, action: Action) -> None:
        if action.name == "bcast":
            a, p = action.args
            self.pending[p].append(a)
        elif action.name == "to-order":
            a, p = action.args
            self.pending[p].pop(0)
            self.queue.append((a, p))
        elif action.name == "brcv":
            a, p, q = action.args
            self.next[q] += 1

    def enabled_actions(self) -> Iterator[Action]:
        for p in self.processors:
            if self.pending[p]:
                yield act("to-order", self.pending[p][0], p)
        for q in self.processors:
            index = self.next[q]
            if index <= len(self.queue):
                a, p = self.queue[index - 1]
                yield act("brcv", a, p, q)


# ----------------------------------------------------------------------
# Trace membership
# ----------------------------------------------------------------------
@dataclass
class TOTraceReport:
    """Result of :func:`check_to_trace`."""

    ok: bool
    reason: str = ""
    #: the least upper bound of per-destination delivery sequences
    common_order: list[tuple[Any, ProcId]] = field(default_factory=list)


def check_to_trace(
    trace: Sequence[Action], processors: Iterable[ProcId]
) -> TOTraceReport:
    """Decide whether ``trace`` (bcast/brcv actions) is a trace of
    TO-machine.

    A sequence is a TO trace iff:

    1. each location's delivered sequence of (a, p) pairs is a prefix of
       a single common order (pairwise prefix-consistency);
    2. for each sender p, the subsequence of the common order with
       origin p equals a prefix of p's bcast sequence, *and no delivery
       of a value precedes its bcast* (causality);
    3. deliveries at each destination never exceed the common order.

    This matches the observation in Section 3.1 that TO-machine traces
    are exactly the finite prefixes of totally-ordered causal broadcast
    traces.
    """
    processors = tuple(processors)
    delivered: dict[ProcId, list[tuple[Any, ProcId]]] = {p: [] for p in processors}
    bcast_seq: dict[ProcId, list[Any]] = {p: [] for p in processors}
    # Track, for causality, how many bcasts each sender has done at each
    # point; a delivery (a, p) as the k-th element of the common order of
    # origin p requires at least k bcasts by p to have occurred already.
    bcast_count: dict[ProcId, int] = {p: 0 for p in processors}
    # Deliveries at q of origin p so far, kept running (recounting
    # ``delivered[q]`` per brcv made the check quadratic).
    origin_rank: dict[tuple[ProcId, ProcId], int] = {}

    for action in trace:
        if action.name == "bcast":
            a, p = action.args
            bcast_seq[p].append(a)
            bcast_count[p] += 1
        elif action.name == "brcv":
            a, p, q = action.args
            delivered[q].append((a, p))
            rank = origin_rank[q, p] = origin_rank.get((q, p), 0) + 1
            if rank > bcast_count[p]:
                return TOTraceReport(
                    ok=False,
                    reason=f"delivery of {a!r} at {q!r} precedes its bcast at {p!r}",
                )
        elif action.name in TO_INTERNALS or action.name in FAILURE_STATUS_NAMES:
            continue
        else:
            return TOTraceReport(ok=False, reason=f"unexpected action {action}")

    # 1. pairwise prefix consistency; compute the lub.
    common: list[tuple[Any, ProcId]] = []
    for q in processors:
        seq = delivered[q]
        limit = min(len(seq), len(common))
        if seq[:limit] != common[:limit]:
            return TOTraceReport(
                ok=False,
                reason=f"delivery order at {q!r} inconsistent with other locations",
            )
        if len(seq) > len(common):
            common = list(seq)

    # 2. per-sender FIFO w.r.t. bcast order.
    for p in processors:
        from_p = [a for (a, src) in common if src == p]
        if from_p != bcast_seq[p][: len(from_p)]:
            return TOTraceReport(
                ok=False,
                reason=(
                    f"order of {p!r}'s values in the common order does not "
                    f"match its bcast order"
                ),
            )

    return TOTraceReport(ok=True, common_order=common)


# ----------------------------------------------------------------------
# TO-property(b, d, Q)  (Fig. 5)
# ----------------------------------------------------------------------
@dataclass
class TOPropertyReport:
    """Evaluation of TO-property(b, d, Q) on one timed trace.

    ``holds`` is the verdict.  The measured quantities let benchmarks
    report margins against the paper's bounds:

    - ``stabilization_l``: the premise point l (end of γ);
    - ``max_latency``: the largest observed gap between a delivery
      obligation's reference time max(t, l + l') and its fulfilment;
    - ``obligations`` / ``fulfilled``: counts of checked deadlines.
    """

    holds: bool
    reason: str = ""
    stabilization_l: float = 0.0
    l_prime_used: float = 0.0
    max_latency: float = 0.0
    obligations: int = 0
    fulfilled: int = 0


def _status_after(
    trace: TimedTrace, target: object, upto: float
) -> str:
    """Failure status ('good'/'bad'/'ugly') of a location or ordered pair
    after the prefix of ``trace`` up to (and including) time ``upto``."""
    status = "good"
    for event in trace.events:
        if event.time > upto:
            break
        if event.action.name in FAILURE_STATUS_NAMES and event.action.args == (
            target if isinstance(target, tuple) else (target,)
        ):
            status = event.action.name
    return status


def _premise_holds(
    trace: TimedTrace, group: frozenset, all_procs: Sequence[ProcId], l: float
) -> bool:
    """Clause 2(a)-(c) of the property: no failure events touching Q
    after l; Q internally good after l; links Q→outside bad after l."""
    for event in trace.events:
        if event.time <= l:
            continue
        if event.action.name in FAILURE_STATUS_NAMES:
            args = event.action.args
            touched = set(args) if len(args) > 1 else {args[0]}
            if touched & group:
                return False
    for p in group:
        if _status_after(trace, p, l) != "good":
            return False
        for q in group:
            if p != q and _status_after(trace, (p, q), l) != "good":
                return False
        for q in all_procs:
            if q in group:
                continue
            if _status_after(trace, (p, q), l) != "bad":
                return False
    return True


def find_stabilization_point(
    trace: TimedTrace, group: Iterable[ProcId], all_procs: Sequence[ProcId]
) -> float | None:
    """The earliest l such that the premise of the conditional property
    holds for Q = group with split point l, or None if it never does."""
    group = frozenset(group)
    candidate_times = [0.0] + [
        e.time for e in trace.events if e.action.name in FAILURE_STATUS_NAMES
    ]
    for l in sorted(set(candidate_times)):
        if _premise_holds(trace, group, all_procs, l):
            return l
    return None


class TOPropertyChecker:
    """Checks TO-property(b, d, Q) (Fig. 5) on an admissible timed trace.

    The trace must contain the external TO actions plus failure-status
    actions.  The premise split point l is located automatically (the
    earliest valid one); the existential over l' <= b is discharged by
    checking the deadlines with l' = b, which is sound because every
    deadline max(t, l + l') + d is monotone in l'.
    """

    def __init__(self, b: float, d: float, group: Iterable[ProcId]) -> None:
        if b < 0 or d < 0:
            raise ValueError("b and d must be nonnegative")
        self.b = b
        self.d = d
        self.group = frozenset(group)

    def check(
        self, trace: TimedTrace, processors: Sequence[ProcId]
    ) -> TOPropertyReport:
        untimed = [
            e.action for e in trace.events if e.action.name in TO_EXTERNAL
        ]
        safety = check_to_trace(untimed, processors)
        if not safety.ok:
            return TOPropertyReport(holds=False, reason=f"safety: {safety.reason}")

        l = find_stabilization_point(trace, self.group, processors)
        if l is None:
            # Premise never holds; the conditional property is vacuous.
            return TOPropertyReport(holds=True, reason="premise vacuous")

        deadline_base = l + self.b  # l + l' with l' = b
        report = TOPropertyReport(
            holds=True, stabilization_l=l, l_prime_used=self.b
        )

        # Index deliveries: (a, p, occurrence#) -> {q: time}.  Values can
        # repeat, so obligations are matched by occurrence counts per
        # (value, origin) pair.
        send_times: list[tuple[float, Any, ProcId, int]] = []
        sends_seen: dict[tuple[Any, ProcId], int] = {}
        deliveries: dict[tuple[Any, ProcId, int, ProcId], float] = {}
        recv_seen: dict[tuple[Any, ProcId, ProcId], int] = {}
        for event in trace.events:
            if event.action.name == "bcast":
                a, p = event.action.args
                occurrence = sends_seen.get((a, p), 0)
                sends_seen[(a, p)] = occurrence + 1
                if p in self.group:
                    send_times.append((event.time, a, p, occurrence))
            elif event.action.name == "brcv":
                a, p, q = event.action.args
                occurrence = recv_seen.get((a, p, q), 0)
                recv_seen[(a, p, q)] = occurrence + 1
                deliveries.setdefault((a, p, occurrence, q), event.time)

        def check_deadline(
            a: Any, p: ProcId, occurrence: int, reference: float, what: str
        ) -> None:
            deadline = max(reference, deadline_base) + self.d
            for q in self.group:
                report.obligations += 1
                delivered_at = deliveries.get((a, p, occurrence, q))
                if delivered_at is None or delivered_at > deadline + 1e-9:
                    report.holds = False
                    report.reason = (
                        f"{what}: value {a!r} from {p!r} not delivered at "
                        f"{q!r} by {deadline:.6g} "
                        f"(got {delivered_at})"
                    )
                else:
                    report.fulfilled += 1
                    lateness = delivered_at - max(reference, deadline_base)
                    report.max_latency = max(report.max_latency, lateness)

        # 2(b): values sent from Q.
        for t, a, p, occurrence in send_times:
            check_deadline(a, p, occurrence, t, "clause (b)")

        # 2(c): values delivered to any member of Q.
        for (a, p, occurrence, q), t in list(deliveries.items()):
            if q in self.group:
                check_deadline(a, p, occurrence, t, "clause (c)")

        return report
