"""What the merged event logs say about a run, from the driver's side.

Inputs are the dicts ``repro.rt.trace.load_event_logs`` returns
(``ts``, ``node``, ``ev``, decoded ``args``) and the generator's due
times; every timing is log timestamp minus due time on the one host
clock all processes share.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

Event = Mapping[str, Any]


@dataclass
class Completions:
    """Per-send outcome of one episode."""

    #: value -> wall time of its last ``brcv``, for values every node
    #: delivered.
    done_at: dict[Any, float] = field(default_factory=dict)
    #: values some node never delivered (or delivered past the deadline).
    missing: list[Any] = field(default_factory=list)

    def latencies(self, due: Mapping[Any, float]) -> list[float]:
        """Seconds from each completed send's due time to its last
        delivery, in due-time order."""
        return [
            self.done_at[v] - due[v]
            for v in sorted(self.done_at, key=due.__getitem__)
        ]


def completions(
    events: Iterable[Event],
    values: Iterable[Any],
    nodes: int,
    deadline: float | None = None,
) -> Completions:
    """When each of ``values`` was delivered at all ``nodes`` nodes.  A
    delivery stamped after ``deadline`` does not count."""
    seen: dict[Any, int] = {}
    last: dict[Any, float] = {}
    for event in events:
        if event["ev"] != "brcv":
            continue
        ts = event["ts"]
        if deadline is not None and ts > deadline:
            continue
        value = event["args"][0]
        seen[value] = seen.get(value, 0) + 1
        if ts > last.get(value, 0.0):
            last[value] = ts
    out = Completions()
    for value in values:
        if seen.get(value, 0) >= nodes:
            out.done_at[value] = last[value]
        else:
            out.missing.append(value)
    return out


def fault_gap(
    events: Iterable[Event],
    majority: Sequence[str],
    partition_at: float,
    heal_at: float,
) -> float:
    """Longest interval between the partition mark and the heal mark in
    which no majority-side node delivered anything."""
    side = set(majority)
    stamps = sorted(
        e["ts"]
        for e in events
        if e["ev"] == "brcv"
        and e["node"] in side
        and partition_at <= e["ts"] <= heal_at
    )
    edges = [partition_at, *stamps, heal_at]
    return max(b - a for a, b in zip(edges, edges[1:]))


def heal_catchup(
    done: Completions, due: Mapping[Any, float], heal_at: float
) -> float | None:
    """Seconds from the heal mark until every value due before it is
    delivered everywhere; None if one of them never was."""
    before = [v for v, t in due.items() if t <= heal_at]
    if any(v not in done.done_at for v in before):
        return None
    return max(0.0, max((done.done_at[v] for v in before), default=heal_at) - heal_at)


def reconcile_time(events: Sequence[Event], heal_at: float) -> float | None:
    """Seconds from the last view installed after the heal to the first
    delivery after that view: the VStoTO state exchange."""
    views = [e["ts"] for e in events if e["ev"] == "newview" and e["ts"] > heal_at]
    if not views:
        return None
    installed = max(views)
    after = [e["ts"] for e in events if e["ev"] == "brcv" and e["ts"] > installed]
    return min(after) - installed if after else None


def count_events(events: Iterable[Event], name: str) -> int:
    return sum(1 for e in events if e["ev"] == name)
