"""Bounded exhaustive state-space exploration (explicit-state model
checking) for I/O automata.

The randomized harnesses sample executions; for *small* configurations
the spec machines can instead be checked on **every** reachable state, a
TLA⁺-style guarantee.  :func:`explore` performs breadth-first search
over the reachable state graph:

- states are snapshots frozen into hashable canonical forms;
- transitions are the automaton's enabled locally controlled actions
  plus a finite set of caller-supplied input actions (possibly
  state-dependent);
- every discovered state is passed to the caller's invariant check.

The automaton must tolerate :func:`restore_snapshot` — having its
``__dict__`` replaced by a deep copy of an earlier snapshot — which
holds for all the plain-attribute spec machines in this repository.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from collections.abc import Callable, Iterable
from typing import Any

from repro.ioa.actions import Action
from repro.ioa.automaton import Automaton


def freeze(value: Any) -> Any:
    """Canonicalise a snapshot value into a hashable form."""
    if isinstance(value, dict):
        return (
            "dict",
            tuple(
                sorted(
                    ((freeze(k), freeze(v)) for k, v in value.items()),
                    key=repr,
                )
            ),
        )
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(freeze(v) for v in value))
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted((freeze(v) for v in value), key=repr)))
    return value


def restore_snapshot(automaton: Automaton, snapshot: dict[str, Any]) -> None:
    """Load a snapshot back into the automaton (deep-copied)."""
    for key, value in snapshot.items():
        setattr(automaton, key, copy.deepcopy(value))


@dataclass
class ExplorationResult:
    """Outcome of :func:`explore`."""

    states_visited: int
    transitions_taken: int
    truncated: bool
    #: (state snapshot, action sequence reaching it) for the first
    #: invariant violation, if any
    violation: tuple[dict, tuple[Action, ...]] | None = None
    deepest_level: int = 0

    @property
    def ok(self) -> bool:
        return self.violation is None


def explore(
    automaton: Automaton,
    inputs_for: Callable[[Automaton], Iterable[Action]] = lambda a: (),
    check: Callable[[Automaton], bool] | None = None,
    max_states: int = 50_000,
    max_depth: int = 10_000,
    restore: Callable[[Automaton, dict], None] | None = None,
) -> ExplorationResult:
    """Breadth-first exploration from the automaton's current state.

    Parameters
    ----------
    automaton:
        The machine to explore, in its start state; it is mutated during
        the search and left in an arbitrary reachable state afterwards.
    inputs_for:
        Yields the input actions to try from a given state (keep this
        finite — it bounds the branching).
    check:
        Predicate evaluated on every discovered state; returning False
        records a violation (with its action path) and stops the search.
    max_states, max_depth:
        Truncation bounds; exceeding them sets ``truncated``.
    """
    do_restore = restore if restore is not None else restore_snapshot
    initial = automaton.snapshot()
    frontier: list[tuple[dict, tuple[Action, ...]]] = [(initial, ())]
    seen = {freeze(initial)}
    result = ExplorationResult(states_visited=0, transitions_taken=0, truncated=False)

    if check is not None:
        do_restore(automaton, initial)
        if not check(automaton):
            result.states_visited = 1
            result.violation = (initial, ())
            return result

    while frontier:
        next_frontier: list[tuple[dict, tuple[Action, ...]]] = []
        for snapshot, path in frontier:
            result.states_visited += 1
            do_restore(automaton, snapshot)
            actions = list(automaton.enabled_actions())
            do_restore(automaton, snapshot)
            actions.extend(inputs_for(automaton))
            for action in actions:
                do_restore(automaton, snapshot)
                automaton.step(action)
                result.transitions_taken += 1
                successor = automaton.snapshot()
                key = freeze(successor)
                if key in seen:
                    continue
                seen.add(key)
                successor_path = path + (action,)
                if check is not None and not check(automaton):
                    result.violation = (successor, successor_path)
                    return result
                if len(seen) >= max_states:
                    result.truncated = True
                    return result
                next_frontier.append((successor, successor_path))
        frontier = next_frontier
        result.deepest_level += 1
        if result.deepest_level >= max_depth:
            result.truncated = True
            return result
    return result
