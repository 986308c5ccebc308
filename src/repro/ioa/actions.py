"""Actions and signatures for I/O automata.

An *action* is a named event with parameters, e.g. ``bcast(a)_p`` from the
paper's TO interface becomes ``act("bcast", a, p)``.  Subscripts in the
paper (the location(s) an action occurs at) are ordinary trailing
parameters here; by convention the location parameters come last, in the
paper's subscript order (source before destination).

A *signature* classifies action names as input, output or internal.
Classification is by action name: every action sharing a name has the
same kind within one automaton, which matches how the paper's signatures
are written (``gprcv(m)_{p,q}`` is one schema covering all m, p, q).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from collections.abc import Iterable
from typing import Any


class ActionKind(enum.Enum):
    """Kind of an action within a signature."""

    INPUT = "input"
    OUTPUT = "output"
    INTERNAL = "internal"
    TIME_PASSAGE = "time-passage"


@dataclass(frozen=True, slots=True)
class Action:
    """An action instance: a name plus a tuple of parameters.

    Actions are immutable and hashable so they can be stored in traces,
    used as dictionary keys by schedulers, and compared for equality when
    matching a concrete step against an abstract one.
    """

    name: str
    args: tuple[Any, ...] = ()

    def __str__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.name}({inner})"

    def arg(self, index: int) -> Any:
        """Return the parameter at ``index`` (0-based)."""
        return self.args[index]


def act(name: str, *args: Any) -> Action:
    """Convenience constructor: ``act("bcast", value, p)``."""
    return Action(name, tuple(args))


class Signature:
    """An action signature: disjoint sets of input/output/internal names.

    The *external* actions are the inputs and outputs; only these appear
    in traces.  ``TIME_PASSAGE`` is handled by the timed layer and never
    appears in a signature.
    """

    def __init__(
        self,
        inputs: Iterable[str] = (),
        outputs: Iterable[str] = (),
        internals: Iterable[str] = (),
    ) -> None:
        self._inputs = frozenset(inputs)
        self._outputs = frozenset(outputs)
        self._internals = frozenset(internals)
        overlap = (
            (self._inputs & self._outputs)
            | (self._inputs & self._internals)
            | (self._outputs & self._internals)
        )
        if overlap:
            raise ValueError(f"action names in more than one class: {sorted(overlap)}")
        # name -> kind, built once: every Automaton.step classifies its
        # action here.
        self._kinds: dict[str, ActionKind] = {
            **dict.fromkeys(self._inputs, ActionKind.INPUT),
            **dict.fromkeys(self._outputs, ActionKind.OUTPUT),
            **dict.fromkeys(self._internals, ActionKind.INTERNAL),
        }

    @property
    def inputs(self) -> frozenset[str]:
        return self._inputs

    @property
    def outputs(self) -> frozenset[str]:
        return self._outputs

    @property
    def internals(self) -> frozenset[str]:
        return self._internals

    @property
    def external(self) -> frozenset[str]:
        """Names of external (input or output) actions."""
        return self._inputs | self._outputs

    @property
    def locally_controlled(self) -> frozenset[str]:
        """Names of locally controlled (output or internal) actions."""
        return self._outputs | self._internals

    @property
    def all_names(self) -> frozenset[str]:
        return self._inputs | self._outputs | self._internals

    def kind_of(self, name: str) -> ActionKind:
        """Classify ``name``; raises :class:`KeyError` if absent."""
        try:
            return self._kinds[name]
        except KeyError:
            raise KeyError(f"action {name!r} not in signature") from None

    def contains(self, name: str) -> bool:
        return name in self._kinds

    def hide(self, names: Iterable[str]) -> Signature:
        """Return a signature with the given output names made internal.

        Hiding is how the paper forms *VStoTO-system*: the ``gpsnd``,
        ``gprcv``, ``safe`` and ``newview`` actions used between the two
        layers are hidden after composition.
        """
        names = frozenset(names)
        unknown = names - self._outputs
        if unknown:
            raise ValueError(f"cannot hide non-output actions: {sorted(unknown)}")
        return Signature(
            inputs=self._inputs,
            outputs=self._outputs - names,
            internals=self._internals | names,
        )

    def __repr__(self) -> str:
        return (
            f"Signature(inputs={sorted(self._inputs)}, "
            f"outputs={sorted(self._outputs)}, "
            f"internals={sorted(self._internals)})"
        )
