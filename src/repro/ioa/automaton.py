"""The :class:`Automaton` base class.

An automaton subclass declares its signature and implements its
transitions in the paper's precondition/effect style:

- ``is_enabled(action)`` evaluates the precondition (inputs are always
  enabled, as the I/O automaton model requires);
- ``apply(action)`` performs the effect;
- ``enabled_actions()`` enumerates the currently enabled locally
  controlled actions, which is what a scheduler chooses among.

State is held in ordinary instance attributes, which keeps the
transcription of the paper's figures direct.  For invariant checking and
simulation proofs the framework needs snapshots of state;
:meth:`Automaton.snapshot` deep-copies the instance ``__dict__`` (minus
framework-internal attributes), and subclasses may override it when they
hold unpicklable members.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from collections.abc import Iterator
from typing import Any

from repro.ioa.actions import Action, ActionKind, Signature


class TransitionError(Exception):
    """Raised when a locally controlled action is applied while disabled,
    or an action outside the signature is applied."""


class Automaton(ABC):
    """Base class for (untimed) I/O automata.

    Subclasses must set :attr:`signature` (a :class:`Signature`) before
    use — typically in ``__init__`` — and implement the three transition
    methods.
    """

    #: Attributes excluded from snapshots (framework bookkeeping).
    _SNAPSHOT_EXCLUDE: frozenset[str] = frozenset({"signature", "name"})

    signature: Signature
    name: str = "automaton"

    # ------------------------------------------------------------------
    # Transition interface
    # ------------------------------------------------------------------
    @abstractmethod
    def is_enabled(self, action: Action) -> bool:
        """Evaluate the precondition of ``action`` in the current state.

        Input actions must always return True (input-enabledness); the
        default implementations of :meth:`step` rely on this.
        """

    @abstractmethod
    def apply(self, action: Action) -> None:
        """Perform the effect of ``action`` on the current state."""

    @abstractmethod
    def enabled_actions(self) -> Iterator[Action]:
        """Yield currently enabled locally controlled actions.

        The enumeration need not be exhaustive when the enabled set is
        infinite, but must cover every action that any run of this
        reproduction needs to be able to schedule.
        """

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def step(self, action: Action) -> None:
        """Validate and apply a single transition."""
        try:
            kind = self.signature.kind_of(action.name)
        except KeyError:
            raise TransitionError(
                f"{self.name}: action {action} not in signature"
            ) from None
        if kind is not ActionKind.INPUT and not self.is_enabled(action):
            raise TransitionError(f"{self.name}: action {action} not enabled")
        self.apply(action)

    # ------------------------------------------------------------------
    # State snapshotting
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Deep-copy the automaton state for later inspection.

        The result is a plain dict mapping attribute name to copied
        value; it is *not* meant to be restored into the automaton (runs
        are replayed from seeds instead), only inspected by invariants
        and simulation relations.
        """
        return {
            key: copy.deepcopy(value)
            for key, value in self.__dict__.items()
            if key not in self._SNAPSHOT_EXCLUDE and not key.startswith("_framework")
        }

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"
