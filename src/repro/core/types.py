"""Core value types shared by the specifications and the algorithm.

The paper fixes:

- ``P``: a totally ordered finite set of processor identifiers;
- ``G``: a totally ordered set of view identifiers with minimal element
  ``g0``; ``views = G x powerset(P)``;
- ``L = G x N x P``: labels ordered lexicographically (Fig. 8);
- ``S_bot``: any basic set extended with a bottom element smaller than
  everything.

View identifiers here are any values comparable among themselves — the
specs use integers, the token-ring implementation uses
``(epoch, initiator)`` pairs; both are totally ordered.  :data:`BOTTOM`
implements the paper's bottom: it compares less than every non-bottom
value via :func:`view_id_less`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from collections.abc import Hashable, Iterable
from typing import Any

ProcId = Hashable
ViewId = Any  # any value totally ordered within one run


class Bottom:
    """The bottom element: less than every view identifier.

    A singleton; compare with ``is BOTTOM`` or through
    :func:`view_id_less`.
    """

    _instance: Bottom | None = None

    def __new__(cls) -> Bottom:
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"

    def __deepcopy__(self, memo: dict) -> Bottom:
        return self

    def __copy__(self) -> Bottom:
        return self


BOTTOM = Bottom()


def view_id_less(a: ViewId, b: ViewId) -> bool:
    """Strict order on ``G_bot``: bottom is below everything else."""
    if a is BOTTOM:
        return b is not BOTTOM
    if b is BOTTOM:
        return False
    return a < b


def view_id_max(ids: Iterable[ViewId]) -> ViewId:
    """Maximum over ``G_bot`` values (bottom if the iterable is empty or
    all-bottom)."""
    best: ViewId = BOTTOM
    for candidate in ids:
        if view_id_less(best, candidate):
            best = candidate
    return best


@dataclass(frozen=True, slots=True)
class View:
    """A view: an identifier paired with a membership set.

    Matches the paper's ``v.id`` / ``v.set`` selectors.
    """

    id: ViewId
    set: frozenset[ProcId]

    def __post_init__(self) -> None:
        object.__setattr__(self, "set", frozenset(self.set))

    def __contains__(self, p: ProcId) -> bool:
        return p in self.set

    def __str__(self) -> str:
        members = ",".join(str(m) for m in sorted(self.set, key=str))
        return f"⟨{self.id},{{{members}}}⟩"


@total_ordering
@dataclass(frozen=True, slots=True)
class Label:
    """A system-wide unique message label (Fig. 8): ``L = G x N>0 x P``
    with selectors id, seqno, origin; ordered lexicographically."""

    id: ViewId
    seqno: int
    origin: ProcId

    def _key(self) -> tuple:
        return (self.id, self.seqno, self.origin)

    def __lt__(self, other: Label) -> bool:
        if not isinstance(other, Label):
            return NotImplemented
        return self._key() < other._key()

    def __str__(self) -> str:
        return f"⟨{self.id},{self.seqno},{self.origin}⟩"


def initial_view(members: Iterable[ProcId], g0: ViewId = 0) -> View:
    """The distinguished initial view ``v0 = (g0, P0)``."""
    return View(g0, frozenset(members))
