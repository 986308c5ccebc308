"""Label/summary types and operations (Fig. 8).

Types::

    L = G x N>0 x P                  selectors id, seqno, origin
    summaries = P(L x A) x L* x N>0 x G_bot
                                     selectors con, ord, next, high

:class:`repro.core.types.Label` provides L; :class:`Summary` provides the
summary record.  The free functions below transcribe the Fig. 8
operations on a ``gotstate`` map Y (a partial function from processor ids
to summaries).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Hashable, Iterator, Mapping, Sequence
from typing import Any

from repro.core.types import BOTTOM, Label, ViewId, view_id_max

ProcId = Hashable

#: A (label, value) pair, the element type of ``con``.
ContentPair = tuple[Label, Any]


class SharedOrderPrefix(Sequence):
    """An immutable length-``length`` prefix of an append-only list,
    shared rather than copied.

    ``VStoTOProcess.order`` is only ever appended to or wholesale
    replaced, so the first ``length`` elements of a given backing list
    never change — a ``(backing, length)`` pair is a stable O(1)
    snapshot where ``tuple(order)`` would copy O(len(order)).  The class
    behaves like the tuple it replaces (equality, hashing, slicing,
    iteration), so history variables built from it (``buildorder``)
    remain directly comparable against tuples in the invariant checks.
    """

    __slots__ = ("_backing", "_length", "_hash")

    def __init__(self, backing: list, length: int) -> None:
        if length > len(backing):
            raise ValueError(
                f"prefix length {length} exceeds backing length {len(backing)}"
            )
        self._backing = backing
        self._length = length
        self._hash: Any = None

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: int | slice) -> Any:
        if isinstance(index, slice):
            return tuple(self._backing[: self._length][index])
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(index)
        return self._backing[index]

    def __iter__(self) -> Iterator:
        return iter(self._backing[: self._length])

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, SharedOrderPrefix):
            if other._length != self._length:
                return False
            other = other._backing[: other._length]
        elif isinstance(other, (tuple, list)):
            other = list(other)
        else:
            return NotImplemented
        return self._backing[: self._length] == list(other)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(self._backing[: self._length]))
        return self._hash

    def __repr__(self) -> str:
        return repr(tuple(self._backing[: self._length]))

    def __reduce__(self) -> tuple[Any, ...]:
        # Pickle/deepcopy as a detached copy: snapshots taken for
        # invariant checking must not alias live process state.
        return (_rebuild_prefix, (list(self._backing[: self._length]),))


def _rebuild_prefix(items: list) -> SharedOrderPrefix:
    return SharedOrderPrefix(items, len(items))


@dataclass(frozen=True, slots=True)
class Summary:
    """A state-exchange summary: ⟨con, ord, next, high⟩."""

    con: frozenset[ContentPair]
    ord: tuple[Label, ...]
    next: int
    high: ViewId  # an element of G_bot

    def __post_init__(self) -> None:
        object.__setattr__(self, "con", frozenset(self.con))
        object.__setattr__(self, "ord", tuple(self.ord))
        if self.next < 1:
            raise ValueError(f"next must be >= 1, got {self.next}")

    @property
    def confirm(self) -> tuple[Label, ...]:
        """``x.confirm``: the prefix of ``x.ord`` of length
        ``min(x.next - 1, length(x.ord))``."""
        return self.ord[: min(self.next - 1, len(self.ord))]

    def __str__(self) -> str:
        return (
            f"Summary(|con|={len(self.con)}, |ord|={len(self.ord)}, "
            f"next={self.next}, high={self.high})"
        )


def summary_confirm(x: Summary) -> tuple[Label, ...]:
    """Free-function form of :attr:`Summary.confirm`."""
    return x.confirm


GotState = Mapping[ProcId, Summary]


def knowncontent(gotstate: GotState) -> frozenset[ContentPair]:
    """``knowncontent(Y) = union of Y(q).con over q in dom(Y)``."""
    pairs: set[ContentPair] = set()
    for summary in gotstate.values():
        pairs |= summary.con
    return frozenset(pairs)


def maxprimary(gotstate: GotState) -> ViewId:
    """``maxprimary(Y) = max over q of Y(q).high`` (over G_bot)."""
    if not gotstate:
        return BOTTOM
    return view_id_max(summary.high for summary in gotstate.values())


def reps(gotstate: GotState) -> frozenset[ProcId]:
    """``reps(Y)``: members whose summary attains maxprimary(Y)."""
    top = maxprimary(gotstate)
    return frozenset(
        q
        for q, summary in gotstate.items()
        if summary.high == top
        or (summary.high is BOTTOM and top is BOTTOM)
    )


def chosenrep(gotstate: GotState) -> ProcId:
    """``chosenrep(Y)``: a consistently chosen element of reps(Y).

    Any rule works as long as all processors choose identically from
    identical information (the paper suggests highest processor id,
    which is what we use; ids are compared via their string form as a
    total-order fallback for mixed id types).
    """
    candidates = reps(gotstate)
    if not candidates:
        raise ValueError("chosenrep of empty gotstate")
    return max(candidates, key=lambda q: (str(q), repr(q)))


def shortorder(gotstate: GotState) -> tuple[Label, ...]:
    """``shortorder(Y) = Y(chosenrep(Y)).ord`` — the order adopted when
    the new view is not primary."""
    return gotstate[chosenrep(gotstate)].ord


def fullorder(gotstate: GotState) -> tuple[Label, ...]:
    """``fullorder(Y)``: shortorder(Y) followed by the remaining labels
    of dom(knowncontent(Y)) in label order — the order adopted when the
    new view is primary."""
    prefix = shortorder(gotstate)
    seen = set(prefix)
    remaining = sorted(
        {label for (label, _value) in knowncontent(gotstate)} - seen
    )
    return prefix + tuple(remaining)


def maxnextconfirm(gotstate: GotState) -> int:
    """``maxnextconfirm(Y)``: the largest reported next value."""
    if not gotstate:
        raise ValueError("maxnextconfirm of empty gotstate")
    return max(summary.next for summary in gotstate.values())


def content_as_function(pairs: frozenset[ContentPair]) -> dict[Label, Any]:
    """Interpret a content set as a function label → value.

    Lemma 6.5 guarantees *allcontent* is a function in every reachable
    state; a conflict here means the invariant is broken, so we raise
    rather than pick a winner.
    """
    mapping: dict[Label, Any] = {}
    for label, value in pairs:
        if label in mapping and mapping[label] != value:
            raise ValueError(
                f"content is not a function: {label} maps to both "
                f"{mapping[label]!r} and {value!r}"
            )
        mapping[label] = value
    return mapping
