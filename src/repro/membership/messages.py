"""Wire-format records for the membership/token protocol.

View identifiers are ``(epoch, initiator)`` pairs, ordered
lexicographically; epochs only grow, and an initiator never reuses an
epoch, so identifiers are globally unique — exactly what the paper's
Section 8 sketch requires ("viewids have a procid as low-order part and
an epoch as high-order part").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Hashable
from typing import Any

ProcId = Hashable
RingViewId = tuple[int, Any]  # (epoch, initiator); compared lexicographically


@dataclass(frozen=True, slots=True)
class NewGroup:
    """Round 1: a call-for-participation in a new view."""

    viewid: RingViewId
    initiator: ProcId


@dataclass(frozen=True, slots=True)
class Accept:
    """Round 2: a reply agreeing to join the proposed view."""

    viewid: RingViewId
    member: ProcId


@dataclass(frozen=True, slots=True)
class Join:
    """Round 3: the initiator announces the final membership."""

    viewid: RingViewId
    members: tuple[ProcId, ...]


@dataclass(slots=True)
class Token:
    """The circulating token that holds a view together and carries the
    view's total message order.

    - ``members``: the view membership (lets a processor that missed the
      Join install the view from the token, tolerating reordering);
    - ``order``: a *window* of the view's message sequence, entries are
      (payload, origin) pairs — this is ``queue[g]`` made concrete.  The
      window covers logical positions ``base .. base + len(order)``;
      with delta encoding a forwarder trims it to what its successor has
      not yet acknowledged, so a steady-state hop carries O(new entries)
      instead of the whole history.  ``base == 0`` (the default) makes
      ``order`` the full sequence — the legacy full-copy encoding;
    - ``delivered``: per-member count of order entries that member had
      passed to its client when the token last left it (the basis for
      the safe indication).  All counts (``delivered``/``safed``/
      ``seen``) are absolute positions in the logical sequence, never
      window-relative, so trimming does not disturb them;
    - ``hop``: position in the circulation (diagnostics).
    """

    viewid: RingViewId
    members: tuple[ProcId, ...] = ()
    #: logical position of ``order[0]`` in the view's full sequence
    base: int = 0
    order: list = field(default_factory=list)
    delivered: dict = field(default_factory=dict)
    safed: dict = field(default_factory=dict)
    seen: dict = field(default_factory=dict)
    #: the members of the last lap, in visiting order and at most
    #: ``len(members)`` of them: liveness evidence no older than one
    #: circulation, for the one-round connectivity estimate (periodic
    #: mode also empties it at each launch)
    trail: list = field(default_factory=list)
    hop: int = 0

    @property
    def total(self) -> int:
        """Length of the view's full logical sequence as this token
        knows it (the position just past the window's last entry)."""
        return self.base + len(self.order)

    def copy(self) -> Token:
        """Per-hop copy so in-flight tokens never alias member state."""
        return Token(
            viewid=self.viewid,
            members=self.members,
            base=self.base,
            order=list(self.order),
            delivered=dict(self.delivered),
            safed=dict(self.safed),
            seen=dict(self.seen),
            trail=list(self.trail),
            hop=self.hop,
        )

    def seen_prefix_length(self, members: tuple[ProcId, ...]) -> int:
        """Entries every member has *seen* (had on its token pass) —
        the Totem-style gating condition for safe-before-deliver."""
        if not members:
            return 0
        return min(self.seen.get(m, 0) for m in members)

    def safe_prefix_length(self, members: tuple[ProcId, ...]) -> int:
        """Entries delivered at *every* member per the token's counts."""
        if not members:
            return 0
        return min(self.delivered.get(m, 0) for m in members)


@dataclass(frozen=True, slots=True)
class Probe:
    """A merge probe sent to processors outside the current view."""

    sender: ProcId
    viewid: RingViewId


@dataclass(frozen=True, slots=True)
class Wake:
    """A member's request that the leader launch its idle token now
    (work-conserving mode).  A liveness hint outside the model: it is
    never retransmitted and never starts a formation, so a lost or stale
    wake costs at most the wait for the next π tick."""

    viewid: RingViewId


@dataclass(frozen=True, slots=True)
class Sequenced:
    """A protocol message stamped with a per-sender packet sequence
    number.

    The model's channels may duplicate nothing, but the nemesis layer
    (and real networks) can: the receiver suppresses packets whose
    (sender, seq) it has already processed.  Retransmissions of the same
    logical message are *new* packets with fresh sequence numbers — they
    are filtered by the handlers' idempotence, not by this layer.

    Sequence numbers are strictly increasing per sender across the whole
    run (they survive a crash-restart, like the epoch: a single durable
    counter), so a receiver can also bound its memory by refusing
    anything at or below a pruned floor.
    """

    seq: int
    body: Any
