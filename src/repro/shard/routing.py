"""Consistent-hash routing of client keys onto VS groups.

The ring is the classic construction: every group owns ``vnodes``
points on a 64-bit circle, a key is owned by the first group point at
or clockwise-after the key's own point.  All hashing is SHA-256 — never
Python's ``hash()`` — so placement is identical across processes,
platforms and hash-randomisation seeds, and the whole ring is a pure
function of ``(groups, seed, vnodes)``: two rings built from the same
parameters agree point for point no matter the construction order.

Serialization is stable: :meth:`HashRing.to_dict` emits sorted groups
plus the placement parameters, and :meth:`HashRing.from_dict` rebuilds
an identical ring, so routing tables can ride config files, wire
frames and scenario artifacts byte-for-byte reproducibly.
"""

from __future__ import annotations

import bisect
import hashlib
from collections.abc import Iterable, Mapping, Sequence
from typing import Any

#: Size of the hash circle: points live in [0, 2**64).
RING_BITS = 64
_RING_MASK = (1 << RING_BITS) - 1


def _digest64(data: str) -> int:
    """First 8 bytes of SHA-256 as an unsigned int (process-stable)."""
    return int.from_bytes(
        hashlib.sha256(data.encode("utf-8")).digest()[:8], "big"
    )


def point_for_key(key: str) -> int:
    """The circle point of a client key (placement-seed independent:
    keys do not move when a ring is rebuilt under a different seed —
    only the group points do)."""
    return _digest64("key|" + key)


class HashRing:
    """A deterministic consistent-hash ring over group names.

    Parameters
    ----------
    groups:
        Group names (any iterable; order is irrelevant — the ring is a
        pure function of the *set*).
    seed:
        Placement seed: group points are ``sha256(seed|group|replica)``,
        so distinct seeds give independent placements while one seed is
        reproducible everywhere.
    vnodes:
        Points per group.  More points smooth the key distribution
        (relative load spread shrinks like ``1/sqrt(vnodes)``).
    """

    def __init__(
        self, groups: Iterable[str], seed: int = 0, vnodes: int = 64
    ) -> None:
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        names = sorted(set(groups))
        if not names:
            raise ValueError("a hash ring needs at least one group")
        for name in names:
            if not isinstance(name, str) or not name:
                raise ValueError(f"group names must be non-empty str, got {name!r}")
        self.seed = seed
        self.vnodes = vnodes
        self._groups: tuple[str, ...] = tuple(names)
        points: list[tuple[int, str]] = []
        for name in names:
            for replica in range(vnodes):
                point = _digest64(f"{seed}|group|{name}|{replica}")
                points.append((point & _RING_MASK, name))
        # Sort by (point, group): a 64-bit collision between two groups'
        # points resolves by name, deterministically.
        points.sort()
        self._points: list[int] = [p for p, _ in points]
        self._owners: list[str] = [g for _, g in points]

    # ------------------------------------------------------------------
    @property
    def groups(self) -> tuple[str, ...]:
        """The member groups, sorted."""
        return self._groups

    def __len__(self) -> int:
        return len(self._groups)

    def __contains__(self, group: object) -> bool:
        return group in self._groups

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HashRing):
            return NotImplemented
        return (
            self.seed == other.seed
            and self.vnodes == other.vnodes
            and self._groups == other._groups
        )

    def __hash__(self) -> int:
        return hash((self.seed, self.vnodes, self._groups))

    def __repr__(self) -> str:
        return (
            f"HashRing(groups={list(self._groups)!r}, seed={self.seed}, "
            f"vnodes={self.vnodes})"
        )

    # ------------------------------------------------------------------
    def owner_of(self, key: str) -> str:
        """The group owning ``key``: first point clockwise from the
        key's point (wrapping past the top of the circle)."""
        index = bisect.bisect_left(self._points, point_for_key(key))
        if index == len(self._points):
            index = 0
        return self._owners[index]

    def assignment(self, keys: Iterable[str]) -> dict[str, str]:
        """``key -> owning group`` for every key (insertion order kept)."""
        return {key: self.owner_of(key) for key in keys}

    def load(self, keys: Iterable[str]) -> dict[str, int]:
        """How many of ``keys`` each group owns (all groups present)."""
        counts = {g: 0 for g in self._groups}
        for key in keys:
            counts[self.owner_of(key)] += 1
        return counts

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """A stable JSON shape (groups sorted; parameters explicit)."""
        return {
            "kind": "hash-ring",
            "seed": self.seed,
            "vnodes": self.vnodes,
            "groups": list(self._groups),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> HashRing:
        if data.get("kind") != "hash-ring":
            raise ValueError(f"not a hash-ring dict: {data!r}")
        return cls(
            [str(g) for g in data["groups"]],
            seed=int(data["seed"]),
            vnodes=int(data["vnodes"]),
        )


def group_names(count: int) -> tuple[str, ...]:
    """The canonical shard names ``g0 .. g<count-1>`` used by both
    substrates' ``--shards N`` spellings."""
    if count < 1:
        raise ValueError(f"need at least one group, got {count}")
    return tuple(f"g{i}" for i in range(count))


def spread(loads: Sequence[int]) -> float:
    """Max/mean load ratio — the imbalance figure benchmarks report
    (1.0 is perfect balance)."""
    if not loads or sum(loads) == 0:
        return 1.0
    mean = sum(loads) / len(loads)
    return max(loads) / mean
