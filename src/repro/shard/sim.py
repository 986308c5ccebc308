"""The DES substrate adapter: many VStoTO groups, one virtual clock.

Each shard is one complete, paper-faithful stack — a
:class:`~repro.apps.totalorder.TotalOrderBroadcast` with its own
simulator, token ring and VStoTO processes — continuously checked by a
permissive :class:`~repro.core.monitor.OnlineVSMonitor`.  Group seeds
derive deterministically from the master seed and the group *name*
(SHA-256, never ``hash()``), so group ``g7`` sees the same channel
randomness whether the service runs 8 or 64 shards.

:class:`ShardedSimService` is the closed-loop service: a
:class:`~repro.shard.router.ShardRouter` in front, per-group windows
exerting real backpressure (a delivery back at the submitting location
frees a slot), all groups advanced in lockstep over one virtual clock.
This is what the isolation tests drive — partition one shard and watch
the others' windows keep cycling.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from typing import Any

from repro.apps.totalorder import TotalOrderBroadcast
from repro.core.monitor import OnlineVSMonitor
from repro.core.to_spec import TO_EXTERNAL
from repro.ioa.actions import Action
from repro.membership.ring import RingConfig
from repro.shard.router import ShardRouter
from repro.shard.routing import HashRing, group_names, point_for_key
from repro.shard.verify import (
    ShardOp,
    ShardVerdict,
    check_cross_shard_order,
    make_op,
    verdict_for_group,
)

ProcId = Any


def derive_group_seed(master_seed: int, group: str) -> int:
    """A group's private seed: a 32-bit SHA-256 fold of the master seed
    and the group *name* — stable across processes and topologies."""
    digest = hashlib.sha256(f"{master_seed}|shard-seed|{group}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def default_processors(count: int) -> tuple[str, ...]:
    """The per-group processor names ``p1 .. p<count>``."""
    if count < 1:
        raise ValueError(f"need at least one processor, got {count}")
    return tuple(f"p{i + 1}" for i in range(count))


class SimShardGroup:
    """One shard: a full TotalOrderBroadcast stack plus its monitor.

    Implements the router's :class:`~repro.shard.router.ShardBackend`
    protocol: ``submit`` broadcasts the operation at the next origin
    location (round-robin), and the origin's own delivery of that
    operation reports completion back to the router — the closed loop
    that makes the per-group window real backpressure.

    Parameters
    ----------
    group:
        The group name (``g0``, ``g1``, ...).
    processors:
        This group's processor identifiers.
    seed:
        The group's private randomness seed (see
        :func:`derive_group_seed`).
    config:
        Ring timing parameters; ``None`` for the stack's defaults.
    router:
        The fronting router to notify on completions (``None`` for
        open-loop use).
    """

    def __init__(
        self,
        group: str,
        processors: Sequence[ProcId],
        seed: int = 0,
        config: RingConfig | None = None,
        router: ShardRouter | None = None,
    ) -> None:
        self._group = group
        self.processors = tuple(processors)
        self.seed = seed
        self.router = router
        self.service = TotalOrderBroadcast(
            self.processors,
            config=config,
            seed=seed,
            on_deliver=self._on_deliver,
        )
        self.monitor = OnlineVSMonitor(
            self.processors, self.service.vs.initial_view, strict=False
        )
        self.monitor.attach(self.service.vs)

    # ------------------------------------------------------------------
    @property
    def group(self) -> str:
        return self._group

    @property
    def now(self) -> float:
        return self.service.now

    def origin_for(self, key: str) -> ProcId:
        """The key's session location.  Every operation on a key enters
        at one fixed processor, so TO's per-sender FIFO turns the
        client's per-key submission order into the delivered order —
        the property the cross-shard checker relies on."""
        return self.processors[point_for_key(key) % len(self.processors)]

    def submit(self, key: str, value: Any) -> None:
        """Broadcast one routed operation at the key's session location."""
        self.service.broadcast(self.origin_for(key), value)

    def _on_deliver(self, value: Any, origin: ProcId, dst: ProcId) -> None:
        # The submitting location's own delivery closes the loop: the
        # operation is totally ordered and applied where it entered.
        if self.router is not None and dst == origin:
            self.router.complete(self._group)

    def run_until(self, time: float) -> None:
        self.service.run_until(time)

    # ------------------------------------------------------------------
    def delivered_order(self) -> list[ShardOp]:
        """This shard's total order of operations: the longest delivery
        sequence over its locations (per-shard TO conformance proves all
        locations agree on a common prefix order)."""
        best: list[ShardOp] = []
        for p in self.processors:
            seq = self.service.delivered(p)
            if len(seq) > len(best):
                best = seq
        return list(best)

    def to_actions(self) -> list[Action]:
        return [
            e.action
            for e in self.service.to_trace().events
            if e.action.name in TO_EXTERNAL
        ]

    def verdict(self) -> ShardVerdict:
        """This shard's combined verdict: TO trace membership plus the
        online VS monitor's findings."""
        return verdict_for_group(
            self._group,
            self.processors,
            self.to_actions(),
            self.monitor.violations,
            vs_events_checked=self.monitor.events_checked,
        )

    def stats(self) -> dict[str, Any]:
        stats = self.service.stats()
        stats["group"] = self._group
        stats["seed"] = self.seed
        stats["vs_events_checked"] = self.monitor.events_checked
        return stats


class ShardedSimService:
    """The closed-loop sharded service on the DES substrate.

    ``n_groups`` independent shards, one consistent-hash ring, one
    router with per-group windows, one virtual clock advanced in
    lockstep across every shard's simulator.  Operations enter by key
    (:meth:`put` now, :meth:`schedule_put` later); :meth:`verify`
    decides every per-shard verdict plus the cross-shard key-order
    invariant.

    Parameters
    ----------
    n_groups:
        Shard count; groups are named ``g0 .. g<n-1>``.
    procs_per_group:
        Locations per shard.
    seed:
        Master seed: ring placement uses it directly, each group's
        stack uses :func:`derive_group_seed` of it.
    window:
        Per-group in-flight ceiling (``None``: no backpressure).
    vnodes:
        Ring points per group.
    config:
        Ring timing parameters shared by every shard.
    """

    def __init__(
        self,
        n_groups: int,
        procs_per_group: int = 3,
        seed: int = 0,
        window: int | None = 32,
        vnodes: int = 64,
        config: RingConfig | None = None,
    ) -> None:
        self.group_names = group_names(n_groups)
        self.seed = seed
        self.ring = HashRing(self.group_names, seed=seed, vnodes=vnodes)
        self.router = ShardRouter(self.ring, window=window)
        self.groups: dict[str, SimShardGroup] = {}
        for name in self.group_names:
            shard = SimShardGroup(
                name,
                default_processors(procs_per_group),
                seed=derive_group_seed(seed, name),
                config=config,
                router=self.router,
            )
            self.groups[name] = shard
            self.router.add_backend(name, shard)
        self.clock = 0.0
        self.submitted: dict[str, list[ShardOp]] = {}
        self._op_seq = 0
        self._pending: list[tuple[float, int, str, Any]] = []

    # ------------------------------------------------------------------
    def put(self, key: str, payload: Any) -> str:
        """Submit one operation on ``key`` at the current virtual time;
        returns the owning group."""
        op = make_op(key, self._op_seq, payload)
        self._op_seq += 1
        self.submitted.setdefault(key, []).append(op)
        return self.router.submit(key, op)

    def schedule_put(self, time: float, key: str, payload: Any) -> None:
        """Submit ``(key, payload)`` when the virtual clock reaches
        ``time`` (the next :meth:`run_until` that covers it)."""
        if time < self.clock:
            raise ValueError(
                f"cannot schedule at {time} behind the clock ({self.clock})"
            )
        self._pending.append((time, len(self._pending), key, payload))

    def run_until(self, time: float) -> None:
        """Advance every shard to ``time``, dispatching scheduled
        operations at their due times in deterministic order."""
        due = sorted(entry for entry in self._pending if entry[0] <= time)
        self._pending = [entry for entry in self._pending if entry[0] > time]
        for at, _, key, payload in due:
            if at > self.clock:
                self._advance(at)
            self.put(key, payload)
        if time > self.clock:
            self._advance(time)

    def _advance(self, time: float) -> None:
        for name in self.group_names:
            self.groups[name].run_until(time)
        self.clock = time

    # ------------------------------------------------------------------
    def deliveries(self) -> int:
        """Total Delivery events across all shards and locations."""
        return sum(len(g.service.deliveries) for g in self.groups.values())

    def verify(self) -> dict[str, Any]:
        """Every per-shard verdict plus the cross-shard invariant."""
        verdicts = {name: self.groups[name].verdict() for name in self.group_names}
        cross = check_cross_shard_order(
            self.submitted,
            {name: self.groups[name].delivered_order() for name in self.group_names},
            self.ring,
        )
        return {
            "ok": all(v.ok for v in verdicts.values()) and cross.ok,
            "groups": {name: verdicts[name].to_dict() for name in self.group_names},
            "cross_shard": cross.to_dict(),
        }

    def stats(self) -> dict[str, Any]:
        return {
            "clock": self.clock,
            "n_groups": len(self.group_names),
            "submitted": self._op_seq,
            "deliveries": self.deliveries(),
            "router": self.router.stats(),
            "ring_load": self.ring.load(self.submitted),
        }
