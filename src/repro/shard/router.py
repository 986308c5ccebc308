"""The client-facing shard router: key-routed fan-out with per-group
backpressure.

A request enters with a key; the :class:`~repro.shard.routing.HashRing`
names the owning group; the router hands the request to that group's
backend **unless the group already has a full in-flight window**, in
which case the request queues (FIFO, never dropped).  Completions —
signalled by the backend when the group delivers the request back to
its origin — free window slots and promote queued requests in order.

The window is the flow-control contract that makes many slow shards
compose into one responsive service: a shard stuck behind a partition
only ever holds its own window's worth of traffic plus its own queue;
the other shards' windows keep cycling (the isolation property
``tests/shard/test_sim_service.py`` asserts under a seeded one-shard
partition).

Queue depths, in-flight counts and routed/queued totals per group are
plain counters, reported by :meth:`ShardRouter.stats`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from typing import Any, Protocol

from repro.shard.routing import HashRing


class ShardBackend(Protocol):
    """What the router needs from a per-group runtime."""

    @property
    def group(self) -> str:
        """The group name this backend serves."""
        ...

    def submit(self, key: str, value: Any) -> None:
        """Hand one client request to the group (must not block)."""
        ...


class _GroupChannel:
    """Window + queue state for one group."""

    __slots__ = ("inflight", "queue", "routed", "queued", "queue_peak")

    def __init__(self) -> None:
        self.inflight = 0
        self.queue: deque[tuple[str, Any]] = deque()
        self.routed = 0
        self.queued = 0
        self.queue_peak = 0


class ShardRouter:
    """Fan client requests out to per-group backends.

    Parameters
    ----------
    ring:
        The routing table.
    backends:
        ``group -> backend`` for every ring group.  Backends may be
        registered later (:meth:`add_backend`) but a request routed to
        a group with no backend is an error, never a silent drop.
    window:
        In-flight ceiling per group; ``None`` disables backpressure
        (requests always dispatch immediately).
    """

    def __init__(
        self,
        ring: HashRing,
        backends: Mapping[str, ShardBackend] | None = None,
        window: int | None = 32,
    ) -> None:
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1 or None, got {window}")
        self.ring = ring
        self.window = window
        self._backends: dict[str, ShardBackend] = {}
        self._channels: dict[str, _GroupChannel] = {}
        if backends:
            for group, backend in backends.items():
                self.add_backend(group, backend)

    # ------------------------------------------------------------------
    def add_backend(self, group: str, backend: ShardBackend) -> None:
        if group in self._backends:
            raise ValueError(f"group {group!r} already has a backend")
        self._backends[group] = backend
        self._channels.setdefault(group, _GroupChannel())

    @property
    def groups(self) -> tuple[str, ...]:
        return tuple(sorted(self._backends))

    # ------------------------------------------------------------------
    def submit(self, key: str, value: Any) -> str:
        """Route one request; returns the owning group.  Full window:
        the request queues (never dropped, never reordered within its
        group)."""
        group = self.ring.owner_of(key)
        channel = self._channels.get(group)
        if channel is None or group not in self._backends:
            raise KeyError(f"no backend for group {group!r} (key {key!r})")
        if self.window is not None and channel.inflight >= self.window:
            channel.queue.append((key, value))
            channel.queued += 1
            channel.queue_peak = max(channel.queue_peak, len(channel.queue))
        else:
            self._dispatch(group, channel, key, value)
        return group

    def _dispatch(
        self, group: str, channel: _GroupChannel, key: str, value: Any
    ) -> None:
        channel.inflight += 1
        channel.routed += 1
        self._backends[group].submit(key, value)

    def complete(self, group: str, n: int = 1) -> None:
        """A backend reports ``n`` requests finished: free window slots
        and promote queued requests in FIFO order."""
        channel = self._channels.get(group)
        if channel is None:
            raise KeyError(f"unknown group {group!r}")
        if n < 0 or n > channel.inflight:
            raise ValueError(
                f"complete({group!r}, {n}): only {channel.inflight} in flight"
            )
        channel.inflight -= n
        while channel.queue and (
            self.window is None or channel.inflight < self.window
        ):
            key, value = channel.queue.popleft()
            self._dispatch(group, channel, key, value)

    # ------------------------------------------------------------------
    def inflight(self, group: str) -> int:
        return self._channels[group].inflight

    def queue_depth(self, group: str) -> int:
        return len(self._channels[group].queue)

    def pending(self, group: str) -> int:
        """In-flight plus queued — zero iff the group is quiescent."""
        channel = self._channels[group]
        return channel.inflight + len(channel.queue)

    def idle(self, group: str) -> bool:
        channel = self._channels.get(group)
        return channel is None or (
            channel.inflight == 0 and not channel.queue
        )

    def stats(self) -> dict[str, Any]:
        """Per-group routing counters plus totals."""
        per_group = {
            group: {
                "routed": channel.routed,
                "queued": channel.queued,
                "inflight": channel.inflight,
                "queue_depth": len(channel.queue),
                "queue_peak": channel.queue_peak,
            }
            for group, channel in sorted(self._channels.items())
        }
        return {
            "window": self.window,
            "groups": per_group,
            "routed_total": sum(c.routed for c in self._channels.values()),
            "queued_total": sum(c.queued for c in self._channels.values()),
            "pending_total": sum(
                c.inflight + len(c.queue) for c in self._channels.values()
            ),
        }
