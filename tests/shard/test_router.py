"""Shard router: key-routed dispatch, per-group backpressure windows
(queued, never dropped), completion promotion, ring swaps, stats."""

from __future__ import annotations

import pytest

from repro.shard.router import ShardRouter
from repro.shard.routing import HashRing, group_names


class RecordingBackend:
    """A ShardBackend that just records what it was handed."""

    def __init__(self, group):
        self._group = group
        self.received = []

    @property
    def group(self):
        return self._group

    def submit(self, key, value):
        self.received.append((key, value))


def make_router(n_groups=2, window=2):
    ring = HashRing(group_names(n_groups), seed=0)
    backends = {g: RecordingBackend(g) for g in ring.groups}
    router = ShardRouter(ring, backends=backends, window=window)
    return ring, backends, router


def keys_owned_by(ring, group, count):
    keys, probe = [], 0
    while len(keys) < count:
        key = f"{group}-k{probe}"
        probe += 1
        if ring.owner_of(key) == group:
            keys.append(key)
    return keys


class TestDispatch:
    def test_routes_by_ring_owner(self):
        ring, backends, router = make_router(4, window=None)
        for i in range(40):
            key = f"k{i}"
            assert router.submit(key, i) == ring.owner_of(key)
        for group, backend in backends.items():
            assert all(ring.owner_of(k) == group for k, _ in backend.received)
        assert sum(len(b.received) for b in backends.values()) == 40

    def test_missing_backend_is_an_error_not_a_drop(self):
        ring = HashRing(group_names(2), seed=0)
        router = ShardRouter(ring, backends={}, window=None)
        with pytest.raises(KeyError):
            router.submit("k0", "v")

    def test_duplicate_backend_rejected(self):
        _, _, router = make_router(2)
        with pytest.raises(ValueError):
            router.add_backend("g0", RecordingBackend("g0"))

    def test_window_must_be_positive(self):
        ring = HashRing(group_names(1))
        with pytest.raises(ValueError):
            ShardRouter(ring, window=0)


class TestBackpressure:
    def test_saturation_queues_fifo_never_drops(self):
        ring, backends, router = make_router(1, window=2)
        keys = keys_owned_by(ring, "g0", 1)
        for i in range(10):
            router.submit(keys[0], i)
        # Exactly the window dispatched; the rest parked in order.
        assert [v for _, v in backends["g0"].received] == [0, 1]
        assert router.inflight("g0") == 2
        assert router.queue_depth("g0") == 8
        assert router.pending("g0") == 10
        # Completions free slots and promote strictly FIFO.
        for _ in range(5):
            router.complete("g0", 2)
        assert [v for _, v in backends["g0"].received] == list(range(10))
        assert router.idle("g0")
        stats = router.stats()["groups"]["g0"]
        assert stats["routed"] == 10
        assert stats["queued"] == 8
        assert stats["queue_peak"] == 8

    def test_one_saturated_group_does_not_block_the_other(self):
        ring, backends, router = make_router(2, window=1)
        g0_keys = keys_owned_by(ring, "g0", 1)
        g1_keys = keys_owned_by(ring, "g1", 1)
        for i in range(6):
            router.submit(g0_keys[0], f"a{i}")
        # g0 is saturated (1 in flight, 5 queued) — g1 still dispatches.
        for i in range(3):
            router.submit(g1_keys[0], f"b{i}")
            router.complete("g1")
        assert len(backends["g1"].received) == 3
        assert router.idle("g1")
        assert router.pending("g0") == 6

    def test_unbounded_window_dispatches_everything(self):
        ring, backends, router = make_router(1, window=None)
        keys = keys_owned_by(ring, "g0", 1)
        for i in range(100):
            router.submit(keys[0], i)
        assert len(backends["g0"].received) == 100
        assert router.queue_depth("g0") == 0

    def test_complete_bounds_checked(self):
        _, _, router = make_router(1, window=2)
        with pytest.raises(KeyError):
            router.complete("nope")
        with pytest.raises(ValueError):
            router.complete("g0", 1)  # nothing in flight


class TestRingSwap:
    def test_remove_backend_requires_idle(self):
        ring, _, router = make_router(2, window=1)
        key = keys_owned_by(ring, "g0", 1)[0]
        router.submit(key, "v")
        with pytest.raises(ValueError):
            router.remove_backend("g0")
        router.complete("g0")
        router.remove_backend("g0")
        assert router.groups == ("g1",)


class TestMetrics:
    def test_per_group_counters_and_gauges(self):
        ring, _, router = make_router(1, window=2)
        keys = keys_owned_by(ring, "g0", 1)
        for i in range(5):
            router.submit(keys[0], i)
        stats = router.stats()["groups"]["g0"]
        assert stats["routed"] == 2
        assert stats["queued"] == 3
        assert stats["inflight"] == 2
        assert stats["queue_depth"] == 3
        router.complete("g0", 2)
        stats = router.stats()["groups"]["g0"]
        assert stats["routed"] == 4
        assert stats["queue_depth"] == 1
