"""The DES shard service: closed-loop delivery with verification,
partition isolation between shards, and the cross-shard order
checker's teeth."""

from __future__ import annotations

from repro.faults import FaultSchedule
from repro.shard.routing import HashRing, group_names
from repro.shard.sim import ShardedSimService, derive_group_seed
from repro.shard.verify import check_cross_shard_order, make_op


def keys_owned_by(ring, group, count):
    keys, probe = [], 0
    while len(keys) < count:
        key = f"{group}-k{probe}"
        probe += 1
        if ring.owner_of(key) == group:
            keys.append(key)
    return keys


class TestClosedLoop:
    def test_multi_group_delivery_verifies_clean(self):
        svc = ShardedSimService(4, seed=0, window=8)
        ops = 0
        for group in svc.group_names:
            for i, key in enumerate(keys_owned_by(svc.ring, group, 2)):
                for j in range(3):
                    svc.schedule_put(10.0 + 20.0 * (3 * i + j), key, f"v{j}")
                    ops += 1
        svc.run_until(800.0)
        # Closed loop fully drained: every op totally ordered and
        # delivered at every location of its owning 3-process shard.
        assert svc.deliveries() == 3 * ops
        for group in svc.group_names:
            assert svc.router.idle(group)
        report = svc.verify()
        assert report["ok"]
        assert all(v["ok"] for v in report["groups"].values())
        assert report["cross_shard"]["ok"]
        assert report["cross_shard"]["ops_checked"] == ops

    def test_window_backpressure_queues_then_drains(self):
        svc = ShardedSimService(2, seed=0, window=1)
        group = svc.group_names[0]
        key = keys_owned_by(svc.ring, group, 1)[0]
        for i in range(6):
            svc.put(key, f"v{i}")
        # One in flight, the rest parked behind the window.
        assert svc.router.inflight(group) == 1
        assert svc.router.queue_depth(group) == 5
        svc.run_until(600.0)
        assert svc.router.idle(group)
        stats = svc.stats()["router"]["groups"][group]
        assert stats["queued"] == 5
        assert stats["routed"] == 6
        assert svc.verify()["ok"]

    def test_group_seeds_are_topology_independent(self):
        assert derive_group_seed(0, "g1") == derive_group_seed(0, "g1")
        assert derive_group_seed(0, "g1") != derive_group_seed(0, "g2")
        assert derive_group_seed(0, "g1") != derive_group_seed(1, "g1")
        a = ShardedSimService(2, seed=0)
        b = ShardedSimService(8, seed=0)
        assert a.groups["g1"].seed == b.groups["g1"].seed


class TestPartitionIsolation:
    def test_one_partitioned_shard_leaves_the_others_flowing(self):
        svc = ShardedSimService(4, seed=0, window=2)
        victim = svc.group_names[0]
        others = svc.group_names[1:]
        # Quorumless three-way split at t=50, heal at t=450.
        (
            FaultSchedule()
            .add_layout(50.0, [["p1"], ["p2"], ["p3"]])
            .add_layout(450.0, [["p1", "p2", "p3"]])
            .install(svc.groups[victim].service.vs)
        )
        per_group_keys = {
            g: keys_owned_by(svc.ring, g, 1)[0] for g in svc.group_names
        }
        for i in range(8):
            at = 60.0 + 25.0 * i
            for group in svc.group_names:
                svc.schedule_put(at, per_group_keys[group], f"v{i}")
        svc.run_until(420.0)
        # The victim is wedged behind its window; the healthy shards'
        # windows kept cycling and are fully drained.
        assert svc.router.pending(victim) > 0
        for group in others:
            assert svc.router.idle(group), f"{group} was dragged down"
            assert len(svc.groups[group].delivered_order()) == 8
        # Heal: the victim drains its queue and the whole run verifies,
        # per-key submission order intact across the partition.
        svc.run_until(1500.0)
        assert svc.router.idle(victim)
        report = svc.verify()
        assert report["ok"]
        assert report["cross_shard"]["ops_checked"] == 32


class TestCrossShardChecker:
    def setup_method(self):
        self.ring = HashRing(group_names(2), seed=0)
        self.key = keys_owned_by(self.ring, "g0", 1)[0]
        self.owner = "g0"
        self.ops = [make_op(self.key, i, f"v{i}") for i in range(3)]
        self.submitted = {self.key: list(self.ops)}

    def test_accepts_a_faithful_order(self):
        report = check_cross_shard_order(
            self.submitted, {"g0": list(self.ops), "g1": []}, self.ring
        )
        assert report.ok
        assert report.keys_checked == 1
        assert report.ops_checked == 3

    def test_accepts_a_trailing_prefix(self):
        report = check_cross_shard_order(
            self.submitted, {"g0": self.ops[:2], "g1": []}, self.ring
        )
        assert report.ok

    def test_catches_reordering(self):
        scrambled = [self.ops[1], self.ops[0], self.ops[2]]
        report = check_cross_shard_order(
            self.submitted, {"g0": scrambled, "g1": []}, self.ring
        )
        assert not report.ok
        assert "subsequence" in report.reason

    def test_catches_misplacement(self):
        report = check_cross_shard_order(
            self.submitted, {"g0": [], "g1": list(self.ops)}, self.ring
        )
        assert not report.ok
        assert "owns it" in report.reason

    def test_catches_invented_operations(self):
        forged = self.ops + [make_op(self.key, 99, "forged")]
        report = check_cross_shard_order(
            self.submitted, {"g0": forged, "g1": []}, self.ring
        )
        assert not report.ok

    def test_catches_foreign_values(self):
        report = check_cross_shard_order(
            self.submitted, {"g0": ["not-an-op"], "g1": []}, self.ring
        )
        assert not report.ok
        assert "non-operation" in report.reason
