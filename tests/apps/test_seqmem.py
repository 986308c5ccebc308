"""Tests for the sequentially consistent replicated memory."""

import random

import pytest

from repro.apps.seqmem import (
    MemoryOp,
    SequentiallyConsistentMemory,
    check_sequential_consistency,
)
from repro.apps.totalorder import TotalOrderBroadcast
from repro.faults import FaultSchedule

PROCS = (1, 2, 3)


def memory(seed=0, procs=PROCS):
    return SequentiallyConsistentMemory(
        TotalOrderBroadcast(procs, seed=seed)
    )


class TestBasics:
    def test_read_before_any_write_returns_none(self):
        mem = memory()
        mem.run_until(10.0)
        assert mem.read(1, "x") is None

    def test_write_becomes_visible_everywhere(self):
        mem = memory()
        mem.schedule_write(5.0, 1, "x", 42)
        mem.run_until(100.0)
        assert mem.read(1, "x") == 42
        assert mem.read(2, "x") == 42
        assert mem.read(3, "x") == 42

    def test_reads_are_local_and_immediate(self):
        mem = memory()
        mem.schedule_write(5.0, 1, "x", 1)
        mem.run_until(100.0)
        before = mem.tob.now
        mem.read(2, "x")
        assert mem.tob.now == before  # no time passes

    def test_last_write_wins_in_total_order(self):
        mem = memory(seed=3)
        mem.schedule_write(5.0, 1, "x", "from-1")
        mem.schedule_write(5.0, 2, "x", "from-2")
        mem.run_until(200.0)
        values = {mem.read(p, "x") for p in PROCS}
        assert len(values) == 1  # all replicas agree on the winner

    def test_global_write_order_recorded(self):
        mem = memory()
        for i in range(5):
            mem.schedule_write(5.0 + 3 * i, PROCS[i % 3], "k", i)
        mem.run_until(200.0)
        assert len(mem.global_writes) == 5

    def test_history_records_ops(self):
        mem = memory()
        mem.schedule_write(5.0, 1, "x", 7)
        mem.run_until(100.0)
        mem.read(2, "x")
        kinds = [op.kind for op in mem.history[2]]
        assert kinds == ["write", "read"]


class TestSequentialConsistency:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_workload_is_consistent(self, seed):
        mem = memory(seed=seed)
        rng = random.Random(seed)
        t = 5.0
        for i in range(40):
            p = rng.choice(PROCS)
            key = f"k{rng.randint(0, 3)}"
            if rng.random() < 0.5:
                mem.schedule_write(t, p, key, (p, i))
            else:
                mem.schedule_read(t, p, key)
            t += rng.uniform(0.5, 6.0)
        mem.run_until(t + 200.0)
        ok, why = check_sequential_consistency(mem)
        assert ok, why

    def test_consistency_holds_across_partition_and_heal(self):
        mem = memory(seed=7)
        scenario = (
            FaultSchedule()
            .add_layout(20.0, [[1, 2], [3]])
            .add_layout(150.0, [[1, 2, 3]])
        )
        scenario.install(mem.tob.vs)
        rng = random.Random(7)
        t = 5.0
        for i in range(30):
            p = rng.choice(PROCS)
            if rng.random() < 0.5:
                mem.schedule_write(t, p, "k", i)
            else:
                mem.schedule_read(t, p, "k")
            t += rng.uniform(1.0, 10.0)
        mem.run_until(t + 400.0)
        ok, why = check_sequential_consistency(mem)
        assert ok, why

    def test_checker_detects_fabricated_stale_read(self):
        mem = memory()
        mem.schedule_write(5.0, 1, "x", "new")
        mem.run_until(100.0)
        # Forge a read that claims to have observed the write count but
        # returns a stale value.
        mem.history[2].append(
            MemoryOp(
                time=mem.tob.now,
                proc=2,
                kind="read",
                key="x",
                value="stale",
                applied_writes=1,
            )
        )
        ok, why = check_sequential_consistency(mem)
        assert not ok
        assert "serial order" in why

    def test_checker_detects_impossible_applied_count(self):
        mem = memory()
        mem.run_until(20.0)
        mem.history[1].append(
            MemoryOp(
                time=0.0,
                proc=1,
                kind="read",
                key="x",
                value=None,
                applied_writes=99,
            )
        )
        ok, why = check_sequential_consistency(mem)
        assert not ok

    def test_checker_detects_program_order_regression(self):
        mem = memory()
        mem.schedule_write(5.0, 1, "x", 1)
        mem.run_until(100.0)
        mem.read(1, "x")
        mem.history[1].append(
            MemoryOp(
                time=mem.tob.now,
                proc=1,
                kind="read",
                key="x",
                value=None,
                applied_writes=0,
            )
        )
        ok, why = check_sequential_consistency(mem)
        assert not ok
        assert "program order" in why
