"""E9 — the footnote-3 application: sequentially consistent replicated
memory over TO, and the atomic-memory alternative.

Tables report operation latencies: local reads are free under
sequential consistency, while the atomic variant pays a full TO round
per read — the crossover the footnote describes ("an alternative
approach is to send all operations through the totally ordered broadcast
service; this approach constructs an atomic shared memory").
Consistency of every run is verified with the executable checker.
"""

import random

import pytest

from repro.analysis.stats import format_table, summarize
from repro.apps.atomicmem import AtomicMemory
from repro.apps.seqmem import (
    SequentiallyConsistentMemory,
    check_sequential_consistency,
)
from repro.apps.totalorder import TotalOrderBroadcast

PROCS = (1, 2, 3, 4, 5)


def run_seqmem_workload(seed, ops=60, read_fraction=0.7):
    mem = SequentiallyConsistentMemory(TotalOrderBroadcast(PROCS, seed=seed))
    rng = random.Random(seed)
    t = 10.0
    writes = 0
    for i in range(ops):
        p = rng.choice(PROCS)
        key = f"k{rng.randint(0, 4)}"
        if rng.random() < read_fraction:
            mem.schedule_read(t, p, key)
        else:
            mem.schedule_write(t, p, key, (p, i))
            writes += 1
        t += rng.uniform(0.5, 5.0)
    mem.run_until(t + 400.0)
    ok, why = check_sequential_consistency(mem)
    assert ok, why
    return mem, writes


def test_e9_consistency_across_seeds():
    rows = []
    for seed in range(4):
        mem, writes = run_seqmem_workload(seed)
        applied = set(mem.applied_count.values())
        assert applied == {writes}, "all replicas applied every write"
        rows.append([seed, writes, len(mem.global_writes)])
    print("\nE9a: sequentially consistent memory — checker verdicts")
    print(format_table(["seed", "writes", "global order length"], rows))


def test_e9_read_latency_crossover():
    """Reads: local (zero time) under sequential consistency vs a full
    TO round under atomicity."""
    # --- sequentially consistent reads are instantaneous ---
    mem, _writes = run_seqmem_workload(seed=1)

    # --- atomic reads pay the broadcast pipeline ---
    atom = AtomicMemory(TotalOrderBroadcast(PROCS, seed=1))
    rng = random.Random(1)
    t = 10.0
    for i in range(20):
        p = rng.choice(PROCS)
        if i % 3 == 0:
            atom.schedule_write(t, p, "k", i)
        else:
            atom.schedule_read(t, p, "k")
        t += rng.uniform(2.0, 8.0)
    atom.run_until(t + 400.0)
    assert atom.completed_reads
    atomic_reads = summarize(r.latency for r in atom.completed_reads)
    assert atomic_reads.p50 > 0.0
    rows = [
        ["seq-consistent", 0.0, 0.0],
        ["atomic", atomic_reads.mean, atomic_reads.max],
    ]
    print("\nE9b: read latency — sequentially consistent vs atomic memory")
    print(format_table(["memory", "read mean", "read max"], rows))


def test_e9_write_visibility_latency():
    """Write→globally-visible latency matches the TO pipeline."""
    mem = SequentiallyConsistentMemory(TotalOrderBroadcast(PROCS, seed=5))
    submit_times = {}
    for i in range(10):
        t = 10.0 + 20.0 * i
        submit_times[i] = t
        mem.schedule_write(t, PROCS[i % 5], "k", i)
    mem.run_until(600.0)
    visible = {}
    for p in PROCS:
        for op in mem.history[p]:
            if op.kind == "write":
                visible[(op.value, p)] = max(
                    visible.get((op.value, p), 0.0), op.time
                )
    latencies = [
        max(visible[(i, p)] for p in PROCS) - submit_times[i]
        for i in range(10)
    ]
    summary = summarize(latencies)
    assert summary.max < 60.0
    print("\nE9c: write→visible-at-all-replicas latency")
    print(format_table(["mean", "p95", "max"], [[summary.mean, summary.p95, summary.max]]))


@pytest.mark.benchmark(group="e9-seqmem")
def test_e9_bench_workload(benchmark):
    def run():
        mem, writes = run_seqmem_workload(seed=7, ops=40)
        return writes

    writes = benchmark.pedantic(run, rounds=3, iterations=1)
    assert writes > 0
