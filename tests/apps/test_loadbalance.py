"""Tests for the view-aware load-balancing application."""

from repro.apps.loadbalance import LoadBalancedWorkers, owner_of
from repro.core.types import View
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from repro.faults import FaultSchedule

PROCS = (1, 2, 3, 4)


def workers(seed=0, procs=PROCS, **kwargs):
    service = TokenRingVS(
        procs,
        RingConfig(delta=1.0, pi=8.0, mu=25.0, work_conserving=True),
        seed=seed,
    )
    return LoadBalancedWorkers(service, **kwargs)


class TestOwnership:
    def test_owner_is_member(self):
        view = View((1, 1), frozenset(PROCS))
        for i in range(20):
            assert owner_of(f"task-{i}", view) in PROCS

    def test_owner_deterministic(self):
        view = View((1, 1), frozenset(PROCS))
        assert owner_of("t", view) == owner_of("t", view)

    def test_ownership_spreads_load(self):
        view = View((1, 1), frozenset(PROCS))
        owners = {owner_of(f"task-{i}", view) for i in range(64)}
        assert len(owners) == len(PROCS)

    def test_ownership_changes_with_membership(self):
        big = View((1, 1), frozenset(PROCS))
        small = View((2, 1), frozenset({1, 2}))
        moved = [
            t
            for t in (f"task-{i}" for i in range(32))
            if owner_of(t, big) not in {1, 2}
        ]
        assert all(owner_of(t, small) in {1, 2} for t in moved)


class TestStableGroup:
    def test_every_task_executed_exactly_once(self):
        pool = workers(seed=1)
        for i in range(16):
            pool.schedule_submit(5.0 + 2.0 * i, PROCS[i % 4], f"job-{i}")
        pool.run_until(400.0)
        counts = pool.execution_counts()
        assert set(counts) == {f"job-{i}" for i in range(16)}
        assert all(count == 1 for count in counts.values())

    def test_all_members_learn_completions(self):
        pool = workers(seed=2)
        for i in range(8):
            pool.schedule_submit(5.0 + 3.0 * i, 1, f"job-{i}")
        pool.run_until(400.0)
        expected = {f"job-{i}" for i in range(8)}
        for p in PROCS:
            assert pool.completed_tasks(p) == expected

    def test_execution_waits_for_safe(self):
        """No execution may precede the announcement being safe, i.e.
        executions happen only after every member received the task."""
        pool = workers(seed=3)
        pool.schedule_submit(5.0, 2, "solo-job")
        pool.run_until(200.0)
        assert len(pool.executions) == 1
        _task, _member, exec_time = pool.executions[0]
        safe_times = [
            e.time
            for e in pool.service.trace.events
            if e.action.name == "safe" and e.action.args[0][0] == "task"
        ]
        assert exec_time >= min(safe_times)

    def test_load_distribution_roughly_even(self):
        pool = workers(seed=4)
        for i in range(48):
            pool.schedule_submit(5.0 + 1.5 * i, PROCS[i % 4], f"w-{i}")
        pool.run_until(600.0)
        load = pool.load_by_member()
        assert sum(load.values()) == 48
        assert all(4 <= count <= 24 for count in load.values())

    def test_execute_callback(self):
        seen = []
        pool = workers(
            seed=5, on_execute=lambda t, payload, m: seen.append((t, m))
        )
        pool.schedule_submit(5.0, 1, "cb-job", payload={"n": 1})
        pool.run_until(200.0)
        assert len(seen) == 1
        assert seen[0][0] == "cb-job"


class TestFailover:
    def test_tasks_of_crashed_member_reassigned(self):
        pool = workers(seed=6)
        # find tasks owned by member 4 in the initial view
        initial_view = pool.service.initial_view
        victim_tasks = [
            f"t-{i}"
            for i in range(40)
            if owner_of(f"t-{i}", initial_view) == 4
        ][:5]
        assert victim_tasks
        # submit them, then crash member 4 before it can execute
        for index, task in enumerate(victim_tasks):
            pool.schedule_submit(100.0 + index, 1, task)
        FaultSchedule().add_layout(99.0, [[1, 2, 3]]).install(pool.service)
        pool.run_until(600.0)
        counts = pool.execution_counts()
        for task in victim_tasks:
            assert counts.get(task, 0) >= 1, f"{task} never executed"
        executors = {m for t, m, _ in pool.executions if t in victim_tasks}
        assert 4 not in executors

    def test_partition_sides_both_execute_at_least_once(self):
        pool = workers(seed=7)
        (
            FaultSchedule()
            .add_layout(50.0, [[1, 2], [3, 4]])
            .add_layout(250.0, [[1, 2, 3, 4]])
            .install(pool.service)
        )
        for i in range(10):
            pool.schedule_submit(10.0 + 2.0 * i, PROCS[i % 4], f"p-{i}")
        pool.run_until(800.0)
        counts = pool.execution_counts()
        assert set(counts) == {f"p-{i}" for i in range(10)}
        # at-least-once: every task executed; duplicates are permitted
        assert all(count >= 1 for count in counts.values())
