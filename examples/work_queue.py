"""A fault-tolerant distributed work queue on top of VS.

Four workers share a stream of jobs.  Ownership of each job is a pure
function of the job id and the *current view*, and a worker executes a
job only once the announcement is **safe** (seen by every member), so a
stable group executes every job exactly once with no coordinator.

Mid-run, worker 4 crashes; the group reconfigures and worker 4's
outstanding jobs are automatically re-owned by the survivors — no
recovery code in the application, the view change *is* the failover.

Run with::

    python examples/work_queue.py
"""

from repro.apps import LoadBalancedWorkers, owner_of
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from repro.faults import FaultSchedule

WORKERS = [1, 2, 3, 4]
CRASH_AT = 120.0


def main() -> None:
    service = TokenRingVS(
        WORKERS,
        RingConfig(delta=1.0, pi=8.0, mu=25.0, work_conserving=True),
        seed=13,
    )
    pool = LoadBalancedWorkers(service)

    # Jobs trickle in before and after the crash.  Submissions go
    # through workers 1–3 (a job submitted at a crashed node dies with
    # it, like any client whose front-end is down); ownership still
    # spreads over all four workers while worker 4 is alive.
    for i in range(24):
        submit_time = 5.0 + 9.0 * i
        pool.schedule_submit(submit_time, WORKERS[i % 3], f"job-{i:02d}")

    # Worker 4 crashes at CRASH_AT and never comes back.
    FaultSchedule().add_layout(CRASH_AT, [[1, 2, 3]]).install(service)

    pool.run_until(800.0)

    load = pool.load_by_member()
    counts = pool.execution_counts()
    print(f"Jobs executed per worker: {load}")
    print(f"Total executions: {sum(load.values())} for {len(counts)} jobs")

    assert len(counts) == 24, "some job was never executed"
    assert all(n >= 1 for n in counts.values())
    duplicates = {j: n for j, n in counts.items() if n > 1}
    print(f"Jobs re-executed across the reconfiguration: "
          f"{sorted(duplicates) or 'none'}")

    # Jobs initially owned by the crashed worker were taken over.
    initial_view = service.initial_view
    orphaned = [
        job for job in counts
        if owner_of(job, initial_view) == 4
    ]
    survivors_executed = {
        job for job, member, _t in pool.executions if member != 4
    }
    taken_over = [job for job in orphaned if job in survivors_executed]
    print(f"Worker 4 originally owned {len(orphaned)} jobs; "
          f"{len(taken_over)} were taken over by survivors.")


if __name__ == "__main__":
    main()
