"""Partition and healing: the paper's headline scenario.

A five-processor group splits into a majority {1,2,3} and a minority
{4,5}.  The majority side (a primary view — it contains a quorum) keeps
confirming and delivering messages; the minority stalls (its view is
non-primary, so nothing can be confirmed there).  When the partition
heals, the VStoTO state-exchange protocol reconciles the histories and
every processor converges to one total order that includes the
minority's buffered messages.

Run with::

    python examples/partition_healing.py
"""

from repro.apps import TotalOrderBroadcast
from repro.faults import FaultSchedule

SPLIT_AT = 50.0
HEAL_AT = 350.0


def main() -> None:
    processors = [1, 2, 3, 4, 5]
    tob = TotalOrderBroadcast(processors, seed=7)

    scenario = (
        FaultSchedule()
        .add_layout(SPLIT_AT, [[1, 2, 3], [4, 5]])
        .add_layout(HEAL_AT, [[1, 2, 3, 4, 5]])
    )
    scenario.install(tob.vs)

    # Messages from both sides, before and during the partition.
    for i in range(6):
        tob.schedule_broadcast(10.0 + 5.0 * i, processors[i % 5], f"pre-{i}")
    for i in range(6):
        tob.schedule_broadcast(100.0 + 30.0 * i, 1, f"majority-{i}")
        tob.schedule_broadcast(100.0 + 30.0 * i, 4, f"minority-{i}")

    # --- during the partition ---
    tob.run_until(HEAL_AT - 10.0)
    print(f"t={tob.now:.0f} (partitioned)")
    print(f"  view at 1: {tob.vs.current_view(1)}")
    print(f"  view at 4: {tob.vs.current_view(4)}")
    print(f"  delivered at 1 ({len(tob.delivered(1))} values): "
          f"{tob.delivered(1)}")
    print(f"  delivered at 4 ({len(tob.delivered(4))} values): "
          f"{tob.delivered(4)}")
    majority_progress = len(tob.delivered(1))
    minority_progress = len(tob.delivered(4))
    assert majority_progress > minority_progress

    # --- after healing ---
    tob.run_until(HEAL_AT + 500.0)
    print(f"\nt={tob.now:.0f} (healed)")
    print(f"  common view: {tob.vs.current_view(1)}")
    reference = tob.delivered(1)
    for p in processors:
        assert tob.delivered(p) == reference, f"{p} disagrees"
    print(f"  all 5 processors delivered the same {len(reference)} values,")
    print(f"  including the minority's: "
          f"{[v for v in reference if str(v).startswith('minority')]}")


if __name__ == "__main__":
    main()
