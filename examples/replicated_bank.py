"""A replicated bank ledger on sequentially consistent memory.

The footnote-3 construction in action: three bank branches replicate an
account table.  Deposits and withdrawals are updates sent through the
totally ordered broadcast service; balance inquiries are local reads.
Even with a network partition in the middle of the day, every branch
ends with identical books, and the executable consistency checker
verifies the run.

Run with::

    python examples/replicated_bank.py
"""

import random

from repro.apps import (
    SequentiallyConsistentMemory,
    TotalOrderBroadcast,
    check_sequential_consistency,
)
from repro.faults import FaultSchedule

BRANCHES = ["london", "nyc", "tokyo"]
ACCOUNTS = ["acct-100", "acct-200", "acct-300"]


def main() -> None:
    tob = TotalOrderBroadcast(BRANCHES, seed=99)
    ledger = SequentiallyConsistentMemory(tob)

    # A mid-day partition separates tokyo from the others.
    (
        FaultSchedule()
        .add_layout(100.0, [["london", "nyc"], ["tokyo"]])
        .add_layout(250.0, [BRANCHES])
        .install(tob.vs)
    )

    rng = random.Random(4)
    t = 5.0
    submitted = 0
    for i in range(40):
        branch = rng.choice(BRANCHES)
        account = rng.choice(ACCOUNTS)
        if rng.random() < 0.6:
            amount = rng.randint(-50, 100)
            ledger.schedule_write(t, branch, account, amount)
            submitted += 1
        else:
            ledger.schedule_read(t, branch, account)
        t += rng.uniform(2.0, 12.0)

    ledger.run_until(t + 500.0)

    print("Final books at each branch:")
    for branch in BRANCHES:
        books = {a: ledger.replicas[branch].get(a) for a in ACCOUNTS}
        print(f"  {branch:8s}: {books}")

    reference = ledger.replicas[BRANCHES[0]]
    for branch in BRANCHES[1:]:
        assert ledger.replicas[branch] == reference, f"{branch} diverged!"

    ok, why = check_sequential_consistency(ledger)
    assert ok, why
    print(f"\n{submitted} updates applied in one global order "
          f"({len(ledger.global_writes)} recorded); "
          f"sequential consistency verified.")


if __name__ == "__main__":
    main()
