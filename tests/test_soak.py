"""Soak test: a long horizon with many reconfiguration epochs, sustained
traffic, and full conformance checking at the end — the closest thing to
running the system in production for a long day."""

import random

from repro.core.monitor import OnlineVSMonitor
from repro.core.quorums import MajorityQuorumSystem
from repro.core.to_spec import TO_EXTERNAL, check_to_trace
from repro.core.vstoto.runtime import VStoTORuntime
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from repro.membership.shadow import WeakVSShadow
from repro.faults import FaultSchedule

PROCS = (1, 2, 3, 4, 5, 6)


def test_soak_many_epochs_with_online_monitor():
    rng = random.Random(2024)
    service = TokenRingVS(
        PROCS,
        RingConfig(delta=1.0, pi=10.0, mu=30.0, work_conserving=True),
        seed=2024,
    )
    runtime = VStoTORuntime(service, MajorityQuorumSystem(PROCS))
    shadow = WeakVSShadow(service)  # live §8 simulation proof rides along
    monitor = OnlineVSMonitor(PROCS, service.initial_view)
    monitor.attach(service)  # after the runtime, so both see each event

    # 10 reconfiguration epochs, then a final stable full group.
    scenario = FaultSchedule()
    time = 60.0
    for _epoch in range(10):
        processors = list(PROCS)
        rng.shuffle(processors)
        cut = rng.randint(1, len(processors) - 1)
        groups = [processors[:cut], processors[cut:]]
        if rng.random() < 0.4:
            groups = [processors]  # a whole-group epoch now and then
        scenario.add_layout(time, groups)
        time += rng.uniform(90.0, 150.0)
    final_heal = time
    scenario.add_layout(final_heal, [list(PROCS)])
    scenario.install(service)

    sends = 60
    for i in range(sends):
        runtime.schedule_broadcast(
            rng.uniform(5.0, final_heal), PROCS[i % 6], f"soak{i}"
        )
    runtime.start()
    runtime.run_until(final_heal + 800.0)

    # Online monitor saw every VS event and stayed happy.
    assert monitor.ok, monitor.violations[:1]
    assert monitor.events_checked > 500

    # The WeakVS shadow simulated every protocol event legally, and its
    # reordered execution replays on the strict VS-machine.
    assert shadow.steps_simulated > 500
    shadow.replay_on_strict_machine()

    # TO safety end to end.
    to_actions = [
        e.action
        for e in runtime.merged_trace().events
        if e.action.name in TO_EXTERNAL
    ]
    assert check_to_trace(to_actions, PROCS).ok

    # Liveness: everything reconciled after the final heal.
    reference = runtime.delivered_values(1)
    assert len(reference) == sends
    for p in PROCS[1:]:
        assert runtime.delivered_values(p) == reference

    # The run genuinely exercised reconfiguration.
    stats = service.stats()
    assert stats["formations"] >= 10
