"""Randomized failure injection: generated partition scenarios must
never break safety at either spec level, and a final stable full-group
epoch must always restore liveness (all submitted values delivered
everywhere).
"""

import random

import pytest

from repro.core.quorums import MajorityQuorumSystem
from repro.core.to_spec import TO_EXTERNAL, check_to_trace
from repro.core.vs_spec import VS_EXTERNAL, check_vs_trace
from repro.core.vstoto.runtime import VStoTORuntime
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from repro.faults import FaultSchedule

PROCS = (1, 2, 3, 4, 5)


def random_scenario(rng: random.Random, final_heal_at: float):
    """A random sequence of partitions ending in a stable full group."""
    scenario = FaultSchedule()
    time = 40.0
    while time < final_heal_at - 80.0:
        processors = list(PROCS)
        rng.shuffle(processors)
        n_groups = rng.randint(1, 3)
        groups: list[list] = [[] for _ in range(n_groups)]
        for index, p in enumerate(processors):
            groups[index % n_groups].append(p)
        # Occasionally drop a processor entirely (crash).
        if rng.random() < 0.3 and len(groups[0]) > 1:
            groups[0].pop()
        scenario.add_layout(time, [g for g in groups if g])
        time += rng.uniform(60.0, 140.0)
    scenario.add_layout(final_heal_at, [list(PROCS)])
    return scenario


@pytest.mark.parametrize("seed", range(8))
def test_random_failure_schedules_preserve_safety_and_liveness(seed):
    rng = random.Random(seed)
    final_heal = 500.0
    service = TokenRingVS(
        PROCS,
        RingConfig(delta=1.0, pi=10.0, mu=30.0, work_conserving=True),
        seed=seed,
    )
    runtime = VStoTORuntime(service, MajorityQuorumSystem(PROCS))
    random_scenario(rng, final_heal).install(service)

    sends = 18
    for i in range(sends):
        runtime.schedule_broadcast(
            rng.uniform(5.0, final_heal), PROCS[i % 5], f"inj{i}"
        )
    runtime.start()
    runtime.run_until(final_heal + 700.0)

    # Safety at the VS level.
    vs_actions = [
        e.action
        for e in service.merged_trace().events
        if e.action.name in VS_EXTERNAL
    ]
    vs_report = check_vs_trace(vs_actions, PROCS, service.initial_view)
    assert vs_report.ok, f"seed={seed} VS: {vs_report.reason}"

    # Safety at the TO level.
    to_actions = [
        e.action
        for e in runtime.merged_trace().events
        if e.action.name in TO_EXTERNAL
    ]
    to_report = check_to_trace(to_actions, PROCS)
    assert to_report.ok, f"seed={seed} TO: {to_report.reason}"

    # Liveness after the final heal: a value submitted by a processor
    # survives any interleaving of crashes because state is preserved
    # (the paper's crash model); everything must be delivered everywhere.
    reference = runtime.delivered_values(1)
    assert len(reference) == sends, (
        f"seed={seed}: only {len(reference)}/{sends} delivered"
    )
    for p in PROCS[1:]:
        assert runtime.delivered_values(p) == reference


@pytest.mark.parametrize(
    "mode",
    [
        {"work_conserving": True, "deliver_when_safe": True},
        {"work_conserving": False, "deliver_when_safe": True},
        {"one_round": True, "work_conserving": True},
        {"one_round": True, "deliver_when_safe": True},
    ],
    ids=["wc+totem", "periodic+totem", "1round+wc", "1round+totem"],
)
def test_random_schedules_across_protocol_variants(mode):
    """Every protocol-variant combination survives a random failure
    schedule with full safety and eventual agreement."""
    rng = random.Random(77)
    final_heal = 450.0
    service = TokenRingVS(
        PROCS,
        RingConfig(delta=1.0, pi=10.0, mu=30.0, **mode),
        seed=77,
    )
    runtime = VStoTORuntime(service, MajorityQuorumSystem(PROCS))
    random_scenario(rng, final_heal).install(service)
    for i in range(12):
        runtime.schedule_broadcast(
            rng.uniform(5.0, final_heal), PROCS[i % 5], f"var{i}"
        )
    runtime.start()
    runtime.run_until(final_heal + 1200.0)
    vs_actions = [
        e.action
        for e in service.merged_trace().events
        if e.action.name in VS_EXTERNAL
    ]
    assert check_vs_trace(vs_actions, PROCS, service.initial_view).ok
    reference = runtime.delivered_values(1)
    assert len(reference) == 12
    for p in PROCS[1:]:
        assert runtime.delivered_values(p) == reference


@pytest.mark.parametrize("seed", range(4))
def test_random_schedules_with_periodic_token(seed):
    """Same property with the literal periodic token discipline."""
    rng = random.Random(1000 + seed)
    final_heal = 400.0
    service = TokenRingVS(
        PROCS,
        RingConfig(delta=1.0, pi=10.0, mu=30.0, work_conserving=False),
        seed=seed,
    )
    runtime = VStoTORuntime(service, MajorityQuorumSystem(PROCS))
    random_scenario(rng, final_heal).install(service)
    for i in range(10):
        runtime.schedule_broadcast(
            rng.uniform(5.0, final_heal), PROCS[i % 5], f"per{i}"
        )
    runtime.start()
    runtime.run_until(final_heal + 800.0)
    reference = runtime.delivered_values(1)
    assert len(reference) == 10
    for p in PROCS[1:]:
        assert runtime.delivered_values(p) == reference
