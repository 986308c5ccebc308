"""The mechanized Section 8 correctness argument:

ring execution → live WeakVS simulation → createview reordering →
verbatim replay on the strict VS-machine.  Any illegal step anywhere in
the chain raises; these tests run the chain over stable, partitioned,
healing and one-round configurations."""

import pytest

from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from repro.membership.shadow import WeakVSShadow
from repro.faults import FaultSchedule

PROCS = (1, 2, 3, 4, 5)


def shadowed_service(seed=0, **ring_kwargs):
    service = TokenRingVS(
        PROCS,
        RingConfig(delta=1.0, pi=10.0, mu=30.0, **ring_kwargs),
        seed=seed,
    )
    shadow = WeakVSShadow(service)
    return service, shadow


class TestLiveSimulation:
    @pytest.mark.parametrize("seed", range(4))
    def test_stable_run_simulates(self, seed):
        service, shadow = shadowed_service(seed)
        for i in range(12):
            service.simulator.schedule_at(
                5.0 + 9.0 * i,
                lambda i=i: service.gpsnd(PROCS[i % 5], f"m{i}"),
            )
        service.run_until(300.0)
        assert shadow.steps_simulated > 30
        shadow.replay_on_strict_machine()

    @pytest.mark.parametrize("seed", range(4))
    def test_split_heal_simulates(self, seed):
        service, shadow = shadowed_service(seed)
        (
            FaultSchedule()
            .add_layout(40.0, [[1, 2, 3], [4, 5]])
            .add_layout(250.0, [[1, 2, 3, 4, 5]])
            .install(service)
        )
        for i in range(10):
            service.simulator.schedule_at(
                5.0 + 30.0 * i,
                lambda i=i: service.gpsnd(PROCS[i % 5], f"s{i}"),
            )
        service.run_until(800.0)
        # the run exercised view formation (createviews in the shadow)
        created = [a for a in shadow.actions if a.name == "createview"]
        assert created
        strict = shadow.replay_on_strict_machine()
        # both machines end with the same created views
        assert set(strict.created) == set(shadow.machine.created)

    @pytest.mark.parametrize("seed", range(2))
    def test_churny_scenario_simulates(self, seed):
        service, shadow = shadowed_service(seed, work_conserving=True)
        (
            FaultSchedule()
            .add_layout(40.0, [[1, 2], [3, 4, 5]])
            .add_layout(160.0, [[1], [2, 3], [4, 5]])
            .add_layout(300.0, [[1, 2, 3, 4], [5]])
            .add_layout(450.0, [[1, 2, 3, 4, 5]])
            .install(service)
        )
        for i in range(12):
            service.simulator.schedule_at(
                10.0 + 40.0 * i,
                lambda i=i: service.gpsnd(PROCS[i % 5], f"c{i}"),
            )
        service.run_until(1200.0)
        shadow.replay_on_strict_machine()

    def test_one_round_variant_simulates(self, seed=3):
        service, shadow = shadowed_service(seed, one_round=True)
        (
            FaultSchedule()
            .add_layout(60.0, [[1, 2, 3], [4, 5]])
            .add_layout(400.0, [[1, 2, 3, 4, 5]])
            .install(service)
        )
        service.run_until(1500.0)
        shadow.replay_on_strict_machine()


class TestShadowActionShape:
    def test_vs_order_precedes_each_gprcv(self):
        service, shadow = shadowed_service(seed=1)
        service.simulator.schedule_at(
            5.0, lambda: service.gpsnd(2, "payload")
        )
        service.run_until(100.0)
        names = [a.name for a in shadow.actions]
        assert names.index("vs-order") < names.index("gprcv")
        assert names.index("gpsnd") < names.index("vs-order")

    def test_shadow_counts_match_trace(self):
        service, shadow = shadowed_service(seed=2)
        for i in range(5):
            service.simulator.schedule_at(
                5.0 + 7.0 * i, lambda i=i: service.gpsnd(1, f"x{i}")
            )
        service.run_until(200.0)
        external = [
            a
            for a in shadow.actions
            if a.name in ("gpsnd", "gprcv", "safe", "newview")
        ]
        assert len(external) == len(service.trace.events)
