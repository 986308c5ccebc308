"""Protocol-event triggers: spec validation, hub wiring, window opening."""

import pytest

from repro.core.quorums import MajorityQuorumSystem
from repro.core.vstoto.runtime import VStoTORuntime
from repro.faults import (
    FaultSchedule,
    ProtocolEventHub,
    TokenLossInjector,
    TriggerSpec,
)
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS

PROCS = (1, 2, 3, 4, 5)


def split_then_heal(start, stop):
    return (
        FaultSchedule()
        .add_layout(start, ((1, 2, 3), (4, 5)))
        .add_layout(stop, (PROCS,))
    )


def stack(seed=0):
    service = TokenRingVS(
        PROCS, RingConfig(delta=1.0, pi=10.0, mu=30.0), seed=seed
    )
    runtime = VStoTORuntime(service, MajorityQuorumSystem(PROCS))
    return service, runtime


class TestTriggerSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown trigger event"):
            TriggerSpec(event="supernova", duration=5.0)
        with pytest.raises(ValueError, match="duration"):
            TriggerSpec(event="newview", duration=0.0)
        with pytest.raises(ValueError, match="status"):
            TriggerSpec(event="status_enter", duration=5.0)
        with pytest.raises(ValueError, match="status"):
            TriggerSpec(event="status_enter", duration=5.0, status="zen")
        with pytest.raises(ValueError, match="no status"):
            TriggerSpec(event="newview", duration=5.0, status="normal")
        with pytest.raises(ValueError, match="delay"):
            TriggerSpec(event="newview", duration=5.0, delay=-1.0)

    def test_round_trip(self):
        spec = TriggerSpec(
            event="status_enter",
            status="collect",
            duration=12.0,
            delay=1.5,
            once=False,
            after=30.0,
        )
        assert TriggerSpec.from_dict(spec.to_dict()) == spec


class TestHub:
    def test_status_edges_and_view_events_observed(self):
        service, runtime = stack()
        hub = ProtocolEventHub(service)
        hub.attach_runtime(runtime)
        split_then_heal(40.0, 80.0).install(service)
        runtime.schedule_broadcast(20.0, 1, "v")
        runtime.run_until(300.0)
        kinds = {e.kind for e in hub.events}
        assert "newview" in kinds
        assert "view_change" in kinds
        assert "status_enter" in kinds
        statuses = {
            e.detail for e in hub.events if e.kind == "status_enter"
        }
        assert {"send", "collect", "normal"} <= statuses

    def test_triggered_window_opens_on_view_change(self):
        service, runtime = stack()
        hub = ProtocolEventHub(service)
        hub.attach_runtime(runtime)
        opened = []
        hub.add_window_observer(lambda kind, a, b: opened.append((kind, a, b)))
        injector = TokenLossInjector("tl", rate=1.0)
        schedule = FaultSchedule(horizon=200.0)
        schedule.add_triggered(
            injector, TriggerSpec(event="view_change", duration=10.0, after=30.0)
        )
        schedule.install(service, hub=hub)
        split_then_heal(40.0, 80.0).install(service)
        runtime.run_until(300.0)
        assert injector.activations == 1
        assert len(opened) == 1
        kind, start, stop = opened[0]
        assert kind == "token_loss"
        assert 30.0 <= start < stop <= 200.0

    def test_once_false_fires_repeatedly(self):
        service, runtime = stack()
        hub = ProtocolEventHub(service)
        hub.attach_runtime(runtime)
        injector = TokenLossInjector("tl", rate=0.0)
        schedule = FaultSchedule(horizon=400.0)
        schedule.add_triggered(
            injector,
            TriggerSpec(event="newview", duration=5.0, once=False, after=30.0),
        )
        schedule.install(service, hub=hub)
        split_then_heal(40.0, 80.0).install(service)
        runtime.run_until(500.0)
        assert injector.activations > 1

    def test_install_with_triggered_requires_hub(self):
        service, _ = stack()
        schedule = FaultSchedule(horizon=100.0)
        schedule.add_triggered(
            TokenLossInjector("tl", rate=1.0),
            TriggerSpec(event="newview", duration=5.0),
        )
        with pytest.raises(ValueError, match="ProtocolEventHub"):
            schedule.install(service)

    def test_windows_clamped_to_horizon(self):
        service, runtime = stack()
        hub = ProtocolEventHub(service)
        hub.attach_runtime(runtime)
        opened = []
        hub.add_window_observer(lambda kind, a, b: opened.append((a, b)))
        schedule = FaultSchedule(horizon=120.0)
        schedule.add_triggered(
            TokenLossInjector("tl", rate=1.0),
            TriggerSpec(event="view_change", duration=500.0, after=30.0),
        )
        schedule.install(service, hub=hub)
        split_then_heal(40.0, 80.0).install(service)
        runtime.run_until(300.0)
        assert opened
        for start, stop in opened:
            assert start < 120.0
            # A 500-long window cannot fit before the horizon: clamped.
            assert stop == 120.0
