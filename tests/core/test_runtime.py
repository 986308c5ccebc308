"""Tests for the event-driven full-stack runtime (VStoTO over the token
ring)."""

from repro.core.quorums import MajorityQuorumSystem
from repro.core.to_spec import TO_EXTERNAL, check_to_trace
from repro.core.vstoto.runtime import VStoTORuntime
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from repro.faults import FaultSchedule
from repro.net.status import FailureStatus

PROCS = (1, 2, 3, 4, 5)


def make_stack(procs=PROCS, seed=0, work_conserving=True, **ring_kwargs):
    config = RingConfig(
        delta=1.0, pi=10.0, mu=30.0, work_conserving=work_conserving,
        **ring_kwargs,
    )
    service = TokenRingVS(procs, config, seed=seed)
    runtime = VStoTORuntime(service, MajorityQuorumSystem(procs))
    return service, runtime


class TestStableOperation:
    def test_total_order_agreement(self):
        _service, runtime = make_stack()
        for i in range(12):
            runtime.schedule_broadcast(5.0 + 4 * i, PROCS[i % 5], f"v{i}")
        runtime.start()
        runtime.run_until(300.0)
        reference = runtime.delivered_values(1)
        assert len(reference) == 12
        for p in PROCS[1:]:
            assert runtime.delivered_values(p) == reference

    def test_per_sender_fifo(self):
        _service, runtime = make_stack(seed=4)
        for i in range(8):
            runtime.schedule_broadcast(5.0 + 2 * i, 1, f"s{i}")
        runtime.start()
        runtime.run_until(300.0)
        delivered = runtime.delivered_values(3)
        assert delivered == [f"s{i}" for i in range(8)]

    def test_trace_is_to_trace(self):
        _service, runtime = make_stack(seed=9)
        for i in range(10):
            runtime.schedule_broadcast(5.0 + 7 * i, PROCS[i % 5], i)
        runtime.start()
        runtime.run_until(400.0)
        untimed = [
            e.action
            for e in runtime.merged_trace().events
            if e.action.name in TO_EXTERNAL
        ]
        report = check_to_trace(untimed, PROCS)
        assert report.ok, report.reason

    def test_deliveries_have_timestamps_and_origins(self):
        _service, runtime = make_stack()
        runtime.schedule_broadcast(5.0, 2, "hello")
        runtime.start()
        runtime.run_until(100.0)
        assert runtime.deliveries
        delivery = runtime.deliveries[0]
        assert delivery.origin == 2
        assert delivery.time > 5.0


class TestPartitionBehaviour:
    def test_minority_stalls_majority_proceeds(self):
        service, runtime = make_stack(seed=5)
        scenario = FaultSchedule().add_layout(20.0, [[1, 2, 3], [4, 5]])
        scenario.install(service)
        runtime.schedule_broadcast(60.0, 1, "maj")
        runtime.schedule_broadcast(60.0, 4, "min")
        runtime.start()
        runtime.run_until(400.0)
        # Majority side confirms and delivers its value.
        assert "maj" in runtime.delivered_values(1)
        assert "maj" in runtime.delivered_values(3)
        # Minority side cannot confirm anything sent after the split.
        assert "min" not in runtime.delivered_values(4)
        assert "maj" not in runtime.delivered_values(4)

    def test_heal_reconciles_minority_messages(self):
        service, runtime = make_stack(seed=6)
        scenario = (
            FaultSchedule()
            .add_layout(20.0, [[1, 2, 3], [4, 5]])
            .add_layout(200.0, [[1, 2, 3, 4, 5]])
        )
        scenario.install(service)
        runtime.schedule_broadcast(60.0, 4, "from-minority")
        runtime.start()
        runtime.run_until(600.0)
        for p in PROCS:
            assert "from-minority" in runtime.delivered_values(p)

    def test_agreement_after_heal(self):
        service, runtime = make_stack(seed=7)
        scenario = (
            FaultSchedule()
            .add_layout(20.0, [[1, 2], [3, 4, 5]])
            .add_layout(250.0, [[1, 2, 3, 4, 5]])
        )
        scenario.install(service)
        for i in range(15):
            runtime.schedule_broadcast(10.0 + 18 * i, PROCS[i % 5], f"m{i}")
        runtime.start()
        runtime.run_until(900.0)
        reference = runtime.delivered_values(1)
        assert len(reference) == 15
        for p in PROCS[1:]:
            assert runtime.delivered_values(p) == reference


class TestCrashRecovery:
    def test_crashed_processor_excluded_then_rejoins(self):
        service, runtime = make_stack(seed=8)
        scenario = (
            FaultSchedule()
            .add_layout(30.0, [[1, 2, 3, 4]])   # 5 crashes (absent from groups)
            .add_layout(300.0, [[1, 2, 3, 4, 5]])
        )
        scenario.install(service)
        runtime.schedule_broadcast(100.0, 1, "while-down")
        runtime.start()
        runtime.run_until(800.0)
        # survivors deliver while 5 is down, and 5 catches up after
        for p in (1, 2, 3, 4):
            assert "while-down" in runtime.delivered_values(p)
        assert "while-down" in runtime.delivered_values(5)

    def test_bad_processor_defers_local_steps(self):
        service, runtime = make_stack(seed=2)
        runtime.start()
        runtime.run_until(10.0)
        service.network.oracle.set_processor(
            1, FailureStatus.BAD, time=10.0
        )
        runtime.broadcast(1, "queued")  # input accepted, drain deferred
        assert runtime.procs[1].delay == ["queued"]
        service.network.oracle.set_processor(
            1, FailureStatus.GOOD, time=20.0
        )
        runtime.run_until(200.0)
        assert "queued" in runtime.delivered_values(1)
