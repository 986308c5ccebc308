"""Unit tests for the deliver-when-safe (Totem-style) ring mode."""

from repro.core.vs_spec import VS_EXTERNAL, check_vs_trace
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from repro.faults import FaultSchedule

PROCS = (1, 2, 3, 4)


def service(deliver_when_safe, seed=0, **kwargs):
    return TokenRingVS(
        PROCS,
        RingConfig(
            delta=1.0,
            pi=8.0,
            mu=30.0,
            work_conserving=True,
            deliver_when_safe=deliver_when_safe,
            **kwargs,
        ),
        seed=seed,
    )


def event_times(vs, name, payload):
    return [
        e.time
        for e in vs.trace.events
        if e.action.name == name and e.action.args[0] == payload
    ]


class TestDeliverWhenSafeMode:
    def test_all_members_still_deliver(self):
        vs = service(True)
        vs.schedule_send(5.0, 1, "x")
        vs.run_until(200.0)
        deliveries = event_times(vs, "gprcv", "x")
        assert len(deliveries) == 4

    def test_delivery_later_than_immediate_mode(self):
        def last_delivery(mode):
            vs = service(mode, seed=3)
            vs.schedule_send(13.0, 2, "y")
            vs.run_until(300.0)
            return max(event_times(vs, "gprcv", "y"))

        assert last_delivery(True) > last_delivery(False)

    def test_no_delivery_before_every_member_has_message(self):
        """In Totem mode, the first delivery happens only after a full
        dissemination pass: strictly after the token has visited every
        member once carrying the entry."""
        vs = service(True, seed=5)
        vs.schedule_send(11.0, 3, "z")
        vs.run_until(300.0)
        first_delivery = min(event_times(vs, "gprcv", "z"))
        # a full pass after submission takes at least (n-1) hops with a
        # positive delay each — here just assert it exceeds the
        # immediate-mode first delivery for the same run seed
        vs_fast = service(False, seed=5)
        vs_fast.schedule_send(11.0, 3, "z")
        vs_fast.run_until(300.0)
        first_fast = min(event_times(vs_fast, "gprcv", "z"))
        assert first_delivery > first_fast

    def test_trace_conformance_in_totem_mode(self):
        vs = service(True, seed=7)
        (
            FaultSchedule()
            .add_layout(40.0, [[1, 2], [3, 4]])
            .add_layout(200.0, [[1, 2, 3, 4]])
            .install(vs)
        )
        for i in range(10):
            vs.schedule_send(5.0 + 12.0 * i, PROCS[i % 4], f"t{i}")
        vs.run_until(600.0)
        actions = [
            e.action
            for e in vs.merged_trace().events
            if e.action.name in VS_EXTERNAL
        ]
        report = check_vs_trace(actions, PROCS, vs.initial_view)
        assert report.ok, report.reason

    def test_safe_still_after_delivery(self):
        vs = service(True, seed=9)
        vs.schedule_send(5.0, 1, "w")
        vs.run_until(300.0)
        for member in PROCS:
            recv = [
                e.time
                for e in vs.trace.events
                if e.action.name == "gprcv" and e.action.args[2] == member
            ]
            safe = [
                e.time
                for e in vs.trace.events
                if e.action.name == "safe" and e.action.args[2] == member
            ]
            assert recv and safe
            assert min(recv) <= min(safe)
