"""The overhaul is wall-clock only: optimised and legacy code paths are
semantically indistinguishable.

Two stacks are compared end to end — the optimised one (indexed
process, delta tokens) against the reconstructed pre-overhaul one
(``tests/reference.py``: ``LegacyVStoTOProcess`` and full-order
tokens, both patched in) — on the E15 full-stack workload and on the seed-7 golden chaos
run.  Externally visible behaviour (merged VS/TO traces, deliveries,
simulation event counts, chaos verdicts) must match exactly.
"""

import contextlib

from repro.core.quorums import MajorityQuorumSystem
from repro.core.vstoto.runtime import VStoTORuntime
from repro.faults.chaos import run_chaos
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from tests.reference import (
    LegacyVStoTOProcess,
    full_order_tokens,
    legacy_process_installed,
)

PROCS = (1, 2, 3, 4, 5)


def _e15_stack(*, legacy: bool, sends: int = 20, horizon: float = 260.0):
    service = TokenRingVS(
        PROCS,
        RingConfig(delta=1.0, pi=10.0, mu=50.0, work_conserving=True),
        seed=0,
    )
    with legacy_process_installed() if legacy else contextlib.nullcontext():
        runtime = VStoTORuntime(service, MajorityQuorumSystem(PROCS))
    for i in range(sends):
        runtime.schedule_broadcast(10.0 + 10.0 * i, PROCS[i % len(PROCS)], f"v{i}")
    runtime.start()
    with full_order_tokens() if legacy else contextlib.nullcontext():
        runtime.run_until(horizon)
    return service, runtime


def _trace_events(trace):
    return [(e.time, e.action) for e in trace.events]


def test_legacy_process_is_installed_and_removed():
    with legacy_process_installed():
        _, runtime = _e15_stack(legacy=False)  # patched class applies
        assert all(
            isinstance(p, LegacyVStoTOProcess) for p in runtime.procs.values()
        )
    _, runtime = _e15_stack(legacy=False)
    assert not any(
        isinstance(p, LegacyVStoTOProcess) for p in runtime.procs.values()
    )


def test_e15_stack_identical_traces_old_vs_new():
    """Same seeds, same workload: the optimised stack's VS and TO traces
    are event-for-event identical to the legacy stack's."""
    new_service, new_runtime = _e15_stack(legacy=False)
    old_service, old_runtime = _e15_stack(legacy=True)
    assert _trace_events(new_service.merged_trace()) == _trace_events(
        old_service.merged_trace()
    )
    assert _trace_events(new_runtime.merged_trace()) == _trace_events(
        old_runtime.merged_trace()
    )
    assert new_runtime.deliveries == old_runtime.deliveries
    assert (
        new_service.stats()["events_processed"]
        == old_service.stats()["events_processed"]
    )
    for p in PROCS:
        assert new_runtime.delivered_values(p) == old_runtime.delivered_values(p)


def test_seed7_golden_chaos_identical_verdicts_old_vs_new():
    """The seed-7 golden chaos run (the digest-pinned workload of
    tests/obs/test_determinism.py) produces identical external verdicts
    on both code paths: same safety outcome, same drop accounting, same
    recovery time, same delivered values."""
    kwargs = dict(seed=7, horizon=200.0, intensity=0.6, sends=8, settle=400.0)
    new = run_chaos(PROCS, **kwargs)
    with legacy_process_installed(), full_order_tokens():
        old = run_chaos(
            PROCS,
            config=RingConfig(
                delta=1.0,
                pi=10.0,
                mu=30.0,
                work_conserving=True,
                retransmit_attempts=3,
            ),
            **kwargs,
        )
    assert new.ok and old.ok
    assert new.violations == old.violations == []
    assert new.to_ok and old.to_ok
    assert new.drops == old.drops
    assert new.drops_total == old.drops_total
    assert new.recovery_time == old.recovery_time
    assert new.stats["events_processed"] == old.stats["events_processed"]
    assert new.stats["restarts"] == old.stats["restarts"]


def test_crash_restart_chaos_exercises_delta_rejoin():
    """Crash-restart schedules force members to rejoin with an empty log
    replica under delta tokens; view changes re-establish the full order
    and the run still recovers completely."""
    report = run_chaos(
        PROCS,
        seed=11,
        horizon=200.0,
        intensity=0.8,
        kinds=("crash_restart",),
        sends=8,
        settle=400.0,
    )
    assert report.stats["restarts"] > 0
    assert report.violations == []
    assert report.to_ok
    assert report.delivered_complete
