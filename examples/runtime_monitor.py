"""Runtime verification: the VS specification as a live monitor.

The paper argues a precisely specified service lets applications (and
operators) reason about behaviour without reading the implementation.
Here the specification is *executed against* the implementation: an
:class:`OnlineVSMonitor` sits in front of the token-ring service and
validates every event — view discipline, per-view total order,
per-sender FIFO, safe-notification causality — while a partition and a
heal play out.  At the end, the stabilisation interval l′ after the
heal is read off the run's spans (the reader a live log directory goes
through too) and the trace timeline around the reconfiguration is
printed.

Run with::

    python examples/runtime_monitor.py
"""

from repro.analysis.tracefmt import format_timeline, summarize_trace
from repro.core.monitor import OnlineVSMonitor
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from repro.membership.shadow import WeakVSShadow
from repro.membership.bounds import VSBounds
from repro.faults import FaultSchedule
from repro.obs.live.stitch import stitch_sim

PROCS = [1, 2, 3, 4]


def main() -> None:
    vs = TokenRingVS(
        PROCS,
        RingConfig(delta=1.0, pi=8.0, mu=25.0, work_conserving=True),
        seed=21,
    )
    # Two independent verifiers ride along: the trace-level monitor and
    # the WeakVS shadow machine (the Section 8 simulation proof, live).
    shadow = WeakVSShadow(vs)
    monitor = OnlineVSMonitor(PROCS, vs.initial_view)
    monitor.attach(vs)

    scenario = (
        FaultSchedule()
        .add_layout(40.0, [[1, 2], [3, 4]])
        .add_layout(160.0, [[1, 2, 3, 4]])
    )
    scenario.install(vs)
    for i in range(10):
        vs.schedule_send(5.0 + 20.0 * i, PROCS[i % 4], f"msg-{i}")

    vs.run_until(500.0)

    print(f"Monitor verdict: {'CONFORMANT' if monitor.ok else 'VIOLATION'}")
    print(f"Events checked online: {monitor.events_checked}")
    shadow.replay_on_strict_machine()
    print(
        f"Shadow simulation: {shadow.steps_simulated} abstract steps "
        f"legal; reordered execution replays on strict VS-machine."
    )
    print(f"Views observed: {sorted(monitor.views)}")
    print(f"Event counts: {summarize_trace(vs.trace)}")
    settled = stitch_sim(vs).tracer.timeline(PROCS, 160.0)
    print(
        f"Stabilised {settled.alpha1_length:.2f} after the heal "
        f"(bound b = {VSBounds(1.0, 8.0, 25.0).b(len(PROCS)):.0f})"
    )

    print("\nTimeline around the reconfigurations (views + sends):")
    window = vs.merged_trace().project({"newview", "gpsnd", "bad", "good"})
    print(format_timeline(window, PROCS, limit=40))

    assert monitor.ok


if __name__ == "__main__":
    main()
