"""The Figure 12 decomposition, read off spans, held to what the
retired ``repro.analysis.timeline`` scrape produced: same events, same
boundaries.  One input changed shape: a span opens at ``gpsnd``, so the
synthetic trace records each member's summary ``gpsnd`` ahead of the
``safe`` events for it (the old scrape read ``safe`` events alone)."""

import math

from repro.core.quorums import MajorityQuorumSystem
from repro.core.types import View
from repro.core.vstoto.process import is_summary
from repro.core.vstoto.runtime import VStoTORuntime
from repro.ioa.actions import act
from repro.ioa.timed import TimedTrace
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from repro.net.scenarios import PartitionScenario
from repro.obs.live.stitch import stitch_events, stitch_sim
from repro.rt.trace import sim_entries

PROCS = ("p", "q")
V0 = View(0, set(PROCS))
V1 = View(1, set(PROCS))


def is_marker(payload):
    return payload == "summary"


def decompose_timeline(trace, group, stable_at, summary_predicate, initial_view):
    run = stitch_events(sim_entries(trace.events), PROCS, initial_view, t0=0.0)
    return run.tracer.timeline(group, stable_at, summary_predicate)


def installed():
    """V1 installed at both members, each then sending its summary."""
    trace = TimedTrace()
    trace.append(12.0, act("newview", V1, "p"))
    trace.append(13.0, act("newview", V1, "q"))
    for src in PROCS:
        trace.append(13.0, act("gpsnd", "summary", src))
    return trace


class TestSyntheticDecomposition:
    def build(self):
        trace = installed()
        events = sorted(
            (20.0 + (src == "q") + 2 * (dst == "q"), src, dst)
            for src in PROCS
            for dst in PROCS
        )
        for time, src, dst in events:
            trace.append(time, act("safe", "summary", src, dst))
        return trace

    def test_boundaries(self):
        timeline = decompose_timeline(
            self.build(), PROCS, 10.0, is_marker, V0
        )
        assert timeline.l == 10.0
        assert timeline.vs_settled_at == 13.0
        assert timeline.exchange_safe_at == 23.0
        assert timeline.alpha1_length == 3.0
        assert timeline.alpha3_length == 10.0
        assert timeline.total_stabilization == 13.0

    def test_incomplete_exchange_reported_infinite(self):
        trace = installed()
        trace.append(20.0, act("safe", "summary", "p", "p"))
        timeline = decompose_timeline(trace, PROCS, 10.0, is_marker, V0)
        assert math.isinf(timeline.exchange_safe_at)

    def test_disagreeing_views_reported(self):
        trace = TimedTrace()
        trace.append(12.0, act("newview", V1, "p"))
        timeline = decompose_timeline(trace, PROCS, 10.0, is_marker, V0)
        assert math.isinf(timeline.vs_settled_at)


class TestFullStackTimeline:
    def test_decomposition_from_real_run(self):
        procs = (1, 2, 3, 4, 5)
        service = TokenRingVS(
            procs, RingConfig(delta=1.0, pi=10.0, mu=30.0), seed=3
        )
        runtime = VStoTORuntime(service, MajorityQuorumSystem(procs))
        scenario = (
            PartitionScenario()
            .add(50.0, [[1, 2, 3], [4, 5]])
            .add(300.0, [[1, 2, 3, 4, 5]])
        )
        service.install_scenario(scenario)
        runtime.start()
        runtime.run_until(700.0)
        timeline = stitch_sim(service).tracer.timeline(
            procs, 300.0, is_summary
        )
        assert timeline.final_view is not None
        assert timeline.final_view.set == set(procs)
        assert 0.0 <= timeline.alpha1_length < 40.0
        assert timeline.alpha3_length >= 0.0
        assert not math.isinf(timeline.exchange_safe_at)
