"""Tests for the view-history (Gantt) renderer."""

from repro.analysis.tracefmt import format_view_history
from repro.core.types import View
from repro.ioa.actions import act
from repro.ioa.timed import TimedTrace
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from repro.faults import FaultSchedule

PROCS = ("p", "q")
V0 = View(0, frozenset(PROCS))
V1 = View(1, frozenset({"p"}))


class TestFormatViewHistory:
    def test_initial_view_shown(self):
        text = format_view_history(TimedTrace(), PROCS, V0)
        assert text.splitlines()[0].startswith("p: [0..∞)")
        assert "{p,q}" in text

    def test_intervals_split_at_newview(self):
        trace = TimedTrace()
        trace.append(12.5, act("newview", V1, "p"))
        text = format_view_history(trace, PROCS, V0)
        p_line = text.splitlines()[0]
        assert "[0..12.5)" in p_line
        assert "[12.5..∞)" in p_line

    def test_processor_without_view(self):
        text = format_view_history(TimedTrace(), PROCS, View(0, frozenset({"p"})))
        q_line = text.splitlines()[1]
        assert "(no view)" in q_line

    def test_real_run_renders(self):
        vs = TokenRingVS(
            (1, 2, 3), RingConfig(delta=1.0, pi=8.0, mu=25.0), seed=2
        )
        (
            FaultSchedule()
            .add_layout(30.0, [[1, 2], [3]])
            .add_layout(150.0, [[1, 2, 3]])
            .install(vs)
        )
        vs.run_until(400.0)
        text = format_view_history(vs.merged_trace(), (1, 2, 3), vs.initial_view)
        lines = text.splitlines()
        assert len(lines) == 3
        # every processor went through at least two views
        for line in lines:
            assert line.count("id=") >= 2
