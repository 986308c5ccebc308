"""Tests for the trace timeline renderer."""

from repro.analysis.tracefmt import describe_event, format_timeline, summarize_trace
from repro.core.types import View
from repro.ioa.actions import act
from repro.ioa.timed import TimedTrace

PROCS = ("p", "q")


def sample_trace():
    trace = TimedTrace()
    trace.append(1.0, act("gpsnd", "m", "p"))
    trace.append(2.0, act("gprcv", "m", "p", "q"))
    trace.append(3.0, act("safe", "m", "p", "q"))
    trace.append(4.0, act("newview", View(1, frozenset(PROCS)), "p"))
    trace.append(5.0, act("bad", "p"))
    return trace


class TestDescribeEvent:
    def test_send(self):
        assert describe_event(act("gpsnd", "m", "p")) == "gpsnd 'm' at p"

    def test_receive(self):
        assert describe_event(act("gprcv", "m", "p", "q")) == "gprcv 'm' p→q"

    def test_newview(self):
        text = describe_event(act("newview", View(1, frozenset({"p"})), "p"))
        assert "newview" in text and "at p" in text

    def test_link_failure(self):
        assert describe_event(act("bad", "p", "q")) == "bad(p→q)"

    def test_processor_failure(self):
        assert describe_event(act("ugly", "p")) == "ugly(p)"

    def test_fault_actions(self):
        assert describe_event(act("crash", "p")) == "crash(p)"
        assert describe_event(act("restart", "p")) == "restart(p)"
        assert describe_event(act("fault", "loss#0")) == "fault(loss#0)"
        assert describe_event(act("skew", "p")) == "skew(p)"

    def test_unexpected_arity_falls_back_to_repr(self):
        # Hand-built traces may not follow the VS signatures; the
        # renderer must degrade to the action repr, never raise.
        for action in (
            act("newview", "only-one-arg"),
            act("gprcv", "m", "p"),
            act("gpsnd", "m"),
            act("bcast", "a", "p", "extra"),
            act("bad"),
        ):
            assert describe_event(action) == str(action)


class TestFormatTimeline:
    def test_renders_all_rows(self):
        text = format_timeline(sample_trace(), PROCS)
        lines = text.splitlines()
        assert len(lines) == 2 + 5  # header + rule + events
        assert "gpsnd 'm' at p" in text
        assert "bad(p)" in text

    def test_name_filter(self):
        text = format_timeline(sample_trace(), PROCS, names={"safe"})
        assert "safe" in text
        assert "gpsnd" not in text

    def test_limit_truncates(self):
        text = format_timeline(sample_trace(), PROCS, limit=2)
        assert "truncated" in text

    def test_glyph_lands_in_right_column(self):
        trace = TimedTrace()
        trace.append(1.0, act("gpsnd", "m", "q"))
        text = format_timeline(trace, PROCS)
        row = text.splitlines()[-1]
        header = text.splitlines()[0]
        assert row.find("s") > header.find("q") - 2

    def test_fault_glyphs_render(self):
        trace = TimedTrace()
        trace.append(1.0, act("crash", "p"))
        trace.append(2.0, act("restart", "p"))
        text = format_timeline(trace, PROCS)
        assert "✗" in text and "↻" in text

    def test_malformed_events_do_not_break_grid(self):
        trace = TimedTrace()
        trace.append(1.0, act("gpsnd"))  # no location argument at all
        text = format_timeline(trace, PROCS)
        assert len(text.splitlines()) == 3  # header + rule + the row


class TestSummarizeTrace:
    def test_counts(self):
        counts = summarize_trace(sample_trace())
        assert counts == {
            "gpsnd": 1,
            "gprcv": 1,
            "safe": 1,
            "newview": 1,
            "bad": 1,
        }

    def test_empty(self):
        assert summarize_trace(TimedTrace()) == {}
