import asyncio
import json

import pytest

from benchmarks.perf.spans import (
    SpanRecorder,
    TimingSelector,
    by_layer,
    cost_stack,
    self_seconds_by_name,
    self_times,
    write_jsonl,
)


class TestSelfTime:
    def test_nested_children(self):
        spans = [
            ["a:root", 0.0, 10.0, -1, -1],
            ["b:child", 1.0, 4.0, 0, -1],
            ["c:grandchild", 2.0, 3.0, 1, -1],
            ["b:child", 6.0, 8.0, 0, -1],
        ]
        assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]
        # self times of a tree add up to its root's duration
        assert sum(self_times(spans)) == 10.0

    def test_overlapping_children_counted_once(self):
        spans = [
            ["a:root", 0.0, 10.0, -1, -1],
            ["b:x", 1.0, 5.0, 0, -1],
            ["b:y", 3.0, 7.0, 0, -1],  # overlaps x over [3, 5]
        ]
        assert self_times(spans)[0] == 4.0  # 10 - union [1, 7]

    def test_child_clipped_to_parent(self):
        spans = [
            ["a:root", 2.0, 6.0, -1, -1],
            ["b:late", 5.0, 9.0, 0, -1],  # ends after its parent
        ]
        assert self_times(spans)[0] == 3.0

    def test_child_inside_another_child(self):
        spans = [
            ["a:root", 0.0, 10.0, -1, -1],
            ["b:x", 1.0, 8.0, 0, -1],
            ["b:y", 2.0, 3.0, 0, -1],  # a sibling wholly inside x
        ]
        assert self_times(spans)[0] == 3.0

    def test_grouping(self):
        spans = [
            ["ring:on_message", 0.0, 4.0, -1, -1],
            ["vstoto:gprcv", 1.0, 2.0, 0, -1],
            ["ring:gpsnd", 5.0, 6.0, -1, -1],
        ]
        names = self_seconds_by_name(spans)
        assert names == {"ring:on_message": 3.0, "vstoto:gprcv": 1.0, "ring:gpsnd": 1.0}
        layers = by_layer(names)
        assert layers == {"ring": 4.0, "vstoto": 1.0}
        rows, coverage = cost_stack(layers, wall=10.0, units=5)
        assert [r.layer for r in rows] == ["ring", "vstoto"]
        assert rows[0].us_per_unit == pytest.approx(0.8e6)
        assert coverage == pytest.approx(0.5)


class TestRecorder:
    def test_parent_and_send_inheritance(self):
        rec = SpanRecorder()
        rec.send_index = lambda v: int(v[1:]) if isinstance(v, str) else -1

        def inner():
            return "done"

        inner_w = rec.wrap(inner, "low:inner")
        outer_w = rec.wrap(lambda value: inner_w(), "high:outer", lambda a: a[0])
        assert outer_w("m7") == "done"  # disabled: no spans
        assert rec.spans == []
        rec.enable()
        outer_w("m7")
        inner_w()
        rec.disable()
        names = [(s[0], s[3], s[4]) for s in rec.spans]
        assert names == [("high:outer", -1, 7), ("low:inner", 0, 7), ("low:inner", -1, -1)]
        assert all(s[2] >= s[1] > 0 for s in rec.spans)

    def test_exception_closes_span(self):
        rec = SpanRecorder()

        def boom():
            raise KeyError("x")

        wrapped = rec.wrap(boom, "a:boom")
        rec.enable()
        with pytest.raises(KeyError):
            wrapped()
        after = rec.wrap(lambda: None, "a:after")
        after()
        assert rec.spans[0][2] > 0
        assert rec.spans[1][3] == -1  # the failed span is not its parent

    def test_patch_and_restore(self):
        class Layer:
            def work(self, x):
                return x + 1

        rec = SpanRecorder()
        original = Layer.work
        rec.patch(Layer, "work", "layer:work")
        assert Layer.work is not original
        assert Layer.work.__module__ == original.__module__
        rec.enable()
        assert Layer().work(1) == 2
        rec.restore()
        assert Layer.work is original
        assert [s[0] for s in rec.spans] == ["layer:work"]

    def test_scheduler_patch_names_timer_by_module(self):
        class Sched:
            def __init__(self):
                self.queue = []

            def schedule(self, when, callback):
                self.queue.append(callback)

        rec = SpanRecorder()
        rec.patch_scheduler(Sched, "schedule")
        sched = Sched()
        sched.schedule(0.0, lambda: None)
        rec.enable()
        sched.queue[0]()
        rec.restore()
        assert rec.spans[0][0] == f"{__name__}:timer"

    def test_async_wrapper(self):
        rec = SpanRecorder()

        async def handler(x):
            return x * 2

        wrapped = rec.wrap_async(handler, "node:ctl")
        rec.enable()
        assert asyncio.run(wrapped(4)) == 8
        assert [s[0] for s in rec.spans] == ["node:ctl"]

    def test_selector_records_turns_and_idle(self):
        rec = SpanRecorder()

        async def main():
            rec.enable()
            await asyncio.sleep(0.01)
            rec.wrap(lambda: None, "x:work")()
            await asyncio.sleep(0)
            rec.disable()

        with asyncio.Runner(
            loop_factory=lambda: asyncio.SelectorEventLoop(TimingSelector(rec))
        ) as runner:
            runner.run(main())
        names = [s[0] for s in rec.spans]
        assert "loop.idle:select" in names and "loop:turn" in names
        work = next(s for s in rec.spans if s[0] == "x:work")
        assert rec.spans[work[3]][0] == "loop:turn"
        idle = sum(s[2] - s[1] for s in rec.spans if s[0] == "loop.idle:select")
        assert idle >= 0.009


def test_write_jsonl(tmp_path):
    spans = [["a:x", 5.0, 6.0, -1, 3], ["b:y", 5.5, 5.75, 0, 3]]
    path = tmp_path / "out" / "w.spans.jsonl"
    assert write_jsonl(spans, path) == 2
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows[1] == {
        "id": 1, "name": "b:y", "start": 0.5, "end": 0.75, "parent": 0, "send": 3,
    }
