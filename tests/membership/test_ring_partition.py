"""Membership reconfiguration under partitions and merges."""

import pytest

from repro.membership.bounds import VSBounds
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from repro.faults import FaultSchedule

PROCS = (1, 2, 3, 4, 5)
DELTA, PI, MU = 1.0, 10.0, 30.0


def service(seed=0, procs=PROCS, **kwargs):
    return TokenRingVS(
        procs, RingConfig(delta=DELTA, pi=PI, mu=MU, **kwargs), seed=seed
    )


def final_views(vs, procs=PROCS):
    return {p: vs.current_view(p) for p in procs}


class TestSplit:
    @pytest.mark.parametrize("seed", range(4))
    def test_both_sides_form_matching_views(self, seed):
        vs = service(seed=seed)
        FaultSchedule().add_layout(50.0, [[1, 2, 3], [4, 5]]).install(vs)
        vs.run_until(300.0)
        views = final_views(vs)
        assert views[1].set == {1, 2, 3}
        assert views[1] == views[2] == views[3]
        assert views[4].set == {4, 5}
        assert views[4] == views[5]
        assert views[1].id != views[4].id

    def test_split_within_bound_b(self):
        bounds = VSBounds(DELTA, PI, MU)
        for seed in range(4):
            vs = service(seed=seed)
            FaultSchedule().add_layout(50.0, [[1, 2, 3], [4, 5]]).install(vs)
            vs.run_until(400.0)
            newviews = [
                e
                for e in vs.trace.events
                if e.action.name == "newview" and e.time > 50.0
            ]
            assert newviews, "no reconfiguration happened"
            last = max(e.time for e in newviews)
            assert last - 50.0 <= bounds.b(5) + 5.0  # small scheduling slack

    def test_three_way_split(self):
        vs = service(seed=2)
        FaultSchedule().add_layout(50.0, [[1, 2], [3, 4], [5]]).install(vs)
        vs.run_until(400.0)
        views = final_views(vs)
        assert views[1].set == {1, 2} and views[1] == views[2]
        assert views[3].set == {3, 4} and views[3] == views[4]
        assert views[5].set == {5}

    def test_isolated_singleton(self):
        vs = service(seed=3)
        FaultSchedule().add_layout(50.0, [[1, 2, 3, 4], [5]]).install(vs)
        vs.run_until(300.0)
        views = final_views(vs)
        assert views[5].set == {5}
        assert views[1].set == {1, 2, 3, 4}

    def test_messages_flow_in_each_component_after_split(self):
        vs = service(seed=4)
        FaultSchedule().add_layout(50.0, [[1, 2, 3], [4, 5]]).install(vs)
        vs.schedule_send(200.0, 1, "left")
        vs.schedule_send(200.0, 4, "right")
        vs.run_until(400.0)
        delivered = {}
        for event in vs.trace.events:
            if event.action.name == "gprcv":
                payload, _src, dst = event.action.args
                delivered.setdefault(payload, set()).add(dst)
        assert delivered.get("left") == {1, 2, 3}
        assert delivered.get("right") == {4, 5}


class TestMerge:
    @pytest.mark.parametrize("seed", range(4))
    def test_heal_produces_common_view(self, seed):
        vs = service(seed=seed)
        (
            FaultSchedule()
            .add_layout(50.0, [[1, 2, 3], [4, 5]])
            .add_layout(300.0, [[1, 2, 3, 4, 5]])
            .install(vs)
        )
        vs.run_until(700.0)
        views = set(final_views(vs).values())
        assert len(views) == 1
        assert views.pop().set == set(PROCS)

    def test_merge_within_bound_b(self):
        bounds = VSBounds(DELTA, PI, MU)
        for seed in range(4):
            vs = service(seed=seed)
            (
                FaultSchedule()
                .add_layout(50.0, [[1, 2, 3], [4, 5]])
                .add_layout(300.0, [[1, 2, 3, 4, 5]])
                .install(vs)
            )
            vs.run_until(700.0)
            post = [
                e.time
                for e in vs.trace.events
                if e.action.name == "newview" and e.time > 300.0
            ]
            assert post, "no merge view installed"
            assert max(post) - 300.0 <= bounds.b(5) + 5.0

    def test_view_ids_monotone_at_each_member(self):
        vs = service(seed=1)
        (
            FaultSchedule()
            .add_layout(50.0, [[1, 2], [3, 4, 5]])
            .add_layout(250.0, [[1, 2, 3, 4, 5]])
            .install(vs)
        )
        vs.run_until(600.0)
        last_seen = {}
        for event in vs.trace.events:
            if event.action.name == "newview":
                view, p = event.action.args
                if p in last_seen:
                    assert view.id > last_seen[p]
                last_seen[p] = view.id

    def test_cascaded_reconfigurations(self):
        vs = service(seed=6)
        (
            FaultSchedule()
            .add_layout(50.0, [[1, 2, 3, 4], [5]])
            .add_layout(200.0, [[1, 2], [3, 4], [5]])
            .add_layout(350.0, [[1, 2, 3, 4, 5]])
            .install(vs)
        )
        vs.run_until(800.0)
        views = set(final_views(vs).values())
        assert len(views) == 1
        assert views.pop().set == set(PROCS)

    def test_late_joiner_via_probe(self):
        """A processor outside P0 is absorbed through merge probing."""
        vs = TokenRingVS(
            (1, 2, 3),
            RingConfig(delta=DELTA, pi=PI, mu=MU),
            seed=7,
            initial_members=(1, 2),
        )
        vs.run_until(400.0)
        views = {p: vs.current_view(p) for p in (1, 2, 3)}
        assert views[1] is not None
        assert views[1].set == {1, 2, 3}
        assert views[1] == views[2] == views[3]
