"""Sharpness of the paper's theorems.

Theorem 7.2 claims TO(b+d, d, Q) only for Q *containing a quorum*.
These tests confirm both directions on the running system:

- the VS layer is quorum-agnostic: VS-property holds even for the
  minority side of a split (views settle, messages become safe within
  the minority view);
- the TO layer is not: the minority side violates TO-property's
  delivery clause (nothing can be confirmed without a primary view), so
  the quorum hypothesis in Theorem 7.2 is necessary, not an artifact.
"""

import pytest

from repro.core.quorums import MajorityQuorumSystem
from repro.core.to_spec import TOPropertyChecker
from repro.core.vs_spec import VSPropertyChecker
from repro.core.vstoto.runtime import VStoTORuntime
from repro.membership.bounds import VSBounds
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from repro.faults import FaultSchedule

PROCS = (1, 2, 3, 4, 5)
DELTA, PI, MU = 1.0, 10.0, 30.0
MINORITY = (4, 5)


def run_split(seed=0):
    service = TokenRingVS(
        PROCS,
        RingConfig(delta=DELTA, pi=PI, mu=MU, work_conserving=True),
        seed=seed,
    )
    runtime = VStoTORuntime(service, MajorityQuorumSystem(PROCS))
    FaultSchedule().add_layout(40.0, [[1, 2, 3], [4, 5]]).install(service)
    # traffic on both sides after the split
    for i in range(6):
        runtime.schedule_broadcast(100.0 + 20.0 * i, 1, f"maj{i}")
        runtime.schedule_broadcast(100.0 + 20.0 * i, 4, f"min{i}")
    runtime.start()
    runtime.run_until(900.0)
    return service, runtime


class TestVSQuorumAgnostic:
    @pytest.mark.parametrize("seed", range(3))
    def test_vs_property_holds_for_minority(self, seed):
        service, _runtime = run_split(seed)
        bounds = VSBounds(DELTA, PI, MU)
        checker = VSPropertyChecker(
            b=bounds.b(2),
            d=bounds.d_impl(2, work_conserving=True),
            group=MINORITY,
        )
        report = checker.check(
            service.merged_trace(), PROCS, service.initial_view
        )
        assert report.holds, report.reason
        assert report.obligations > 0  # minority messages do become safe


class TestTOQuorumNecessary:
    def test_to_property_fails_for_minority(self):
        """The minority's values are never delivered (no primary view),
        so TO-property(b', d', {4,5}) is violated for any finite bounds
        — Theorem 7.2's quorum hypothesis is doing real work."""
        _service, runtime = run_split(seed=1)
        checker = TOPropertyChecker(b=200.0, d=200.0, group=MINORITY)
        report = checker.check(runtime.merged_trace(), PROCS)
        assert not report.holds
        assert "not delivered" in report.reason

    def test_minority_not_delivered_majority_fine(self):
        _service, runtime = run_split(seed=2)
        assert not runtime.delivered_values(4)
        majority_values = runtime.delivered_values(1)
        assert len(majority_values) == 6
        assert all(v.startswith("maj") for v in majority_values)
