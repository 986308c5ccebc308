"""Watching a run: counters from ``stats()``, spans from its events.

Counters are plain attributes of the layers that keep them, reported by
their ``stats()`` methods — :meth:`TokenRingVS.stats
<repro.membership.service.TokenRingVS.stats>` in a simulated run,
:meth:`LiveNode.stats <repro.rt.node.LiveNode.stats>` in a live one,
with the ring's counters named the same way in both
(:meth:`~repro.membership.ring.RingMember.counters`).  A live node's
stats stream is what the cluster driver writes to ``metrics.jsonl``
(:mod:`repro.obs.live.snapshot`).

Spans are not built in the run: :func:`repro.obs.live.stitch.stitch_sim`
rebuilds them afterwards from the service's recorded events, the way
:func:`~repro.obs.live.stitch.stitch_log_dir` rebuilds a live run's
from its event logs::

    from repro.obs.export import write_chrome_trace
    from repro.obs.live.stitch import stitch_sim

    vs = TokenRingVS(processors, config, seed=0)
    ...
    print(vs.stats())
    write_chrome_trace(stitch_sim(vs).tracer, "run.trace.json")

Watching never perturbs a run: reading counters and replaying events
draws no randomness and schedules nothing.
"""

from __future__ import annotations


from repro.obs.tracing import (
    FaultAnnotation,
    LifecycleTracer,
    MessageSpan,
    ViewSpan,
)

__all__ = [
    "LifecycleTracer",
    "MessageSpan",
    "ViewSpan",
    "FaultAnnotation",
]
