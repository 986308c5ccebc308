"""Unified observability: metrics in the run, spans from its events.

One :class:`Observability` hub holds the run's metrics and is attached
to a running stack in one call::

    from repro.obs import Observability
    from repro.obs.live.stitch import stitch_sim

    obs = Observability()
    vs = TokenRingVS(processors, config, seed=0, obs=obs)
    ...
    print(obs.metrics.render_text())
    write_chrome_trace(stitch_sim(vs).tracer, "run.trace.json")

Spans are not built in the run: :func:`repro.obs.live.stitch.stitch_sim`
rebuilds them afterwards from the service's recorded events, the way
:func:`~repro.obs.live.stitch.stitch_log_dir` rebuilds a live run's
from its event logs.

Design contract (asserted by ``benchmarks/bench_observability.py``):

- **Zero perturbation.**  The hub never draws randomness, schedules
  simulator events or mutates protocol state; an execution with
  observability attached is event-for-event identical (same RNG stream
  positions, same event order) to the same seed without it.
- **Near-zero cost when absent.**  Instrumented hot paths guard on a
  single pre-bound ``is None`` slot; with no hub attached they pay one
  branch.

Layers instrument themselves when the hub reaches them:
:class:`~repro.sim.engine.Simulator` (event counts, queue depth),
:class:`~repro.net.channel.Channel` (per-link sends/drops/in-flight),
:class:`~repro.membership.ring.RingMember` (tokens, rounds, dedup,
retransmissions, formations), and
:class:`~repro.core.vstoto.runtime.VStoTORuntime` (pending queues, views
installed, primary residency).
"""

from __future__ import annotations


from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracing import (
    FaultAnnotation,
    LifecycleTracer,
    MessageSpan,
    ViewSpan,
)

__all__ = [
    "Observability",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "LifecycleTracer",
    "MessageSpan",
    "ViewSpan",
    "FaultAnnotation",
]


class Observability:
    """The per-execution observability hub: one metrics registry."""

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
