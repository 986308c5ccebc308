"""Analysis helpers for the benchmark harness.

- :mod:`repro.analysis.stats` — summary statistics and plain-text table
  rendering (the benches print paper-style rows);
- :mod:`repro.analysis.experiments` — the E-table sweeps behind
  ``python -m repro.report``;
- :mod:`repro.analysis.tracefmt` — human rendering of timed traces.

The paper's timed quantities themselves (l′, safe and delivery latency,
the Fig. 12 boundaries) are read off spans by
:class:`repro.obs.tracing.LifecycleTracer`, for simulated runs through
:func:`repro.obs.live.stitch.stitch_sim`.
"""

from repro.analysis.stats import Summary, format_table, summarize
from repro.analysis.tracefmt import (
    describe_event,
    format_timeline,
    summarize_trace,
)

__all__ = [
    "Summary",
    "summarize",
    "format_table",
    "describe_event",
    "format_timeline",
    "summarize_trace",
]
