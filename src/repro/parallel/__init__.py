"""Deterministic parallel multi-seed execution.

Seed sweeps (the chaos soaks of :mod:`repro.faults`, the scenario
sweeps of :mod:`repro.scenarios`) are embarrassingly parallel: every
seeded run is an isolated simulation with its own RNG registry.  This
package fans such runs out over worker processes while keeping the
*merged* result exactly what the sequential loop produces — results come back in seed order, each wrapped in a
:class:`RunEnvelope` whose canonical digest lets callers assert
byte-identical equivalence between worker counts.

Workers are plain ``multiprocessing`` processes (fork when available);
worker callables must be module-level (picklable).  ``workers=1``
bypasses multiprocessing entirely, so the sequential path stays the
reference semantics.
"""

from repro.parallel.executor import (
    RunEnvelope,
    canonical_digest,
    make_envelope,
    merge_coverage_dicts,
    parallel_map,
    run_seed_sweep,
)

__all__ = [
    "RunEnvelope",
    "canonical_digest",
    "make_envelope",
    "merge_coverage_dicts",
    "parallel_map",
    "run_seed_sweep",
]
