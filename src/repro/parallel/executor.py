"""The multiprocessing seed-sweep executor.

Guarantees, in order of importance:

1. **Determinism** — the merged output is a pure function of the seed
   list, independent of worker count or scheduling.  ``Pool.map``
   returns results in input order, each worker runs a self-contained
   seeded simulation, and :func:`run_seed_sweep` verifies the seed of
   every envelope against its slot.
2. **Equivalence** — ``workers=1`` runs the worker callable inline in
   this process (no pool, no pickling), so the parallel path can always
   be validated against the sequential one; :func:`canonical_digest`
   gives a dict-order-insensitive fingerprint for that comparison.
3. **Graceful degradation** — on a single-core host the executor still
   works (the pool just time-slices).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Sequence
from typing import Any, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (cheap, inherits the interpreter state and hash seed)
    and fall back to the platform default where fork is unavailable."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def canonical_digest(value: Any) -> str:
    """A dict-order-insensitive sha256 fingerprint of a result object.

    Dataclasses are converted to dicts, mappings are serialised with
    sorted keys, and anything non-JSON falls back to ``repr`` — so two
    runs producing semantically identical results digest identically
    even across processes with different hash randomisation.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = dataclasses.asdict(value)
    payload = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class RunEnvelope:
    """One seeded run's result as shipped back from a worker."""

    seed: int
    #: the run's own success verdict (meaning defined by the caller)
    ok: bool
    #: canonical fingerprint of ``result`` — the byte-identical-merge
    #: comparison key
    digest: str
    #: summary counters from the run (picklable scalars only)
    stats: dict = field(default_factory=dict)
    #: conformance violations, verbatim
    violations: list = field(default_factory=list)
    #: protocol-state coverage counters from the run (JSON-able; merged
    #: across a sweep with :func:`merge_coverage_dicts`)
    coverage: dict = field(default_factory=dict)
    #: the full result object (must be picklable)
    result: Any = None


def make_envelope(
    seed: int,
    result: Any,
    *,
    ok: bool = True,
    stats: dict | None = None,
    violations: list | None = None,
    coverage: dict | None = None,
) -> RunEnvelope:
    """Wrap a run result, stamping its canonical digest."""
    return RunEnvelope(
        seed=seed,
        ok=ok,
        digest=canonical_digest(result),
        stats=dict(stats) if stats else {},
        violations=list(violations) if violations else [],
        coverage=dict(coverage) if coverage else {},
        result=result,
    )


def merge_coverage_dicts(dicts: Iterable[dict]) -> dict:
    """Merge JSON-shaped coverage dicts: numeric values sum, list values
    take the sorted set-union, everything else must agree.

    The merge is associative, commutative, and independent of input
    order up to the sorting — which is what makes a sweep's merged
    coverage a pure function of the seed set, identical at any worker
    count (the determinism contract of this package).
    """
    merged: dict = {}
    for d in dicts:
        for key, value in d.items():
            if key not in merged:
                merged[key] = (
                    sorted(set(value)) if isinstance(value, list) else value
                )
            elif isinstance(value, list):
                merged[key] = sorted(set(merged[key]) | set(value))
            elif isinstance(value, bool) or not isinstance(value, (int, float)):
                if merged[key] != value:
                    raise ValueError(
                        f"coverage key {key!r} has conflicting "
                        f"non-mergeable values: {merged[key]!r} vs {value!r}"
                    )
            else:
                merged[key] += value
    return merged


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    workers: int = 1,
) -> list[R]:
    """Map ``fn`` over ``items``, optionally across worker processes.

    Results are returned in input order regardless of worker count.
    ``workers <= 1`` (or fewer than two items) runs inline — no pool,
    no pickling — which is the reference semantics the parallel path
    must reproduce.  ``fn`` must be picklable (module-level, or a
    ``functools.partial`` of one) when ``workers > 1``.
    """
    items = list(items)
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    ctx = _pool_context()
    with ctx.Pool(processes=workers) as pool:
        return pool.map(fn, items, chunksize=1)


def run_seed_sweep(
    worker: Callable[[int], RunEnvelope],
    seeds: Sequence[int],
    *,
    workers: int = 1,
) -> list[RunEnvelope]:
    """Run ``worker(seed)`` for every seed, merged in seed order.

    The worker must return a :class:`RunEnvelope` for the seed it was
    given; the sweep verifies each envelope landed in the slot of the
    seed that produced it, so a mis-wired worker fails loudly instead of
    silently permuting results.
    """
    seeds = list(seeds)
    envelopes = parallel_map(worker, seeds, workers=workers)
    for seed, env in zip(seeds, envelopes):
        if env.seed != seed:
            raise RuntimeError(
                f"seed sweep misalignment: slot for seed {seed} holds an "
                f"envelope for seed {env.seed}"
            )
    return envelopes
