"""Latency SLOs and the Section 8 bounds checker for live runs.

Three layers, each consuming the one below:

1. **Samples** — latency sample extractors over a
   :class:`~repro.obs.live.stitch.StitchedRun`: per-message safe
   completion (``gpsnd`` → safe at every member, the paper's *d*
   quantity), per-message end-to-end delivery (``bcast`` → ``brcv`` at
   every member, the Theorem 7.2 quantity), per-message first hop
   (``gpsnd`` → earliest ``gprcv``, a measurable overestimate of the
   link bound δ) and per-view installation (proposal → installed at
   every member, the *b* quantity).  Extractors default to *clean*
   spans only — spans whose lifetime overlaps no annotated fault
   window are the only ones the paper's good-regime bounds speak
   about.

2. **Summaries and SLOs** — :class:`LatencySummary` renders a sample
   set as exact nearest-rank p50/p99/p999 plus a fixed-bucket
   histogram (same ladder for every run, so summaries diff cleanly
   across runs); :class:`SLOSpec` gates one summary statistic against
   a threshold, producing an :class:`SLOVerdict`.

3. **Bounds** — :func:`check_bounds` instantiates the paper's closed
   forms  b = 9δ + max{π + (n+3)δ, μ}  and  d = 2π + nδ
   (:class:`~repro.membership.bounds.VSBounds`) with the *measured*
   δ* (p99 of the first-hop samples) and checks the measured safe-p99
   and view-installation maxima against them.  δ* is deliberately an
   overestimate of δ (a first hop includes queueing and token wait,
   not just the wire), which makes the gate conservative: if the run
   violates  d(δ*)  it violates  d(δ)  for the true δ too.  On
   loopback the 2π term dominates d, so clean CI runs pass with wide
   headroom while a genuine stall (a span straddling an unannotated
   partition, a wedged token) still trips the gate.

Everything is pure arithmetic over the stitched run — no clocks, no
I/O — so verdicts are reproducible from the archived logs alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Any
from collections.abc import Iterable, Sequence

from repro.membership.bounds import VSBounds
from repro.obs.live.stitch import StitchedRun

#: One fixed bucket ladder for every latency summary (seconds) — runs
#: are comparable because the ladder never adapts to the data.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, inf,
)


def bound_key(bound: float) -> str:
    """The key of one bucket upper bound: ``repr`` of the bound, which
    round-trips every float exactly, or ``"+Inf"`` for the overflow."""
    return "+Inf" if bound == inf else repr(bound)


def quantile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (inclusive): the smallest sample such that
    at least ``q`` of the set is ≤ it.  Deterministic, no interpolation;
    0.0 on an empty set so summaries of idle runs stay well-formed."""
    if not samples:
        return 0.0
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1]: {q}")
    ordered = sorted(samples)
    # ceil(q * n) without float rank arithmetic: q arrives as a short
    # decimal (0.5, 0.99, 0.999), so scale by 1000 exactly.
    rank = -(-(int(round(q * 1000)) * len(ordered)) // 1000)
    return ordered[max(rank, 1) - 1]


@dataclass(frozen=True)
class LatencySummary:
    """One sample set summarised: exact quantiles + fixed buckets."""

    name: str
    count: int
    mean: float
    p50: float
    p99: float
    p999: float
    max: float
    #: cumulative counts keyed like histogram snapshots ("0.05", "+Inf")
    buckets: dict[str, int]

    @classmethod
    def from_samples(
        cls,
        name: str,
        samples: Sequence[float],
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> LatencySummary:
        counts = {
            bound_key(bound): sum(1 for s in samples if s <= bound)
            for bound in buckets
        }
        return cls(
            name=name,
            count=len(samples),
            mean=sum(samples) / len(samples) if samples else 0.0,
            p50=quantile(samples, 0.5),
            p99=quantile(samples, 0.99),
            p999=quantile(samples, 0.999),
            max=max(samples, default=0.0),
            buckets=counts,
        )

    def stat(self, which: str) -> float:
        """One named statistic ("p50" | "p99" | "p999" | "max" | "mean")."""
        value = getattr(self, which, None)
        if not isinstance(value, (int, float)):
            raise ValueError(f"unknown statistic {which!r}")
        return float(value)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p99": self.p99,
            "p999": self.p999,
            "max": self.max,
            "buckets": self.buckets,
        }


@dataclass(frozen=True)
class SLOSpec:
    """One latency objective: ``summary.stat(statistic) <= threshold``.

    An empty sample set passes vacuously (``require_samples`` demands a
    minimum population instead, for gates that must not silently pass
    because nothing was measured)."""

    name: str
    summary: str       # which LatencySummary (by name)
    statistic: str     # "p50" | "p99" | "p999" | "max" | "mean"
    threshold: float   # seconds
    require_samples: int = 0

    def evaluate(self, summary: LatencySummary) -> SLOVerdict:
        observed = summary.stat(self.statistic)
        if summary.count < self.require_samples:
            return SLOVerdict(
                spec=self, observed=observed, samples=summary.count,
                ok=False,
                detail=(
                    f"{summary.count} samples < required "
                    f"{self.require_samples}"
                ),
            )
        ok = summary.count == 0 or observed <= self.threshold
        detail = "" if ok else (
            f"{self.summary}.{self.statistic} = {observed:.6g}s > "
            f"{self.threshold:.6g}s"
        )
        return SLOVerdict(
            spec=self, observed=observed, samples=summary.count,
            ok=ok, detail=detail,
        )


@dataclass(frozen=True)
class SLOVerdict:
    spec: SLOSpec
    observed: float
    samples: int
    ok: bool
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.spec.name,
            "summary": self.spec.summary,
            "statistic": self.spec.statistic,
            "threshold": self.spec.threshold,
            "observed": self.observed,
            "samples": self.samples,
            "ok": self.ok,
            "detail": self.detail,
        }


def default_slos(bounds: VSBounds, n: int) -> tuple[SLOSpec, ...]:
    """SLOs derived from the configured (not measured) bounds: the run
    promised these numbers when it chose its δ/π/μ, so exceeding them
    is a regression even when the measured-δ gate would still pass."""
    return (
        SLOSpec("safe-p99-under-d", "safe", "p99", bounds.d(n)),
        SLOSpec(
            "delivery-p99-under-b+d", "delivery", "p99", bounds.to_b(n)
        ),
        SLOSpec(
            "view-install-max-under-b+d",
            "view_install", "max", bounds.to_b(n),
        ),
    )


# ----------------------------------------------------------------------
# Sample extraction from stitched spans
# ----------------------------------------------------------------------
def _latencies(
    run: StitchedRun,
    intervals: Iterable[tuple[float, float]],
    clean_only: bool,
) -> list[float]:
    """Lengths of the (start, end) ``intervals``, minus — when
    ``clean_only`` — those that overlap an annotated fault window."""
    faults = run.tracer.faults if clean_only else ()
    return [
        end - start
        for start, end in intervals
        if not any(start <= f.stop and end >= f.start for f in faults)
    ]


def safe_samples(run: StitchedRun, clean_only: bool = True) -> list[float]:
    """Per-message gpsnd → safe-at-every-member latency (the *d*
    measurement), for messages whose view completed the safe round."""
    return _latencies(run, run.tracer.safe_latencies(), clean_only)


def delivery_samples(
    run: StitchedRun, clean_only: bool = True
) -> list[float]:
    """Per-message bcast → brcv-at-every-member latency (Theorem 7.2),
    against the membership of the sending view."""
    return _latencies(run, run.tracer.delivery_latencies(), clean_only)


def first_hop_samples(
    run: StitchedRun, clean_only: bool = True
) -> list[float]:
    """Per-message gpsnd → earliest gprcv latency: the measurable
    stand-in for the link bound δ (an overestimate — it includes token
    wait, so bounds built from its p99 are conservative)."""
    hops = [
        (span.gpsnd_at, min(span.gprcv_at.values()))
        for span in run.tracer.message_spans
        if span.gprcv_at
    ]
    return _latencies(run, hops, clean_only)


def view_install_samples(
    run: StitchedRun, clean_only: bool = True
) -> list[float]:
    """Per-view proposal (the ``formation`` event) → installed-at-every-
    member latency, for views that did install everywhere.  A view whose
    proposal the capture does not hold gives no sample: first to last
    ``newview`` would leave out the formation rounds."""
    installs = [
        (span.proposed_at, installed)
        for span in run.tracer.view_spans.values()
        if span.proposed_at is not None
        and (installed := span.installed_everywhere_at()) is not None
    ]
    return _latencies(run, installs, clean_only)


def latency_summaries(
    run: StitchedRun, clean_only: bool = True
) -> dict[str, LatencySummary]:
    """Every extractor summarised, keyed by the SLO ``summary`` names."""
    return {
        "safe": LatencySummary.from_samples(
            "safe", safe_samples(run, clean_only)
        ),
        "delivery": LatencySummary.from_samples(
            "delivery", delivery_samples(run, clean_only)
        ),
        "first_hop": LatencySummary.from_samples(
            "first_hop", first_hop_samples(run, clean_only)
        ),
        "view_install": LatencySummary.from_samples(
            "view_install", view_install_samples(run, clean_only)
        ),
    }


def evaluate_slos(
    summaries: dict[str, LatencySummary], specs: Sequence[SLOSpec]
) -> list[SLOVerdict]:
    verdicts = []
    for spec in specs:
        summary = summaries.get(spec.summary)
        if summary is None:
            summary = LatencySummary.from_samples(spec.summary, ())
        verdicts.append(spec.evaluate(summary))
    return verdicts


# ----------------------------------------------------------------------
# Section 8 bounds checker
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BoundsVerdict:
    """Measured latencies vs the paper's closed forms at measured δ*."""

    n: int
    pi: float
    mu: float
    delta_config: float
    #: δ* — p99 of clean first-hop samples (δ_config when unmeasured)
    delta_measured: float
    #: d(δ*) = 2π + nδ*
    d_bound: float
    #: b(δ*) = 9δ* + max{π + (n+3)δ*, μ}
    b_bound: float
    safe_p99: float
    view_install_max: float
    safe_count: int
    view_count: int
    ok: bool
    violations: tuple[str, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "pi": self.pi,
            "mu": self.mu,
            "delta_config": self.delta_config,
            "delta_measured": self.delta_measured,
            "d_bound": self.d_bound,
            "b_bound": self.b_bound,
            "safe_p99": self.safe_p99,
            "view_install_max": self.view_install_max,
            "safe_count": self.safe_count,
            "view_count": self.view_count,
            "ok": self.ok,
            "violations": list(self.violations),
        }


def check_bounds(
    run: StitchedRun,
    bounds: VSBounds,
    n: int | None = None,
) -> BoundsVerdict:
    """Gate a stitched run against b and d instantiated at measured δ*.

    Only clean (fault-window-free) spans participate: the paper's
    bounds hold once the network is stable, and the fault annotations
    tell us exactly when it was not.  Empty sample sets pass — an idle
    run violates nothing (the report layer separately requires
    activity where activity is expected).
    """
    group_size = n if n is not None else len(run.processors)
    hops = first_hop_samples(run)
    delta_star = quantile(hops, 0.99) if hops else bounds.delta
    star = VSBounds(
        delta=max(delta_star, 1e-9), pi=bounds.pi, mu=bounds.mu
    )
    d_bound = star.d(group_size)
    b_bound = star.b(group_size)

    safe = safe_samples(run)
    installs = view_install_samples(run)
    safe_p99 = quantile(safe, 0.99)
    install_max = max(installs, default=0.0)

    violations = []
    if safe and safe_p99 > d_bound:
        violations.append(
            f"safe p99 {safe_p99:.6g}s exceeds d = 2π + nδ* = "
            f"{d_bound:.6g}s (n={group_size}, δ*={delta_star:.6g}s)"
        )
    if installs and install_max > b_bound + d_bound:
        violations.append(
            f"view install max {install_max:.6g}s exceeds b + d = "
            f"{b_bound + d_bound:.6g}s (n={group_size}, "
            f"δ*={delta_star:.6g}s)"
        )
    return BoundsVerdict(
        n=group_size,
        pi=bounds.pi,
        mu=bounds.mu,
        delta_config=bounds.delta,
        delta_measured=delta_star,
        d_bound=d_bound,
        b_bound=b_bound,
        safe_p99=safe_p99,
        view_install_max=install_max,
        safe_count=len(safe),
        view_count=len(installs),
        ok=not violations,
        violations=tuple(violations),
    )
