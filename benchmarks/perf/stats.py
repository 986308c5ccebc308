"""The benchmark's statistics: one percentile rule, one spread.

Kept apart from ``repro.analysis.stats`` and ``repro.obs.live.slo`` on
purpose: the harness measures ``src/`` from outside, and a later PR
that merges those two must not move the numbers it is judged by.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

#: A percentile is reported only if at least this many samples lie
#: beyond it (choosing-metrics section 1).
MIN_BEYOND = 10


def percentile(
    samples: Sequence[float], q: float, min_beyond: int = MIN_BEYOND
) -> float | None:
    """Nearest-rank ``q``-quantile (``0 < q < 1``), or None when fewer
    than ``min_beyond`` samples lie strictly beyond the reported rank —
    a p99 over 500 samples would be decided by five of them."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1): {q}")
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))  # 1-based nearest rank
    if n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]


def median_percentile(episodes: Sequence[Sequence[float]], q: float) -> float:
    """The median over episodes of each episode's ``q``-quantile; an
    episode too small for the percentile rule is an error, not a gap."""
    values = [percentile(samples, q) for samples in episodes]
    if any(v is None for v in values):
        raise RuntimeError(
            f"too few samples for p{q * 100:g}: "
            f"{[len(samples) for samples in episodes]} per episode"
        )
    return median([v for v in values if v is not None])


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def iqr_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the spread the acceptance driver computes over ten seeds."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def decay_ratio(completion_times: Sequence[float]) -> float:
    """Completion rate over the last third of the sends divided by the
    rate over the first third (1.0 = flat; below 1 = the run slows as
    history grows).  ``completion_times`` need not be sorted."""
    times = sorted(completion_times)
    third = len(times) // 3
    if third < 2:
        return 1.0
    first = times[third - 1] - times[0]
    last = times[-1] - times[-third]
    if first <= 0 or last <= 0:
        return 1.0
    return first / last

