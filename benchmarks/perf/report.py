"""A run's result, printed for people and, last, for the driver."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .spec import END_TO_END, PER_LAYER, Metric


@dataclass
class RunResult:
    """What one benchmark run measured, before it is printed."""

    end_to_end: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    safety_violations: int = 0
    notes: list[str] = field(default_factory=list)
    tables: list[str] = field(default_factory=list)

    @property
    def delivered_fraction(self) -> float:
        if not self.attempted:
            return 0.0
        return (self.attempted - self.failed) / self.attempted


def _rows(metrics: tuple[Metric, ...], values: dict[str, float]) -> list[str]:
    arrow = {"lower": "v", "higher": "^"}
    return [
        f"  {m.name:<40}{values[m.name]:>16.6g} {m.unit:<6}[{arrow[m.better]}] ({m.source})"
        for m in metrics
        if m.name in values
    ]


def format_report(workload: str, seed: int, traced: bool, result: RunResult) -> str:
    """Every metric the run measured, by name with unit and direction."""
    lines = [f"== {workload}  seed={seed}  {'traced' if traced else 'untraced'}"]
    lines += _rows(END_TO_END, result.end_to_end)
    lines.append(
        f"  {'delivered_fraction':<40}{result.delivered_fraction:>16.6g} ratio "
        f"[^]  ({result.attempted - result.failed}/{result.attempted} sends)"
    )
    lines.append(f"  {'safety_violations':<40}{result.safety_violations:>16d} count [v]")
    if traced:
        lines.append("  -- per layer")
        lines += _rows(PER_LAYER, result.layer)
        for table in result.tables:
            lines += ["  -- cost stack (self time by layer)", table]
    lines += [f"  ! {note}" for note in result.notes]
    return "\n".join(lines)


def result_line(traced: bool, result: RunResult) -> str:
    """The driver's line: with tracing off every end-to-end metric,
    with tracing on every per-layer metric (0 where a layer does not run
    in the workload)."""
    if traced:
        metrics = {
            m.name: {"value": float(result.layer.get(m.name, 0.0)), "unit": m.unit}
            for m in PER_LAYER
        }
    else:
        metrics = {
            m.name: {"value": float(result.end_to_end[m.name]), "unit": m.unit}
            for m in END_TO_END
        }
    return json.dumps(
        {
            "correct": result.safety_violations == 0,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": metrics,
        }
    )
