"""Human-readable rendering of timed traces.

Debugging a partitionable group service means reading interleaved
per-processor event streams.  :func:`format_timeline` renders a timed
trace as one aligned column per processor, with view changes and
failure events called out — the textual equivalent of the paper's
Figure 12 style timeline diagrams.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from typing import TYPE_CHECKING

from repro.ioa.timed import TimedTrace

if TYPE_CHECKING:
    from repro.ioa.actions import Action

ProcId = Hashable

#: action name -> (glyph, index of the location argument)
_LOCATION_OF = {
    "bcast": ("B", 1),
    "brcv": ("R", 2),
    "gpsnd": ("s", 1),
    "gprcv": ("r", 2),
    "safe": ("✓", 2),
    "newview": ("V", 1),
    "good": ("g", 0),
    "bad": ("x", 0),
    "ugly": ("u", 0),
    # Nemesis actions (fault-annotated traces from repro.faults/repro.obs).
    "crash": ("✗", 0),
    "restart": ("↻", 0),
    "fault": ("!", 0),
    "skew": ("~", 0),
}


def describe_event(action: Action) -> str:
    """One-line description of a single action.

    Tolerant of unexpected arities (hand-built or fault-annotated traces
    do not always follow the VS/TO signatures): any shape mismatch falls
    back to the action's own repr instead of raising.
    """
    name = action.name
    args = action.args
    if name == "newview" and len(args) == 2:
        view, p = args
        return f"newview {view} at {p}"
    if name in ("good", "bad", "ugly", "crash", "restart", "fault", "skew"):
        if len(args) == 1:
            return f"{name}({args[0]})"
        if len(args) == 2:
            return f"{name}({args[0]}→{args[1]})"
        return str(action)
    if name in ("gprcv", "safe", "brcv") and len(args) == 3:
        payload, src, dst = args
        return f"{name} {payload!r} {src}→{dst}"
    if name in ("gpsnd", "bcast") and len(args) == 2:
        payload, p = args
        return f"{name} {payload!r} at {p}"
    return str(action)


def format_timeline(
    trace: TimedTrace,
    processors: Sequence[ProcId],
    names: Iterable[str] | None = None,
    limit: int = 200,
) -> str:
    """Render the trace as a per-processor event grid.

    Each row is one event: its time, a glyph in the column of the
    processor it occurred at, and a description.  ``names`` restricts
    the action names shown; ``limit`` caps the number of rows (a
    truncation marker is appended when exceeded).
    """
    keep = frozenset(names) if names is not None else None
    columns = {p: index for index, p in enumerate(processors)}
    width = 3
    header = "time".rjust(9) + " " + "".join(
        str(p)[:width].center(width) for p in processors
    ) + "  event"
    lines = [header, "-" * len(header)]
    shown = 0
    for event in trace.events:
        name = event.action.name
        if keep is not None and name not in keep:
            continue
        if shown >= limit:
            lines.append(f"... truncated at {limit} rows ...")
            break
        glyph_spec = _LOCATION_OF.get(name)
        cells = [" " * width] * len(processors)
        if glyph_spec is not None:
            glyph, arg_index = glyph_spec
            if arg_index < len(event.action.args):
                location = event.action.args[arg_index]
                if location in columns:
                    cells[columns[location]] = glyph.center(width)
        lines.append(
            f"{event.time:9.2f} "
            + "".join(cells)
            + "  "
            + describe_event(event.action)
        )
        shown += 1
    return "\n".join(lines)


def summarize_trace(trace: TimedTrace) -> dict[str, int]:
    """Event counts per action name."""
    counts: dict[str, int] = {}
    for event in trace.events:
        counts[event.action.name] = counts.get(event.action.name, 0) + 1
    return counts

