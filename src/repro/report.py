"""Regenerate the headline experiment tables without pytest.

Usage::

    python -m repro.report            # print to stdout
    python -m repro.report -o out.md  # write a markdown report

Runs compact versions of the E5/E6/E7/E8/E12/E18/E19 sweeps from
:mod:`repro.analysis.experiments`.  The benches under ``benchmarks/``
call the same runs over wider sweeps, with assertions, and hold the
remaining experiments; run ``pytest benchmarks/ -s``.
"""

from __future__ import annotations

import argparse
import sys
from typing import TextIO

from repro.analysis.experiments import (
    baseline_table,
    chaos_table,
    end_to_end_table,
    latency_table,
    observability_table,
    stabilization_table,
    timeline_table,
)
from repro.analysis.stats import format_table

SECTIONS = (
    (
        "E5 — membership stabilisation l' vs b = 9δ + max{π+(n+3)δ, μ}",
        lambda: stabilization_table(),
    ),
    (
        "E6 — safe-delivery latency vs d = 2π + nδ (periodic token)",
        lambda: latency_table(work_conserving=False),
    ),
    (
        "E6 — safe-delivery latency (work-conserving token)",
        lambda: latency_table(work_conserving=True),
    ),
    (
        "E7 — full-stack bcast→all-delivered latency (steady state)",
        lambda: end_to_end_table(),
    ),
    (
        "E8 — VStoTO vs stable-storage-first baseline",
        lambda: baseline_table(),
    ),
    (
        "E12 — Figure 12 decomposition (α₁ vs b, totals vs b+d)",
        lambda: timeline_table(),
    ),
    (
        "E18 — chaos soak (composed nemesis; safety + drop accounting)",
        lambda: chaos_table(),
    ),
    (
        "E19 — observability (the spans stitched from the E12 run's events)",
        lambda: observability_table(),
    ),
)


def write_report(out: TextIO) -> None:
    out.write("# Measured experiment tables\n")
    out.write(
        "\nGenerated by `python -m repro.report`; virtual-time units, "
        "deterministic per seed.\n"
    )
    for title, build in SECTIONS:
        out.write(f"\n## {title}\n\n```\n")
        headers, rows = build()
        out.write(format_table(headers, rows))
        out.write("\n```\n")
        out.flush()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.report", description=__doc__
    )
    parser.add_argument(
        "-o", "--output", help="write markdown here instead of stdout"
    )
    args = parser.parse_args(argv)
    if args.output:
        with open(args.output, "w") as handle:
            write_report(handle)
        print(f"wrote {args.output}")
    else:
        write_report(sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
