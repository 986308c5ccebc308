"""Command line of the benchmark.

``--workload NAME --seed N --seconds S --trace 0|1`` is the contract in
``BENCHMARK.json``: the last line printed is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload
all`` prints every workload in turn; ``--selfcheck`` runs the full set
twice and fails if two runs of the same tree disagree by more than the
benchmark's own bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
from pathlib import Path
from types import FrameType

from .report import RunResult, format_report, result_line
from .spec import END_TO_END, WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUT_DIR = HERE / "out"
#: Seconds one workload may take before the run is abandoned (the
#: acceptance driver allows 180).
DEADLINE = 170


def src_lines() -> int:
    """Lines of Python under ``src/`` — informational, so the size
    trajectory ROADMAP asks for has a first point."""
    total = 0
    for path in (REPO / "src").rglob("*.py"):
        with open(path, "rb") as handle:
            total += sum(1 for _ in handle)
    return total


def header() -> str:
    return (
        f"# benchmarks.perf  python {platform.python_version()}  "
        f"cores {os.cpu_count()}  src_lines {src_lines()}"
    )


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, keep: bool
) -> RunResult:
    """Run one workload under its deadline."""
    # Imported here so that --help works without src/ on the path.
    from .inprocess import trace_live
    from .live import LIVE_WORKLOADS, run_live
    from .sim import run_sim

    signal.alarm(DEADLINE)
    try:
        workload = LIVE_WORKLOADS.get(name)
        if workload is None:
            return run_sim(seed, seconds, traced, OUT_DIR)
        result = run_live(workload, seed, seconds, traced, OUT_DIR, keep)
        if traced and workload.in_process:
            trace_live(result, workload, seed, seconds, OUT_DIR, keep)
        return result
    finally:
        signal.alarm(0)


def bounds() -> dict[str, float]:
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: float(m["bound"]) for m in spec["end_to_end"]}


def selfcheck(seed: int, seconds: float) -> int:
    """Two full untraced passes over the same tree, side by side; a
    pairing of metric and workload that differs (either way) by more
    than its bound is a benchmark that cannot judge a change of that
    size."""
    limit = bounds()
    passes = [
        {name: run_workload(name, seed + k, seconds, False, False) for name in WORKLOAD_NAMES}
        for k in range(2)
    ]
    failures = 0
    print(f"{'workload':<18}{'metric':<22}{'first':>14}{'second':>14}{'worse by':>10}{'bound':>8}")
    for name in WORKLOAD_NAMES:
        for metric in END_TO_END:
            first = passes[0][name].end_to_end[metric.name]
            second = passes[1][name].end_to_end[metric.name]
            worse = (second - first) / first if first else 0.0
            if metric.better == "higher":
                worse = -worse
            flag = ""
            if abs(worse) > limit[metric.name]:
                failures += 1
                flag = "  <-- beyond bound"
            print(
                f"{name:<18}{metric.name:<22}{first:>14.6g}{second:>14.6g}"
                f"{worse:>+10.1%}{limit[metric.name]:>8.0%}{flag}"
            )
        for k in range(2):
            if passes[k][name].safety_violations or passes[k][name].failed:
                failures += 1
                print(f"{name}: pass {k + 1} had violations or undelivered sends")
    print("selfcheck:", "FAILED" if failures else "ok")
    return 1 if failures else 0


def _interrupt(signum: int, frame: FrameType | None) -> None:
    # SIGTERM and the deadline take the SIGINT path: asyncio cancels the
    # running episode, whose ``finally`` blocks reap the node processes.
    signal.raise_signal(signal.SIGINT)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=10.0,
        help="size of the run: work is generated for this many seconds "
        "(BENCHMARK.json uses 10; below that some workloads have too few "
        "sends per episode for a p99)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--keep", action="store_true", help="keep the node log directories")
    parser.add_argument("--selfcheck", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not args.selfcheck and args.workload is None:
        build_parser().error("one of --workload or --selfcheck is required")
    if args.seconds < 3:
        build_parser().error("--seconds must be at least 3")
    signal.signal(signal.SIGTERM, _interrupt)
    signal.signal(signal.SIGALRM, _interrupt)
    print(header(), flush=True)
    if args.selfcheck:
        return selfcheck(args.seed, args.seconds)
    traced = bool(args.trace or args.traced)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    status = 0
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, traced, args.keep)
            print(format_report(name, args.seed, traced, result), flush=True)
            print(result_line(traced, result), flush=True)
            if result.safety_violations:
                status = 1
    except KeyboardInterrupt:
        print("benchmarks.perf: interrupted (signal or deadline); no result", file=sys.stderr)
        return 130
    except RuntimeError as error:  # a run that cannot report: say why
        print(f"benchmarks.perf: {error}", file=sys.stderr)
        return 3
    return status


if __name__ == "__main__":
    sys.exit(main())
