"""The run-report CLI: ``python -m repro.obs report <logdir>``.

The ``report`` subcommand judges one live cluster run from its archived
log directory (see :mod:`repro.obs.live.report`), one section per VS
group the run hosted: it stitches the group's per-node event logs into
distributed spans, summarises clean-span latencies, evaluates the SLOs
derived from the run's configured δ/π/μ, and checks the Section 8
closed forms at measured δ*.  Exit status 0 iff everything holds in
every group — the CI gate runs exactly this command.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.obs.live.report import build_reports, render_text, reports_json
from repro.obs.live.stitch import StitchError


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Run-report tooling over archived run artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    report = sub.add_parser(
        "report",
        help="stitch + judge one live run's log directory",
        description=(
            "Stitch a live run's per-node event logs into distributed "
            "spans, summarise latencies, evaluate SLOs and the Section "
            "8 bounds.  Exits 0 iff every gate holds."
        ),
    )
    report.add_argument(
        "log_dir", help="the run's log directory (*.events.jsonl etc.)"
    )
    report.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of text",
    )
    report.add_argument(
        "--out",
        default=None,
        help="also write the JSON report to this path",
    )
    report.add_argument(
        "--delta",
        type=float,
        default=None,
        help="override the configured one-hop bound δ in seconds "
        "(default: the run's recorded config, else 0.05)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    if args.command == "report":
        try:
            reports = build_reports(args.log_dir, delta=args.delta)
        except (FileNotFoundError, StitchError) as exc:
            # Exit 2 (nothing could be judged), distinct from 1 (the
            # run was judged and found in violation).
            print(f"error: {exc}")
            return 2
        if args.out:
            Path(args.out).write_text(
                reports_json(reports) + "\n", encoding="utf-8"
            )
        if args.json:
            print(reports_json(reports))
        else:
            print("".join(render_text(r) for r in reports.values()), end="")
        return max(r.exit_code for r in reports.values())
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
