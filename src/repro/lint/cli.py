"""Command-line interface: ``python -m repro.lint [paths...]``.

Exit codes: 0 — clean; 1 — findings; 2 — usage or input error.
"""

from __future__ import annotations

import argparse
from collections.abc import Sequence

from repro.lint.engine import analyze_paths
from repro.lint.report import render_rule_list, render_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Determinism, typing & async-concurrency static analyzer "
            "for the partitionable-GCS reproduction."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also list suppressed findings",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list every rule id and summary, then exit",
    )
    return parser


def _split(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    return [part.strip() for part in raw.split(",") if part.strip()]


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    if options.list_rules:
        print(render_rule_list())
        return 0
    try:
        result = analyze_paths(
            options.paths,
            select=_split(options.select),
            ignore=_split(options.ignore),
        )
    except (FileNotFoundError, KeyError) as exc:
        parser.error(str(exc))  # exits 2
        raise AssertionError("unreachable") from exc  # pragma: no cover
    print(render_text(result, show_suppressed=options.show_suppressed))
    return 0 if result.ok else 1
