"""Entry point named in ``BENCHMARK.json``: ``python3 benchmarks/perf/run.py``.

Runs from a checkout's root without installing anything: puts the
checkout and its ``src/`` on the path and hands over to the command
line in :mod:`benchmarks.perf.cli`.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"benchmarks.perf: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.perf.cli import main

    sys.exit(main())
