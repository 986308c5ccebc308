"""``python -m benchmarks.perf`` (from the repo root)."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from benchmarks.perf.cli import main  # noqa: E402

sys.exit(main())
