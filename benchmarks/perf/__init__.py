"""The one benchmark for the VS->TO stack (see README.md in this directory).

``python -m benchmarks.perf --workload <name> --seed <int> [--traced]``
runs one workload on the unmodified ``src/``, verifies its output with
the repo's own oracles and prints every metric by name with its unit.
``BENCHMARK.json`` at the repo root names the same entry point as
``python3 benchmarks/perf/run.py``.
"""
