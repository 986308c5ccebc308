"""Tests for the reusable experiment sweeps and the report CLI."""

import hashlib
import io
import math
import pathlib

import pytest

from repro.analysis import experiments
from repro.analysis.experiments import (
    baseline_table,
    end_to_end_table,
    latency_table,
    stabilization_table,
    timeline_table,
)
from repro.apps.baselines import StableStorageBroadcast
from repro.faults import FaultSchedule
from repro.report import main as report_main
from repro.report import write_report


class TestSweeps:
    def test_stabilization_table_shape(self):
        headers, rows = stabilization_table(seeds=(0,))
        assert headers[0] == "n"
        assert len(rows) == 4
        for row in rows:
            *_, bound, measured, ratio = row
            assert 0.0 < measured <= bound
            assert ratio <= 1.0

    def test_unstabilized_seed_is_not_the_best_seed(self, monkeypatch):
        """A run that never stabilised reads inf in its cell, so the
        max over seeds cannot mistake it for the fastest one (it used
        to read 0.0)."""
        n, delta, pi, mu = 3, 1.0, 10.0, 30.0
        monkeypatch.setattr(FaultSchedule, "install", lambda *_: None)
        # Never split: the 3-member side never gets a view of its own.
        assert math.isinf(experiments.split_l_prime(n, delta, pi, mu, 0))
        monkeypatch.undo()
        measure = experiments.split_l_prime
        monkeypatch.setattr(
            experiments, "split_l_prime", lambda *cell: (
                math.inf if cell[-1] == 1 else measure(*cell)
            ),
        )
        _headers, rows = stabilization_table(seeds=(0, 1))
        assert all(math.isinf(row[5]) for row in rows)

    def test_latency_table_periodic(self):
        headers, rows = latency_table(work_conserving=False)
        assert len(rows) == 4
        for n, delta, pi, d_paper, d_impl, mean, worst in rows:
            assert mean <= worst <= d_impl + 1.0

    def test_latency_table_work_conserving_faster(self):
        _h, periodic = latency_table(work_conserving=False)
        _h, eager = latency_table(work_conserving=True)
        for slow_row, fast_row in zip(periodic, eager):
            assert fast_row[5] < slow_row[5]  # mean latency

    def test_end_to_end_table(self):
        headers, rows = end_to_end_table(seeds=(0,))
        assert len(rows) == 2
        for n, seed, mean, p95, worst in rows:
            assert 0 < mean <= worst

    def test_baseline_table_monotone_gap(self):
        headers, rows = baseline_table(sigmas=(2.0, 8.0))
        gaps = [row[3] for row in rows]
        assert gaps[0] < gaps[1]
        assert all(gap > 0 for gap in gaps)

    def test_baseline_table_refuses_an_incomplete_run(self, monkeypatch):
        """A value whose log write is missing at one replica would read
        as a lower max over the other four; the E8 row is refused."""
        run_until = StableStorageBroadcast.run_until

        def drop_last_write(ssb, time):
            run_until(ssb, time)
            ssb.logged_deliveries.pop()

        monkeypatch.setattr(StableStorageBroadcast, "run_until", drop_last_write)
        with pytest.raises(experiments.IncompleteRun, match="logged 4 times, not 5"):
            baseline_table(sigmas=(2.0,))

    def test_timeline_table(self):
        headers, rows = timeline_table(seeds=(0,))
        (seed, alpha1, b, alpha3, total, budget), = rows
        assert alpha1 <= b
        assert total <= budget


#: sha256 of everything ``python -m repro.report`` writes.  The tables
#: are deterministic per seed, so any change to an E5–E19 number or
#: verdict shows up here; re-pin only with the before/after tables in
#: EXPERIMENTS.md.
REPORT_SHA256 = "aa09f77da0847ecb4e9d78ab9b950e6b3e198ed8d57586626a8ec636cdd827be"


class TestReportCLI:
    def test_report_is_pinned(self):
        out = io.StringIO()
        write_report(out)
        text = out.getvalue()
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == REPORT_SHA256, f"the E-tables moved:\n{text}"

    def test_writes_markdown_file(self, tmp_path: pathlib.Path):
        out = tmp_path / "report.md"
        assert report_main(["-o", str(out)]) == 0
        text = out.read_text()
        assert "# Measured experiment tables" in text
        for marker in ("E5", "E6", "E7", "E8", "E12"):
            assert marker in text
        assert "b(paper)" in text

    def test_stdout_mode(self, capsys):
        assert report_main([]) == 0
        captured = capsys.readouterr()
        assert "E5" in captured.out
