"""BENCHMARK.json, spec.py, the printed result and the README agree."""

import json
import re
from pathlib import Path

from benchmarks.perf.report import RunResult, format_report, result_line
from benchmarks.perf.spec import END_TO_END, PER_LAYER, WORKLOADS

PERF = Path(__file__).resolve().parents[1]
CONTRACT = json.loads((PERF.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_contract_has_exactly_the_keys_the_driver_reads():
    assert sorted(CONTRACT) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads",
    ]
    assert CONTRACT["paths"] == ["benchmarks/perf"]
    assert CONTRACT["command"] == ["python3", "benchmarks/perf/run.py"]
    assert 1 <= CONTRACT["run_seconds"] <= 60


def test_workloads_match_spec():
    assert CONTRACT["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS]
    assert 2 <= len(WORKLOADS) <= 8
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in WORKLOADS)


def test_metrics_match_spec():
    assert [
        {k: m[k] for k in ("name", "unit", "better")} for m in CONTRACT["end_to_end"]
    ] == [{"name": m.name, "unit": m.unit, "better": m.better} for m in END_TO_END]
    assert all(sorted(m) == ["better", "bound", "name", "unit"] for m in CONTRACT["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert CONTRACT["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    setup = CONTRACT["end_to_end"][0]
    assert (setup["name"], setup["unit"], setup["better"]) == ("setup_s", "s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


def test_names_and_units_are_well_formed_and_unique():
    names = [w.name for w in WORKLOADS] + [m.name for m in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m.unit) for m in END_TO_END + PER_LAYER)
    assert all(m.better in ("lower", "higher") for m in END_TO_END + PER_LAYER)
    assert len(PER_LAYER) <= 128 and len(END_TO_END) <= 16


def test_every_layer_metric_names_what_it_should_move():
    unmapped = [m.name for m in PER_LAYER if not m.moves]
    # run-level health figures move nothing; every layer figure does
    assert all(n.startswith(("run.", "bench.")) for n in unmapped)


def test_readme_glossary_covers_every_name():
    readme = (PERF / "README.md").read_text()
    for name in [w.name for w in WORKLOADS] + [m.name for m in END_TO_END + PER_LAYER]:
        assert f"`{name}`" in readme, f"{name} missing from README glossary"


def test_result_line_untraced_has_every_end_to_end_metric():
    result = RunResult(
        end_to_end={m.name: 1.5 for m in END_TO_END}, attempted=10, failed=1
    )
    line = json.loads(result_line(False, result))
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["attempted"] == 10 and line["failed"] == 1
    assert list(line["metrics"]) == [m.name for m in END_TO_END]
    assert line["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}


def test_result_line_traced_has_every_layer_metric_and_flags_violations():
    result = RunResult(layer={"sim.engine.events": 6671.0}, attempted=5, safety_violations=2)
    line = json.loads(result_line(True, result))
    assert line["correct"] is False
    assert list(line["metrics"]) == [m.name for m in PER_LAYER]
    assert line["metrics"]["sim.engine.events"]["value"] == 6671.0
    assert line["metrics"]["rt.wire.bytes_per_delivery"]["value"] == 0.0


def test_report_prints_names_with_units():
    result = RunResult(
        end_to_end={m.name: 2.0 for m in END_TO_END},
        layer={"fault_gap_s": 0.7},
        attempted=4, failed=1, notes=["something odd"],
    )
    text = format_report("live3_partition", 3, True, result)
    assert "to_latency_p99_ms" in text and " ms " in text
    assert "delivered_fraction" in text and "(3/4 sends)" in text
    assert "fault_gap_s" in text and "! something odd" in text
