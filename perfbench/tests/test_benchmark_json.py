"""BENCHMARK.json agrees with the benchmark code and its own limits."""

import json
import re
from pathlib import Path

from perfbench.layers import PER_LAYER
from perfbench.run import END_TO_END, WORKLOAD_NAMES

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_keys_and_command():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60


def test_workloads_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOAD_NAMES)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_end_to_end_metrics_match_the_code():
    specs = SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in specs} == END_TO_END
    for metric in specs:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in specs if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in specs)


def test_per_layer_metrics_match_the_code():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == [(name, unit, better) for name, unit, better, _ in PER_LAYER]
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_names_and_units_are_well_formed_and_unique():
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    units = [m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(UNIT.match(unit) for unit in units)
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
