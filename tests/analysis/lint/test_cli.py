"""The ``python -m repro.analysis.lint`` sweep CLI."""

import json

import pytest

from repro.analysis.lint import all_rules
from repro.analysis.lint.cli import build_parser, main


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in all_rules():
        assert rule.rule_id in out


def test_unknown_benchmark_exits_2(capsys):
    assert main(["--benchmarks", "nosuch"]) == 2
    assert "unknown benchmark" in capsys.readouterr().err


def test_unknown_pipeline_exits_2(capsys):
    assert main(["--pipelines", "mystery"]) == 2
    assert "unknown pipeline" in capsys.readouterr().err


def test_unknown_rule_exits_2(capsys):
    assert main(["--rules", "no-such-rule"]) == 2
    assert "unknown lint rule" in capsys.readouterr().err


def test_unknown_exclude_rule_exits_2(capsys):
    assert main(["--exclude-rules", "no-such-rule"]) == 2
    assert "unknown lint rule" in capsys.readouterr().err


def test_sweep_one_benchmark_clean(tmp_path, capsys):
    code = main(["--benchmarks", "adpcm_dec", "--pipelines", "traditional",
                 "--cache-dir", str(tmp_path), "--json", "-"])
    out = capsys.readouterr().out
    assert code == 0
    # --json - prints the summary table first, then the JSON payload
    payload = out[out.index("["):]
    records = json.loads(payload)
    assert all(r["severity"] != "error" for r in records)


def test_exclude_rules_and_table_artifact(tmp_path, capsys):
    table = tmp_path / "lint-table.txt"
    code = main(["--benchmarks", "adpcm_dec", "--pipelines", "traditional",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--exclude-rules", "pred-cycle-disjoint",
                 "--table", str(table), "--quiet"])
    assert code == 0
    report = table.read_text()
    assert "adpcm_dec" in report
    assert "lint sweep at capacity" in report
    # --quiet suppresses stdout but not the artifact
    assert "lint sweep" not in capsys.readouterr().out


def test_bad_capacity_exits_2_before_compiling(capsys):
    for value in ("-5", "big", "16,32"):
        with pytest.raises(SystemExit) as exc:
            main(["--benchmarks", "adpcm_dec", "--no-cache",
                  "--capacity", value])
        assert exc.value.code == 2
        assert "--capacity" in capsys.readouterr().err


def test_capacity_spellings_match_the_runner():
    parser = build_parser()
    for value, capacity in (("none", None), ("off", None), ("0", None),
                            ("64", 64)):
        assert parser.parse_args(["--capacity", value]).capacity == capacity
    assert parser.parse_args([]).capacity == 256
