"""``python -m repro.obs perf`` — record/compare/trend wiring and exits."""

import json

import pytest

from repro.obs.cli import main
from repro.obs.perf import harness
from repro.obs.perf.harness import BenchSpec, Sample, register


@pytest.fixture
def registry(monkeypatch):
    """Isolated spec registry with a cheap deterministic toy bench."""
    saved = dict(harness._REGISTRY)
    monkeypatch.delenv(harness.ENV_INJECT, raising=False)

    def fn(mode):
        return Sample(value=0.2, phases={"work": 0.1, "rest": 0.1},
                      meta={"digest": "toy"})

    register(BenchSpec(name="toy.time", fn=fn,
                       config_fn=lambda mode: {"toy": True},
                       budgets={"full": 0.05}, help="toy timing bench"))
    register(BenchSpec(name="toy.loose", fn=fn,
                       config_fn=lambda mode: {"toy": True},
                       gate_budget=2.0,
                       help="toy bench with a per-spec gate budget"))
    yield harness._REGISTRY
    harness._REGISTRY.clear()
    harness._REGISTRY.update(saved)


class TestList:
    def test_lists_builtins(self, capsys):
        assert main(["perf", "list"]) == 0
        out = capsys.readouterr().out
        assert "sim.speedup" in out and "obs.overhead" in out

    def test_json_shape(self, capsys):
        assert main(["perf", "list", "--json"]) == 0
        specs = {s["name"]: s for s in
                 json.loads(capsys.readouterr().out)}
        assert specs["sim.speedup"]["kind"] == "ratio"
        assert specs["sim.speedup"]["direction"] == "higher"
        # most specs gate at the per-unit default; serve.speedup carries
        # its own wider budget (cold/warm noise doesn't divide out)
        assert specs["sim.speedup"]["gate_budget"] is None
        assert specs["serve.speedup"]["gate_budget"] == 0.5


class TestRecord:
    def test_appends_and_writes_json(self, registry, tmp_path, capsys):
        history = tmp_path / "h.jsonl"
        out = tmp_path / "r.json"
        code = main(["perf", "record", "--bench", "toy.time",
                     "--history", str(history), "--samples", "2",
                     "--json", str(out)])
        assert code == 0
        (line,) = history.read_text().splitlines()
        record = json.loads(line)
        assert record["bench"] == "toy.time"
        assert record["samples"] == [0.2, 0.2]
        assert json.loads(out.read_text())["toy.time"]["median"] == 0.2

    def test_no_append_leaves_history_untouched(self, registry, tmp_path):
        history = tmp_path / "h.jsonl"
        assert main(["perf", "record", "--bench", "toy.time",
                     "--history", str(history), "--samples", "1",
                     "--no-append"]) == 0
        assert not history.exists()

    def test_budget_failure_exits_nonzero(self, registry, tmp_path):
        # the toy budget is a 0.05s ceiling in full mode; 0.2 busts it
        assert main(["perf", "record", "--bench", "toy.time",
                     "--mode", "full", "--samples", "1",
                     "--history", str(tmp_path / "h.jsonl")]) == 1


class TestCompare:
    def _args(self, tmp_path, *extra):
        return ["perf", "compare", "--bench", "toy.time",
                "--history", str(tmp_path / "h.jsonl"),
                "--samples", "2", *extra]

    def _seed(self, tmp_path):
        assert main(["perf", "record", "--bench", "toy.time",
                     "--history", str(tmp_path / "h.jsonl"),
                     "--samples", "3"]) == 0

    def test_first_run_records_without_alarm(self, registry, tmp_path,
                                             capsys):
        assert main(self._args(tmp_path)) == 0
        assert "no-baseline" in capsys.readouterr().out

    def test_stable_against_baseline_and_rerunnable(self, registry,
                                                    tmp_path, capsys):
        self._seed(tmp_path)
        baseline = (tmp_path / "h.jsonl").read_text()
        # same SHA, twice: both pass, and the baseline file is untouched
        assert main(self._args(tmp_path)) == 0
        assert main(self._args(tmp_path)) == 0
        assert (tmp_path / "h.jsonl").read_text() == baseline
        assert "gate ok" in capsys.readouterr().out

    def test_record_out_is_separate(self, registry, tmp_path):
        self._seed(tmp_path)
        out = tmp_path / "fresh.jsonl"
        assert main(self._args(tmp_path, "--record-out", str(out))) == 0
        assert len(out.read_text().splitlines()) == 1
        assert len((tmp_path / "h.jsonl").read_text().splitlines()) == 1

    def test_injected_slowdown_fails_and_blames_phase(
            self, registry, tmp_path, monkeypatch, capsys):
        self._seed(tmp_path)
        monkeypatch.setenv(harness.ENV_INJECT, "toy.time:work:3.0")
        verdicts = tmp_path / "v.json"
        code = main(self._args(tmp_path, "--json", str(verdicts)))
        captured = capsys.readouterr()
        assert code == 1
        assert "GATE FAILED: toy.time" in captured.err
        assert "phase 'work'" in captured.err
        (verdict,) = json.loads(verdicts.read_text())["verdicts"]
        assert verdict["status"] == "regression"
        assert verdict["phase"] == "work"

    def test_bad_injection_spec_is_usage_error(self, registry, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv(harness.ENV_INJECT, "garbage")
        assert main(self._args(tmp_path)) == 2

    def test_spec_gate_budget_loosens_the_gate(self, registry, tmp_path,
                                               monkeypatch):
        # a 2x slowdown busts the 50% seconds default but sits inside
        # toy.loose's own 200% gate budget; an explicit --budget still
        # overrides the spec either way
        loose = ["perf", "compare", "--bench", "toy.loose",
                 "--history", str(tmp_path / "h.jsonl"), "--samples", "2"]
        assert main(["perf", "record", "--bench", "toy.loose",
                     "--history", str(tmp_path / "h.jsonl"),
                     "--samples", "3"]) == 0
        monkeypatch.setenv(harness.ENV_INJECT, "toy.loose:work:3.0")
        assert main(loose) == 0
        assert main([*loose, "--budget", "0.5"]) == 1


class TestTrend:
    def test_empty_history_is_usage_error(self, tmp_path):
        assert main(["perf", "trend",
                     "--history", str(tmp_path / "nope.jsonl")]) == 2

    def test_renders_series_after_records(self, registry, tmp_path,
                                          capsys):
        history = tmp_path / "h.jsonl"
        for _ in range(3):
            assert main(["perf", "record", "--bench", "toy.time",
                         "--history", str(history),
                         "--samples", "1"]) == 0
        capsys.readouterr()
        assert main(["perf", "trend", "--history", str(history)]) == 0
        out = capsys.readouterr().out
        assert "benchmark trajectories" in out
        assert "toy.time" in out
