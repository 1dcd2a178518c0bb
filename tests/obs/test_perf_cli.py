"""``python -m repro.obs perf`` — record/compare/trend on synthetic
perfbench result lines."""

import json
from pathlib import Path

import pytest

from repro.obs.cli import main
from repro.obs.perf.history import History, env_fingerprint, fingerprint_key
from repro.obs.perf.regress import ENV_MISMATCH, REGRESSION, gate
from repro.obs.perf.results import Series, collect, load_directions

REPO = Path(__file__).resolve().parents[2]
#: run-to-run jitter of the synthetic samples (median 1, MAD 0.01)
JITTER = (1.0, 1.01, 0.99, 1.02, 0.98)


@pytest.fixture(autouse=True)
def _repo_root(monkeypatch):
    # the CLI reads each metric's direction from BENCHMARK.json in the
    # working directory, as it does when run from the repo root
    monkeypatch.chdir(REPO)


def _traced(jitter, list_s=0.2, wall_s=4.0, overhead=1.05):
    return {
        "sched.list_s": {"value": list_s * jitter, "unit": "s"},
        "sched.modulo_s": {"value": 0.3 / jitter, "unit": "s"},
        "trace.wall_s": {"value": wall_s, "unit": "s"},
        "trace.overhead_ratio": {"value": overhead * jitter,
                                 "unit": "ratio"},
        "sim.simulate_calls": {"value": 95, "unit": "count"},
        "serve.run_hit_frac": {"value": 0.43, "unit": "frac"},
        "req_p95_s": {"value": 0.012 * jitter, "unit": "s"},
    }


def _untraced(jitter, wall_s=3.5):
    return {
        "wall_s": {"value": wall_s * jitter, "unit": "s"},
        "pass_frac": {"value": 1.0, "unit": "frac"},
        "sim_cycles": {"value": 123456, "unit": "cycles"},
    }


def _write(path, correct=True, **traced):
    """One untraced and one traced paper-cold line per jitter step."""
    with path.open("w") as fh:
        for jitter in JITTER:
            for metrics in (_untraced(jitter), _traced(jitter, **traced)):
                fh.write(json.dumps({
                    "workload": "paper-cold", "correct": correct,
                    "attempted": 191, "failed": 0,
                    "metrics": metrics}) + "\n")
    return path


def _args(command, results, tmp_path):
    return ["perf", command, str(results),
            "--history", str(tmp_path / "h.jsonl")]


class TestRecord:
    def test_appends_and_writes_json(self, tmp_path, capsys):
        results = _write(tmp_path / "r.jsonl")
        assert main(_args("record", results, tmp_path)) == 0
        records = {r["bench"]: r for r in
                   History(tmp_path / "h.jsonl").records()}
        assert len(records) == 10
        assert "appended 10 record(s)" in capsys.readouterr().out
        share = records["paper-cold/sched.list_s"]
        assert share["unit"] == "share"
        assert share["samples"] == [round(0.05 * j, 6) for j in JITTER]
        # the traced wall time and the end-to-end seconds stay seconds
        assert records["paper-cold/trace.wall_s"]["unit"] == "s"
        assert records["paper-cold/req_p95_s"]["unit"] == "s"
        assert records["paper-cold/wall_s"]["median"] == 3.5

    def test_budget_failure_exits_nonzero(self, tmp_path, capsys):
        # paper-cold's tracing overhead carries a 1.5x ceiling
        results = _write(tmp_path / "r.jsonl", overhead=1.8)
        assert main(_args("record", results, tmp_path)) == 1
        assert "trace.overhead_ratio" in capsys.readouterr().err

    def test_failed_run_is_not_recorded(self, tmp_path):
        results = _write(tmp_path / "r.jsonl", correct=False)
        assert main(_args("record", results, tmp_path)) == 1
        assert not (tmp_path / "h.jsonl").exists()


class TestCompare:
    def _seed(self, tmp_path):
        results = _write(tmp_path / "base.jsonl")
        assert main(_args("record", results, tmp_path)) == 0

    def test_first_run_records_without_alarm(self, tmp_path, capsys):
        results = _write(tmp_path / "r.jsonl")
        assert main(_args("compare", results, tmp_path)) == 0
        assert "no-baseline" in capsys.readouterr().out

    def test_stable_against_baseline_and_rerunnable(self, tmp_path,
                                                    capsys):
        self._seed(tmp_path)
        baseline = (tmp_path / "h.jsonl").read_text()
        results = _write(tmp_path / "r.jsonl")
        # same SHA, twice: both pass, and the baseline file is untouched
        assert main(_args("compare", results, tmp_path)) == 0
        assert main(_args("compare", results, tmp_path)) == 0
        assert (tmp_path / "h.jsonl").read_text() == baseline
        assert "gate ok" in capsys.readouterr().out

    def test_injected_slowdown_fails_and_blames_phase(self, tmp_path,
                                                       capsys):
        self._seed(tmp_path)
        results = _write(tmp_path / "r.jsonl", list_s=0.24)
        assert main(_args("compare", results, tmp_path)) == 1
        err = capsys.readouterr().err
        assert "GATE FAILED: paper-cold/sched.list_s" in err
        assert "layer 'sched.list_s'" in err
        # no other series moved
        assert err.count("GATE FAILED") == 1

    def test_failed_run_fails_the_gate(self, tmp_path, capsys):
        self._seed(tmp_path)
        results = _write(tmp_path / "r.jsonl", correct=False)
        assert main(_args("compare", results, tmp_path)) == 1
        assert "failed run" in capsys.readouterr().err

    def test_malformed_results_is_usage_error(self, tmp_path):
        results = tmp_path / "r.jsonl"
        results.write_text('{"correct": true, "metrics": {}}\n')
        assert main(_args("compare", results, tmp_path)) == 2
        results.write_text("")
        assert main(_args("compare", results, tmp_path)) == 2

    def test_foreign_env_gates_only_dimensionless_series(self, tmp_path):
        history = History(tmp_path / "h.jsonl")
        base = collect(
            [json.loads(line) for line in
             _write(tmp_path / "base.jsonl").read_text().splitlines()],
            load_directions())
        for series in base.values():
            history.append(series.as_record({}, "other-env", None))
        # every metric twice as large (or, for the hit fraction, half):
        # seconds are not gated across hosts, everything else is
        slow = {}
        for name, series in base.items():
            factor = 0.5 if series.direction == "higher" else 2.0
            slow[name] = Series(name, series.unit, series.direction,
                                [v * factor for v in series.samples])
        here = fingerprint_key(env_fingerprint())
        verdicts = {v.bench: v for v in gate(slow, history, here)}
        for name in ("wall_s", "trace.wall_s", "req_p95_s"):
            assert verdicts[f"paper-cold/{name}"].status == ENV_MISMATCH
        for name in ("sched.list_s", "sim_cycles", "sim.simulate_calls",
                     "trace.overhead_ratio", "serve.run_hit_frac",
                     "pass_frac"):
            assert verdicts[f"paper-cold/{name}"].status == REGRESSION, name


class TestTrend:
    def test_empty_history_is_usage_error(self, tmp_path):
        assert main(["perf", "trend",
                     "--history", str(tmp_path / "nope.jsonl")]) == 2

    def test_renders_series_after_records(self, tmp_path, capsys):
        results = _write(tmp_path / "r.jsonl")
        for _ in range(3):
            assert main(_args("record", results, tmp_path)) == 0
        capsys.readouterr()
        assert main(["perf", "trend",
                     "--history", str(tmp_path / "h.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "benchmark trajectories" in out
        assert "paper-cold/sched.list_s" in out

    @staticmethod
    def _history(path, drifting, at_newest):
        """``steady`` and ``drifting`` series over three recordings; only
        the series in ``at_newest`` get a record in the newest one."""
        history = History(path)
        stamps = ("2026-01-01T00:00:00+00:00", "2026-01-02T00:00:00+00:00",
                  "2026-01-03T00:00:00+00:00")
        for step, stamp in enumerate(stamps):
            for name in ("steady", drifting):
                if stamp == stamps[-1] and name not in at_newest:
                    continue
                median = 1.0 * (2 ** step if name == drifting else 1)
                history.append({
                    "bench": f"paper-cold/{name}", "unit": "s",
                    "direction": "lower", "median": median, "mad": 0.0,
                    "config_hash": name, "recorded_at": stamp})
        return path

    def test_retired_series_is_not_drift_checked(self, tmp_path, capsys):
        # "gone" drifts 1 -> 2 over two recordings, then stops being
        # recorded: only "steady" is live
        path = self._history(tmp_path / "h.jsonl", "gone", {"steady"})
        assert main(["perf", "trend", "--history", str(path)]) == 0
        out = capsys.readouterr().out
        assert "retired" in out and "paper-cold/gone" in out

    def test_live_series_drift_still_fails(self, tmp_path, capsys):
        path = self._history(tmp_path / "h.jsonl", "slower",
                             {"steady", "slower"})
        assert main(["perf", "trend", "--history", str(path)]) == 1
        assert "DRIFT: paper-cold/slower" in capsys.readouterr().err

    @staticmethod
    def _share_history(path, wall_medians):
        """A layer share rising 0.10 -> 0.16 over two recordings whose
        ``paper-cold/trace.wall_s`` medians are ``wall_medians``."""
        history = History(path)
        stamps = ("2026-01-01T00:00:00+00:00", "2026-01-02T00:00:00+00:00")
        for stamp, share, wall in zip(stamps, (0.10, 0.16), wall_medians):
            history.append({
                "bench": "paper-cold/sched.list_s", "unit": "share",
                "direction": "lower", "median": share, "mad": 0.0,
                "config_hash": "list", "recorded_at": stamp})
            history.append({
                "bench": "paper-cold/trace.wall_s", "unit": "s",
                "direction": "lower", "median": wall, "mad": 0.0,
                "config_hash": "wall", "recorded_at": stamp})
        return path

    def test_share_of_a_faster_pass_is_not_drift(self, tmp_path, capsys):
        path = self._share_history(tmp_path / "h.jsonl", (4.0, 2.0))
        assert main(["perf", "trend", "--history", str(path)]) == 0
        assert "DRIFT" not in capsys.readouterr().err

    def test_share_of_a_slower_layer_still_drifts(self, tmp_path, capsys):
        path = self._share_history(tmp_path / "h.jsonl", (4.0, 4.0))
        assert main(["perf", "trend", "--history", str(path)]) == 1
        assert "DRIFT: paper-cold/sched.list_s" in capsys.readouterr().err


class TestHistoryParsedOnce:
    """``trend`` and ``compare`` parse each history line once, however
    many series they look up in it."""

    @pytest.fixture
    def loads(self, monkeypatch):
        import types

        import repro.obs.perf.history as history_module

        calls = []

        def counting(line):
            calls.append(line)
            return json.loads(line)

        monkeypatch.setattr(history_module, "json", types.SimpleNamespace(
            loads=counting, dumps=json.dumps))
        return calls

    def _recorded(self, tmp_path, times=3):
        results = _write(tmp_path / "r.jsonl")
        for _ in range(times):
            assert main(_args("record", results, tmp_path)) == 0
        lines = (tmp_path / "h.jsonl").read_text().splitlines()
        assert len(lines) == 10 * times
        return results, lines

    def test_trend(self, tmp_path, capsys, loads):
        _results, lines = self._recorded(tmp_path)
        loads.clear()
        assert main(["perf", "trend",
                     "--history", str(tmp_path / "h.jsonl")]) == 0
        assert sorted(loads) == sorted(lines)

    def test_compare(self, tmp_path, capsys, loads):
        results, lines = self._recorded(tmp_path)
        loads.clear()
        assert main(_args("compare", results, tmp_path)) == 0
        assert sorted(loads) == sorted(lines)
