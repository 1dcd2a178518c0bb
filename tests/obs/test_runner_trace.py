"""Runner trace threading: CellMetrics.trace payloads, the cache-free
traced run, the ``--trace`` CLI flag, the ``python -m repro.obs`` round
trip and the report's join with the simulator's per-loop counters."""

import json

import pytest

from repro.obs.cli import main as obs_main
from repro.obs.export import (
    cell_label,
    to_chrome_trace,
    trace_report,
    validate_chrome_trace,
)
from repro.pipeline import run_compiled, with_buffer
from repro.runner import parallel
from repro.runner.cache import ArtifactCache, iter_entries
from repro.runner.cli import main as runner_main
from repro.runner.metrics import MetricsRecorder
from repro.runner.parallel import Cell, compile_base, expand_grid, run_grid

CELL = Cell("adpcm_enc", "aggressive", 256)
TIER1 = ("adpcm_enc", "g724_dec", "jpeg_dec")


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


@pytest.fixture
def fresh_memos():
    """A traced run records only what it computes: start each test as a
    fresh process would, with no base memoized."""
    parallel.BASE_MEMO.clear()
    parallel.CLASS_MEMO.clear()


class TestGridTracing:
    def test_untraced_run_has_no_trace(self, cache):
        metrics = MetricsRecorder()
        run_grid([CELL], workers=1, cache=cache, metrics=metrics)
        assert metrics.cells[0].trace is None

    def test_traced_cell_payload(self, cache, fresh_memos):
        metrics = MetricsRecorder()
        run_grid([CELL], workers=1, cache=cache, metrics=metrics,
                 trace=True)
        trace = metrics.cells[0].trace
        assert trace is not None
        assert trace["name"] == CELL.name
        compile_names = [s["name"] for s in trace["compile"]["spans"]]
        assert "compile_aggressive" in compile_names
        run_names = [s["name"] for s in trace["run"]["spans"]]
        assert "with_buffer" in run_names and "simulate" in run_names
        assert metrics.cells[0].as_dict()["traced"] is True

    def test_traced_grid_touches_no_disk_cache(self, cache, fresh_memos):
        metrics = MetricsRecorder()
        run_grid([CELL], workers=1, cache=cache, metrics=metrics,
                 trace=True)
        assert list(iter_entries(cache.root)) == []
        assert metrics.cache.hits == metrics.cache.misses == 0

    def test_warm_summary_without_trace_recomputes(self, cache,
                                                   fresh_memos):
        # a warm cache holds the cell's summary and base; a traced run
        # reads neither and records both computations
        cold = run_grid([CELL], workers=1, cache=cache)
        parallel.BASE_MEMO.clear()
        metrics = MetricsRecorder()
        traced = run_grid([CELL], workers=1, cache=cache, metrics=metrics,
                          trace=True)
        assert traced == cold
        cm = metrics.cells[0]
        assert not cm.run_cache_hit and not cm.base_cache_hit
        compile_names = {s["name"] for s in cm.trace["compile"]["spans"]}
        run_names = {s["name"] for s in cm.trace["run"]["spans"]}
        assert "compile_aggressive" in compile_names
        assert "simulate" in run_names

    def test_memo_served_base_records_no_compile(self, cache, fresh_memos):
        metrics = MetricsRecorder()
        run_grid([CELL, Cell(CELL.name, CELL.pipeline, 64)], workers=1,
                 cache=cache, metrics=metrics, trace=True)
        first, second = (cm.trace for cm in metrics.cells)
        assert first["compile"]["spans"]
        assert second["compile"]["spans"] == []
        assert "simulate" in {s["name"] for s in second["run"]["spans"]}

    def test_traced_summaries_match_untraced(self, cache, tmp_path):
        other = ArtifactCache(tmp_path / "other")
        plain = run_grid([CELL], workers=1, cache=cache)
        traced = run_grid([CELL], workers=1, cache=other, trace=True)
        assert plain == traced


class TestCli:
    def _run(self, tmp_path, *extra):
        argv = ["--benchmarks", CELL.name, "--pipelines", CELL.pipeline,
                "--capacities", str(CELL.capacity), "--workers", "1",
                "--cache-dir", str(tmp_path / "cache"), "--quiet",
                *extra]
        return runner_main(argv)

    def test_trace_flag_writes_artifacts(self, tmp_path, capsys,
                                         fresh_memos):
        trace_dir = tmp_path / "traces"
        assert self._run(tmp_path, "--trace", str(trace_dir)) == 0
        doc = json.loads((trace_dir / "trace.json").read_text())
        assert validate_chrome_trace(doc) == []
        span_names = {e["name"] for e in doc["traceEvents"]
                      if e["ph"] == "X"}
        assert "compile_aggressive" in span_names
        report = json.loads((trace_dir / "report.json").read_text())
        assert report["passes"] and report["loops"]
        assert report == trace_report(doc)
        capsys.readouterr()

        # obs CLI round trip on the artifacts the runner wrote
        assert obs_main(["validate", str(trace_dir)]) == 0
        assert obs_main(["report", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "valid Chrome trace" in out
        assert obs_main(["report", str(trace_dir / "trace.json")]) == 0
        assert "loop-buffer activity" in capsys.readouterr().out

    def test_second_run_on_a_warm_cache_traces_again(self, tmp_path, capsys,
                                                     fresh_memos):
        for run in ("cold", "warm"):
            if run == "warm":
                # a traced run stores nothing: warm the cache untraced
                assert self._run(tmp_path) == 0
                assert list(iter_entries(tmp_path / "cache"))
            parallel.BASE_MEMO.clear()  # each CLI run is a fresh process
            trace_dir = tmp_path / run
            assert self._run(tmp_path, "--trace", str(trace_dir)) == 0
            doc = json.loads((trace_dir / "trace.json").read_text())
            assert validate_chrome_trace(doc) == []
            span_names = {e["name"] for e in doc["traceEvents"]
                          if e["ph"] == "X"}
            assert {"compile_aggressive", "simulate"} <= span_names, run
        capsys.readouterr()

    def test_no_trace_by_default(self, tmp_path, capsys):
        assert self._run(tmp_path) == 0
        assert not (tmp_path / ".repro_trace").exists()
        capsys.readouterr()

    def test_obs_validate_rejects_bad_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"name": "no-ph"}]}))
        assert obs_main(["validate", str(bad)]) == 1
        assert "invalid" in capsys.readouterr().err


class TestReportJoin:
    """Each report loop row is its cell's ``LoopFetchStats``: the join
    from a compile's buffer decisions to the runtime counters."""

    FIELDS = (("buffer", "ops_from_buffer"), ("memory", "ops_from_memory"),
              ("record", "records"), ("hit", "residency_hits"),
              ("evict", "evictions"))

    def test_loop_rows_equal_loop_fetch_stats(self, fresh_memos):
        cells = expand_grid(TIER1 + ("adpcm_dec",), capacities=(256,))
        metrics = MetricsRecorder()
        run_grid(cells, workers=1, cache=None, metrics=metrics, trace=True)
        report = trace_report(to_chrome_trace(
            [cm.trace for cm in metrics.cells]))
        expected = {}
        for cell in cells:
            base = compile_base(cell.name, cell.pipeline)
            counters = run_compiled(with_buffer(base, cell.capacity)).counters
            label = cell_label({"name": cell.name, "pipeline": cell.pipeline,
                                "capacity": cell.capacity})
            for loop, stats in counters.per_loop.items():
                expected[f"{label}:{loop}"] = {
                    field: getattr(stats, attr)
                    for field, attr in self.FIELDS}
        assert expected
        assert report["loops"] == expected
