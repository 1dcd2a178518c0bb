"""Grid executor tests: determinism, serial/parallel equality, caching,
retry semantics.

The equality tests run real cells (adpcm — the fastest Table 1 programs)
across both pipelines, serial vs. pooled, cold vs. warm cache; the retry
tests inject failing executors instead of simulating real crashes.
"""

import os
import time

import pytest

import repro.runner.parallel as parallel

from repro.pipeline import RunConfig
from repro.runner.cache import ArtifactCache
from repro.runner.metrics import CellMetrics, MetricsRecorder
from repro.runner.parallel import (
    ENV_WORKERS,
    Cell,
    Source,
    _base_tasks,
    _compile_base_timed,
    _run_serial,
    _worker_task,
    base_key,
    expand_grid,
    resolve_workers,
    run_base,
    run_cell,
    run_grid,
    run_key,
)

NAMES = ["adpcm_enc", "adpcm_dec"]
GRID = expand_grid(NAMES, ("traditional", "aggressive"), (64,))


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


class TestWorkers:
    def test_default_is_core_count(self, monkeypatch):
        monkeypatch.delenv(ENV_WORKERS, raising=False)
        assert resolve_workers(None) == (os.cpu_count() or 1)

    def test_environment_and_argument_precedence(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "3")
        assert resolve_workers(None) == 3
        assert resolve_workers(7) == 7  # explicit argument wins
        monkeypatch.setenv(ENV_WORKERS, "not-a-number")
        assert resolve_workers(None) == (os.cpu_count() or 1)


class TestGrid:
    def test_expand_grid_order(self):
        cells = expand_grid(["a", "b"], ("p",), (1, 2))
        assert cells == [Cell("a", "p", 1), Cell("a", "p", 2),
                         Cell("b", "p", 1), Cell("b", "p", 2)]

    def test_keys_distinct_per_cell(self):
        keys = {run_key(c.name, c.pipeline, c.capacity) for c in GRID}
        assert len(keys) == len(GRID)
        # the run key differs from the base key (capacity is in the flags)
        cell = GRID[0]
        assert run_key(cell.name, cell.pipeline, cell.capacity) \
            != base_key(cell.name, cell.pipeline)


class TestInlineSource:
    """Inline sources go through the same keys, base path and cell
    executor as the Table 1 benchmarks."""

    SOURCE = Source("src:sum8", """\
int main() {
    int acc = 0;
    for (int i = 0; i < 8; i++) { acc = acc + i; }
    return acc;
}
""")

    def test_compile_and_run_through_the_runner(self, cache):
        parallel.BASE_MEMO.clear()
        parallel.CLASS_MEMO.clear()
        base, _seconds, how = _compile_base_timed(
            self.SOURCE, "aggressive", cache)
        assert how == "compiled"
        again, _seconds, how = _compile_base_timed(
            self.SOURCE, "aggressive", cache)
        assert how == "memo" and again is base
        parallel.BASE_MEMO.clear()
        again, _seconds, how = _compile_base_timed(
            self.SOURCE, "aggressive", cache)
        assert how == "cache" and again.static_ops == base.static_ops
        cm = CellMetrics("src:sum8", "aggressive", 16)
        summary, value = run_base(self.SOURCE, "aggressive", base, 16,
                                  metrics=cm)
        assert value == 28
        assert (summary.name, summary.pipeline, summary.capacity) == \
            ("src:sum8", "aggressive", 16)
        assert set(cm.stages) == {"retarget", "simulate"}

    def test_step_budget_is_keyed(self):
        keys = {run_key(self.SOURCE, "aggressive", 16,
                        RunConfig(max_steps=steps))
                for steps in (None, 1000, 2000)}
        assert len(keys) == 3
        assert base_key(self.SOURCE, "aggressive") != \
            base_key(self.SOURCE, "aggressive", RunConfig(max_steps=1000))

    def test_checksum_mismatch_raises(self, cache, monkeypatch):
        from dataclasses import replace

        from repro.bench import benchmark

        wrong = replace(benchmark("adpcm_enc"), reference=lambda: -1)
        base, *_ = _compile_base_timed(wrong, "traditional", cache)
        with pytest.raises(AssertionError, match="checksum"):
            run_base(wrong, "traditional", base, 64)


class TestSerialVsParallel:
    def test_equality_and_ordering(self, tmp_path):
        serial_cache = ArtifactCache(tmp_path / "serial")
        pool_cache = ArtifactCache(tmp_path / "pool")
        serial = run_grid(GRID, workers=1, cache=serial_cache)
        parallel = run_grid(GRID, workers=2, cache=pool_cache)
        assert serial == parallel
        for cell, summary in zip(GRID, serial):
            assert (summary.name, summary.pipeline, summary.capacity) \
                == (cell.name, cell.pipeline, cell.capacity)

    def test_warm_cache_identical_and_hits(self, cache):
        metrics_cold = MetricsRecorder()
        cold = run_grid(GRID, workers=1, cache=cache, metrics=metrics_cold)
        assert metrics_cold.run_cache_hits == 0

        metrics_warm = MetricsRecorder()
        warm = run_grid(GRID, workers=1, cache=cache, metrics=metrics_warm)
        assert warm == cold
        assert metrics_warm.run_cache_hits == len(GRID)

    def test_parallel_reads_serial_cache(self, cache):
        cold = run_grid(GRID, workers=1, cache=cache)
        metrics = MetricsRecorder()
        warm = run_grid(GRID, workers=2, cache=cache, metrics=metrics)
        assert warm == cold
        assert metrics.run_cache_hits == len(GRID)

    def test_no_cache_still_correct(self):
        summaries = run_grid(GRID[:2], workers=1, cache=None)
        assert all(s.ops_issued > 0 for s in summaries)

    def test_corrupted_entries_recomputed(self, cache):
        cold = run_grid(GRID, workers=1, cache=cache)
        # smash every cached artifact
        for path in cache.root.rglob("*.pkl"):
            path.write_bytes(b"garbage")
        metrics = MetricsRecorder()
        again = run_grid(GRID, workers=1, cache=cache, metrics=metrics)
        assert again == cold
        assert metrics.cache.evictions > 0
        assert metrics.run_cache_hits == 0


class TestPoolAffinity:
    """The pool sends all of a benchmark's cells to one worker, whose
    frontend memo then runs the shared frontend once, when there are at
    least as many benchmarks as workers."""

    def test_one_task_per_benchmark_in_order(self):
        cells = [Cell("b", "aggressive", 16), Cell("a", "traditional", 16),
                 Cell("b", "traditional", 16), Cell("b", "aggressive", 64),
                 Cell("a", "aggressive", None)]
        assert _base_tasks(cells, 2) == [("b", ["aggressive", "traditional"]),
                                         ("a", ["traditional", "aggressive"])]
        assert _base_tasks(GRID, 2) == [(name, ["traditional", "aggressive"])
                                        for name in NAMES]

    def test_fewer_benchmarks_than_workers_one_task_per_group(self):
        cells = expand_grid(["a"], ("traditional", "aggressive"), (16, 64))
        assert _base_tasks(cells, 2) == [("a", ["traditional"]),
                                         ("a", ["aggressive"])]
        assert _base_tasks(GRID, 3) == [(name, [pipeline]) for name, pipeline
                                        in dict.fromkeys(cell.group
                                                         for cell in GRID)]

    def test_worker_compiles_a_benchmark_with_one_frontend(self, cache):
        from repro.sched.cache import FRONTEND_STATS, clear_caches

        clear_caches()
        cells = expand_grid(["adpcm_enc"], ("traditional", "aggressive"),
                            (64, 256))
        done, stats = _worker_task(cells, str(cache.root), True)
        assert FRONTEND_STATS.counts() == (1, 1, 0)
        # each pipeline's base compiles once, on its group's first cell
        assert [("compile" in cm.stages) for _summary, cm in done] \
            == [True, False, True, False]
        assert stats.stores == 2 + len(cells)   # two bases, every run
        assert [summary for summary, _cm in done] \
            == run_grid(cells, workers=1, cache=None)
        clear_caches()


class TestPoolTaskFailures:
    """A pool task running several groups keeps the per-compile timeout,
    and the parent retries only what the worker did not return: the
    failed cells, or every cell of a task whose worker died.  The
    patched compile reaches the pool workers because they fork after
    the patch."""

    @pytest.fixture
    def compile_calls(self, monkeypatch):
        import multiprocessing

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("patched compiles reach workers only under fork")
        ready = {cell.group: _compile_base_timed(*cell.group, None)
                 for cell in GRID}
        parent = os.getpid()
        calls = {"parent": [], "delay": 0.0, "fail": None, "exit": None}

        def fake(program, pipeline, *_args, **_kwargs):
            name = getattr(program, "name", program)
            if os.getpid() == parent:
                calls["parent"].append((name, pipeline))
            elif (name, pipeline) == calls["fail"]:
                raise RuntimeError("worker compile failed")
            elif (name, pipeline) == calls["exit"]:
                os._exit(1)
            time.sleep(calls["delay"])
            return ready[name, pipeline]

        monkeypatch.setattr(parallel, "_compile_base_timed", fake)
        calls["serial"] = run_grid(GRID, workers=1, cache=None)
        calls["parent"].clear()
        return calls

    def test_timeout_is_per_compile(self, compile_calls):
        # each compile fits the timeout; a benchmark's two do not
        compile_calls["delay"] = 1.5
        results = run_grid(GRID, workers=2, timeout=2.0, cache=None)
        assert compile_calls["parent"] == []
        assert results == compile_calls["serial"]

    def test_parent_retries_only_the_failed_compile(self, compile_calls):
        compile_calls["fail"] = ("adpcm_dec", "aggressive")
        results = run_grid(GRID, workers=2, cache=None)
        assert compile_calls["parent"] == [("adpcm_dec", "aggressive")]
        assert results == compile_calls["serial"]

    def test_dead_worker_task_is_retried_in_the_parent(self, compile_calls):
        compile_calls["exit"] = ("adpcm_dec", "aggressive")
        metrics = MetricsRecorder()
        results = run_grid(GRID, workers=2, cache=None, metrics=metrics)
        assert results == compile_calls["serial"]
        assert ("adpcm_dec", "aggressive") in compile_calls["parent"]
        for cm in metrics.cells:
            # the dead worker's task held both adpcm_dec cells; the
            # other task may have died with the pool, or finished
            if cm.name == "adpcm_dec":
                assert (cm.retries, cm.attempts) == (1, 2), cm
            assert cm.retries <= 1, cm


class TestRunCell:
    def test_matches_grid_and_records_metrics(self, cache):
        # a cold cell: no capacity class left over from earlier tests
        parallel.CLASS_MEMO.clear()
        metrics = MetricsRecorder()
        summary = run_cell("adpcm_enc", "traditional", 64, cache=cache,
                           metrics=metrics)
        (grid_summary,) = run_grid(
            [Cell("adpcm_enc", "traditional", 64)], workers=1, cache=cache)
        assert summary == grid_summary
        assert len(metrics.cells) == 1
        assert not metrics.cells[0].class_hit
        assert metrics.cells[0].stages.get("simulate", 0) > 0

    def test_unknown_pipeline(self):
        with pytest.raises(ValueError):
            run_cell("adpcm_enc", "mystery", 64)


class TestRetry:
    def _flaky(self, fail_times, exc=RuntimeError):
        calls = {"n": 0}

        def execute(cell, cache, settings):
            calls["n"] += 1
            if calls["n"] <= fail_times:
                raise exc("transient")
            from repro.runner.metrics import CellMetrics
            from repro.runner.summary import RunSummary

            summary = RunSummary(cell.name, cell.pipeline, cell.capacity,
                                 1, 1, 1, 1, 0, 1, 0)
            return summary, CellMetrics(cell.name, cell.pipeline,
                                        cell.capacity)

        return execute, calls

    def test_transient_failure_retried_once(self):
        execute, calls = self._flaky(1)
        metrics = MetricsRecorder()
        cells = [Cell("a", "traditional", 64)]
        results = _run_serial(cells, None, metrics, _execute=execute)
        assert len(results) == 1
        assert calls["n"] == 2
        assert metrics.cells[0].attempts == 2
        assert metrics.cells[0].retries == 1

    def test_second_failure_propagates(self):
        execute, calls = self._flaky(2)
        with pytest.raises(RuntimeError):
            _run_serial([Cell("a", "traditional", 64)], None,
                        MetricsRecorder(), _execute=execute)
        assert calls["n"] == 2

    def test_checksum_mismatch_not_retried(self):
        execute, calls = self._flaky(1, exc=AssertionError)
        with pytest.raises(AssertionError):
            _run_serial([Cell("a", "traditional", 64)], None,
                        MetricsRecorder(), _execute=execute)
        assert calls["n"] == 1
