"""Grid executor tests: determinism, serial/parallel equality, caching,
failure propagation.

The equality tests run real cells (adpcm — the fastest Table 1 programs)
across both pipelines, serial vs. pooled, cold vs. warm cache; the
failure tests inject failing executors and compiles instead of
simulating real crashes.
"""

import os

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
        summaries, cell_metrics, stats = _worker_task(
            cells, str(cache.root), True)
        assert FRONTEND_STATS.counts() == (1, 1, 0)
        # each pipeline's base compiles once, on its group's first cell
        assert [("compile" in cm.stages) for cm in cell_metrics] \
            == [True, False, True, False]
        assert stats.stores == 2 + len(cells)   # two bases, every run
        assert summaries == run_grid(cells, workers=1, cache=None)
        clear_caches()


class TestFailures:
    """Every cell is deterministic, so each runs once: the first failure
    reaches the caller as its own exception, and a dead worker fails
    the grid.  The patched functions reach pool workers because they
    fork after the patch."""

    @pytest.fixture
    def forked(self):
        import multiprocessing

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("patched functions reach workers only under fork")

    def test_serial_failure_runs_once_and_propagates(self, monkeypatch):
        calls = []

        def execute(cell, cache, settings):
            calls.append(cell)
            raise RuntimeError("cell failed")

        monkeypatch.setattr(parallel, "_execute_cell", execute)
        with pytest.raises(RuntimeError, match="cell failed"):
            run_grid(GRID, workers=1, cache=None)
        assert calls == GRID[:1]

    def _patch_compile(self, monkeypatch, in_worker):
        """Patch the base compile: ``in_worker(name, pipeline)`` runs in
        pool workers, the parent's calls are only recorded."""
        ready = {cell.group: _compile_base_timed(*cell.group, None)
                 for cell in GRID}
        parent, parent_calls = os.getpid(), []

        def fake(program, pipeline, *_args, **_kwargs):
            name = getattr(program, "name", program)
            if os.getpid() == parent:
                parent_calls.append((name, pipeline))
            else:
                in_worker(name, pipeline)
            return ready[name, pipeline]

        monkeypatch.setattr(parallel, "_compile_base_timed", fake)
        return parent_calls

    def test_worker_checked_mode_error_reaches_the_caller(
            self, forked, monkeypatch):
        from repro.pipeline import CheckedModeError

        def in_worker(name, pipeline):
            if (name, pipeline) == ("adpcm_dec", "aggressive"):
                raise CheckedModeError("hyperblock", [])

        parent_calls = self._patch_compile(monkeypatch, in_worker)
        with pytest.raises(CheckedModeError) as excinfo:
            run_grid(GRID, workers=2, cache=None)
        assert excinfo.value.pass_name == "hyperblock"
        assert parent_calls == []

    def test_dead_worker_fails_the_grid(self, forked, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        def in_worker(name, pipeline):
            if (name, pipeline) == ("adpcm_dec", "aggressive"):
                os._exit(1)

        parent_calls = self._patch_compile(monkeypatch, in_worker)
        with pytest.raises(BrokenProcessPool):
            run_grid(GRID, workers=2, cache=None)
        assert parent_calls == []


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
