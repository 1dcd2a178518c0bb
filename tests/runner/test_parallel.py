"""Grid executor tests: determinism, serial/parallel equality, caching,
retry semantics.

The equality tests run real cells (adpcm — the fastest Table 1 programs)
across both pipelines, serial vs. pooled, cold vs. warm cache; the retry
tests inject failing executors instead of simulating real crashes.
"""

import os

import pytest

from repro.runner.cache import ArtifactCache
from repro.runner.metrics import MetricsRecorder
from repro.runner.parallel import (
    ENV_WORKERS,
    Cell,
    Source,
    _compile_base_timed,
    _run_serial,
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
        base, _seconds, hit, _trace = _compile_base_timed(
            self.SOURCE, "aggressive", cache)
        assert not hit
        again, _seconds, hit, _trace = _compile_base_timed(
            self.SOURCE, "aggressive", cache)
        assert hit and again.static_ops == base.static_ops
        stages = {}
        summary, value = run_base(self.SOURCE, "aggressive", base, 16,
                                  stages=stages)
        assert value == 28
        assert (summary.name, summary.pipeline, summary.capacity) == \
            ("src:sum8", "aggressive", 16)
        assert set(stages) == {"retarget", "simulate"}

    def test_step_budget_is_keyed(self):
        keys = {run_key(self.SOURCE, "aggressive", 16, max_steps=steps)
                for steps in (None, 1000, 2000)}
        assert len(keys) == 3
        assert base_key(self.SOURCE, "aggressive") != \
            base_key(self.SOURCE, "aggressive", max_steps=1000)

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


class TestRunCell:
    def test_matches_grid_and_records_metrics(self, cache):
        metrics = MetricsRecorder()
        summary = run_cell("adpcm_enc", "traditional", 64, cache=cache,
                           metrics=metrics)
        (grid_summary,) = run_grid(
            [Cell("adpcm_enc", "traditional", 64)], workers=1, cache=cache)
        assert summary == grid_summary
        assert len(metrics.cells) == 1
        assert metrics.cells[0].stages.get("simulate", 0) > 0

    def test_unknown_pipeline(self):
        with pytest.raises(ValueError):
            run_cell("adpcm_enc", "mystery", 64)


class TestRetry:
    def _flaky(self, fail_times, exc=RuntimeError):
        calls = {"n": 0}

        def execute(cell, cache, base, checked=False):
            calls["n"] += 1
            if calls["n"] <= fail_times:
                raise exc("transient")
            from repro.runner.metrics import CellMetrics
            from repro.runner.summary import RunSummary

            summary = RunSummary(cell.name, cell.pipeline, cell.capacity,
                                 1, 1, 1, 1, 0, 1, 0)
            return summary, CellMetrics(cell.name, cell.pipeline,
                                        cell.capacity), None

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
