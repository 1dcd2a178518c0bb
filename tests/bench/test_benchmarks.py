"""Benchmark self-checks: every Table 1 program matches its Python
reference at every compilation level."""

from dataclasses import replace

import pytest

from repro.bench import all_benchmarks, benchmark, benchmark_names
from repro.pipeline import compile_aggressive, compile_traditional, run_compiled
from repro.sim.interp import run_module

ALL = benchmark_names()


class TestRegistry:
    def test_table1_coverage(self):
        # the paper's Table 1 set (g721 replaced by g724, per the paper)
        expected = {
            "adpcm_enc", "adpcm_dec", "g724_enc", "g724_dec",
            "jpeg_enc", "jpeg_dec", "mpeg2_enc", "mpeg2_dec",
            "mpg123", "pgp_enc", "pgp_dec",
        }
        assert set(ALL) == expected

    def test_benchmarks_have_descriptions(self):
        for b in all_benchmarks():
            assert b.description
            assert b.source


@pytest.mark.parametrize("name", ALL)
def test_interpreter_matches_reference(name):
    b = benchmark(name)
    assert run_module(b.build()).value == b.expected()


@pytest.mark.parametrize("name", ["adpcm_enc", "pgp_enc", "mpeg2_dec"])
def test_traditional_pipeline_preserves_semantics(name):
    b = benchmark(name)
    compiled = compile_traditional(b.build())
    assert run_compiled(compiled).result.value == b.expected()


@pytest.mark.parametrize("name", ["adpcm_dec", "g724_dec", "jpeg_dec", "mpg123"])
def test_aggressive_pipeline_preserves_semantics(name):
    b = benchmark(name)
    compiled = compile_aggressive(b.build())
    assert run_compiled(compiled).result.value == b.expected()


class TestReferenceMemo:
    """``Benchmark.expected`` runs each reference function once."""

    def test_lookups_share_one_reference(self):
        first, second = benchmark("adpcm_dec"), benchmark("adpcm_dec")
        assert first is not second and first.args is not second.args
        assert first.reference is second.reference

    def test_each_reference_runs_once_across_a_sweep(self, monkeypatch):
        from repro.runner import parallel
        from repro.runner.parallel import expand_grid, run_grid
        from repro.sched.cache import clear_caches

        clear_caches()
        runs = []
        real = benchmark("adpcm_enc").reference

        def counted():
            runs.append(1)
            return real()

        monkeypatch.setattr(parallel, "benchmark", lambda name: replace(
            benchmark(name), reference=counted))
        cells = expand_grid(["adpcm_enc"], capacities=(16, 64, 256))
        summaries = run_grid(cells, workers=1, cache=None)
        assert len(summaries) == 6
        assert len(runs) == 1

    def test_wrong_checksum_still_raises(self):
        from repro.runner.parallel import _compile_base_timed, run_base

        right = benchmark("adpcm_enc")
        base, *_ = _compile_base_timed(right, "traditional", None)
        run_base(right, "traditional", base, 64)   # memoises the checksum
        wrong = replace(right, reference=lambda: -1)
        with pytest.raises(AssertionError, match="checksum"):
            run_base(wrong, "traditional", base, 64)
