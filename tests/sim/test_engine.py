"""The predecoded fast engine vs the reference interpreter/VLIW.

Every test here is differential: the fast path (:mod:`repro.sim.engine`)
must be *bit-identical* to the reference — return values, trap classes,
step counts, profile counts, and the full :class:`SimCounters` tree
including per-block and per-loop fetch stats.  The program runs only the
fast engines; the reference ones are built directly
(:mod:`tests.reference_engines`).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from unittest import mock

import pytest

from repro.bench import benchmark
from repro.frontend import compile_source
from repro.pipeline import (
    RunConfig,
    compile_aggressive,
    compile_traditional,
    run_compiled,
)
from repro.sim.engine import FastInterpreter, FastVLIWSimulator
from repro.sim.interp import Interpreter, StepLimitExceeded, profile_module, run_module
from repro.sim.replay import ReplayedRun
from repro.sim.vliw import simulate
from tests.reference_engines import (
    ref_profile_module,
    ref_run_module,
    reference_engines,
)

CORPUS_DIR = Path(__file__).resolve().parents[1] / "fuzz_corpus"


def _counters_dict(counters):
    data = dataclasses.asdict(counters)
    data["per_block"] = {k: dataclasses.asdict(v)
                         for k, v in counters.per_block.items()}
    data["per_loop"] = {k: dataclasses.asdict(v)
                        for k, v in counters.per_loop.items()}
    return data


class TestEngineChoice:
    """The fast engines are the only ones the program runs."""

    def test_environment_then_default(self, monkeypatch):
        # a ``REPRO_ENGINE`` left in the environment selects nothing: a
        # pipeline compile still records the pass trace only the fast
        # interpreter produces, and its cell replays
        monkeypatch.setenv("REPRO_ENGINE", "ref")
        bench = benchmark("adpcm_dec")
        compiled = compile_traditional(bench.build(), entry=bench.entry,
                                       args=bench.args, buffer_capacity=64)
        assert compiled.pass_trace is not None
        assert isinstance(run_compiled(compiled).result, ReplayedRun)

    def test_unknown_engine_rejected(self):
        module = benchmark("adpcm_dec").build()
        for call in (lambda: run_module(module, engine="ref"),
                     lambda: profile_module(module, engine="fast"),
                     lambda: compile_traditional(module, engine="ref"),
                     lambda: RunConfig(engine="fast")):
            with pytest.raises(TypeError, match="engine"):
                call()

    def test_factories_dispatch(self):
        # every interpreter the entry points build is a fast one
        bench = benchmark("adpcm_dec")
        compiled = compile_traditional(bench.build(), entry=bench.entry,
                                       args=bench.args, buffer_capacity=None)
        built = []
        real = Interpreter.__init__

        def init(self, *args, **kwargs):
            built.append(type(self))
            real(self, *args, **kwargs)

        with mock.patch.object(Interpreter, "__init__", init):
            run_module(compiled.module, bench.entry, bench.args)
            simulate(compiled.module, compiled.schedules, compiled.modulo,
                     entry=bench.entry, args=bench.args)
        assert built == [FastInterpreter, FastVLIWSimulator]


class TestInterpreterEquality:
    """Same module object through both engines: identical everything."""

    @pytest.mark.parametrize("name", ["adpcm_dec", "g724_enc", "mpeg2_dec"])
    def test_profiled_run_identical(self, name):
        bench = benchmark(name)
        module = bench.build()
        ref_prof, ref = ref_profile_module(module, entry=bench.entry,
                                           args=bench.args)
        fast_prof, fast = profile_module(module, entry=bench.entry,
                                         args=bench.args)
        assert fast.value == ref.value == bench.expected()
        assert fast.steps == ref.steps
        assert dict(fast_prof.blocks) == dict(ref_prof.blocks)
        assert dict(fast_prof.edges) == dict(ref_prof.edges)
        assert dict(fast_prof.ops) == dict(ref_prof.ops)
        assert dict(fast_prof.taken) == dict(ref_prof.taken)
        assert dict(fast_prof.calls) == dict(ref_prof.calls)
        assert fast_prof.total_ops == ref_prof.total_ops

    def test_unprofiled_run_identical(self):
        bench = benchmark("adpcm_enc")
        module = bench.build()
        ref = ref_run_module(module, entry=bench.entry, args=bench.args)
        fast = run_module(module, entry=bench.entry, args=bench.args)
        assert fast.value == ref.value
        assert fast.steps == ref.steps

    def test_step_limit_trips_at_identical_step(self):
        bench = benchmark("adpcm_dec")
        module = bench.build()
        total = ref_run_module(module, entry=bench.entry,
                               args=bench.args).steps
        for budget in (total, total - 1, total // 2):
            sims = [cls(module, max_steps=budget)
                    for cls in (Interpreter, FastInterpreter)]
            outcomes = []
            for sim in sims:
                try:
                    outcomes.append(("value", sim.run(bench.entry,
                                                      bench.args).value))
                except StepLimitExceeded:
                    outcomes.append(("trap", sim.steps))
            assert outcomes[0] == outcomes[1]


class TestVLIWEquality:
    """Full SimCounters tree identical, per-loop stats included."""

    GRID = [
        ("adpcm_dec", "traditional", 64),
        ("adpcm_enc", "aggressive", 64),
        ("mpeg2_dec", "traditional", 256),
        ("mpeg2_dec", "aggressive", None),
    ]

    @pytest.mark.parametrize("name,pipeline,capacity", GRID)
    def test_counters_identical(self, name, pipeline, capacity):
        bench = benchmark(name)
        compiler = (compile_traditional if pipeline == "traditional"
                    else compile_aggressive)
        compiled = compiler(bench.build(), entry=bench.entry, args=bench.args,
                            buffer_capacity=capacity)
        fast = run_compiled(compiled)
        with reference_engines():
            ref = run_compiled(compiled)
        assert fast.result.value == ref.result.value == bench.expected()
        assert fast.result.steps == ref.result.steps
        assert _counters_dict(fast.counters) == _counters_dict(ref.counters)

    @pytest.mark.parametrize("name", ["adpcm_dec", "mpeg2_dec"])
    def test_per_loop_stats_cover_real_loops(self, name):
        # aggressive @ 256: predicated loop bodies fit, so the equality
        # above is exercised on populated per-loop lifecycle counters
        bench = benchmark(name)
        compiled = compile_aggressive(bench.build(), entry=bench.entry,
                                      args=bench.args, buffer_capacity=256)
        fast = run_compiled(compiled)
        with reference_engines():
            ref = run_compiled(compiled)
        assert ref.counters.per_loop
        assert _counters_dict(fast.counters) == _counters_dict(ref.counters)


class TestTraceCache:
    LOOP_SOURCE = """
int main() {
    int acc = 0;
    for (int i = 0; i < 100; i++) {
        acc += i;
    }
    return acc;
}
"""

    def test_decode_once_across_iterations(self):
        module = compile_source(self.LOOP_SOURCE)
        sim = FastInterpreter(module)
        assert sim.run("main").value == 4950
        decoded = sim.cache.decoded_blocks
        # 100 iterations over the loop body decoded each block exactly once
        total_blocks = sum(len(f.blocks) for f in module.functions.values())
        assert decoded <= total_blocks
        assert sim.cache.decoded_ops > 0

    def test_second_run_reuses_decoded_blocks(self):
        module = compile_source(self.LOOP_SOURCE)
        sim = FastInterpreter(module)
        sim.run("main")
        decoded = sim.cache.decoded_blocks
        sim.steps = 0
        assert sim.run("main").value == 4950
        assert sim.cache.decoded_blocks == decoded


class TestCorpusReproducers:
    """Every minimized fuzz reproducer runs identically on both engines."""

    ENTRIES = sorted(CORPUS_DIR.glob("*.json"))

    @pytest.mark.parametrize("path", ENTRIES, ids=lambda p: p.stem)
    def test_ref_vs_fast_outcomes(self, path):
        from repro.fuzz.oracle import Config, compiled_outcome

        entry = json.loads(path.read_text())
        source = entry["source"]
        for raw in entry["configs"]:
            config = Config.from_dict(raw)
            fast = compiled_outcome(source, config)
            with reference_engines():
                ref = compiled_outcome(source, config)
            assert fast == ref, config.label


class TestRunnerIntegration:
    def test_engine_is_part_of_cache_keys(self):
        # as the constant ``"engine": "fast"``, so keys (and cache entries)
        # from when the engine was a setting stay valid; the settings
        # that remain still key apart
        from repro.runner.parallel import base_key, run_key

        assert RunConfig(checked=True).key_flags()["engine"] == "fast"
        keys = {
            base_key("adpcm_dec", "traditional", RunConfig()),
            base_key("adpcm_dec", "traditional", RunConfig(checked=True)),
            run_key("adpcm_dec", "traditional", 64, RunConfig()),
            run_key("adpcm_dec", "traditional", 64, RunConfig(checked=True)),
            run_key("adpcm_dec", "traditional", 128, RunConfig()),
        }
        assert len(keys) == 5

    def test_grid_summaries_identical_across_engines(self, tmp_path):
        from repro.runner.cache import ArtifactCache
        from repro.runner.parallel import expand_grid, run_grid

        cells = expand_grid(["adpcm_dec"], ["traditional"], [64, None])
        fast = run_grid(cells, workers=1, cache=ArtifactCache(tmp_path / "fast"))
        with reference_engines():
            ref = run_grid(cells, workers=1,
                           cache=ArtifactCache(tmp_path / "ref"))
        assert fast == ref

    def test_cli_engine_flag(self, tmp_path, capsys):
        from repro.runner.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--benchmarks", "adpcm_dec", "--pipelines", "traditional",
                  "--capacities", "64", "--workers", "0", "--engine", "ref",
                  "--cache-dir", str(tmp_path), "--quiet"])
        assert exc.value.code == 2
        assert "--engine" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())
