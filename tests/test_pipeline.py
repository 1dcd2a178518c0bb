"""End-to-end pipeline integration tests (compile -> simulate)."""


from repro.pipeline import (
    compile_aggressive,
    compile_traditional,
    run_compiled,
    with_buffer,
)
from repro.sim.interp import run_module

from tests.helpers import build_counting_loop, build_nested_loop
from tests.looptrans.test_collapse import build_add_block
from tests.predication.test_ifconvert import (
    build_loop_with_diamond,
    expected_diamond,
)


class TestTraditionalPipeline:
    def test_counting_loop(self):
        module = build_counting_loop(50)
        compiled = compile_traditional(module)
        outcome = run_compiled(compiled)
        assert outcome.result.value == sum(range(50))
        assert outcome.counters.cycles > 0

    def test_buffer_captures_simple_loop(self):
        module = build_counting_loop(500)
        compiled = compile_traditional(module, buffer_capacity=64)
        outcome = run_compiled(compiled)
        assert outcome.buffer_issue_fraction > 0.9

    def test_diamond_loop_not_bufferable(self):
        # without if-conversion the loop body spans several blocks: no
        # simple loop, (almost) nothing from the buffer
        module = build_loop_with_diamond(200)
        compiled = compile_traditional(module)
        outcome = run_compiled(compiled)
        assert outcome.result.value == expected_diamond(200)
        assert outcome.buffer_issue_fraction == 0.0


class TestAggressivePipeline:
    def test_diamond_loop_buffered(self):
        module = build_loop_with_diamond(200)
        compiled = compile_aggressive(module)
        outcome = run_compiled(compiled)
        assert outcome.result.value == expected_diamond(200)
        assert outcome.buffer_issue_fraction > 0.7

    def test_nested_loop_collapsed_and_buffered(self):
        module = build_nested_loop(outer=16, inner=16)
        expected = run_module(build_nested_loop(outer=16, inner=16)).value
        compiled = compile_aggressive(module)
        outcome = run_compiled(compiled)
        assert outcome.result.value == expected
        assert outcome.buffer_issue_fraction > 0.5

    def test_add_block_figure2(self):
        module = build_add_block()
        baseline = run_module(build_add_block())
        compiled = compile_aggressive(module)
        outcome = run_compiled(compiled)
        base_addr = baseline.loader.global_addr("rfp")
        out_addr = outcome.result.loader.global_addr("rfp")
        assert (outcome.result.memory.read_block(out_addr, 128)
                == baseline.memory.read_block(base_addr, 128))

    def test_speedup_over_traditional(self):
        module = build_loop_with_diamond(500)
        trad = run_compiled(compile_traditional(module))
        aggr = run_compiled(compile_aggressive(module))
        assert aggr.result.value == trad.result.value
        assert aggr.counters.cycles < trad.counters.cycles

    def test_buffer_issue_improves(self):
        module = build_loop_with_diamond(500)
        trad = run_compiled(compile_traditional(module))
        aggr = run_compiled(compile_aggressive(module))
        assert aggr.buffer_issue_fraction > trad.buffer_issue_fraction


class TestBufferSizeSweep:
    def test_with_buffer_retargets(self):
        module = build_loop_with_diamond(300)
        base = compile_aggressive(module, buffer_capacity=None)
        fractions = {}
        for size in (16, 64, 256):
            compiled = with_buffer(base, size)
            outcome = run_compiled(compiled)
            assert outcome.result.value == expected_diamond(300)
            fractions[size] = outcome.buffer_issue_fraction
        assert fractions[256] >= fractions[16]

    def test_with_buffer_reuses_modulo_schedules(self):
        # the sweep must not re-run modulo scheduling per capacity: the
        # schedules are capacity-independent and are shared by identity
        module = build_loop_with_diamond(300)
        base = compile_aggressive(module, buffer_capacity=None)
        assert base.modulo  # the diamond loop modulo-schedules
        retargeted = with_buffer(base, 64)
        assert set(retargeted.modulo) == set(base.modulo)
        for key, sched in retargeted.modulo.items():
            assert sched is base.modulo[key]
        # and the base object is untouched by the retarget
        assert base.buffer_capacity is None
        assert base.assignment is None

    def test_buffered_compile_is_the_base_overlay(self):
        # compile_*(buffer_capacity=N) is with_buffer over the base
        module = build_loop_with_diamond(300)
        base = compile_aggressive(module, buffer_capacity=None)
        compiled = compile_aggressive(module, buffer_capacity=64)
        assert compiled.overlay is not None
        assert compiled.buffer_capacity == 64
        # the base's trace: the same run, up to the fresh op uids each
        # compile allocates (which the block fingerprints hash)
        trace, base_trace = compiled.pass_trace, base.pass_trace
        assert trace is not None
        assert ((trace.value, trace.steps, trace.blocks, trace.kinds)
                == (base_trace.value, base_trace.steps, base_trace.blocks,
                    base_trace.kinds))
        assert (run_compiled(compiled).counters
                == run_compiled(with_buffer(base, 64)).counters)

    def test_no_buffer_all_memory(self):
        module = build_counting_loop(100)
        compiled = compile_traditional(module, buffer_capacity=None)
        outcome = run_compiled(compiled)
        assert outcome.counters.ops_from_buffer == 0
        assert outcome.counters.ops_from_memory > 0


class TestEnergyModel:
    def test_buffered_run_cheaper(self):
        from repro.sim.power import unbuffered_baseline

        module = build_counting_loop(1000)
        compiled = compile_traditional(module, buffer_capacity=256)
        outcome = run_compiled(compiled)
        baseline = unbuffered_baseline(outcome.counters.ops_issued)
        assert outcome.energy.normalized_to(baseline) < 0.5
