"""The aggressive pipeline profiles its mid-pipeline program only when
branch combining can read the profile (DESIGN.md §5a).

Combining consults the profile only for a hyperblock with at least
``DEFAULT_MIN_EXITS`` candidate side exits.  No paper benchmark has one,
so their compiles skip that profiling run; a program that has one still
profiles and combines as before.
"""

import sys

import pytest

import repro.pipeline as pipeline
from repro.bench import benchmark, benchmark_names
from repro.ir import Function, GlobalRef, Imm, IRBuilder, Module
from repro.memo import clear_caches
from repro.pipeline import _module_digest, compile_aggressive, run_compiled
from repro.predication.branch_combine import CombineStats
from repro.sim.interp import profile_module

from tests.retarget_golden import canonical_schedules, digest


def _counted_compile(monkeypatch, build, **kw):
    """Compile with every memo dropped; returns the artifact and the
    name of each function that called ``profile_module``."""
    callers = []

    def counting(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return profile_module(*args, **kwargs)

    monkeypatch.setattr(pipeline, "profile_module", counting)
    clear_caches()
    try:
        compiled = compile_aggressive(build(), buffer_capacity=None, **kw)
    finally:
        clear_caches()
    return compiled, callers


def _compiled_digest(compiled) -> str:
    return digest((_module_digest(compiled.module),
                   canonical_schedules(compiled), repr(compiled.stats)))


@pytest.mark.parametrize("name", benchmark_names())
def test_paper_benchmarks_skip_the_mid_pipeline_profile(monkeypatch, name):
    bench = benchmark(name)
    kw = dict(entry=bench.entry, args=bench.args)
    gated, gated_calls = _counted_compile(monkeypatch, bench.build, **kw)
    # the gate forced open runs the profile the pipeline used to run
    monkeypatch.setattr(pipeline, "reads_profile", lambda module: True)
    opened, opened_calls = _counted_compile(monkeypatch, bench.build, **kw)

    assert "_compile_aggressive_body" not in gated_calls
    assert opened_calls.count("_compile_aggressive_body") == 1
    assert len(gated_calls) == len(opened_calls) - 1
    # the skipped profile could not have changed anything
    assert _compiled_digest(gated) == _compiled_digest(opened)


def build_two_exit_hammock(tab=(5, 3, 9, 1)) -> Module:
    """``main`` is one hammock whose two arms each start with a side exit
    to the join (``tab[1] >= 50`` and ``tab[2] >= 50``); hammock
    formation keeps both as ``BR`` exits of one hyperblock.  Returns
    ``tab[0] + tab[1] + tab[2]`` after the arm's update."""
    module = Module()
    module.add_global("tab", 4, list(tab))
    func = Function("main")
    module.add_function(func)
    b = IRBuilder(func)
    entry, left, left_body, right, right_body, join = (
        func.add_block(label) for label in
        ("entry", "left", "left_body", "right", "right_body", "join"))
    b.at(entry)
    base = b.mov(GlobalRef("tab"))
    va = b.load(base, 0)
    vb = b.load(base, 1)
    vc = b.load(base, 2)
    b.br("gt", va, Imm(100), "right")
    b.at(left)
    b.br("ge", vb, Imm(50), "join")
    b.at(left_body)
    b.add(vb, va, dest=vb)
    b.jump("join")
    b.at(right)
    b.br("ge", vc, Imm(50), "join")
    b.at(right_body)
    b.sub(vc, vb, dest=vc)
    b.jump("join")
    b.at(join)
    total = b.add(va, vb)
    b.add(total, vc, dest=total)
    b.ret(total)
    return module


class TestTwoExitHammock:
    def test_cold_exits_profile_and_combine(self, monkeypatch):
        compiled, callers = _counted_compile(monkeypatch,
                                             build_two_exit_hammock)
        assert callers.count("_compile_aggressive_body") == 1
        assert compiled.stats["combine"] == [
            CombineStats(hyperblocks=1, branches_combined=2,
                         decode_blocks=["entry_decode"])]
        assert run_compiled(compiled).result.value == 5 + (3 + 5) + 9

    def test_hot_exit_is_left_alone(self, monkeypatch):
        # tab[1] = 60 takes the left exit on its one execution: the
        # profile drops it, leaving one exit, too few to combine
        compiled, callers = _counted_compile(
            monkeypatch, lambda: build_two_exit_hammock((5, 60, 9, 1)))
        assert callers.count("_compile_aggressive_body") == 1
        assert compiled.stats["combine"] == [CombineStats()]
        assert run_compiled(compiled).result.value == 5 + 60 + 9
