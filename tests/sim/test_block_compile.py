"""Compiled blocks in the fast engines vs the reference engines.

Both fast engines compile a block into one generated Python function on
the block's :data:`~repro.sim.engine.TIER_UP_PASSES`-th pass.  On the
functional engine a block that jumps back to itself from its last op
iterates inside that function; on the VLIW every call is one pass.
Everything here is differential: values, trap classes and messages,
step counts, every ``Profile`` field and the recorded ``PassTrace`` must
be exactly what the reference interpreter (or the thunk-only fast
engine) produces, and every ``SimCounters`` field, buffer stat and
``buffer_*`` instant what the reference VLIW simulator produces.
"""

from __future__ import annotations

import copy
import dataclasses
import re
import sys
import threading
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.pipeline as pipeline
import repro.sim.engine as engine
from repro import obs
from repro.analysis.profile import IncompleteProfileError, Profile
from repro.bench import benchmark
from repro.frontend import compile_source
from repro.ir import Function, Imm, IRBuilder, Module
from repro.ir.opcodes import CMP_TESTS, PTYPES, Opcode
from repro.ir.registers import FImm, VReg, ireg, preg
from repro.loopbuffer.model import LoopBuffer
from repro.obs.trace import Tracer
from repro.sched.cache import clear_caches
from repro.sim.engine import FastInterpreter, FastVLIWSimulator
from repro.sim.interp import (
    Interpreter,
    SimError,
    StepLimitExceeded,
    profile_module,
)
from repro.sim.replay import PassRecorder
from repro.sim.values import INT_MAX, INT_MIN
from repro.sim.vliw import VLIWSimulator

from tests.conftest import nightly_examples
from tests.reference_engines import reference_engines
from tests.strategies import fuzz_program, loop_with_diamond_program

TIER1 = ("adpcm_enc", "g724_dec", "jpeg_dec")

PROFILE_FIELDS = ("blocks", "edges", "ops", "taken", "calls", "total_ops",
                  "incomplete")

TRACE_FIELDS = ("blocks", "fingerprints", "kinds", "seq", "reps", "value",
                "steps")

#: operand values around the 32-bit edges, plus out-of-range ints that
#: only arguments can carry in
EDGE_VALUES = (INT_MIN, INT_MIN + 1, -32769, -1, 0, 1, 31, 32, 32768,
               INT_MAX, INT_MAX + 1, 2**40 + 3)

WRAPPED_BINARY = (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.MULH,
                  Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR,
                  Opcode.SAR)
PLAIN_BINARY = (Opcode.MIN, Opcode.MAX, Opcode.SADD, Opcode.SSUB,
                Opcode.DIV, Opcode.REM)
UNARY = (Opcode.MOV, Opcode.NEG, Opcode.NOT, Opcode.ABS)

_THUNK_CALL = re.compile(r"_t\d+\(frame\)")


@pytest.fixture
def compile_now(monkeypatch):
    """Compile every block on its first pass."""
    monkeypatch.setattr(engine, "TIER_UP_PASSES", 1)


def _profile_dict(profile: Profile) -> dict:
    values = {name: getattr(profile, name) for name in PROFILE_FIELDS}
    return {name: dict(value) if isinstance(value, dict) else value
            for name, value in values.items()}


def _interpreter(engine_name, module, profile=None, max_steps=200_000_000,
                 record=False):
    """The reference (``"ref"``) or the fast (``"fast"``) interpreter."""
    if engine_name == "ref":
        return Interpreter(module, profile=profile, max_steps=max_steps)
    return FastInterpreter(module, profile=profile, max_steps=max_steps,
                           record=record)


def _profiled(module, engine_name, args=(), max_steps=200_000_000,
              record=False, entry="main"):
    """``(outcome, profile dict, interpreter)`` of one profiled run."""
    profile = Profile()
    sim = _interpreter(engine_name, module, profile, max_steps, record)
    try:
        result = sim.run(entry, list(args))
    except Exception as exc:  # the outcome is compared
        outcome = ("trap", type(exc), str(exc))
        if isinstance(exc, StepLimitExceeded):
            outcome += (sim.steps,)
        return outcome, _profile_dict(profile), sim
    outcome = ("value", type(result.value), result.value, result.steps,
               sim.memory.loads, sim.memory.stores,
               sorted(sim.memory._words.items()))
    return outcome, _profile_dict(profile), sim


def _single_block(build, nparams: int = 3) -> Module:
    """``main(i0 .. i{n-1})`` whose one block ``build(b, params)`` fills."""
    module = Module("t")
    params = [ireg(i) for i in range(nparams)]
    func = Function("main", params)
    build(IRBuilder(func, func.add_block("entry")), params)
    module.add_function(func)
    return module


def _sources(module) -> list[str]:
    """The generated source of every block of ``main``."""
    sim = FastInterpreter(module)
    fprog = sim.cache.function_program(module.function("main"))
    return [engine._BlockCodegen(sim.cache, fprog,
                                 fprog.block_program(block.label)).source()
            for block in module.function("main").blocks if block.ops]


def _assert_native(module) -> None:
    for source in _sources(module):
        assert not _THUNK_CALL.search(source), source


def _assert_same(module, args) -> None:
    ref, ref_prof, _ = _profiled(module, "ref", args)
    fast, fast_prof, _ = _profiled(module, "fast", args)
    assert fast == ref, args
    if fast[0] == "value":
        assert fast_prof == ref_prof, args
    else:  # a trap leaves each engine's counts unspecified
        assert fast_prof["incomplete"] and ref_prof["incomplete"]


# --------------------------------------------------------------------------
# the pipelines' profiling runs


@pytest.fixture(scope="module")
def tier1_profile_inputs():
    """Every ``profile_module`` call both pipelines make on the tier-1
    benchmarks, as ``(label, module copy, entry, args, max_steps,
    record)``."""
    calls = []

    def capture(module, entry="main", args=None, max_steps=200_000_000,
                record=False):
        calls.append((copy.deepcopy(module), entry, args, max_steps, record))
        return profile_module(module, entry, args, max_steps=max_steps,
                              record=record)

    inputs = []
    with mock.patch.object(pipeline, "profile_module", capture):
        for name in TIER1:
            bench = benchmark(name)
            for compiler in (pipeline.compile_traditional,
                             pipeline.compile_aggressive):
                before = len(calls)
                compiler(bench.build(), entry=bench.entry, args=bench.args)
                inputs += [(f"{name}/{compiler.__name__}/{k}",) + call
                           for k, call in enumerate(calls[before:])]
    clear_caches()
    return inputs


def test_pipeline_profiles_match_reference(tier1_profile_inputs):
    compiled = []
    real = engine._compile_block

    def counting(*args):
        compiled.append(args[2].label)
        return real(*args)

    with mock.patch.object(engine, "_compile_block", counting):
        for label, module, entry, args, max_steps, record in \
                tier1_profile_inputs:
            fast = _profiled(module, "fast", args, max_steps, record, entry)
            ref = _profiled(module, "ref", args, max_steps, False, entry)
            assert fast[0][0] == "value", label
            assert fast[:2] == ref[:2], label
    assert compiled  # the block compiler ran


def _recorded_run(module, entry, args, max_steps):
    profile = Profile()
    result = FastInterpreter(module, profile=profile, max_steps=max_steps,
                             record=True).run(entry, args)
    return _profile_dict(profile), result.pass_trace


def test_pipeline_pass_traces_match_thunk_engine(tier1_profile_inputs):
    for label, module, entry, args, max_steps, _ in tier1_profile_inputs:
        fast = _recorded_run(module, entry, args, max_steps)
        with mock.patch.object(engine, "_compile_block", lambda *a: None):
            thunks = _recorded_run(module, entry, args, max_steps)
        assert fast[0] == thunks[0], label
        for name in TRACE_FIELDS:
            assert (getattr(fast[1], name)
                    == getattr(thunks[1], name)), (label, name)


def test_fused_loops_run_in_the_pipelines(tier1_profile_inputs):
    folded = []
    real = engine._fold_self_passes

    def counting(prog, reps):
        folded.append(reps)
        return real(prog, reps)

    with mock.patch.object(engine, "_fold_self_passes", counting):
        for _, module, entry, args, max_steps, _ in tier1_profile_inputs:
            profile_module(module, entry, args, max_steps=max_steps)
    assert sum(folded) > 1000


# --------------------------------------------------------------------------
# per-opcode edge cases (every block compiled on its first pass)


@pytest.mark.usefixtures("compile_now")
class TestOpcodes:
    @pytest.mark.parametrize("opcode", WRAPPED_BINARY + PLAIN_BINARY,
                             ids=lambda op: op.value)
    def test_binary_edges(self, opcode):
        module = _single_block(lambda b, p: b.ret(b.emit(opcode, p[:2])))
        _assert_native(module)
        for a in EDGE_VALUES:
            for b in EDGE_VALUES:
                _assert_same(module, [a, b, 0])

    @pytest.mark.parametrize("opcode", WRAPPED_BINARY + PLAIN_BINARY,
                             ids=lambda op: op.value)
    def test_binary_literal_operands(self, opcode):
        for k in (INT_MIN, -1, 0, 1, 31, INT_MAX):
            left = _single_block(
                lambda b, p: b.ret(b.emit(opcode, [Imm(k), p[0]])))
            right = _single_block(
                lambda b, p: b.ret(b.emit(opcode, [p[0], Imm(k)])))
            _assert_native(left)
            _assert_native(right)
            for a in (INT_MIN, -7, 0, 5, INT_MAX):
                _assert_same(left, [a, 0, 0])
                _assert_same(right, [a, 0, 0])

    @pytest.mark.parametrize("opcode", UNARY, ids=lambda op: op.value)
    def test_unary_edges(self, opcode):
        module = _single_block(lambda b, p: b.ret(b.emit(opcode, p[:1])))
        _assert_native(module)
        for a in EDGE_VALUES + (-(2**40) - 3,):
            _assert_same(module, [a, 0, 0])

    def test_bool_and_float_through_mov(self):
        module = _single_block(lambda b, p: b.ret(b.mov(p[0])))
        _assert_native(module)
        for value in (True, False, 2.5, -0.0, float(INT_MAX) * 4):
            ref, _, _ = _profiled(module, "ref", [value, 0, 0])
            fast, _, _ = _profiled(module, "fast", [value, 0, 0])
            assert fast == ref, value
        # bool boxes to int, float passes through unwrapped
        assert _profiled(module, "fast", [True, 0, 0])[0][1:3] == (int, 1)
        assert _profiled(module, "fast", [2.5, 0, 0])[0][1:3] == (float, 2.5)

    @pytest.mark.parametrize("opcode", (Opcode.ADD, Opcode.AND, Opcode.NEG),
                             ids=lambda op: op.value)
    def test_float_into_integer_op_raises_same_type_error(self, opcode):
        nsrcs = 1 if opcode is Opcode.NEG else 2
        module = _single_block(
            lambda b, p: b.ret(b.emit(opcode, p[:nsrcs])))
        _assert_native(module)
        ref, _, _ = _profiled(module, "ref", [2.5, 1, 0])
        fast, _, _ = _profiled(module, "fast", [2.5, 1, 0])
        assert fast == ref
        if opcode is not Opcode.NEG:
            assert fast[:2] == ("trap", TypeError)

    def test_bool_operands_box_to_int(self):
        module = _single_block(lambda b, p: b.ret(b.emit(Opcode.AND, p[:2])))
        _assert_same(module, [True, True, 0])
        assert _profiled(module, "fast", [True, True, 0])[0][1] is int

    @pytest.mark.parametrize("opcode", (Opcode.DIV, Opcode.REM),
                             ids=lambda op: op.value)
    def test_divide_by_zero(self, opcode):
        module = _single_block(lambda b, p: b.ret(b.emit(opcode, p[:2])))
        _assert_native(module)
        for a in (INT_MIN, -1, 0, 7):
            _assert_same(module, [a, 0, 0])
        assert _profiled(module, "fast", [1, 0, 0])[0][:2] == ("trap",
                                                               SimError)

    def test_load_and_store_addresses(self):
        def build(b, p):
            b.store(p[0], p[1], p[2])
            b.ret(b.load(p[1], p[0]))

        module = _single_block(build)
        _assert_native(module)
        for args in ([0x2000, 3, 99], [-5, 0, 1], [2, -9, 1],
                     [0x2000, 1, 2.5], [-5, 0, 2.5], [0x2000, 2, True],
                     [0x2000, 2, INT_MAX + 1], [2.7, 0x2000, 4],
                     [8192.9, 1, 4]):
            _assert_same(module, args)

    def test_literal_address_store(self):
        def build(b, p):
            b.store(Imm(0x3000), Imm(-2), p[0])
            b.ret(b.load(Imm(0x3000), Imm(-2)))

        module = _single_block(build)
        _assert_native(module)
        for value in (0, -1, INT_MAX + 5, 2.5):
            _assert_same(module, [value, 0, 0])

    @pytest.mark.parametrize("guard_value", (0, 1, 5, True))
    def test_guard(self, guard_value):
        def build(b, p):
            out = b.movi(77)
            guard = preg(0)
            b.emit(Opcode.ADD, [p[0], p[1]], dest=out, guard=guard)
            b.ret(out)

        module = _single_block(build)
        module.function("main").params.append(preg(0))
        _assert_native(module)
        _assert_same(module, [INT_MAX, 1, 0, guard_value])

    def test_guard_written_under_its_own_guard(self):
        def build(b, p):
            out = b.movi(77)
            guard = preg(0)
            b.emit(Opcode.ADD, [out, Imm(1)], dest=out, guard=guard)
            b.emit(Opcode.MOV, [p[0]], dest=guard, guard=guard)
            b.emit(Opcode.ADD, [out, Imm(10)], dest=out, guard=guard)
            b.emit(Opcode.ADD, [out, Imm(100)], dest=out, guard=guard)
            b.ret(out)

        module = _single_block(build)
        module.function("main").params.append(preg(0))
        _assert_native(module)
        # the guard tests re-read the guard once the mov has written it
        assert _sources(module)[0].count("if r[") == 2
        for first, second in ((0, 1), (1, 0), (1, 1), (0, 0)):
            _assert_same(module, [second, 0, 0, first])

    @pytest.mark.parametrize("ptype", PTYPES)
    def test_pred_def_table(self, ptype):
        for guarded in (False, True):
            def build(b, p, guarded=guarded):
                b.pred_def("lt", p[0], p[1], [preg(1)], [ptype],
                           guard=preg(0) if guarded else None)
                b.ret(preg(1))

            module = _single_block(build)
            module.function("main").params += [preg(0), preg(1)]
            _assert_native(module)
            for guard in (0, 1):
                for a, b in ((0, 1), (1, 0)):
                    # the destination starts at 7, so a skipped write shows
                    _assert_same(module, [a, b, 0, guard, 7])

    def test_pred_def_repeated_destination(self):
        def build(b, p):
            b.pred_def("ne", p[0], p[1], [preg(1), preg(1), preg(2)],
                       ["ot", "af", "uf"], guard=preg(0))
            b.ret(b.emit(Opcode.ADD, [preg(1), b.emit(Opcode.SHL, [
                preg(2), Imm(4)])]))

        module = _single_block(build)
        module.function("main").params += [preg(0), preg(1), preg(2)]
        for guard in (0, 1):
            for a, b in ((0, 0), (0, 1)):
                _assert_same(module, [a, b, 0, guard, 5, 6])

    @pytest.mark.parametrize("test", CMP_TESTS)
    def test_comparisons(self, test):
        def build(b, p):
            flag = b.cmp(test, p[0], p[1])
            b.br(test, p[0], p[1], "taken")
            b.ret(flag)
            b.at(b.func.add_block("taken"))
            b.ret(b.emit(Opcode.ADD, [flag, Imm(100)]))

        module = _single_block(build)
        _assert_native(module)
        for a, b in ((-1, 1), (1, -1), (0, 0), (INT_MIN, INT_MAX),
                     (2.5, 2), (-1, -1)):
            _assert_same(module, [a, b, 0])

    def test_float_ops(self):
        def build(b, p):
            x = b.emit(Opcode.ITOF, [p[0]])
            y = b.emit(Opcode.FADD, [x, p[1]])
            z = b.emit(Opcode.FDIV, [y, p[2]])
            b.ret(b.emit(Opcode.FTOI, [b.emit(Opcode.FMUL, [z, z])]))

        module = _single_block(build)
        _assert_native(module)
        for args in ([3, 2, 4], [INT_MAX, INT_MAX, 1], [1, 2, 0],
                     [-7, 0.5, -3]):
            _assert_same(module, args)

    def test_float_literal_runs_its_thunk(self):
        module = _single_block(
            lambda b, p: b.ret(b.emit(Opcode.FADD, [p[0], FImm(0.25)])))
        assert any(_THUNK_CALL.search(src) for src in _sources(module))
        _assert_same(module, [3, 0, 0])

    def test_ternary_and_saturation(self):
        def build(b, p):
            clipped = b.emit(Opcode.CLIP, [p[0], p[1], p[2]])
            sat = b.emit(Opcode.SAT, [p[0], Imm(12)])
            sel = b.emit(Opcode.SELECT, [p[1], clipped, sat])
            b.ret(b.emit(Opcode.SADD, [sel, p[0]]))

        module = _single_block(build)
        _assert_native(module)
        for args in ([5, -3, 3], [-40000, 0, 9], [40000, 1, 50000],
                     [INT_MIN, INT_MAX, INT_MIN]):
            _assert_same(module, args)

    def test_calls_run_their_thunk(self):
        module = _single_block(
            lambda b, p: b.ret(b.call("twice", [p[0]], dest=b.reg())))
        callee = Function("twice", [ireg(0)])
        cb = IRBuilder(callee, callee.add_block("entry"))
        cb.ret(cb.add(ireg(0), ireg(0)))
        module.add_function(callee)
        assert any(_THUNK_CALL.search(src) for src in _sources(module))
        for value in (3, INT_MAX):
            _assert_same(module, [value, 0, 0])


# --------------------------------------------------------------------------
# fused self-loops


def _counted_loop(trips: int, divisor_at: int | None = None) -> Module:
    """``main()``: one self-looping block summing ``100 / (d - i)`` over
    ``trips`` iterations (``d = divisor_at``, else far away)."""
    d = divisor_at if divisor_at is not None else 10**6
    module = Module("t")
    func = Function("main")
    b = IRBuilder(func, func.add_block("entry"))
    i, s = b.movi(0), b.movi(0)
    b.at(func.add_block("loop"))
    q = b.emit(Opcode.DIV, [Imm(100), b.emit(Opcode.SUB, [Imm(d), i])])
    b.add(s, q, dest=s)
    b.add(i, Imm(1), dest=i)
    b.br("lt", i, Imm(trips), "loop")
    b.at(func.add_block("done"))
    b.ret(s)
    module.add_function(func)
    return module


def _store_loop(trips: int) -> Module:
    """``main()``: one self-looping block storing ``i`` to ``0x2000 + i``."""
    module = Module("t")
    func = Function("main")
    b = IRBuilder(func, func.add_block("entry"))
    i = b.movi(0)
    b.at(func.add_block("loop"))
    b.store(Imm(0x2000), i, i)
    b.add(i, Imm(1), dest=i)
    b.br("lt", i, Imm(trips), "loop")
    b.at(func.add_block("done"))
    b.ret(i)
    module.add_function(func)
    return module


def _loop_entry_steps(module) -> int:
    return len(module.function("main").entry.ops)


def test_fused_loop_matches_reference():
    for trips in (1, 7, 8, 9, 40):
        module = _counted_loop(trips)
        _assert_same(module, [])
        _, _, sim = _profiled(module, "fast")
        loop = sim.cache.functions["main"].progs["loop"]
        assert (loop.run is not None) == (trips >= engine.TIER_UP_PASSES)


def test_profile_same_before_and_after_tier_up():
    """Each trip count below, at and past the threshold profiles exactly
    like the reference and like the thunk-only engine."""
    for trips in range(1, 2 * engine.TIER_UP_PASSES + 2):
        module = _counted_loop(trips)
        fast = _profiled(module, "fast")
        ref = _profiled(module, "ref")
        with mock.patch.object(engine, "_compile_block", lambda *a: None):
            thunks = _profiled(module, "fast")
        assert fast[:2] == ref[:2] == thunks[:2], trips


@pytest.mark.parametrize("tier_up", (1, 8))
def test_step_limit_same_as_reference(monkeypatch, tier_up):
    monkeypatch.setattr(engine, "TIER_UP_PASSES", tier_up)
    module = _counted_loop(12)
    body = len(module.function("main").block("loop").ops)
    entry = _loop_entry_steps(module)
    # every budget from loop entry to three iterations past the point
    # where the block tiers up and fuses
    last = entry + (tier_up + 3) * body
    for budget in range(entry, last + 1):
        ref = _profiled(module, "ref", max_steps=budget)
        fast = _profiled(module, "fast", max_steps=budget)
        assert fast[0] == ref[0], budget
        if fast[0][0] == "value":
            assert fast[1] == ref[1], budget
    whole = _profiled(module, "ref")[0][3]
    for budget in (whole - 1, whole, whole + 1):
        assert (_profiled(module, "fast", max_steps=budget)[0]
                == _profiled(module, "ref", max_steps=budget)[0])


def test_fused_loop_respects_step_limit_inside_a_fused_run(monkeypatch):
    monkeypatch.setattr(engine, "TIER_UP_PASSES", 1)
    module = _counted_loop(50)
    body = len(module.function("main").block("loop").ops)
    budget = _loop_entry_steps(module) + 30 * body + 2
    ref = _profiled(module, "ref", max_steps=budget)
    fast = _profiled(module, "fast", max_steps=budget)
    assert fast[0] == ref[0]
    assert fast[0][:2] == ("trap", StepLimitExceeded)


@pytest.mark.parametrize("engine_name", ("ref", "fast"))
def test_trap_in_fused_loop_marks_profile_incomplete(engine_name):
    # divide by zero on the 20th iteration, well inside a fused run
    module = _counted_loop(40, divisor_at=19)
    profile = Profile()
    sim = _interpreter(engine_name, module, profile)
    with pytest.raises(SimError, match="division by zero"):
        sim.run("main")
    assert profile.incomplete
    if engine_name == "fast":
        assert sim.cache.functions["main"].progs["loop"].run is not None
    for query in (lambda: profile.block_count("main", "loop"),
                  lambda: profile.edge_count("main", "loop", "loop"),
                  lambda: profile.op_count("main", 0),
                  lambda: profile.taken_count("main", 0),
                  lambda: profile.taken_ratio("main", 0),
                  lambda: profile.call_count("main"),
                  lambda: profile.function_weight("main"),
                  lambda: profile.hottest_blocks("main")):
        with pytest.raises(IncompleteProfileError):
            query()


def test_complete_run_leaves_profile_queryable():
    profile, _ = profile_module(_counted_loop(30))
    assert not profile.incomplete
    assert profile.block_count("main", "loop") == 30


def test_recorded_trace_of_fused_loop_matches_thunks():
    module = _counted_loop(30)
    fast = FastInterpreter(module, record=True).run("main")
    with mock.patch.object(engine, "_compile_block", lambda *a: None):
        thunks = FastInterpreter(module, record=True).run("main")
    for name in TRACE_FIELDS:
        assert (getattr(fast.pass_trace, name)
                == getattr(thunks.pass_trace, name)), name


def test_record_repeat_equals_separate_records():
    class Prog:
        def __init__(self, label, n):
            self.label, self.n = label, n

    loop, other = Prog("loop", 4), Prog("x", 2)
    jump = ("jump", "loop")
    for count in (1, 2, 5):
        for iterating in (False, True):
            one, many = PassRecorder(), PassRecorder()
            for rec in (one, many):
                rec.record("f", other, 2, None, False, 0)
            for k in range(count):
                one.record("f", loop, 4, jump, iterating or k > 0, 0)
            many.record_repeat("f", loop, count, iterating)
            for rec in (one, many):
                rec.record("f", loop, 2, None, True, 0)
            assert list(one.seq) == list(many.seq)
            assert list(one.reps) == list(many.reps)
            assert list(one.kind_ids) == list(many.kind_ids)
            assert one.looping is many.looping


# --------------------------------------------------------------------------
# compiled blocks on the VLIW


def _vliw(cls, module, max_steps=200_000_000):
    """A reference or fast VLIW simulator of an unscheduled module, with
    an enabled tracer (a simulator keeps the tracer installed when it
    was built)."""
    with obs.use(Tracer()):
        return cls(module, {}, max_steps=max_steps)


def _vliw_cell(cls, compiled, max_steps=200_000_000):
    """The same for a compiled artifact at its own capacity."""
    capacity = compiled.buffer_capacity
    with obs.use(Tracer()):
        return cls(compiled.module, compiled.schedules, compiled.modulo,
                   compiled.machine,
                   LoopBuffer(capacity) if capacity else None,
                   max_steps=max_steps)


def _vliw_outcome(sim, entry="main", args=()) -> tuple:
    """Everything one VLIW run is compared by, whether or not it traps:
    the trap is raised mid-pass on both engines, before that pass is
    charged, so the counters agree on a trap too."""
    try:
        result = sim.run(entry, list(args))
        outcome = ("value", result.value, result.steps)
    except SimError as exc:
        outcome = ("trap", type(exc), str(exc), sim.steps)
    return (outcome, sim.memory.loads, sim.memory.stores,
            sorted(sim.memory._words.items()),
            dataclasses.asdict(sim.counters),
            sim.buffer.stats if sim.buffer is not None else None,
            [event.as_dict() for event in sim.tracer.events])


@pytest.fixture(scope="module")
def tier1_cells():
    """``(label, artifact, reference outcome)`` for every tier-1
    benchmark through both pipelines, buffered at 16 and 256 ops (a
    loop too big for the buffer runs as an unbuffered one would)."""
    cells = []
    for name in TIER1:
        bench = benchmark(name)
        for compiler in (pipeline.compile_traditional,
                         pipeline.compile_aggressive):
            base = compiler(bench.build(), entry=bench.entry,
                            args=bench.args, buffer_capacity=None)
            for capacity in (16, 256):
                compiled = pipeline.with_buffer(base, capacity)
                ref = _vliw_outcome(_vliw_cell(VLIWSimulator, compiled),
                                    compiled.entry, compiled.args)
                assert ref[0][0] == "value"
                cells.append((f"{name}/{compiler.__name__}@{capacity}",
                              compiled, ref))
    clear_caches()
    return cells


@pytest.mark.parametrize("tier_up", (None, 1), ids=("default", "1"))
def test_full_vliw_runs_match_reference(tier1_cells, tier_up):
    compiled = Counter()
    real = engine._compile_block

    def counting(cache, fprog, prog):
        compiled[cache.vliw] += 1
        return real(cache, fprog, prog)

    with mock.patch.object(engine, "_compile_block", counting), \
            mock.patch.object(engine, "TIER_UP_PASSES",
                              tier_up or engine.TIER_UP_PASSES):
        for label, artifact, ref in tier1_cells:
            sim = _vliw_cell(FastVLIWSimulator, artifact)
            assert _vliw_outcome(sim, artifact.entry, artifact.args) == ref, \
                label
    assert compiled[True] > 0  # the VLIW ran generated code
    assert any(ref[5] and ref[5].records_started
               for _, _, ref in tier1_cells)  # and drove the buffer


def test_hot_vliw_block_runs_compiled_code_once_per_pass():
    module = _store_loop(30)
    calls = Counter()
    real = engine._compile_block

    def counting(cache, fprog, prog):
        run = real(cache, fprog, prog)

        def counted(frame, limit):
            calls[prog.label] += 1
            return run(frame, limit)

        return counted

    with mock.patch.object(engine, "_compile_block", counting):
        fast = _vliw_outcome(_vliw(FastVLIWSimulator, module))
    reference = _vliw(VLIWSimulator, module)
    assert fast == _vliw_outcome(reference)
    passes = {label: stats.passes for (_, label), stats
              in reference.counters.per_block.items()}
    assert passes["loop"] == 30
    # each block's passes from its TIER_UP_PASSES-th on, one call each
    tier_up = engine.TIER_UP_PASSES
    assert calls == {label: count - tier_up + 1
                     for label, count in passes.items() if count >= tier_up}


def test_vliw_rec_directives_stay_thunks(tier1_cells):
    rec_ops = (Opcode.REC_CLOOP, Opcode.REC_WLOOP)
    seen = 0
    for _, artifact, _ in tier1_cells:
        sim = _vliw_cell(FastVLIWSimulator, artifact)
        for func in artifact.module.functions.values():
            fprog = sim.cache.function_program(func)
            for block in func.blocks:
                recs = [i for i, op in enumerate(block.ops)
                        if op.opcode in rec_ops]
                if not recs:
                    continue
                source = engine._BlockCodegen(
                    sim.cache, fprog, fprog.block_program(block.label)
                ).source()
                assert "while True" not in source
                for i in recs:
                    assert f"_t{i}(frame)" in source
                seen += 1
    assert seen


@pytest.mark.parametrize("tier_up", (1, 8))
def test_vliw_step_limit_same_as_reference(monkeypatch, tier_up):
    monkeypatch.setattr(engine, "TIER_UP_PASSES", tier_up)
    module = _store_loop(12)
    body = len(module.function("main").block("loop").ops)
    entry = _loop_entry_steps(module)
    compiled = 0
    # every budget from loop entry to three passes past the tier-up
    for budget in range(entry, entry + (tier_up + 3) * body + 1):
        ref = _vliw_outcome(_vliw(VLIWSimulator, module, max_steps=budget))
        sim = _vliw(FastVLIWSimulator, module, max_steps=budget)
        assert _vliw_outcome(sim) == ref, budget
        compiled += sim.cache.functions["main"].progs["loop"].run is not None
    assert compiled > 3


def test_vliw_step_limit_in_a_buffered_cell(tier1_cells, monkeypatch):
    monkeypatch.setattr(engine, "TIER_UP_PASSES", 1)
    label, artifact, whole_run = next(cell for cell in tier1_cells
                                      if cell[0].endswith("@256"))
    whole = whole_run[0][2]
    for budget in (whole // 3, whole - 1, whole):
        ref = _vliw_outcome(_vliw_cell(VLIWSimulator, artifact, budget),
                            artifact.entry, artifact.args)
        sim = _vliw_cell(FastVLIWSimulator, artifact, budget)
        assert (_vliw_outcome(sim, artifact.entry, artifact.args)
                == ref), (label, budget)
        assert ref[0][0] == ("value" if budget == whole else "trap")
        assert sim.cache.functions[artifact.entry].progs[
            artifact.module.function(artifact.entry).entry.label
        ].run is not None


# --------------------------------------------------------------------------
# decode-time invariants


#: both fast engines over a module, with no schedules on the VLIW
FAST_ENGINES = {
    "FastInterpreter": lambda module: FastInterpreter(
        module, profile=Profile()),
    "FastVLIWSimulator": lambda module: FastVLIWSimulator(module, {}),
}


@pytest.mark.parametrize("make_sim", FAST_ENGINES.values(),
                         ids=FAST_ENGINES.keys())
def test_slot_map_is_frozen_after_init(make_sim):
    module = _counted_loop(3)
    sim = make_sim(module)
    fprog = sim.cache.function_program(module.function("main"))
    nslots = fprog.nslots
    with pytest.raises(KeyError):
        fprog.slot(VReg("i", 77))
    assert fprog.nslots == nslots


# --------------------------------------------------------------------------
# the code cache


def test_code_cache_is_bounded_lru_and_cleared(monkeypatch):
    clear_caches()
    monkeypatch.setattr(engine._block_code, "limit", 4)
    sources = [f"def _block(frame, limit):\n    return 0, {n}, None\n"
               for n in range(10)]
    codes = [engine._block_code_object(src) for src in sources[:4]]
    engine._block_code_object(sources[0])  # most recently used again
    for src in sources[4:7]:
        engine._block_code_object(src)
    assert len(engine._block_code) == 4
    assert engine._block_code_object(sources[0]) is codes[0]
    assert engine._block_code_object(sources[1]) is not codes[1]
    # keyed by a digest, never by the source text
    assert all(isinstance(key, bytes) and len(key) == 16
               for key in engine._block_code._entries)
    clear_caches()
    assert not engine._block_code


def test_generated_code_is_invisible_to_coverage():
    """coverage.py skips code whose file name starts with ``<`` unless
    the frame's globals carry a ``__file__`` that renames it."""
    module = _counted_loop(20)
    _, _, sim = _profiled(module, "fast")
    run = sim.cache.functions["main"].progs["loop"].run
    assert run.__code__.co_filename.startswith("<block ")
    assert "__file__" not in run.__globals__


def test_identical_blocks_share_one_code_object():
    clear_caches()
    for _ in range(2):
        _, profile, _ = _profiled(_counted_loop(20), "fast")
    # one code object per block that reached its tier-up pass, however
    # many modules hold it (entry, loop and done differ in content)
    assert profile["blocks"][("main", "loop")] == 20
    assert len(engine._block_code) == sum(
        1 for count in profile["blocks"].values()
        if count >= engine.TIER_UP_PASSES)
    clear_caches()


def test_threads_profile_one_program_identically():
    bench = benchmark("adpcm_enc")
    module = bench.build()
    clear_caches()
    serial = _profile_dict(profile_module(module, bench.entry,
                                          bench.args)[0])
    clear_caches()
    results: list = [None] * 4
    errors: list = []

    def work(k):
        try:
            results[k] = _profile_dict(
                profile_module(module, bench.entry, bench.args)[0])
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,))
                   for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert all(result == serial for result in results)


# --------------------------------------------------------------------------
# random programs


@settings(max_examples=nightly_examples(15, 150), deadline=None)
@given(st.one_of(fuzz_program(), loop_with_diamond_program()),
       st.sampled_from((1, 8)))
def test_random_programs_fast_equals_reference(source, tier_up):
    module = compile_source(source)
    with reference_engines():
        compiled = pipeline.compile_aggressive(copy.deepcopy(module))
    with mock.patch.object(engine, "TIER_UP_PASSES", tier_up):
        for program in (module, compiled.module):
            ref = _profiled(program, "ref", max_steps=2_000_000)
            fast = _profiled(program, "fast", max_steps=2_000_000)
            assert fast[0] == ref[0]
            if fast[0][0] == "value":
                assert fast[1] == ref[1]
