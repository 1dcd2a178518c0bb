"""Pass-trace replay against full simulation (:mod:`repro.sim.replay`).

Replay must be indistinguishable from simulating: for every benchmark x
pipeline on the tier-1 capacity subgrid (the whole Figure 7 grid plus
``None`` under ``-m slow``) and for Figure 5's g724dec sizes, a
replayed ``simulate`` is compared field for field with one run without
a trace.  Then every case replay must decline is checked to give
exactly the full simulation's outcome.
"""

from __future__ import annotations

import dataclasses
import pickle
from array import array

import pytest

from repro.bench import benchmark_names
from repro.experiments import fig5
from repro.fuzz.faults import inject_fault
from repro.fuzz.oracle import Config, compiled_outcome, reference_outcome
from repro.ir import Function, IRBuilder, Imm, Module, Opcode
from repro.obs import Tracer, use as obs_use
from repro.pipeline import (
    CheckedModeError,
    Compiled,
    compile_traditional,
    run_compiled,
    with_buffer,
)
from repro.sim.interp import SimError, StepLimitExceeded, run_module
from repro.sim.replay import PassTrace, ReplayedRun, replay
from repro.sim.vliw import simulate

from tests.helpers import compiled_base
from tests.reference_engines import ref_simulate, reference_engines
from tests.retarget_golden import GRID_CAPACITIES

PIPELINES = ("traditional", "aggressive")
PAIRS = [(name, pipeline)
         for name in benchmark_names() for pipeline in PIPELINES]
PAIR_IDS = [f"{n}-{p}" for n, p in PAIRS]
#: nothing fits / headline / everything fits, plus the unbuffered cell
TIER1_CAPACITIES = (None, 16, 256, 2048)

_COUNTER_FIELDS = ("cycles", "bundles", "ops_issued", "ops_from_buffer",
                   "ops_from_memory", "branch_bubbles")


def _sim_args(compiled):
    return (compiled.module, compiled.schedules, compiled.modulo,
            compiled.machine, compiled.buffer_capacity, compiled.entry,
            compiled.args)


def assert_identical(replayed, full):
    """Every observable of two ``simulate`` results matches."""
    (r_result, r_counters, r_buffer), (f_result, f_counters, f_buffer) = \
        replayed, full
    assert r_result.value == f_result.value
    assert r_result.steps == f_result.steps
    for name in _COUNTER_FIELDS:
        assert getattr(r_counters, name) == getattr(f_counters, name), name
    # same entries, same values, same insertion order
    assert list(r_counters.per_block.items()) == \
        list(f_counters.per_block.items())
    assert list(r_counters.per_loop.items()) == \
        list(f_counters.per_loop.items())
    assert (r_buffer is None) == (f_buffer is None)
    if r_buffer is not None:
        assert r_buffer.stats == f_buffer.stats
        assert r_buffer.loops == f_buffer.loops


def check_cell(base, capacity):
    compiled = with_buffer(base, capacity)
    args = _sim_args(compiled)
    replayed = simulate(*args, trace=compiled.pass_trace)
    assert isinstance(replayed[0], ReplayedRun), "replay declined"
    assert_identical(replayed, simulate(*args))


# ---------------------------------------------------------------------------
# replay == simulate


@pytest.mark.parametrize("name,pipeline", PAIRS, ids=PAIR_IDS)
def test_replay_matches_simulation(name, pipeline):
    base = compiled_base(name, pipeline)
    for capacity in TIER1_CAPACITIES:
        check_cell(base, capacity)


@pytest.mark.slow
@pytest.mark.parametrize("name,pipeline", PAIRS, ids=PAIR_IDS)
def test_replay_matches_simulation_full_grid(name, pipeline):
    base = compiled_base(name, pipeline)
    for capacity in GRID_CAPACITIES:
        check_cell(base, capacity)


def test_replay_matches_simulation_figure5_sizes():
    base = compiled_base("g724_dec", "aggressive")
    for capacity in fig5.SIZES:
        check_cell(base, capacity)


def test_trace_is_compact_and_carried_by_retargets():
    base = compiled_base("g724_dec", "aggressive")
    trace = base.pass_trace
    assert isinstance(trace, PassTrace)
    assert isinstance(trace.seq, array) and isinstance(trace.reps, array)
    assert len(trace.seq) == len(trace.reps) == trace.runs
    assert trace.runs < trace.passes
    assert max(trace.seq) < len(trace.kinds)
    for capacity in (None, 64):
        assert with_buffer(base, capacity).pass_trace is trace
    # survives the cache / pool pickle round trip
    restored = pickle.loads(pickle.dumps(base))
    assert restored.pass_trace == trace
    check_cell(restored, 64)


@pytest.mark.parametrize("name,pipeline", PAIRS, ids=PAIR_IDS)
def test_trace_index_partitions_the_runs(name, pipeline):
    base = compiled_base(name, pipeline)
    trace = base.pass_trace
    index = trace.index
    assert trace.index is index  # built once per trace
    assert len(index.totals) == len(trace.kinds)
    assert sum(index.totals) == trace.passes
    for kid, total in enumerate(index.totals):
        assert total == sum(rep for k, rep in zip(trace.seq, trace.reps)
                            if k == kid)
    assert len(index.block_runs) == len(trace.blocks)
    assert sorted(pos for runs in index.block_runs for pos in runs) \
        == list(range(trace.runs))
    for bid, runs in enumerate(index.block_runs):
        assert list(runs) == sorted(runs)
        assert all(trace.kinds[trace.seq[pos]][0] == bid for pos in runs)
    first_seen = list(dict.fromkeys(trace.kinds[kid][0]
                                    for kid in trace.seq))
    assert index.first_seen == first_seen
    live = set(first_seen[::2])
    assert list(index.live_runs(live)) == [
        pos for pos, kid in enumerate(trace.seq)
        if trace.kinds[kid][0] in live]


def test_trace_index_is_never_pickled():
    # a fresh copy: no earlier replay has built its trace's index
    compiled = pickle.loads(pickle.dumps(compiled_base("g724_dec",
                                                       "traditional")))
    before = pickle.dumps(compiled)
    assert "index" not in vars(compiled.pass_trace)
    for capacity in (None, 64):
        run_compiled(with_buffer(compiled, capacity))
    assert "index" in vars(compiled.pass_trace)
    assert pickle.dumps(compiled) == before
    restored = pickle.loads(before).pass_trace
    assert "index" not in vars(restored)
    assert restored.index.totals == compiled.pass_trace.index.totals


def test_only_fast_unbuffered_bases_record():
    # a buffered compile is its base's overlay and carries the base's
    # trace; the reference interpreter records none
    bench_module = compiled_base("adpcm_enc", "traditional").module
    buffered = compile_traditional(bench_module, buffer_capacity=64)
    base = compile_traditional(bench_module, buffer_capacity=None)
    assert buffered.overlay is not None
    assert (buffered.pass_trace.value, buffered.pass_trace.steps) \
        == (base.pass_trace.value, base.pass_trace.steps)
    with reference_engines():
        assert compile_traditional(bench_module,
                                   buffer_capacity=64).pass_trace is None


def test_replayed_run_recomputes_memory_on_demand():
    compiled = with_buffer(compiled_base("adpcm_enc", "traditional"), 64)
    args = _sim_args(compiled)
    replayed, _, _ = simulate(*args, trace=compiled.pass_trace)
    full, _, _ = simulate(*args)
    assert isinstance(replayed, ReplayedRun)
    assert replayed.memory._words == full.memory._words
    assert replayed.loader.memory is replayed.memory


# ---------------------------------------------------------------------------
# fallbacks: each one must give the full simulation's outcome


def _full_only(compiled, **kwargs):
    """``simulate`` with the trace must decline and equal the full run."""
    args = _sim_args(compiled)
    with_trace = simulate(*args, trace=compiled.pass_trace, **kwargs)
    assert not isinstance(with_trace[0], ReplayedRun)
    assert_identical(with_trace, simulate(*args, **kwargs))


TRAPPING = """
int main() {
    int zero = 0;
    int s = 1;
    for (int i = 0; i < 10; i++) {
        s = s + i;
    }
    return s / zero;
}
"""


def test_profiling_trap_records_no_trace():
    from repro.frontend import compile_source

    with pytest.raises(SimError):
        run_module(compile_source(TRAPPING), record=True)
    reference = reference_outcome(TRAPPING)
    assert reference[0] == "trap"
    assert compiled_outcome(TRAPPING, Config("traditional", 16)) == reference


def _wloop_cell():
    """A cell whose overlay runs more steps than its base: an inserted
    ``rec_wloop`` executes on every entry of its loop."""
    for name in ("adpcm_enc", "g724_dec", "mpeg2_dec"):
        for pipeline in PIPELINES:
            base = compiled_base(name, pipeline)
            compiled = with_buffer(base, 2048)
            replayed, _, _ = simulate(*_sim_args(compiled),
                                      trace=compiled.pass_trace)
            if replayed.steps > base.pass_trace.steps:
                return compiled, replayed.steps
    pytest.fail("no benchmark inserts an executed rec_wloop")


def test_step_budget_between_base_and_overlay():
    compiled, overlay_steps = _wloop_cell()
    budget = compiled.pass_trace.steps
    assert budget < overlay_steps
    args = _sim_args(compiled)
    assert replay(compiled.pass_trace, *args, max_steps=budget) is None
    with pytest.raises(StepLimitExceeded) as replayed:
        simulate(*args, max_steps=budget, trace=compiled.pass_trace)
    with pytest.raises(StepLimitExceeded) as full:
        simulate(*args, max_steps=budget)
    assert str(replayed.value) == str(full.value)
    # a budget the base already exceeds declines before replaying
    assert replay(compiled.pass_trace, *args, max_steps=budget - 1) is None
    # and one the overlay meets exactly still replays
    _result, counters, _buffer = simulate(*args, max_steps=overlay_steps,
                                          trace=compiled.pass_trace)
    assert isinstance(_result, ReplayedRun)


@pytest.mark.parametrize("capacity", (64, 256))
@pytest.mark.parametrize("pipeline", PIPELINES)
def test_replay_matches_reference_simulator(pipeline, capacity):
    # the oracle behind every replayed cell: a full run of the same
    # artifact on the reference VLIW simulator
    compiled = with_buffer(compiled_base("adpcm_enc", pipeline), capacity)
    outcome = run_compiled(compiled)
    assert isinstance(outcome.result, ReplayedRun)
    assert_identical((outcome.result, outcome.counters, outcome.buffer),
                     ref_simulate(*_sim_args(compiled)))


def test_ref_engine_simulates_in_full():
    compiled = with_buffer(compiled_base("adpcm_enc", "aggressive"), 64)
    args = _sim_args(compiled)
    ref = ref_simulate(*args, trace=compiled.pass_trace)
    assert not isinstance(ref[0], ReplayedRun)
    assert_identical(simulate(*args, trace=compiled.pass_trace), ref)


def test_enabled_tracer_simulates_in_full():
    compiled = with_buffer(compiled_base("adpcm_enc", "aggressive"), 64)
    with obs_use(Tracer()):
        _full_only(compiled)


def test_instrumented_rec_simulates_in_full():
    compiled = with_buffer(compiled_base("adpcm_enc", "traditional"), 64)
    with inject_fault("cloop-reload-off-by-one"):
        result, _, _ = simulate(*_sim_args(compiled),
                                trace=compiled.pass_trace)
    assert not isinstance(result, ReplayedRun)


def test_unpickled_base_without_trace_field_simulates_in_full():
    base = compiled_base("adpcm_enc", "traditional")
    old = Compiled.__new__(Compiled)
    old.__dict__.update({key: value for key, value in base.__dict__.items()
                         if key != "pass_trace"})
    restored = pickle.loads(pickle.dumps(old))
    assert "pass_trace" not in restored.__dict__
    assert restored.pass_trace is None
    compiled = with_buffer(restored, 64)
    outcome = run_compiled(compiled)
    assert not isinstance(outcome.result, ReplayedRun)
    expected = run_compiled(with_buffer(base, 64))
    assert isinstance(expected.result, ReplayedRun)
    assert_identical((expected.result, expected.counters, expected.buffer),
                     (outcome.result, outcome.counters, outcome.buffer))


def test_non_rec_edit_in_materialized_block_simulates_in_full():
    compiled = with_buffer(compiled_base("g724_dec", "traditional"), 64)
    assert compiled.overlay.materialized
    fname, label = compiled.overlay.materialized[0]
    block = compiled.module.function(fname).block(label)
    index = next(i for i, op in enumerate(block.ops)
                 if op.opcode not in (Opcode.REC_CLOOP, Opcode.REC_WLOOP))
    block.ops[index] = block.ops[index].copy()
    assert replay(compiled.pass_trace, *_sim_args(compiled),
                  max_steps=200_000_000) is None
    _full_only(compiled)


def _call_after_rec_module() -> Module:
    """``main`` loads a counted loop's count, *then* calls ``bump``, in
    the loop's preheader: once the ``cloop_set`` becomes a
    ``rec_cloop``, ``bump``'s passes run between the rec and the
    preheader's own pass."""
    module = Module("call_after_rec")
    bump = Function("bump", [])
    module.add_function(bump)
    b = IRBuilder(bump)
    b.at(bump.add_block("entry"))
    b.ret(b.movi(1))

    main = Function("main")
    module.add_function(main)
    b = IRBuilder(main)
    entry = main.add_block("entry")
    body = main.add_block("body")
    done = main.add_block("done")
    b.at(entry)
    s = b.movi(0)
    count = b.movi(40)
    b.emit_op(Opcode.CLOOP_SET, [], [count], lc=0)
    b.call("bump", [], dest=b.reg())
    b.at(body)
    b.add(s, Imm(3), dest=s)
    b.emit_op(Opcode.BR_CLOOP, [], [], target="body", lc=0)
    b.at(done)
    b.ret(s)
    return module


def test_call_after_rec_site_simulates_in_full():
    base = compile_traditional(_call_after_rec_module(), buffer_capacity=None,
                               inline_budget=0.0)
    assert base.pass_trace is not None
    compiled = with_buffer(base, 64)
    pre = compiled.module.function("main").block("entry")
    opcodes = [op.opcode for op in pre.ops]
    assert Opcode.REC_CLOOP in opcodes
    assert opcodes.index(Opcode.CALL) > opcodes.index(Opcode.REC_CLOOP)
    _full_only(compiled)
    # unbuffered, there is no rec site to misplace: it replays
    outcome = run_compiled(with_buffer(base, None))
    assert isinstance(outcome.result, ReplayedRun)
    assert outcome.result.value == 120


# ---------------------------------------------------------------------------
# checked mode executes the assumption


def _checked(compiled):
    return dataclasses.replace(compiled,
                               stats={**compiled.stats, "checked": True})


def test_checked_mode_cross_checks_replay():
    compiled = _checked(with_buffer(compiled_base("adpcm_enc", "traditional"),
                                    64))
    outcome = run_compiled(compiled)
    assert isinstance(outcome.result, ReplayedRun)


def test_checked_mode_rejects_a_corrupted_trace():
    compiled = with_buffer(compiled_base("adpcm_enc", "traditional"), 64)
    trace = compiled.pass_trace
    reps = array("I", trace.reps)
    reps[len(reps) // 2] += 1
    corrupted = dataclasses.replace(
        compiled, pass_trace=dataclasses.replace(trace, reps=reps))
    # unchecked, the corrupted trace replays to wrong counters unnoticed
    assert run_compiled(corrupted).counters.cycles != \
        run_compiled(compiled).counters.cycles
    with pytest.raises(CheckedModeError) as excinfo:
        run_compiled(_checked(corrupted))
    assert excinfo.value.pass_name == "replay"
    assert {d.rule for d in excinfo.value.diagnostics} == {"replay"}
    assert any("steps" in d.message for d in excinfo.value.diagnostics)
