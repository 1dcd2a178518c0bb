"""The pipelines' shared frontend memo (DESIGN.md §5e).

``compile_traditional`` and ``compile_aggressive`` both start from one
frontend -- cleanup, profile, inline, cleanup, profile -- memoised per
process by the input's content and the frontend's settings.  These tests
hold a memo hit to a cold compile, field for field, and pin the memo's
key, value and failure policy, its bound and reset, the read-only
profile it shares and its behaviour under threads.
"""

from __future__ import annotations

import ast
import copy
import json
import pickle
import sys
import threading
from pathlib import Path

import pytest

import repro.bench.suite as suite
import repro.pipeline as pipeline_mod
import repro.sched.cache as cache
from repro.bench import benchmark
from repro.frontend import compile_source
from repro.ir import Opcode, Operation, ireg
from repro.ir.printer import format_module
from repro.pipeline import (
    COMPILERS,
    CheckedModeError,
    compile_aggressive,
    compile_traditional,
    run_compiled,
    with_buffer,
)
from repro.runner.parallel import CLASS_MEMO, Source, run_base
from repro.sched.cache import FRONTEND_STATS, clear_caches
from repro.sim.interp import StepLimitExceeded

from tests.reference_engines import reference_engines

#: inline plus cleanup leave adpcm_enc and g724_dec unchanged (the second
#: profile is skipped) and change jpeg_dec
TIER1 = ("adpcm_enc", "g724_dec", "jpeg_dec")
PIPELINES = ("traditional", "aggressive")

LOOP_SOURCE = """\
int main() {
    int acc = 0;
    for (int i = 0; i < 8; i++) { acc = acc + i; }
    return acc;
}
"""


@pytest.fixture(autouse=True)
def cold():
    clear_caches()
    yield
    clear_caches()


def _compile(pipeline, program, **kwargs):
    kwargs.setdefault("buffer_capacity", None)
    return COMPILERS[pipeline](program.build(), entry=program.entry,
                               args=program.args, **kwargs)


def _table_source(tail: int) -> str:
    """A program reading element 10 of a 12-word table."""
    table = ", ".join(str(v) for v in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                       tail, 12])
    return (f"int tab[12] = {{{table}}};\n"
            "int main() { return tab[10]; }\n")


# -- a hit compiles what a cold compile compiles ----------------------------


@pytest.mark.parametrize("name", TIER1)
def test_memoised_compiles_match_cold_compiles(name, monkeypatch):
    program = benchmark(name)
    # each stored profile, snapshotted before any backend reads it: no
    # write through any alias may change it (see also the source scan)
    stored = []
    real_put = pipeline_mod.frontend_put

    def put(key, value):
        stored.append((value[1], _snapshot(value[1])))
        real_put(key, value)

    monkeypatch.setattr(pipeline_mod, "frontend_put", put)
    cold_runs = {}
    for pipeline in PIPELINES:
        clear_caches()
        base = _compile(pipeline, program)
        cold_runs[pipeline] = (format_module(base.module),
                               run_base(program, pipeline, base, 64)[0])
        assert FRONTEND_STATS.counts() == (0, 1, 0)
    # the memo now holds the last pipeline's frontend: both pipelines hit
    for pipeline in PIPELINES:
        base = _compile(pipeline, program)
        # the capacity class of the cold run would serve this base unrun
        CLASS_MEMO.clear()
        assert (format_module(base.module),
                run_base(program, pipeline, base, 64)[0]) \
            == cold_runs[pipeline]
    assert FRONTEND_STATS.counts() == (2, 1, 0)
    assert len(stored) == 2
    for profile, before in stored:
        assert _snapshot(profile) == before


def test_second_profile_skipped_only_when_nothing_changed(monkeypatch):
    calls = []
    real = pipeline_mod.profile_module

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline_mod, "profile_module", counted)
    frontend_profiles = {}
    for name in ("adpcm_enc", "jpeg_dec"):
        calls.clear()
        # the traditional pipeline profiles once more, in its backend
        _compile("traditional", benchmark(name))
        frontend_profiles[name] = len(calls) - 1
    assert frontend_profiles == {"adpcm_enc": 1, "jpeg_dec": 2}


def test_input_module_not_mutated():
    program = benchmark("jpeg_dec")
    module = program.build()
    before = pickle.dumps(module)
    for pipeline in PIPELINES:  # a miss, then a hit
        COMPILERS[pipeline](module, entry=program.entry, args=program.args,
                            buffer_capacity=None)
        assert pickle.dumps(module) == before
    assert FRONTEND_STATS.counts() == (1, 1, 0)


# -- the key ---------------------------------------------------------------


def test_checked_keyed_apart(monkeypatch):
    program = benchmark("adpcm_enc")
    for checked in (False, True):
        _compile("traditional", program, checked=checked)
    assert FRONTEND_STATS.counts() == (0, 2, 0)
    # a leftover ``REPRO_ENGINE`` selects nothing, so it splits no entry
    monkeypatch.setenv("REPRO_ENGINE", "ref")
    _compile("aggressive", program, checked=True)
    assert FRONTEND_STATS.counts() == (1, 2, 0)
    assert len(cache._frontend_memo) == 2


def test_global_differing_after_element_8_misses():
    first = compile_source(_table_source(11))
    second = compile_source(_table_source(99))
    # the printer shows 8 initializer elements: the two print alike
    assert format_module(first) == format_module(second)
    values = [run_compiled(compile_traditional(module)).result.value
              for module in (first, second)]
    assert values == [11, 99]
    assert FRONTEND_STATS.counts() == (0, 2, 0)


# -- failures store nothing --------------------------------------------------


def test_step_limit_raises_on_every_call():
    module = compile_source(LOOP_SOURCE)
    for _ in range(2):
        with pytest.raises(StepLimitExceeded):
            compile_traditional(module, max_steps=5)
    assert FRONTEND_STATS.counts() == (0, 2, 0)
    assert len(cache._frontend_memo) == 0


def _plant_undefined_read(real_pass):
    def planted(func, *args, **kwargs):
        result = real_pass(func, *args, **kwargs)
        func.blocks[0].insert(
            0, Operation(Opcode.MOV, [ireg(900)], [ireg(901)]))
        return result

    return planted


def test_injected_fault_raises_on_every_call(monkeypatch):
    module = compile_source(LOOP_SOURCE)
    monkeypatch.setattr(pipeline_mod, "optimize_function",
                        _plant_undefined_read(pipeline_mod.optimize_function))
    for compile_ in (compile_traditional, compile_aggressive):
        with pytest.raises(CheckedModeError) as excinfo:
            compile_(module, checked=True)
        assert excinfo.value.pass_name == "optimize_function"
    assert len(cache._frontend_memo) == 0


def test_patched_pass_never_reuses_a_stock_frontend(monkeypatch):
    module = compile_source(LOOP_SOURCE)
    compile_traditional(module, checked=True)
    monkeypatch.setattr(pipeline_mod, "optimize_function",
                        _plant_undefined_read(pipeline_mod.optimize_function))
    with pytest.raises(CheckedModeError):
        compile_traditional(module, checked=True)
    assert FRONTEND_STATS.hits == 0


# -- bound and reset ---------------------------------------------------------


def test_clear_caches_empties_memo_and_counters():
    module = compile_source(LOOP_SOURCE)
    compile_traditional(module)
    compile_aggressive(module)
    assert len(cache._frontend_memo) == 1
    assert FRONTEND_STATS.counts() == (1, 1, 0)
    clear_caches()
    assert len(cache._frontend_memo) == 0
    assert FRONTEND_STATS.counts() == (0, 0, 0)
    compile_traditional(module)
    assert FRONTEND_STATS.counts() == (0, 1, 0)


def test_lru_bound_evicts(monkeypatch):
    monkeypatch.setattr(cache._frontend_memo, "limit", 2)
    modules = [compile_source(_table_source(tail)) for tail in (1, 2, 3)]
    for module in modules:
        compile_traditional(module)
    assert len(cache._frontend_memo) == 2
    assert FRONTEND_STATS.counts() == (0, 3, 1)
    compile_traditional(modules[2])   # still held
    compile_traditional(modules[0])   # evicted: runs again
    assert FRONTEND_STATS.counts() == (1, 4, 2)


# -- the shared profile is read-only -----------------------------------------


def _snapshot(profile) -> dict:
    return {name: copy.deepcopy(dict(getattr(profile, name)))
            for name in ("blocks", "edges", "ops", "taken", "calls")} | {
        "total_ops": profile.total_ops}


def test_shared_profile_unchanged_by_both_pipelines():
    program = benchmark("jpeg_dec")
    traditional = _compile("traditional", program)
    ((_module, profile),) = cache._frontend_memo._entries.values()
    before = _snapshot(profile)
    aggressive = _compile("aggressive", program)
    assert FRONTEND_STATS.hits == 1
    for base in (traditional, aggressive):
        run_compiled(with_buffer(base, 64))
        with reference_engines():
            run_compiled(base)
    assert _snapshot(profile) == before


#: modules that may write to a Profile: the interpreters that build one.
#: The scan sees writes through a receiver named like ``profile``; writes
#: through other aliases are left to the snapshot checks above.
PROFILE_WRITERS = {"sim/interp.py", "sim/engine.py"}
PROFILE_FIELDS = {"blocks", "edges", "ops", "taken", "calls", "total_ops"}
PROFILE_RECORDERS = {"enter_block", "traverse_edge", "record_op",
                     "record_taken", "enter_function"}
MUTATORS = {"update", "clear", "pop", "popitem", "setdefault",
            "__setitem__", "__delitem__"}


def _profile_field(node) -> bool:
    """``<...profile...>.blocks`` and the like."""
    return (isinstance(node, ast.Attribute) and node.attr in PROFILE_FIELDS
            and "profile" in ast.unparse(node.value).lower())


def _profile_writes(tree) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func,
                                                     ast.Attribute):
            method = node.func
            if method.attr in PROFILE_RECORDERS or (
                    method.attr in MUTATORS and _profile_field(method.value)):
                found.append(ast.unparse(node))
        elif isinstance(node, ast.Subscript) and _profile_field(node.value):
            # a subscript of a defaultdict field inserts even on a read
            found.append(ast.unparse(node))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = (node.targets if isinstance(node, (ast.Assign,
                                                         ast.Delete))
                       else [node.target])
            found += [ast.unparse(t) for t in targets if _profile_field(t)]
    return found


def test_only_the_interpreters_write_profiles():
    root = Path(pipeline_mod.__file__).parent
    writers = {}
    for path in sorted(root.rglob("*.py")):
        found = _profile_writes(ast.parse(path.read_text()))
        if found:
            writers[path.relative_to(root).as_posix()] = found
    assert writers, "the scan should see the interpreters' writes"
    assert set(writers) <= PROFILE_WRITERS, writers


# -- replay over overlapping uids ---------------------------------------------


def test_checked_replay_on_artifacts_from_one_frontend():
    program = benchmark("adpcm_enc")
    bases = {pipeline: _compile(pipeline, program, checked=True)
             for pipeline in PIPELINES}
    assert FRONTEND_STATS.counts() == (1, 1, 0)
    uids = [{op.uid for func in base.module.functions.values()
             for block in func.blocks for op in block.ops}
            for base in bases.values()]
    assert uids[0] & uids[1], "both artifacts keep the frontend's op uids"
    for pipeline, base in bases.items():
        for capacity in (16, 256):
            # checked: the replayed run is simulated in full and compared
            outcome = run_compiled(with_buffer(base, capacity))
            assert outcome.result.value == program.expected()


# -- one parse per program --------------------------------------------------------


def _count_parses(monkeypatch) -> list[str]:
    """The name of every real ``compile_source`` the parse memo runs."""
    calls: list[str] = []
    real = suite.compile_source

    def counted(source, name="module"):
        calls.append(name)
        return real(source, name)

    monkeypatch.setattr(suite, "compile_source", counted)
    return calls


def test_benchmark_parses_once_per_process(monkeypatch):
    calls = _count_parses(monkeypatch)
    program = benchmark("adpcm_enc")
    first, second = program.build(), program.build()
    assert calls == ["adpcm_enc"]
    assert suite.PARSED.stats.counts() == (1, 1, 0)
    # one parse: the same ops, uids included, in independent modules
    digest = pipeline_mod._module_digest(second, uids=True)
    assert pipeline_mod._module_digest(first, uids=True) == digest
    first.add_global("mine", 1)
    for op in first.functions["main"].ops():
        op.srcs.append(ireg(99))
    assert pipeline_mod._module_digest(second, uids=True) == digest
    assert pipeline_mod._module_digest(program.build(), uids=True) == digest
    # both pipelines compile from that parse
    for pipeline in PIPELINES:
        _compile(pipeline, program)
    assert calls == ["adpcm_enc"]


def test_clear_caches_drops_the_parses(monkeypatch):
    calls = _count_parses(monkeypatch)
    benchmark("adpcm_enc").build()
    clear_caches()
    assert len(suite.PARSED) == 0
    assert suite.PARSED.stats.counts() == (0, 0, 0)
    benchmark("adpcm_enc").build()
    assert calls == ["adpcm_enc", "adpcm_enc"]


def test_inline_sources_share_the_parse_memo(monkeypatch):
    calls = _count_parses(monkeypatch)
    one, two = Source("a", LOOP_SOURCE), Source("b", LOOP_SOURCE)
    # the runner's label is not the module's name: one parse serves both
    assert one.build().name == two.build().name == "module"
    assert calls == ["module"]
    assert len(suite.PARSED) == 1


# -- threads --------------------------------------------------------------------


def test_concurrent_compiles_identical():
    program = benchmark("adpcm_enc")
    threads_n = 4
    barrier = threading.Barrier(threads_n)
    results: list = [None] * threads_n
    errors: list = []

    def compile_one(index: int) -> None:
        try:
            barrier.wait(timeout=30)
            results[index] = _compile(PIPELINES[index % 2], program)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=compile_one, args=(index,))
                   for index in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    # every lookup is counted: a lost update would drop one
    hits, misses, evictions = FRONTEND_STATS.counts()
    assert hits + misses == threads_n and evictions == 0
    assert len(cache._frontend_memo) == 1
    for index in (2, 3):
        same = results[index - 2]
        assert format_module(results[index].module) \
            == format_module(same.module)
        # each base simulated, not served by the other's capacity class
        runs = []
        for compiled in (results[index], same):
            CLASS_MEMO.clear()
            runs.append(run_base(program, PIPELINES[index % 2], compiled, 64))
        assert runs[0] == runs[1]


# -- observability ---------------------------------------------------------------


def test_fuzz_json_reports_frontend_memo_from_workers(tmp_path):
    from repro.fuzz.cli import main

    # with a pool every count was folded back from a worker; the oracle
    # compiles one base per pipeline, so each program's first pipeline
    # misses and its second hits
    out_file = tmp_path / "result.json"
    main(["run", "--seeds", "2", "--start", "16", "--workers", "2",
          "--quiet", "--no-minimize", "--corpus", str(tmp_path / "corpus"),
          "--capacities", "none,16", "--json", str(out_file)])
    memo = json.loads(out_file.read_text())["frontend_memo"]
    assert (memo["hits"], memo["misses"], memo["evictions"]) == (2, 2, 0)
    assert memo["hit_frac"] == 0.5
