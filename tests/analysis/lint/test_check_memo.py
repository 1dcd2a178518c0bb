"""Checked mode's per-function check memo.

``_PassChecker._ir_diagnostics`` answers each function's verify and
IR-lint from a process-level memo keyed by the function's content.  These
tests hold it to the unmemoized path: the same diagnostic list, order
included, cold or warm, and no hit that hides a new violation.
"""

import json
from contextlib import contextmanager

import pytest

import repro.sched.cache as cache
from repro.analysis.lint import Diagnostic, Severity, lint_module
from repro.fuzz.cli import main
from repro.fuzz.gen import generate
from repro.fuzz.oracle import check_program, default_configs
from repro.ir import Function, Imm, IRBuilder, Module, ireg, preg
from repro.ir.verify import VerificationError, verify_module
from repro.memo import Memo
from repro.pipeline import CheckedModeError, RunConfig, _PassChecker
from repro.sched.cache import CHECK_STATS, clear_caches
from repro.sched.machine import DEFAULT_MACHINE

from tests.helpers import build_if_diamond

#: fuzz-corpus generator seeds checked in tier-1 (7 and 12 hold calls)
TIER1_SEEDS = (7, 12, 19)
#: every program of the benchmark's fuzz corpus
CORPUS_SEEDS = tuple(range(34))


def reference_diagnostics(checker: _PassChecker, scope):
    """The unmemoized per-pass check: verify the module, lint the scope."""
    diags = []
    try:
        verify_module(checker.module, allow_unreachable=True)
    except VerificationError as exc:
        diags.append(Diagnostic("verify", Severity.ERROR, str(exc),
                                function=scope))
    diags.extend(lint_module(
        checker.module, checker.machine,
        functions=(scope,) if scope is not None else None,
        rule_ids=checker._ir_rules))
    return diags


@contextmanager
def cold_memo():
    """Run with an empty memo, then put the warm one back."""
    saved = cache._check_memo
    cache._check_memo = Memo(saved.limit)
    try:
        yield
    finally:
        cache._check_memo = saved


@pytest.fixture
def differential(monkeypatch):
    """Compare every ``_ir_diagnostics`` call with a cold memo and with
    the reference; yields the tally of checks, warm hits and misses, and
    mismatches.  Mismatches are collected, not raised: the fuzz oracle
    turns compile exceptions into verdicts."""
    clear_caches()
    original = _PassChecker._ir_diagnostics
    seen = {"checks": 0, "mismatches": [], "warm_hits": 0, "warm_misses": 0}

    def compared(self, scope):
        before = CHECK_STATS.counts()
        warm = original(self, scope)
        seen["warm_hits"] += CHECK_STATS.hits - before[0]
        seen["warm_misses"] += CHECK_STATS.misses - before[1]
        with cold_memo():
            cold = original(self, scope)
        reference = reference_diagnostics(self, scope)
        seen["checks"] += 1
        if not warm == cold == reference:
            seen["mismatches"].append((scope, warm, cold, reference))
        return warm

    monkeypatch.setattr(_PassChecker, "_ir_diagnostics", compared)
    yield seen
    clear_caches()


def _assert_equivalent(seen, seeds, fault=None):
    configs = default_configs()
    for seed in seeds:
        report = check_program(generate(seed), configs, fault=fault)
        if fault is None:
            assert report.ok, report.divergences
    assert seen["checks"] > 0
    assert not seen["mismatches"], seen["mismatches"][0]
    # later configs of a program re-check content the first one checked
    assert seen["warm_hits"] > seen["warm_misses"]


def test_memo_matches_reference_on_fuzz_subset(differential):
    _assert_equivalent(differential, TIER1_SEEDS)


@pytest.mark.parametrize("fault,seed", [("dce-drop-store", 1),
                                        ("ifconvert-guard-drop", 19)])
def test_memo_matches_reference_under_fault(differential, fault, seed):
    # the fault miscompiles the seed; checked mode must still report
    # exactly what the unmemoized path reports
    _assert_equivalent(differential, (seed,), fault=fault)


@pytest.mark.slow
def test_memo_matches_reference_on_fuzz_corpus(differential):
    _assert_equivalent(differential, CORPUS_SEEDS)


# -- a hit never hides a new violation --------------------------------------


def _checker(module: Module) -> _PassChecker:
    return _PassChecker(module, DEFAULT_MACHINE, RunConfig(checked=True))


def _outcome(check):
    """What a check does: the CheckedModeError's diagnostics, or the
    other exception it raises, or ``None`` when it passes."""
    try:
        check()
    except CheckedModeError as exc:
        return exc.diagnostics
    except Exception as exc:  # e.g. the CFG of a dangling branch
        return type(exc), str(exc)
    return None


def _assert_fails_like_reference(checker, scope=None):
    def reference():
        checker._raise_errors("mutate", reference_diagnostics(checker, scope))

    expected = _outcome(reference)
    assert expected is not None
    assert _outcome(lambda: checker.check_ir("mutate", scope=scope)) \
        == expected
    return expected


def test_dropped_guard_after_clean_check():
    clear_caches()
    func = Function("f", [ireg(0)])
    b = IRBuilder(func, func.add_block("entry"))
    b.pred_def("lt", ireg(0), Imm(4), [preg(0)], ["ut"])
    guarded = b.movi(1, guard=preg(0))
    func.block("entry").ops[-1].attrs["psens"] = True
    b.ret(guarded)
    module = Module("t")
    module.add_function(func)
    checker = _checker(module)
    checker.check_ir("clean", scope="f")
    checker.check_ir("clean", scope="f")  # now a hit

    func.block("entry").ops[1].guard = None
    diags = _assert_fails_like_reference(checker, scope="f")
    assert [d.rule for d in diags] == ["psens-unguarded"]


def test_branch_to_missing_label_after_clean_check():
    clear_caches()
    module = build_if_diamond()
    helper = Function("h", [ireg(0)])
    IRBuilder(helper, helper.add_block("entry")).ret(ireg(0))
    module.add_function(helper)
    checker = _checker(module)
    checker.check_ir("clean")
    checker.check_ir("clean", scope="h")
    branch = module.function("main").block("entry").ops[-1]
    branch.attrs["target"] = "nowhere"

    # verify covers main even when only h is linted
    diags = _assert_fails_like_reference(checker, scope="h")
    assert diags[0].rule == "verify"
    assert "dangling target 'nowhere'" in diags[0].message
    # linting main itself trips over the dangling edge, memo or not
    exc_type, _ = _assert_fails_like_reference(checker, scope="main")
    assert exc_type is KeyError


def test_removed_callee_misses_with_caller_unchanged():
    clear_caches()
    module = Module("calls")
    callee = Function("g", [ireg(0)])
    IRBuilder(callee, callee.add_block("entry")).ret(ireg(0))
    caller = Function("main", [ireg(0)])
    b = IRBuilder(caller, caller.add_block("entry"))
    result = b.call("g", [ireg(0)], dest=caller.new_reg())
    b.ret(result)
    module.add_function(caller)
    module.add_function(callee)
    checker = _checker(module)
    checker.check_ir("clean", scope="main")

    del module.functions["g"]  # main's own content is unchanged
    diags = _assert_fails_like_reference(checker, scope="main")
    assert "unknown callee 'g'" in diags[0].message


# -- bound and reset ----------------------------------------------------------


def test_clear_caches_empties_memo_and_counters():
    clear_caches()
    checker = _checker(build_if_diamond())
    checker.check_ir("first")
    checker.check_ir("second")
    assert len(cache._check_memo) == 1
    assert (CHECK_STATS.hits, CHECK_STATS.misses) == (2, 2)

    clear_caches()
    assert len(cache._check_memo) == 0
    assert CHECK_STATS.counts() == (0, 0, 0)
    checker.check_ir("third")
    assert (CHECK_STATS.hits, CHECK_STATS.misses) == (0, 2)


def test_lru_bound_evicts(monkeypatch):
    clear_caches()
    monkeypatch.setattr(cache._check_memo, "limit", 2)
    module = Module("wide")
    for name in ("a", "b", "c"):
        func = Function(name, [ireg(0)])
        IRBuilder(func, func.add_block("entry")).ret(ireg(0))
        module.add_function(func)
    checker = _checker(module)
    checker.check_ir("first")
    assert len(cache._check_memo) == 2
    assert CHECK_STATS.evictions == 1
    # the evicted function is checked again, still clean
    checker.check_ir("second")
    assert CHECK_STATS.evictions >= 2
    clear_caches()


def test_fuzz_json_reports_memo_counts_from_workers(tmp_path):
    # with a pool the parent compiles nothing: every count it reports
    # was folded back from a worker (forked with an empty memo)
    clear_caches()
    out_file = tmp_path / "result.json"
    main(["run", "--seeds", "2", "--start", "16", "--workers", "2",
          "--quiet", "--no-minimize", "--corpus", str(tmp_path / "corpus"),
          "--capacities", "none,16", "--json", str(out_file)])
    memo = json.loads(out_file.read_text())["check_memo"]
    assert 0 < memo["misses"] < memo["hits"]
    assert memo["hit_frac"] == round(
        memo["hits"] / (memo["hits"] + memo["misses"]), 4)
