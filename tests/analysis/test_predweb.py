"""Unit and property tests for the global predicate web analysis.

The property test enumerates every parameter assignment of a small
generated DAG function, interprets it concretely, and checks each claim
the web makes at each executed program point — predicate-pair
disjointness, implication and definedness must hold on every execution.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings

import repro.analysis.predweb as predweb_mod
from repro.analysis.predweb import UNDEF, PredicateWeb
from repro.ir import Function, Imm, IRBuilder, Opcode, preg
from repro.ir.preddef import pred_update

from tests.analysis.closure_oracle import ReferenceWeb, web_snapshot
from tests.strategies import PRED_PARAM_VALUES, predicated_dag_function

CORPUS_DIR = Path(__file__).resolve().parents[1] / "fuzz_corpus"

_CMP = {
    "eq": lambda a, b: int(a == b),
    "ne": lambda a, b: int(a != b),
    "lt": lambda a, b: int(a < b),
    "le": lambda a, b: int(a <= b),
    "gt": lambda a, b: int(a > b),
    "ge": lambda a, b: int(a >= b),
}


def _two_block_function():
    func = Function("main", [])
    b = IRBuilder(func)
    entry = func.add_block("entry")
    body = func.add_block("body")
    return func, b, entry, body


class TestDefinedness:
    def test_cross_block_define_is_defined(self):
        func, b, entry, body = _two_block_function()
        p = func.new_pred()
        b.at(entry)
        x = b.movi(3)
        b.pred_def("lt", x, Imm(10), [p], ["ut"])
        b.at(body)
        y = b.add(x, Imm(1), guard=p)
        b.ret(y)
        web = PredicateWeb(func)
        assert not web.at("body", 0).possibly_undefined(p)

    def test_partial_define_chain_is_possibly_undefined(self):
        # an or-accumulation with no unconditional root leaves p unwritten
        # on the guard-false path
        func, b, entry, body = _two_block_function()
        p = func.new_pred()
        q = func.new_pred()
        b.at(entry)
        x = b.movi(3)
        b.pred_def("lt", x, Imm(10), [q], ["ut"])
        b.pred_def("gt", x, Imm(0), [p], ["ot"], guard=q)
        b.at(body)
        y = b.add(x, Imm(1), guard=p)
        b.ret(y)
        web = PredicateWeb(func)
        assert web.at("body", 0).possibly_undefined(p)

    def test_entry_predicate_param_is_defined(self):
        p = preg(0)
        func = Function("main", [p])
        func.new_pred()
        b = IRBuilder(func)
        entry = func.add_block("entry")
        b.at(entry)
        b.ret(Imm(0))
        web = PredicateWeb(func)
        assert not web.at("entry", 0).possibly_undefined(p)

    def test_never_written_is_undefined(self):
        func, b, entry, body = _two_block_function()
        p = func.new_pred()
        b.at(entry)
        x = b.movi(3)
        b.at(body)
        b.ret(x)
        web = PredicateWeb(func)
        assert web.at("entry", 0).possibly_undefined(p)
        assert UNDEF in web.at("entry", 0).sites(p)


class TestGlobalFacts:
    def test_complement_pair_disjoint_across_blocks(self):
        func, b, entry, body = _two_block_function()
        p = func.new_pred()
        q = func.new_pred()
        b.at(entry)
        x = b.movi(3)
        b.pred_def("lt", x, Imm(10), [p, q], ["ut", "uf"])
        b.at(body)
        b.ret(x)
        web = PredicateWeb(func)
        point = web.at("body", 0)
        assert point.disjoint(p, q)
        assert point.disjoint(q, p)

    def test_zero_rooted_or_chain_subset_of_guard(self):
        # pred_set q 0; (g) q |= cond  =>  q ⊆ g (exact zeroish case)
        func, b, entry, body = _two_block_function()
        g = func.new_pred()
        q = func.new_pred()
        b.at(entry)
        x = b.movi(3)
        b.pred_def("lt", x, Imm(10), [g], ["ut"])
        b.pred_set(q, 0)
        b.pred_def("gt", x, Imm(0), [q], ["ot"], guard=g)
        b.at(body)
        b.ret(x)
        web = PredicateWeb(func)
        point = web.at("body", 0)
        assert point.implies(q, g)
        assert not point.implies(g, q)
        assert point.implies_execution(q, g)

    def test_meet_intersects_facts(self):
        # p ∦ q is only established on one branch arm — not valid at join
        func = Function("main", [])
        b = IRBuilder(func)
        entry = func.add_block("entry")
        arm = func.add_block("arm")
        join = func.add_block("join")
        p = func.new_pred()
        q = func.new_pred()
        b.at(entry)
        x = b.movi(3)
        b.pred_set(p, 1)
        b.pred_set(q, 1)
        b.br("lt", x, Imm(0), "join")
        b.at(arm)
        b.pred_def("lt", x, Imm(10), [p, q], ["ut", "uf"])
        b.at(join)
        b.ret(x)
        web = PredicateWeb(func)
        assert not web.at("arm", 0).disjoint(p, q)  # before the def
        assert web.at("arm", 1).disjoint(p, q)      # after it
        assert not web.at("join", 0).disjoint(p, q)

    def test_guard_merged_from_two_sites_bounds_no_single_site(self):
        # (p) p = ut(x < 1) at the join, where p is either a known-zero
        # pred_set or the arm's live define: the new value is a subset of
        # their union only, so the zero of the pred_set must not spread
        func = Function("main", [])
        b = IRBuilder(func)
        entry = func.add_block("entry")
        arm = func.add_block("arm")
        join = func.add_block("join")
        p = func.new_pred()
        b.at(entry)
        x = b.movi(0)
        b.pred_set(p, 0)
        b.br("lt", x, Imm(0), "join")
        b.at(arm)
        b.pred_def("lt", x, Imm(1), [p], ["ut"])
        b.at(join)
        b.pred_def("lt", x, Imm(1), [p], ["ut"], guard=p)
        b.ret(x)
        point = PredicateWeb(func).at("join", 1)
        sites = point.sites(p)
        assert not point.disjoint_sites(sites, sites)  # x = 0 leaves p = 1

    def test_redefinition_starts_new_web(self):
        # facts about the first web of p must not survive its replacement
        func, b, entry, body = _two_block_function()
        p = func.new_pred()
        q = func.new_pred()
        b.at(entry)
        x = b.movi(3)
        b.pred_def("lt", x, Imm(10), [p, q], ["ut", "uf"])
        b.pred_def("gt", x, Imm(5), [p], ["ut"])
        b.at(body)
        b.ret(x)
        web = PredicateWeb(func)
        assert not web.at("body", 0).disjoint(p, q)

    def test_site_pinning_across_redefinition(self):
        # the site set captured *before* p's redefinition keeps its facts
        # at later points of the same block walk
        func, b, entry, body = _two_block_function()
        p = func.new_pred()
        q = func.new_pred()
        b.at(entry)
        x = b.movi(3)
        b.pred_def("lt", x, Imm(10), [p, q], ["ut", "uf"])
        redef_index = len(entry.ops)
        b.pred_def("gt", x, Imm(5), [p], ["ut"])
        b.ret(x)
        web = PredicateWeb(func)
        points = web.points("entry")
        old_sites = points[redef_index].sites(p)
        later = points[redef_index + 1]
        assert later.disjoint_sites(old_sites, later.sites(q))
        assert not later.disjoint(p, q)


class TestPropertySoundness:
    @staticmethod
    def _value(env, operand):
        if isinstance(operand, Imm):
            return operand.value
        return env[operand]

    def _execute(self, func, param_values):
        """Interpret ``func``; yield (label, index, preds, written) at
        every point reached, including each block's exit point."""
        ints = dict(zip(func.params, param_values))
        preds: dict = {}
        written: set = set()
        label = func.entry.label
        for _ in range(1000):
            block = func.block(label)
            jump = None
            for index, op in enumerate(block.ops):
                yield label, index, preds, written
                if op.opcode is Opcode.PRED_SET:
                    if op.guard is None or preds.get(op.guard, 0):
                        preds[op.dests[0]] = 1 if op.srcs[0].value else 0
                        written.add(op.dests[0])
                elif op.opcode is Opcode.PRED_DEF:
                    g = 1 if op.guard is None else preds.get(op.guard, 0)
                    cond = _CMP[op.attrs["cmp"]](
                        self._value(ints, op.srcs[0]),
                        self._value(ints, op.srcs[1]))
                    for dest, ptype in zip(op.dests, op.attrs["ptypes"]):
                        update = pred_update(ptype, g, cond)
                        if update is not None:
                            preds[dest] = update
                            written.add(dest)
                elif op.opcode is Opcode.BR:
                    if _CMP[op.attrs["cmp"]](
                            self._value(ints, op.srcs[0]),
                            self._value(ints, op.srcs[1])):
                        jump = op.target
                        break
                elif op.opcode is Opcode.JUMP:
                    jump = op.target
                    break
                elif op.opcode is Opcode.RET:
                    yield label, index, preds, written
                    return
            else:
                yield label, len(block.ops), preds, written
            if jump is not None:
                label = jump
            else:  # fallthrough in layout order
                labels = [blk.label for blk in func.blocks]
                label = labels[labels.index(label) + 1]
        raise AssertionError("runaway execution")

    @settings(max_examples=60, deadline=None)
    @given(func=predicated_dag_function())
    def test_web_claims_hold_on_every_execution(self, func):
        web = PredicateWeb(func)
        pregs = sorted({r for block in func.blocks for op in block.ops
                        for r in [*op.dests, op.guard]
                        if r is not None and r.is_predicate},
                       key=repr)
        points = {block.label: web.points(block.label)
                  for block in func.blocks}
        assignments = [[]]
        for _ in func.params:
            assignments = [a + [v] for a in assignments
                           for v in PRED_PARAM_VALUES]
        for values in assignments:
            for label, index, preds, written in self._execute(func, values):
                point = points[label][index]
                for a in pregs:
                    if not point.possibly_undefined(a):
                        assert a in written, (label, index, a, values)
                    sa = point.sites(a)
                    if point.disjoint_sites(sa, sa):
                        assert not preds.get(a, 0), (label, index, a, values)
                    for b in pregs:
                        if a is b:
                            continue
                        if point.disjoint(a, b):
                            assert not (preds.get(a, 0) and preds.get(b, 0)), \
                                (label, index, a, b, values)
                        if point.implies(a, b):
                            assert (not preds.get(a, 0)) or preds.get(b, 0), \
                                (label, index, a, b, values)


class TestBuiltOnFirstQuery:
    """Promotion, partial dead-code sinking and ``pred-undef-web`` build
    a function's web only when they first query it."""

    @staticmethod
    def _built(monkeypatch, func):
        from repro.analysis.lint import lint_module, rules_pred
        from repro.ir import Module
        from repro.opt import dce
        from repro.predication import promotion

        built = []

        class CountedWeb(PredicateWeb):
            def __init__(self, func, cfg=None):
                built.append(func.name)
                super().__init__(func, cfg)

        for module in (rules_pred, dce, promotion):
            monkeypatch.setattr(module, "PredicateWeb", CountedWeb)
        module = Module("t")
        module.add_function(func)
        promotion.promote_function(func)
        dce.sink_partially_dead(func)
        lint_module(module, rule_ids=["pred-undef-web"])
        return built

    @staticmethod
    def _hyperblock(guarded: bool):
        func, b, entry, body = _two_block_function()
        entry.hyperblock = body.hyperblock = True
        p = func.new_pred()
        b.at(entry)
        x = b.movi(3)
        b.pred_def("lt", x, Imm(10), [p], ["ut"])
        y = b.add(x, Imm(1), guard=p if guarded else None)
        b.at(body)
        z = b.add(y, Imm(2), guard=p if guarded else None)
        b.ret(z)
        return func

    def test_no_guard_builds_no_web(self, monkeypatch):
        assert self._built(monkeypatch, self._hyperblock(False)) == []

    def test_one_web_per_querying_client(self, monkeypatch):
        # the lint rule queries both blocks of one web
        assert self._built(monkeypatch, self._hyperblock(True)) == ["main"]


class TestCloseOncePerWrite:
    """Facts change only at predicate writes, so the web closes a fact
    set only after one, and the result equals re-closing everywhere."""

    @staticmethod
    def _counting(monkeypatch):
        calls = []
        close = predweb_mod.close_pred_facts

        def counted(facts):
            calls.append(1)
            return close(facts)

        monkeypatch.setattr(predweb_mod, "close_pred_facts", counted)
        return calls

    def test_closures_at_most_one_per_predicate_write(self, monkeypatch):
        func = Function("main", [])
        b = IRBuilder(func)
        entry = func.add_block("entry")
        body = func.add_block("body")
        b.at(entry)
        x = b.movi(3)
        preds = [func.new_pred() for _ in range(3)]
        b.pred_set(preds[0], 0)
        for p, bound in zip(preds[1:], (5, 7)):
            y = b.add(x, Imm(1))
            b.pred_def("lt", y, Imm(bound), [p], ["ot"], guard=preds[0])
            b.add(y, Imm(2), guard=p)
        b.at(body)
        z = x
        for _ in range(6):
            z = b.add(z, Imm(1), guard=preds[1])
        b.ret(z)
        calls = self._counting(monkeypatch)
        web = PredicateWeb(func)
        # solving: only the entry block writes a predicate
        assert len(calls) == 1
        calls.clear()
        web.points("entry")
        assert len(calls) <= 3  # one pred_set + two pred_defs
        calls.clear()
        web.points("body")
        assert calls == []
        assert web_snapshot(web) == web_snapshot(ReferenceWeb(func))

    def _assert_pipeline_webs_match_reference(self, monkeypatch, compile_all):
        """Every web a pass or lint rule builds during ``compile_all``
        equals the reference at every point, when it is built."""
        from repro.analysis.lint import rules_pred
        from repro.memo import clear_caches
        from repro.opt import dce
        from repro.predication import promotion

        checked = []

        def checked_web(builder: str):
            class CheckedWeb(PredicateWeb):
                def __init__(self, func, cfg=None):
                    super().__init__(func, cfg)
                    assert web_snapshot(self) == web_snapshot(
                        ReferenceWeb(func, self.cfg)), func.name
                    checked.append((builder, func.name))
            return CheckedWeb

        for module in (rules_pred, dce, promotion):
            monkeypatch.setattr(module, "PredicateWeb",
                                checked_web(module.__name__))
        clear_caches()
        try:
            compile_all()
        finally:
            clear_caches()
        assert checked, "no predicate web was built"
        return {builder for builder, _func in checked}

    def test_fuzz_corpus_webs_match_reference(self, monkeypatch):
        from repro import pipeline
        from repro.analysis.lint import all_rules
        from repro.fuzz.corpus import Corpus
        from repro.fuzz.oracle import check_program

        # on these programs the webs come from the predicate-web lint
        # rules, which are warnings that checked mode does not run: have
        # it run every rule after each pass and over each schedule
        monkeypatch.setattr(pipeline, "_error_rules", lambda phases: [
            r for r in all_rules() if r.phase in phases])

        def compile_all():
            for entry in Corpus(CORPUS_DIR).entries():
                assert check_program(entry.source).ok, entry.id

        self._assert_pipeline_webs_match_reference(monkeypatch, compile_all)

    #: fuzz generator seeds whose checked aggressive compile builds a web
    #: in both ``sink_partially_dead`` and ``promote_function``: of seeds
    #: 0-199, 99 build one in promotion and only these three in both
    WEB_SEEDS = (140, 162, 184)

    def test_generated_program_webs_match_reference(self, monkeypatch):
        """The passes' own webs on generated programs, with no warning
        lint rule enabled: the regression corpus builds none there."""
        from repro.frontend import compile_source
        from repro.fuzz.gen import generate_source
        from repro.pipeline import compile_aggressive

        def compile_all():
            for seed in self.WEB_SEEDS:
                compile_aggressive(compile_source(generate_source(seed)),
                                   buffer_capacity=64, checked=True)

        builders = self._assert_pipeline_webs_match_reference(
            monkeypatch, compile_all)
        assert builders == {"repro.opt.dce", "repro.predication.promotion"}

    @pytest.mark.parametrize("name", ["adpcm_enc", "g724_dec"])
    def test_benchmark_webs_match_reference(self, monkeypatch, name):
        from repro.bench import benchmark
        from repro.pipeline import COMPILERS

        def compile_all():
            bench = benchmark(name)
            for compile_ in COMPILERS.values():
                compile_(bench.build(), entry=bench.entry, args=bench.args,
                         buffer_capacity=64, checked=True)

        self._assert_pipeline_webs_match_reference(monkeypatch, compile_all)
