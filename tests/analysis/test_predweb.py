"""Unit and property tests for the global predicate web analysis.

The property test enumerates every parameter assignment of a small
generated DAG function, interprets it concretely, and checks each claim
the web makes at each executed program point — predicate-pair
disjointness, implication and definedness must hold on every execution.
"""

from hypothesis import given, settings

from repro.analysis.predweb import UNDEF, PredicateWeb
from repro.ir import Function, Imm, IRBuilder, Opcode, preg
from repro.ir.preddef import pred_update

from tests.strategies import PRED_PARAM_VALUES, predicated_dag_function

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
