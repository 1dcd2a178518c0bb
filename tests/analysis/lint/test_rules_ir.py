"""One deliberately-broken fixture per IR-phase lint rule.

Each test builds the smallest program that violates exactly the rule under
test and asserts the diagnostic carries that rule's id, so a rule rename or
a silently-dead rule fails loudly.
"""

from repro.analysis.lint import Severity, lint_module
from repro.ir import Function, Imm, IRBuilder, Module, ireg, preg
from repro.predication.slots import SLOTS_PER_DEFINE

from tests.helpers import build_counting_loop, build_if_diamond


def _module_of(func: Function) -> Module:
    module = Module("t")
    module.add_function(func)
    return module


def _rules_fired(module: Module, rule_id: str | None = None):
    diags = lint_module(module,
                        rule_ids=[rule_id] if rule_id is not None else None)
    return diags


def test_clean_modules_lint_clean():
    for module in (build_counting_loop(4), build_if_diamond()):
        assert lint_module(module) == []


def test_use_before_def():
    func = Function("f")
    b = IRBuilder(func, func.add_block("entry"))
    b.add(ireg(7), Imm(1))
    b.ret()
    diags = _rules_fired(_module_of(func), "use-before-def")
    assert [d.rule for d in diags] == ["use-before-def"]
    assert diags[0].severity is Severity.ERROR
    assert diags[0].location == "f/entry#0"


def test_undef_guard_owns_guard_reads():
    func = Function("f")
    b = IRBuilder(func, func.add_block("entry"))
    b.movi(1, guard=preg(3))
    b.ret()
    module = _module_of(func)
    diags = _rules_fired(module, "undef-guard")
    assert [d.rule for d in diags] == ["undef-guard"]
    # the guard read belongs to undef-guard, not use-before-def
    assert _rules_fired(module, "use-before-def") == []


def test_undefined_reads_computed_once_per_function(monkeypatch):
    """``use-before-def`` and ``undef-guard`` share one must-defined
    analysis per function per lint run."""
    from repro.analysis.lint import engine

    func = Function("f")
    b = IRBuilder(func, func.add_block("entry"))
    b.add(ireg(7), Imm(1))
    b.movi(1, guard=preg(3))
    b.ret()
    module = _module_of(func)
    real = engine.undefined_reads
    calls = []

    def counted(fn):
        calls.append(fn.name)
        return real(fn)

    monkeypatch.setattr(engine, "undefined_reads", counted)
    diags = lint_module(module, rule_ids=["use-before-def", "undef-guard"])
    assert [d.rule for d in diags] == ["use-before-def", "undef-guard"]
    assert calls == ["f"]


def test_dead_pred_def():
    func = Function("f", [ireg(0)])
    b = IRBuilder(func, func.add_block("entry"))
    b.pred_def("lt", ireg(0), Imm(4), [preg(0)], ["ut"])
    b.ret(ireg(0))
    diags = _rules_fired(_module_of(func), "dead-pred-def")
    assert [d.rule for d in diags] == ["dead-pred-def"]
    assert diags[0].severity is Severity.WARNING


def test_psens_unguarded():
    func = Function("f", [ireg(0)])
    b = IRBuilder(func, func.add_block("entry"))
    b.add(ireg(0), Imm(1))
    func.block("entry").ops[-1].attrs["psens"] = True
    b.ret(ireg(0))
    diags = _rules_fired(_module_of(func), "psens-unguarded")
    assert [d.rule for d in diags] == ["psens-unguarded"]


def test_slot_route_shape_non_define():
    func = Function("f", [ireg(0)])
    b = IRBuilder(func, func.add_block("entry"))
    b.add(ireg(0), Imm(1))
    func.block("entry").ops[-1].attrs["slot_route"] = {repr(ireg(0)): [0]}
    b.ret(ireg(0))
    diags = _rules_fired(_module_of(func), "slot-route-shape")
    assert diags and all(d.rule == "slot-route-shape" for d in diags)


def test_slot_route_shape_bad_key_and_slot():
    func = Function("f", [ireg(0)])
    b = IRBuilder(func, func.add_block("entry"))
    op = b.pred_def("lt", ireg(0), Imm(4), [preg(0)], ["ut"])
    op.attrs["slot_route"] = {repr(preg(9)): [99]}
    b.movi(1, guard=preg(0))
    b.ret(ireg(0))
    diags = _rules_fired(_module_of(func), "slot-route-shape")
    messages = " | ".join(d.message for d in diags)
    assert "not one of its destinations" in messages
    assert "slot 99" in messages


def test_slot_route_width():
    func = Function("f", [ireg(0)])
    b = IRBuilder(func, func.add_block("entry"))
    op = b.pred_def("lt", ireg(0), Imm(4), [preg(0)], ["ut"])
    op.attrs["slot_route"] = {
        repr(preg(0)): list(range(SLOTS_PER_DEFINE + 1))
    }
    b.movi(1, guard=preg(0))
    b.ret(ireg(0))
    diags = _rules_fired(_module_of(func), "slot-route-width")
    assert [d.rule for d in diags] == ["slot-route-width"]
    assert diags[0].severity is Severity.WARNING


def test_unreachable_block():
    func = Function("f")
    b = IRBuilder(func, func.add_block("entry"))
    b.ret(Imm(0))
    dead = func.add_block("dead")
    b.at(dead)
    b.ret(Imm(1))
    diags = _rules_fired(_module_of(func), "unreachable-block")
    assert [d.rule for d in diags] == ["unreachable-block"]
    assert diags[0].block == "dead"
