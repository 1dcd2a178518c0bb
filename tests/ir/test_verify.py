"""Unit tests for the IR structural verifier."""

import pytest

from repro.ir import (
    Function,
    IRBuilder,
    Imm,
    Label,
    Module,
    Opcode,
    Operation,
    VerificationError,
    ireg,
    preg,
    verify_function,
    verify_module,
)

from tests.helpers import build_counting_loop, build_if_diamond


def test_good_modules_verify():
    verify_module(build_counting_loop(4))
    verify_module(build_if_diamond())


def test_empty_function_rejected():
    with pytest.raises(VerificationError):
        verify_function(Function("f"))


def test_dangling_branch_target():
    module = build_counting_loop(4)
    func = module.function("main")
    func.block("body").ops[-1].attrs["target"] = "nowhere"
    with pytest.raises(VerificationError, match="dangling"):
        verify_function(func)


def test_wrong_source_count():
    func = Function("f")
    blk = func.add_block("entry")
    blk.append(Operation(Opcode.ADD, [ireg(0)], [Imm(1)]))
    blk.append(Operation(Opcode.RET))
    with pytest.raises(VerificationError, match="sources"):
        verify_function(func)


def test_final_block_must_not_fall_off():
    func = Function("f")
    blk = func.add_block("entry")
    blk.append(Operation(Opcode.ADD, [ireg(0)], [Imm(1), Imm(2)]))
    with pytest.raises(VerificationError, match="falls off"):
        verify_function(func)


def test_unknown_callee_detected():
    module = Module()
    func = Function("main")
    module.add_function(func)
    b = IRBuilder(func, func.add_block("entry"))
    b.call("missing", [])
    b.ret()
    with pytest.raises(VerificationError, match="unknown callee"):
        verify_module(module)


def test_label_in_srcs_rejected():
    func = Function("f")
    blk = func.add_block("entry")
    blk.append(Operation(Opcode.MOV, [ireg(0)], [Label("entry")]))
    blk.append(Operation(Opcode.RET))
    with pytest.raises(VerificationError, match="labels belong"):
        verify_function(func)


def test_unknown_global_detected():
    from repro.ir import GlobalRef

    module = Module()
    func = Function("main")
    module.add_function(func)
    b = IRBuilder(func, func.add_block("entry"))
    b.mov(GlobalRef("ghost"))
    b.ret()
    with pytest.raises(VerificationError, match="unknown global"):
        verify_module(module)


def test_only_pred_ops_write_predicates():
    func = Function("f")
    blk = func.add_block("entry")
    blk.append(Operation(Opcode.MOV, [preg(0)], [Imm(1)]))
    blk.append(Operation(Opcode.RET))
    with pytest.raises(VerificationError, match="predicate"):
        verify_function(func)


def test_store_with_dest_rejected():
    func = Function("f")
    blk = func.add_block("entry")
    op = Operation(Opcode.ST, [], [ireg(0), Imm(0), ireg(1)])
    op.dests = [ireg(2)]
    blk.append(op)
    blk.append(Operation(Opcode.RET))
    with pytest.raises(VerificationError, match="store"):
        verify_function(func)


def test_pred_def_dests_must_be_predicates():
    func = Function("f")
    blk = func.add_block("entry")
    op = Operation(Opcode.PRED_DEF, [preg(0)], [ireg(0), Imm(1)],
                   attrs={"cmp": "lt", "ptypes": ["ut"]})
    op.dests = [ireg(3)]  # bypass the constructor's own check
    blk.append(op)
    blk.append(Operation(Opcode.RET))
    with pytest.raises(VerificationError, match="pred_def dests"):
        verify_function(func)


def test_unreachable_block_rejected():
    func = Function("f")
    b = IRBuilder(func, func.add_block("entry"))
    b.ret(Imm(0))
    b.at(func.add_block("orphan"))
    b.ret(Imm(1))
    with pytest.raises(VerificationError, match="unreachable"):
        verify_function(func)


def test_allow_unreachable_skips_the_check():
    func = Function("f")
    b = IRBuilder(func, func.add_block("entry"))
    b.ret(Imm(0))
    b.at(func.add_block("orphan"))
    b.ret(Imm(1))
    verify_function(func, allow_unreachable=True)
    module = Module()
    module.add_function(func)
    verify_module(module, allow_unreachable=True)
    with pytest.raises(VerificationError):
        verify_module(module)


def test_errors_carry_op_locations():
    module = build_counting_loop(4)
    func = module.function("main")
    func.block("body").ops[-1].attrs["target"] = "nowhere"
    with pytest.raises(VerificationError, match="main/body#2"):
        verify_function(func)


def test_duplicate_labels_detected():
    func = Function("f")
    func.add_block("a")
    blk = func.blocks[0]
    # bypass add_block's own check
    import copy

    dup = copy.copy(blk)
    func.blocks.append(dup)
    with pytest.raises(VerificationError, match="duplicate"):
        verify_function(func)


def test_error_messages_keep_their_text():
    module = build_counting_loop(4)
    func = module.function("main")
    func.block("body").ops[-1].attrs["target"] = "nowhere"
    with pytest.raises(VerificationError) as excinfo:
        verify_function(func)
    assert str(excinfo.value) == (
        "main/body#2: br.lt i0, 4 -> nowhere: dangling target 'nowhere'")

    func = Function("f")
    blk = func.add_block("entry")
    blk.append(Operation(Opcode.ADD, [ireg(0)], [Imm(1)]))
    blk.append(Operation(Opcode.RET))
    with pytest.raises(VerificationError) as excinfo:
        verify_function(func)
    assert str(excinfo.value) == "f/entry#0: add i0 = 1: expected 2 sources, got 1"


def test_clean_function_renders_no_op(monkeypatch):
    calls = []
    real = Operation.__repr__

    def counting(op):
        calls.append(op)
        return real(op)

    monkeypatch.setattr(Operation, "__repr__", counting)
    verify_module(build_counting_loop(4))
    verify_module(build_if_diamond())
    assert calls == []
    # and a failing one still renders the op it names
    func = build_counting_loop(4).function("main")
    func.block("body").ops[-1].attrs["target"] = "nowhere"
    with pytest.raises(VerificationError):
        verify_function(func)
    assert len(calls) == 1
