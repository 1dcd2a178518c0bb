"""A fluent builder for constructing IR by hand (lowering, transforms, tests).

The builder tracks a current insertion block; every ``emit_*`` method
appends one operation and returns its destination register (or the
operation itself for control flow), so straight-line code reads naturally::

    b = IRBuilder(func, func.add_block("entry"))
    total = b.emit(Opcode.ADD, b.reg(), [x, Imm(1)])
    b.br("lt", total, Imm(10), "loop")
"""

from __future__ import annotations

from typing import Any

from .block import BasicBlock
from .function import Function
from .opcodes import Opcode
from .operation import Operation
from .registers import INT, Imm, Operand, VReg


class IRBuilder:
    """Appends operations to a current block of ``func``."""

    def __init__(self, func: Function, block: BasicBlock | None = None) -> None:
        self.func = func
        self.block = block

    def at(self, block: BasicBlock) -> "IRBuilder":
        """Move the insertion point to ``block``."""
        self.block = block
        return self

    def reg(self, kind: str = INT) -> VReg:
        return self.func.new_reg(kind)

    # -- generic emission --------------------------------------------------------

    def emit_op(
        self,
        opcode: Opcode,
        dests: list[VReg] | None = None,
        srcs: list[Operand] | None = None,
        guard: VReg | None = None,
        **attrs: Any,
    ) -> Operation:
        if self.block is None:
            raise RuntimeError("builder has no current block")
        op = Operation(opcode, dests, srcs, guard, attrs)
        self.block.append(op)
        return op

    def emit(
        self,
        opcode: Opcode,
        srcs: list[Operand],
        dest: VReg | None = None,
        guard: VReg | None = None,
        **attrs: Any,
    ) -> VReg:
        """Emit a single-destination op; allocates the dest if not given."""
        if dest is None:
            dest = self.reg()
        self.emit_op(opcode, [dest], srcs, guard, **attrs)
        return dest

    # -- common shorthands ----------------------------------------------------------

    def mov(self, src: Operand, dest: VReg | None = None, guard: VReg | None = None) -> VReg:
        return self.emit(Opcode.MOV, [src], dest, guard)

    def movi(self, value: int, dest: VReg | None = None, guard: VReg | None = None) -> VReg:
        return self.emit(Opcode.MOV, [Imm(value)], dest, guard)

    def add(self, a: Operand, b: Operand, dest: VReg | None = None, guard: VReg | None = None) -> VReg:
        return self.emit(Opcode.ADD, [a, b], dest, guard)

    def sub(self, a: Operand, b: Operand, dest: VReg | None = None, guard: VReg | None = None) -> VReg:
        return self.emit(Opcode.SUB, [a, b], dest, guard)

    def mul(self, a: Operand, b: Operand, dest: VReg | None = None, guard: VReg | None = None) -> VReg:
        return self.emit(Opcode.MUL, [a, b], dest, guard)

    def cmp(self, test: str, a: Operand, b: Operand, dest: VReg | None = None,
            guard: VReg | None = None) -> VReg:
        return self.emit(Opcode.CMP, [a, b], dest, guard, cmp=test)

    def load(self, base: Operand, offset: Operand | int = 0, dest: VReg | None = None,
             guard: VReg | None = None) -> VReg:
        if isinstance(offset, int):
            offset = Imm(offset)
        return self.emit(Opcode.LD, [base, offset], dest, guard)

    def store(self, base: Operand, offset: Operand | int, value: Operand,
              guard: VReg | None = None) -> Operation:
        if isinstance(offset, int):
            offset = Imm(offset)
        return self.emit_op(Opcode.ST, [], [base, offset, value], guard)

    # -- control flow -----------------------------------------------------------------

    def jump(self, target: str, guard: VReg | None = None) -> Operation:
        return self.emit_op(Opcode.JUMP, [], [], guard, target=target)

    def br(self, test: str, a: Operand, b: Operand, target: str,
           guard: VReg | None = None) -> Operation:
        return self.emit_op(Opcode.BR, [], [a, b], guard, cmp=test, target=target)

    def ret(self, value: Operand | None = None) -> Operation:
        srcs = [] if value is None else [value]
        return self.emit_op(Opcode.RET, [], srcs)

    def call(self, callee: str, args: list[Operand], dest: VReg | None = None,
             guard: VReg | None = None) -> VReg | None:
        dests = [dest] if dest is not None else []
        self.emit_op(Opcode.CALL, dests, args, guard, callee=callee)
        return dest

    # -- predication --------------------------------------------------------------------

    def pred_def(
        self,
        cmp: str,
        a: Operand,
        b: Operand,
        dests: list[VReg],
        ptypes: list[str],
        guard: VReg | None = None,
    ) -> Operation:
        return self.emit_op(
            Opcode.PRED_DEF, dests, [a, b], guard, cmp=cmp, ptypes=list(ptypes)
        )

    def pred_set(self, dest: VReg, value: int, guard: VReg | None = None) -> Operation:
        return self.emit_op(Opcode.PRED_SET, [dest], [Imm(value)], guard)
