"""Structural verification of IR invariants.

Run after every transformation in tests; catches dangling branch targets,
malformed terminators, undefined callees, and operand-shape mistakes early,
which is what makes the aggressive transforms in :mod:`repro.looptrans` and
:mod:`repro.predication` safe to compose.
"""

from __future__ import annotations

from typing import Collection

from .function import Function
from .module import Module
from .opcodes import Opcode
from .printer import op_location
from .registers import GlobalRef, Label, VReg


class VerificationError(Exception):
    """The IR violates a structural invariant."""


_SRC_COUNTS = {
    Opcode.ADD: 2, Opcode.SUB: 2, Opcode.AND: 2, Opcode.OR: 2, Opcode.XOR: 2,
    Opcode.SHL: 2, Opcode.SHR: 2, Opcode.SAR: 2, Opcode.MIN: 2, Opcode.MAX: 2,
    Opcode.SADD: 2, Opcode.SSUB: 2, Opcode.SAT: 2, Opcode.MUL: 2,
    Opcode.MULH: 2, Opcode.DIV: 2, Opcode.REM: 2, Opcode.CMP: 2,
    Opcode.NEG: 1, Opcode.NOT: 1, Opcode.MOV: 1, Opcode.ABS: 1,
    Opcode.CLIP: 3, Opcode.SELECT: 3,
    Opcode.FADD: 2, Opcode.FSUB: 2, Opcode.FMUL: 2, Opcode.FDIV: 2,
    Opcode.FCMP: 2, Opcode.ITOF: 1, Opcode.FTOI: 1, Opcode.FMOV: 1,
    Opcode.LD: 2, Opcode.ST: 3,
    Opcode.JUMP: 0, Opcode.BR: 2, Opcode.BR_CLOOP: 0, Opcode.BR_WLOOP: 2,
    Opcode.CLOOP_SET: 1, Opcode.PRED_DEF: 2, Opcode.PRED_SET: 1,
    Opcode.NOP: 0,
}

_NEEDS_TARGET = {Opcode.JUMP, Opcode.BR, Opcode.BR_CLOOP, Opcode.BR_WLOOP}


def verify_function(func: Function, module: Module | None = None,
                    allow_unreachable: bool = False) -> None:
    """Raise :class:`VerificationError` on any structural violation.

    ``allow_unreachable`` skips the unreachable-block check; checked mode
    verifies after *every* pass, and transforms like peeling legitimately
    strand remnant blocks that a later ``simplify_cfg`` sweeps away.
    """
    if not func.blocks:
        raise VerificationError(f"{func.name}: function has no blocks")
    labels = {block.label for block in func.blocks}
    if len(labels) != len(func.blocks):
        raise VerificationError(f"{func.name}: duplicate block labels")

    for block in func.blocks:
        for index, op in enumerate(block.ops):
            problem = _op_problem(op, labels, module)
            if problem is not None:
                # located and rendered only on failure: a clean function
                # never formats an op
                raise VerificationError(
                    f"{op_location(func.name, block.label, index)}: "
                    f"{op!r}: {problem}")

    # Every block must be terminated or able to fall through to a real block.
    last = func.blocks[-1]
    if last.falls_through:
        raise VerificationError(
            f"{func.name}: final block {last.label!r} falls off the function"
        )

    if not allow_unreachable:
        unreachable = labels - _reachable_labels(func)
        if unreachable:
            raise VerificationError(
                f"{func.name}: blocks unreachable from entry: "
                f"{', '.join(sorted(unreachable))}"
            )


def _op_problem(op, labels: set[str], module: Module | None) -> str | None:
    """What is structurally wrong with ``op``, or ``None``."""
    expected = _SRC_COUNTS.get(op.opcode)
    if expected is not None and len(op.srcs) != expected:
        return f"expected {expected} sources, got {len(op.srcs)}"
    if op.opcode in _NEEDS_TARGET:
        target = op.target
        if target is None:
            return "branch lacks a target"
        if target not in labels:
            return f"dangling target {target!r}"
    if op.opcode == Opcode.RET and len(op.srcs) > 1:
        return "ret takes at most one source"
    if op.opcode == Opcode.CALL:
        callee = op.attrs.get("callee")
        if callee is None:
            return "call lacks a callee"
        if module is not None and callee not in module.functions:
            return f"unknown callee {callee!r}"
        if len(op.dests) > 1:
            return "call has multiple dests"
    if op.opcode == Opcode.ST and op.dests:
        return "store must not have dests"
    if op.opcode == Opcode.LD and len(op.dests) != 1:
        return "load needs exactly one dest"
    for src in op.srcs:
        if isinstance(src, Label):
            return "labels belong in attrs['target'], not srcs"
        if isinstance(src, GlobalRef) and module is not None:
            if src.name not in module.globals:
                return f"unknown global {src.name!r}"
    if op.opcode == Opcode.PRED_SET and not op.dests[0].is_predicate:
        return "pred_set dest must be predicate"
    if op.opcode == Opcode.PRED_DEF:
        for dst in op.dests:
            if not dst.is_predicate:
                return "pred_def dests must be predicates"
    if op.opcode not in (Opcode.PRED_DEF, Opcode.PRED_SET):
        for dst in op.dests:
            if isinstance(dst, VReg) and dst.is_predicate:
                return "only predicate ops may write predicates"
    return None


def _reachable_labels(func: Function) -> set[str]:
    seen: set[str] = set()
    stack = [func.entry.label]
    while stack:
        label = stack.pop()
        if label in seen:
            continue
        seen.add(label)
        stack.extend(func.successors(func.block(label)))
    return seen


def verify_module(module: Module, allow_unreachable: bool = False,
                  functions: Collection[str] | None = None) -> None:
    """Verify every function, in module order; ``functions`` narrows the
    sweep to the named ones (callee and global names are still checked
    against the whole module)."""
    for func in module.functions.values():
        if functions is None or func.name in functions:
            verify_function(func, module, allow_unreachable=allow_unreachable)
