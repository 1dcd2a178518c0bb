"""Liveness analysis, predicate-aware.

The twist relative to textbook liveness is conditional writes: a *guarded*
operation may be nullified, so its destinations are not killed along all
paths; similarly or-/and-/conditional-type predicate defines update their
destination only sometimes.  Only *unconditional* writes (unguarded ops,
and the ``ut``/``uf`` destinations of predicate defines, which Table 2
updates regardless of guard value) enter the kill set.

The fixpoint is an instance of the generic worklist engine
(:mod:`repro.analysis.dataflow`): a backward may-problem whose meet is
set union.  The per-block transfer walks operations rather than using a
use/def summary because hyperblocks contain *mid-block side exits* — a
kill below such an exit must not mask liveness on the exit path, so the
exit target's live-in is unioned back in at the branch position (the
transfer peeks at other blocks' outputs; the engine re-arms us when they
move).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.opcodes import Opcode
from repro.ir.operation import Operation
from repro.ir.preddef import always_writes
from repro.ir.registers import VReg

from .cfgview import CFGView
from .dataflow import BACKWARD, DataflowProblem, DataflowResult, solve


def op_unconditional_writes(op: Operation) -> list[VReg]:
    """Destinations that are written on *every* execution of ``op``."""
    if op.opcode == Opcode.PRED_DEF:
        return [
            dst
            for dst, ptype in zip(op.dests, op.attrs["ptypes"])
            if always_writes(ptype)
        ]
    if op.guard is not None:
        return []
    return list(op.dests)


@dataclass
class LivenessInfo:
    """Per-block live-in/out sets."""

    live_in: dict[str, set[VReg]] = field(default_factory=dict)
    live_out: dict[str, set[VReg]] = field(default_factory=dict)


class _LivenessProblem(DataflowProblem):
    """Backward may-liveness: input = live-out, output = live-in."""

    direction = BACKWARD
    name = "liveness"

    def __init__(self, func: Function) -> None:
        self.func = func

    def boundary(self) -> set[VReg]:
        return set()

    def meet(self, values: list[set[VReg]]) -> set[VReg]:
        out: set[VReg] = set()
        for value in values:
            out |= value
        return out

    def transfer(self, label: str, value: set[VReg],
                 result: DataflowResult) -> set[VReg]:
        return _transfer(self.func, self.func.block(label), value,
                         result.output)


def liveness(func: Function, cfg: CFGView | None = None) -> LivenessInfo:
    """Backward may-liveness over the CFG."""
    if cfg is None:
        cfg = CFGView(func)
    result = solve(_LivenessProblem(func), cfg)
    return LivenessInfo(
        live_in={label: result.output.get(label, set())
                 for label in cfg.nodes},
        live_out={label: result.input.get(label, set())
                  for label in cfg.nodes},
    )


def _transfer(
    func: Function,
    block: BasicBlock,
    live_out: set[VReg],
    live_in_map: dict[str, set[VReg]],
) -> set[VReg]:
    """Backward per-op transfer with side-exit revival."""
    live = set(live_out)
    for op in reversed(block.ops):
        if (op.is_branch and op.target is not None
                and func.has_block(op.target)):
            live |= live_in_map.get(op.target, set())
        live -= set(op_unconditional_writes(op))
        live |= set(op.reads())
    return live


def per_op_live_out(
    block: BasicBlock, exit_live: set[VReg]
) -> list[set[VReg]]:
    """Live-after sets for each operation of a straight-line block.

    ``exit_live`` is the set live at the block's end (from
    :func:`liveness`).  Side exits are *not* folded in here — callers that
    care (scheduling across hyperblock side exits) union in the live-in of
    each exit target separately.
    """
    live = set(exit_live)
    result: list[set[VReg]] = [set()] * len(block.ops)
    for i in range(len(block.ops) - 1, -1, -1):
        op = block.ops[i]
        result[i] = set(live)
        live -= set(op_unconditional_writes(op))
        live |= set(op.reads())
    return result


def max_register_pressure(
    func: Function, kind: str, info: LivenessInfo | None = None
) -> int:
    """Maximum simultaneously-live registers of class ``kind`` at any point."""
    if info is None:
        info = liveness(func)
    peak = 0
    for block in func.blocks:
        exit_live = {r for r in info.live_out[block.label] if r.kind == kind}
        live = set(exit_live)
        peak = max(peak, len(live))
        for op in reversed(block.ops):
            live -= {r for r in op_unconditional_writes(op) if r.kind == kind}
            live |= {r for r in op.reads() if r.kind == kind}
            peak = max(peak, len(live))
    return peak
