"""Functional (architecture-independent) IR interpreter.

Serves two roles from the paper's methodology:

1. **Profiling** — executes a training input and fills a
   :class:`~repro.analysis.profile.Profile` with block, edge and branch
   frequencies that drive hyperblock formation, inlining, the loop
   transformations and loop-buffer assignment.
2. **Correctness oracle** — the transforms are semantics-preserving, so the
   architectural results (memory contents, return value) of transformed code
   must equal those of the original; integration tests compare interpreter
   runs before and after each pipeline stage.

The interpreter executes operations in block order with full predicate
semantics (Table 2), so predicated and branching code are both handled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.profile import Profile
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.opcodes import Opcode
from repro.ir.operation import Operation
from repro.ir.preddef import pred_update
from repro.ir.registers import FImm, GlobalRef, Imm, VReg
from repro.sim.memory import Loader, Memory
from repro.sim.values import cdiv, compare, crem, saturate, wrap32


class SimError(Exception):
    """A runtime fault in simulated code (bad address, div-by-zero, ...)."""


class StepLimitExceeded(SimError):
    """The step budget ran out (probable infinite loop in test code)."""


@dataclass
class RunResult:
    """Outcome of one interpreted execution."""

    value: int | float | None
    steps: int
    memory: Memory
    loader: Loader
    profile: Profile | None = None
    #: the run's :class:`~repro.sim.replay.PassTrace` when it was recorded
    pass_trace: object | None = None


@dataclass
class _Frame:
    func: Function
    regs: dict[VReg, int | float] = field(default_factory=dict)
    lc: dict[str, int] = field(default_factory=dict)


class Interpreter:
    """Executes a module starting from a named entry function."""

    def __init__(
        self,
        module: Module,
        profile: Profile | None = None,
        max_steps: int = 200_000_000,
    ) -> None:
        self.module = module
        self.profile = profile
        self.max_steps = max_steps
        self.loader = Loader(module)
        self.memory = self.loader.memory
        self.steps = 0

    # -- public API -------------------------------------------------------------

    def run(self, entry: str, args: list[int] | None = None) -> RunResult:
        func = self.module.function(entry)
        try:
            value = self._call(func, list(args or []))
        except BaseException:
            if self.profile is not None:
                self.profile.incomplete = True
            raise
        return RunResult(value, self.steps, self.memory, self.loader, self.profile)

    # -- execution ---------------------------------------------------------------

    def _call(self, func: Function, args: list[int | float]) -> int | float | None:
        if len(args) != len(func.params):
            raise SimError(
                f"{func.name}: expected {len(func.params)} args, got {len(args)}"
            )
        frame = _Frame(func)
        for param, arg in zip(func.params, args):
            frame.regs[param] = arg
        if func.frame_words:
            base = self.loader.push_frame(func.frame_words)
            if func.frame_base is not None:
                frame.regs[func.frame_base] = base
        if self.profile is not None:
            self.profile.enter_function(func.name)
        try:
            return self._run_frame(frame)
        finally:
            if func.frame_words:
                self.loader.pop_frame(func.frame_words)

    def _run_frame(self, frame: _Frame) -> int | float | None:
        func = frame.func
        block = func.entry
        while True:
            if self.profile is not None:
                self.profile.enter_block(func.name, block.label)
            transfer = self._run_block(frame, block)
            if transfer is None:
                # fallthrough to the next block in layout order
                idx = func.blocks.index(block)
                if idx + 1 >= len(func.blocks):
                    raise SimError(
                        f"{func.name}: fell off the end at {block.label}"
                    )
                nxt = func.blocks[idx + 1]
                self._edge(func.name, block.label, nxt.label)
                block = nxt
                continue
            kind, payload = transfer
            if kind == "ret":
                return payload
            assert kind == "jump"
            self._edge(func.name, block.label, payload)
            block = func.block(payload)

    def _edge(self, func: str, src: str, dst: str) -> None:
        if self.profile is not None:
            self.profile.traverse_edge(func, src, dst)

    def _run_block(self, frame: _Frame, block) -> tuple[str, object] | None:
        """Execute a block; returns a transfer ('jump', label) / ('ret', value)
        or ``None`` for fallthrough."""
        func = frame.func
        for op in block.ops:
            self.steps += 1
            if self.steps > self.max_steps:
                raise StepLimitExceeded(f"exceeded {self.max_steps} steps")
            if self.profile is not None and op.opcode != Opcode.NOP:
                self.profile.record_op(func.name, op.uid)
            guard_ok = True
            if op.guard is not None:
                guard_ok = bool(frame.regs.get(op.guard, 0))
            if op.opcode == Opcode.PRED_DEF:
                self._exec_pred_def(frame, op, guard_ok)
                continue
            if not guard_ok:
                continue
            transfer = self._exec_op(frame, op)
            if transfer is not None:
                if transfer[0] == "jump" and self.profile is not None:
                    if op.is_conditional_branch:
                        self.profile.record_taken(func.name, op.uid)
                return transfer
        return None

    # -- operand evaluation ----------------------------------------------------------

    def _val(self, frame: _Frame, src) -> int | float:
        if isinstance(src, VReg):
            return frame.regs.get(src, 0)
        if isinstance(src, Imm):
            return src.value
        if isinstance(src, FImm):
            return src.value
        if isinstance(src, GlobalRef):
            return self.loader.global_addr(src.name)
        raise SimError(f"cannot evaluate operand {src!r}")

    # -- op execution -------------------------------------------------------------------

    def _exec_pred_def(self, frame: _Frame, op: Operation, guard_ok: bool) -> None:
        a = self._val(frame, op.srcs[0])
        b = self._val(frame, op.srcs[1])
        cond = compare(op.attrs["cmp"], a, b)
        for dest, ptype in zip(op.dests, op.attrs["ptypes"]):
            update = pred_update(ptype, 1 if guard_ok else 0, cond)
            if update is not None:
                frame.regs[dest] = update

    def _exec_op(self, frame: _Frame, op: Operation):  # noqa: C901
        code = op.opcode
        regs = frame.regs
        val = lambda i: self._val(frame, op.srcs[i])  # noqa: E731

        if code == Opcode.NOP:
            return None

        # control
        if code == Opcode.JUMP:
            return ("jump", op.target)
        if code in (Opcode.BR, Opcode.BR_WLOOP):
            if compare(op.attrs["cmp"], val(0), val(1)):
                return ("jump", op.target)
            return None
        if code == Opcode.CLOOP_SET:
            frame.lc[op.attrs["lc"]] = int(val(0))
            return None
        if code == Opcode.BR_CLOOP:
            lc_id = op.attrs["lc"]
            count = frame.lc.get(lc_id, 0) - 1
            frame.lc[lc_id] = count
            if count > 0:
                return ("jump", op.target)
            return None
        if code in (Opcode.REC_CLOOP, Opcode.EXEC_CLOOP):
            # fetch directives; functionally they (re)load the loop counter
            if op.srcs:
                frame.lc[op.attrs["lc"]] = int(val(0))
            return None
        if code in (Opcode.REC_WLOOP, Opcode.EXEC_WLOOP):
            return None
        if code == Opcode.RET:
            return ("ret", val(0) if op.srcs else None)
        if code == Opcode.CALL:
            callee = self.module.function(op.attrs["callee"])
            args = [self._val(frame, src) for src in op.srcs]
            result = self._call(callee, args)
            if op.dests:
                regs[op.dests[0]] = result if result is not None else 0
            return None

        # memory
        if code == Opcode.LD:
            addr = int(val(0)) + int(val(1))
            regs[op.dests[0]] = self.memory.read(addr)
            return None
        if code == Opcode.ST:
            addr = int(val(0)) + int(val(1))
            self.memory.write(addr, self._st_value(val(2)))
            return None

        # predicates
        if code == Opcode.PRED_SET:
            regs[op.dests[0]] = 1 if val(0) else 0
            return None

        # everything else computes a single register result
        regs[op.dests[0]] = evaluate_op(op, val)
        return None

    @staticmethod
    def _st_value(value: int | float) -> int:
        # branch-free for the common int case: wrap32 raises TypeError on
        # floats (no __and__ with an int), which maps to the store trap
        try:
            return wrap32(value)
        except TypeError:
            raise SimError(
                "cannot store a float into word memory directly") from None


def run_module(
    module: Module,
    entry: str = "main",
    args: list[int] | None = None,
    profile: Profile | None = None,
    max_steps: int = 200_000_000,
    record: bool = False,
) -> RunResult:
    """Convenience wrapper: interpret ``module`` from ``entry`` on the
    predecoded :class:`~repro.sim.engine.FastInterpreter`.

    ``record`` asks for the run's pass trace (``RunResult.pass_trace``,
    see :mod:`repro.sim.replay`).  This module's :class:`Interpreter` is
    the reference it answers to; oracles construct it directly.
    """
    from repro.sim.engine import FastInterpreter

    interp = FastInterpreter(module, profile=profile, max_steps=max_steps,
                             record=record)
    return interp.run(entry, args)


def profile_module(
    module: Module,
    entry: str = "main",
    args: list[int] | None = None,
    max_steps: int = 200_000_000,
    record: bool = False,
) -> tuple[Profile, RunResult]:
    """Run once with profiling enabled; returns the profile and the result
    (carrying the pass trace when ``record`` is set, see :func:`run_module`)."""
    profile = Profile()
    result = run_module(module, entry, args, profile=profile,
                        max_steps=max_steps, record=record)
    return profile, result


def evaluate_op(op: Operation, val) -> int | float:  # noqa: C901
    """Pure evaluation of a single-destination compute operation.

    ``val(i)`` supplies the value of source ``i``.  Shared by the
    functional interpreter and the slot-predication harness.
    """
    code = op.opcode
    if code == Opcode.MOV:
        v = val(0)
        return wrap32(v) if isinstance(v, int) else v
    if code == Opcode.ADD:
        return wrap32(val(0) + val(1))
    if code == Opcode.SUB:
        return wrap32(val(0) - val(1))
    if code == Opcode.AND:
        return wrap32(val(0) & val(1))
    if code == Opcode.OR:
        return wrap32(val(0) | val(1))
    if code == Opcode.XOR:
        return wrap32(val(0) ^ val(1))
    if code == Opcode.SHL:
        return wrap32(val(0) << (val(1) & 31))
    if code == Opcode.SHR:
        return wrap32((val(0) & 0xFFFFFFFF) >> (val(1) & 31))
    if code == Opcode.SAR:
        return wrap32(val(0) >> (val(1) & 31))
    if code == Opcode.NEG:
        return wrap32(-val(0))
    if code == Opcode.NOT:
        return wrap32(~val(0))
    if code == Opcode.MIN:
        return min(val(0), val(1))
    if code == Opcode.MAX:
        return max(val(0), val(1))
    if code == Opcode.ABS:
        return wrap32(abs(val(0)))
    if code == Opcode.SADD:
        return saturate(val(0) + val(1), 16)
    if code == Opcode.SSUB:
        return saturate(val(0) - val(1), 16)
    if code == Opcode.SAT:
        return saturate(val(0), val(1))
    if code == Opcode.CLIP:
        return max(val(1), min(val(2), val(0)))
    if code == Opcode.SELECT:
        return val(1) if val(0) else val(2)
    if code == Opcode.CMP:
        return compare(op.attrs["cmp"], val(0), val(1))
    if code == Opcode.MUL:
        return wrap32(val(0) * val(1))
    if code == Opcode.MULH:
        return wrap32((val(0) * val(1)) >> 32)
    if code == Opcode.DIV:
        if val(1) == 0:
            raise SimError("division by zero")
        return wrap32(cdiv(val(0), val(1)))
    if code == Opcode.REM:
        if val(1) == 0:
            raise SimError("remainder by zero")
        return wrap32(crem(val(0), val(1)))
    if code == Opcode.FADD:
        return float(val(0)) + float(val(1))
    if code == Opcode.FSUB:
        return float(val(0)) - float(val(1))
    if code == Opcode.FMUL:
        return float(val(0)) * float(val(1))
    if code == Opcode.FDIV:
        if float(val(1)) == 0.0:
            raise SimError("float division by zero")
        return float(val(0)) / float(val(1))
    if code == Opcode.FCMP:
        return compare(op.attrs["cmp"], val(0), val(1))
    if code == Opcode.ITOF:
        return float(val(0))
    if code == Opcode.FTOI:
        return wrap32(int(val(0)))
    if code == Opcode.FMOV:
        return float(val(0))
    raise SimError(f"interpreter cannot execute {op!r}")
