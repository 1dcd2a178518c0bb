"""Fast-path execution engine: pre-decoded blocks + a loop-body trace cache.

The reference :class:`~repro.sim.interp.Interpreter` re-dispatches every
operation on every pass — an isinstance chain per operand, a dict of
``VReg`` registers, a long opcode if-chain.  The paper's own observation
(steady-state loop bodies dominate fetch) applies to the host simulator
too: it spends nearly all its time re-interpreting the same few blocks.

This module mirrors the loop-buffer idea at the host level:

* Each IR block is *decoded once* into a flat list of argument-resolved
  **op thunks** — closures binding the opcode handler, operand accessors
  (register slot index or folded constant) and the guard check at decode
  time.  Executing a pass is then one call per op.
* On both engines, a block that reaches its :data:`TIER_UP_PASSES`-th
  pass is **compiled** into one generated Python function
  (:class:`_BlockCodegen`): registers as ``r[slot]``, integer constants
  as literals, ``wrap32`` inlined as its range check, and a thunk call
  for any op the generator does not emit (calls, and the VLIW's ``rec``
  directives).  A functional block that jumps back to itself from its
  last op and makes no call iterates inside that function, and the
  caller folds the completed self-passes into the profile, ``steps``
  and the pass recorder in one step; a VLIW block runs one pass per
  call.  Code objects live in a process :class:`~repro.memo.Memo` keyed
  by a digest of the generated source (DESIGN.md §5f, §5j).
* Both engines run one frame loop (``_FastCallMixin._run_frame``),
  which hands each finished pass to the engine's pass observer: the
  functional engine's :class:`~repro.sim.replay.PassRecorder` when it
  records, the VLIW's cycle, fetch and bubble accounting always.
* Registers live in a flat per-frame ``list`` indexed by a per-function
  slot assignment (:class:`FunctionProgram`), replacing the ``VReg``-keyed
  dict of the reference frame.
* Decoded :class:`BlockProgram` objects live in a :class:`TraceCache`
  private to one simulator, keyed by ``(function, block label)``.  Each
  simulator runs over a fixed module, so a block is decoded at most once
  per simulator.
* Profile counts (block passes, op fetches, edge traversals, taken
  branches) are accumulated in flat per-block arrays and folded into the
  :class:`~repro.analysis.profile.Profile` once at the end of the run —
  every count is identical to the reference interpreter's.
* On request (``record=True``) the functional engine also records the
  run's block passes, run-length encoded, as the
  :class:`~repro.sim.replay.PassTrace` that lets the VLIW replay a
  capacity sweep instead of re-executing it per capacity.

Architectural behaviour is bit-identical to the reference engine: same
values, same traps (including the exact op at which ``StepLimitExceeded``
fires), same ``SimCounters``/``LoopFetchStats`` and obs instants for the
VLIW.  One exception, enforced: after a *trap*, ``steps`` and the
profile are unspecified (the reference records op by op, the fast engine
per pass or per fused run of self-passes, so a trap can drop several
completed passes); both engines mark the profile ``incomplete`` and its
query methods raise.

These are the only engines the program runs: ``run_module``,
``profile_module`` and ``simulate`` construct them directly.  The
reference classes stay as oracles that tests and
``scripts/check_engine_parity.py`` construct themselves (DESIGN.md §5l).
"""

from __future__ import annotations

import hashlib

from repro.ir.opcodes import Opcode
from repro.ir.preddef import pred_update
from repro.ir.registers import FImm, GlobalRef, Imm, VReg
from repro.loopbuffer.model import LoopState
from repro.memo import Memo
from repro.sim.interp import (
    Interpreter,
    RunResult,
    SimError,
    StepLimitExceeded,
)
from repro.sim.values import (
    INT_MAX,
    cdiv,
    crem,
    saturate,
    to_unsigned,
    wrap32,
)
from repro.sim.vliw import VLIWSimulator

__all__ = [
    "FastInterpreter",
    "FastVLIWSimulator",
    "SHARED_DECODE_STATS",
    "TraceCache",
    "reset_shared_decode",
]

# --------------------------------------------------------------------------
# operand resolution and opcode handler tables


class _Unresolvable(Exception):
    """An operand the decoder cannot resolve; the op gets a thunk that
    reproduces the reference engine's execution-time error."""

    def __init__(self, operand):
        self.operand = operand


def _mov(a):
    return wrap32(a) if isinstance(a, int) else a


def _div(a, b):
    if b == 0:
        raise SimError("division by zero")
    return wrap32(cdiv(a, b))


def _rem(a, b):
    if b == 0:
        raise SimError("remainder by zero")
    return wrap32(crem(a, b))


def _fdiv(a, b):
    if float(b) == 0.0:
        raise SimError("float division by zero")
    return float(a) / float(b)


_UNARY = {
    Opcode.MOV: _mov,
    Opcode.NEG: lambda a: wrap32(-a),
    Opcode.NOT: lambda a: wrap32(~a),
    Opcode.ABS: lambda a: wrap32(abs(a)),
    Opcode.ITOF: float,
    Opcode.FTOI: lambda a: wrap32(int(a)),
    Opcode.FMOV: float,
}

_BINARY = {
    Opcode.ADD: lambda a, b: wrap32(a + b),
    Opcode.SUB: lambda a, b: wrap32(a - b),
    Opcode.AND: lambda a, b: wrap32(a & b),
    Opcode.OR: lambda a, b: wrap32(a | b),
    Opcode.XOR: lambda a, b: wrap32(a ^ b),
    Opcode.SHL: lambda a, b: wrap32(a << (b & 31)),
    Opcode.SHR: lambda a, b: wrap32((a & 0xFFFFFFFF) >> (b & 31)),
    Opcode.SAR: lambda a, b: wrap32(a >> (b & 31)),
    Opcode.MIN: min,
    Opcode.MAX: max,
    Opcode.SADD: lambda a, b: saturate(a + b, 16),
    Opcode.SSUB: lambda a, b: saturate(a - b, 16),
    Opcode.SAT: saturate,
    Opcode.MUL: lambda a, b: wrap32(a * b),
    Opcode.MULH: lambda a, b: wrap32((a * b) >> 32),
    Opcode.DIV: _div,
    Opcode.REM: _rem,
    Opcode.FADD: lambda a, b: float(a) + float(b),
    Opcode.FSUB: lambda a, b: float(a) - float(b),
    Opcode.FMUL: lambda a, b: float(a) * float(b),
    Opcode.FDIV: _fdiv,
}

_TERNARY = {
    Opcode.CLIP: lambda a, b, c: max(b, min(c, a)),
    Opcode.SELECT: lambda a, b, c: b if a else c,
}

#: pre-decoded comparison tests (same semantics as ``values.compare``; the
#: test string is validated at ``Operation`` construction time)
_CMP = {
    "eq": lambda a, b: int(a == b),
    "ne": lambda a, b: int(a != b),
    "lt": lambda a, b: int(a < b),
    "le": lambda a, b: int(a <= b),
    "gt": lambda a, b: int(a > b),
    "ge": lambda a, b: int(a >= b),
    "ltu": lambda a, b: int(to_unsigned(a) < to_unsigned(b)),
    "geu": lambda a, b: int(to_unsigned(a) >= to_unsigned(b)),
}


def _nop_step(frame):
    return None


# --------------------------------------------------------------------------
# inert stand-ins for perfbench


class SharedDecodeStats:
    """Always-zero counters of a VLIW decode store that no longer exists
    (DESIGN.md §5i).  Kept, with :func:`reset_shared_decode`, only because
    ``perfbench/workloads.py`` imports both for ``sim.decode_hit_frac``."""

    block_hits = 0
    block_misses = 0


SHARED_DECODE_STATS = SharedDecodeStats()


def reset_shared_decode() -> None:
    """No-op; see :class:`SharedDecodeStats`."""


# --------------------------------------------------------------------------
# decoded programs


class _FastFrame:
    __slots__ = ("func", "fprog", "regs", "lc", "calls")

    def __init__(self, func, fprog, regs, lc):
        self.func = func
        self.fprog = fprog
        self.regs = regs
        self.lc = lc
        #: calls this frame has made (the pass recorder's call bubbles)
        self.calls = 0


class BlockProgram:
    """One decoded block: thunks plus precomputed accounting metadata."""

    __slots__ = (
        "label", "block", "n", "thunks", "next_label",
        # compiled blocks: the decoded ops, the generated function once
        # compiled, passes left until compiling
        "ops", "run", "heat",
        # deferred profiling (functional engine)
        "passes", "prefix_counts", "taken_counts", "edge_counts",
        "uid_at", "is_cond",
        # precomputed VLIW pass accounting
        "key", "buffer_key", "executed_at", "mod_ii", "mod_len",
        "cycles_at", "sched_len", "is_counted", "is_loop_block",
        "is_brcloop", "penalty", "stats", "lstats",
    )


class FunctionProgram:
    """Per-function register slot assignment and decoded block store.

    The slot layout comes from one scan of the function here and is then
    frozen: register files are sized from it and decoded thunks and
    compiled blocks bake in its indices.
    """

    __slots__ = ("cache", "func", "name", "entry_label", "param_slots",
                 "frame_base_slot", "nslots", "calls", "progs", "_slots")

    def __init__(self, cache: "TraceCache", func) -> None:
        self.cache = cache
        self.func = func
        self.name = func.name
        self.progs: dict[str, BlockProgram] = {}
        self.calls = 0
        slots: dict[VReg, int] = {}
        for param in func.params:
            slots.setdefault(param, len(slots))
        if func.frame_base is not None:
            slots.setdefault(func.frame_base, len(slots))
        for block in func.blocks:
            for op in block.ops:
                if op.guard is not None:
                    slots.setdefault(op.guard, len(slots))
                for dest in op.dests:
                    slots.setdefault(dest, len(slots))
                for src in op.srcs:
                    if isinstance(src, VReg):
                        slots.setdefault(src, len(slots))
        self._slots = slots
        self.nslots = len(slots)
        self.param_slots = tuple(slots[p] for p in func.params)
        self.frame_base_slot = (slots[func.frame_base]
                                if func.frame_base is not None else None)
        self.entry_label = func.entry.label

    def slot(self, reg: VReg) -> int:
        return self._slots[reg]

    def block_program(self, label: str) -> BlockProgram:
        prog = self.progs.get(label)
        if prog is None:
            # Function.block raises KeyError on an unknown label, exactly
            # like the reference engine's jump dispatch
            prog = self.cache.decode_block(self, self.func.block(label))
            self.progs[label] = prog
        return prog


class TraceCache:
    """Host-level decode-once cache keyed by ``(function, block label)``.

    Owned by one simulator instance; ``decoded_blocks``/``decoded_ops``
    count decode work (a steady-state loop decodes exactly once however
    many iterations run).
    """

    def __init__(self, sim: Interpreter, vliw: bool) -> None:
        self.sim = sim
        self.vliw = vliw
        self.functions: dict[str, FunctionProgram] = {}
        self.decoded_blocks = 0
        self.decoded_ops = 0

    def function_program(self, func) -> FunctionProgram:
        fprog = self.functions.get(func.name)
        if fprog is None:
            fprog = FunctionProgram(self, func)
            self.functions[func.name] = fprog
        return fprog

    # -- profile finalization ------------------------------------------------

    def finalize_profile(self, profile) -> None:
        """Fold the deferred per-block tallies into ``profile`` (and reset
        them, so finalizing twice never double-counts).

        Op counts are reconstructed from ``prefix_counts`` — the number of
        passes whose last *attempted* op was index ``i`` — by suffix
        summation: an op at index ``i`` was attempted once per pass that
        reached at least ``i``.
        """
        for fprog in self.functions.values():
            fname = fprog.name
            if fprog.calls:
                profile.calls[fname] += fprog.calls
                fprog.calls = 0
            for prog in fprog.progs.values():
                if prog.passes:
                    profile.blocks[(fname, prog.label)] += prog.passes
                    prog.passes = 0
                prefix = prog.prefix_counts
                uid_at = prog.uid_at
                ops = profile.ops
                running = 0
                for i in range(prog.n - 1, -1, -1):
                    count = prefix[i]
                    if count:
                        running += count
                        prefix[i] = 0
                    if running:
                        uid = uid_at[i]
                        if uid is not None:
                            ops[(fname, uid)] += running
                            profile.total_ops += running
                taken = prog.taken_counts
                for i, count in enumerate(taken):
                    if count:
                        profile.taken[(fname, uid_at[i])] += count
                        taken[i] = 0
                edges = prog.edge_counts
                if edges:
                    for dst, count in edges.items():
                        profile.edges[(fname, prog.label, dst)] += count
                    edges.clear()

    # -- block decoding ------------------------------------------------------

    def decode_block(self, fprog: FunctionProgram, block) -> BlockProgram:
        sim = self.sim
        ops = block.ops
        prog = BlockProgram()
        prog.label = block.label
        prog.block = block
        prog.n = len(ops)
        prog.thunks = [self._decode_op(fprog, op, block.label) for op in ops]
        blocks = fprog.func.blocks
        index = blocks.index(block)
        prog.next_label = (blocks[index + 1].label
                           if index + 1 < len(blocks) else None)
        prog.passes = 0
        prog.prefix_counts = [0] * prog.n
        prog.taken_counts = [0] * prog.n
        prog.edge_counts = {}
        prog.ops = tuple(ops)
        prog.run = None
        # an empty block never counts down to compiling
        prog.heat = TIER_UP_PASSES if ops else -1
        prog.uid_at = [None if op.opcode is Opcode.NOP else op.uid
                       for op in ops]
        prog.is_cond = [op.is_conditional_branch for op in ops]
        running = 0
        executed_at = []
        for op in ops:
            if op.opcode is not Opcode.NOP:
                running += 1
            executed_at.append(running)
        prog.executed_at = executed_at
        if self.vliw:
            key = (fprog.name, block.label)
            prog.key = key
            prog.buffer_key = f"{key[0]}/{key[1]}"
            mod = sim.modulo.get(key)
            prog.mod_ii = mod.ii if mod is not None else None
            prog.mod_len = mod.schedule_length if mod is not None else None
            sched = sim.schedules.get(fprog.name, {}).get(block.label)
            if sched is not None:
                length = sched.length
                prog.sched_len = length
                placement = sched.placement
                cycles_at = []
                for i, op in enumerate(ops):
                    if i < prog.n - 1:
                        place = placement.get(op.uid)
                        cycles_at.append(place.cycle + 1
                                         if place is not None else length)
                    else:
                        cycles_at.append(length)
                prog.cycles_at = cycles_at
            else:
                prog.sched_len = None
                prog.cycles_at = None
            term = block.terminator
            prog.is_counted = (term is not None
                               and term.opcode is Opcode.BR_CLOOP)
            prog.is_loop_block = (term is not None
                                  and term.target == block.label)
            prog.is_brcloop = [op.opcode is Opcode.BR_CLOOP for op in ops]
            prog.penalty = sim.machine.branch_penalty
            # per-block/per-loop stats bind lazily at first pass, matching
            # the reference engine's dict-entry creation order
            prog.stats = None
            prog.lstats = None
        self.decoded_blocks += 1
        self.decoded_ops += prog.n
        return prog

    # -- operand helpers -----------------------------------------------------

    def _operand(self, fprog: FunctionProgram, src) -> tuple[bool, object]:
        """``(is_const, payload)`` — payload is a folded constant value or
        a register slot index."""
        if isinstance(src, VReg):
            return False, fprog.slot(src)
        if isinstance(src, (Imm, FImm)):
            return True, src.value
        if isinstance(src, GlobalRef):
            try:
                return True, self.sim.loader.global_addr(src.name)
            except Exception:
                raise _Unresolvable(src) from None
        raise _Unresolvable(src)

    def _getter(self, fprog: FunctionProgram, src):
        const, payload = self._operand(fprog, src)
        if const:
            return lambda regs, _k=payload: _k
        return lambda regs, _s=payload: regs[_s]

    def _unresolvable_step(self, operand):
        loader = self.sim.loader

        def step(frame, _src=operand):
            if isinstance(_src, GlobalRef):
                loader.global_addr(_src.name)  # raises the reference error
            raise SimError(f"cannot evaluate operand {_src!r}")

        return step

    # -- op decoding ---------------------------------------------------------

    def _decode_op(self, fprog: FunctionProgram, op, label: str):
        code = op.opcode
        try:
            step = self._build_step(fprog, op, label)
        except _Unresolvable as exc:
            step = self._unresolvable_step(exc.operand)
        if code is Opcode.PRED_DEF:
            return step  # evaluates under both guard polarities
        if self.vliw and code in (Opcode.REC_CLOOP, Opcode.REC_WLOOP):
            return step  # the VLIW issues rec directives before the guard
        if op.guard is not None:
            gslot = fprog.slot(op.guard)

            def guarded(frame, _gs=gslot, _step=step):
                if frame.regs[_gs]:
                    return _step(frame)
                return None

            return guarded
        return step

    def _build_step(self, fprog: FunctionProgram, op, label: str):  # noqa: C901
        code = op.opcode
        sim = self.sim
        slot = fprog.slot

        if code is Opcode.NOP:
            return _nop_step

        fn = _BINARY.get(code)
        if fn is not None:
            dest = slot(op.dests[0])
            ac, av = self._operand(fprog, op.srcs[0])
            bc, bv = self._operand(fprog, op.srcs[1])
            return _binary_step(fn, dest, ac, av, bc, bv)
        if code in (Opcode.CMP, Opcode.FCMP):
            dest = slot(op.dests[0])
            ac, av = self._operand(fprog, op.srcs[0])
            bc, bv = self._operand(fprog, op.srcs[1])
            return _binary_step(_CMP[op.attrs["cmp"]], dest, ac, av, bc, bv)
        fn = _UNARY.get(code)
        if fn is not None:
            dest = slot(op.dests[0])
            ac, av = self._operand(fprog, op.srcs[0])
            if ac:
                def step(frame, _fn=fn, _d=dest, _k=av):
                    frame.regs[_d] = _fn(_k)
            else:
                def step(frame, _fn=fn, _d=dest, _s=av):
                    regs = frame.regs
                    regs[_d] = _fn(regs[_s])
            return step
        fn = _TERNARY.get(code)
        if fn is not None:
            dest = slot(op.dests[0])
            g0 = self._getter(fprog, op.srcs[0])
            g1 = self._getter(fprog, op.srcs[1])
            g2 = self._getter(fprog, op.srcs[2])

            def step(frame, _fn=fn, _d=dest, _g0=g0, _g1=g1, _g2=g2):
                regs = frame.regs
                regs[_d] = _fn(_g0(regs), _g1(regs), _g2(regs))

            return step

        # control
        if code is Opcode.JUMP:
            transfer = ("jump", op.target)
            return lambda frame, _t=transfer: _t
        if code in (Opcode.BR, Opcode.BR_WLOOP):
            transfer = ("jump", op.target)
            cmpfn = _CMP[op.attrs["cmp"]]
            g0 = self._getter(fprog, op.srcs[0])
            g1 = self._getter(fprog, op.srcs[1])

            def step(frame, _t=transfer, _c=cmpfn, _g0=g0, _g1=g1):
                regs = frame.regs
                if _c(_g0(regs), _g1(regs)):
                    return _t
                return None

            return step
        if code is Opcode.CLOOP_SET:
            lc_id = op.attrs["lc"]
            g0 = self._getter(fprog, op.srcs[0])

            def step(frame, _lc=lc_id, _g0=g0):
                frame.lc[_lc] = int(_g0(frame.regs))
                return None

            return step
        if code is Opcode.BR_CLOOP:
            transfer = ("jump", op.target)
            lc_id = op.attrs["lc"]

            def step(frame, _t=transfer, _lc=lc_id):
                lc = frame.lc
                count = lc.get(_lc, 0) - 1
                lc[_lc] = count
                if count > 0:
                    return _t
                return None

            return step
        if code in (Opcode.REC_CLOOP, Opcode.REC_WLOOP):
            if self.vliw:
                return self._rec_step(fprog, op, label)
            return self._lc_reload_step(fprog, op)
        if code in (Opcode.EXEC_CLOOP, Opcode.EXEC_WLOOP):
            return self._lc_reload_step(fprog, op)
        if code is Opcode.RET:
            if not op.srcs:
                transfer = ("ret", None)
                return lambda frame, _t=transfer: _t
            g0 = self._getter(fprog, op.srcs[0])
            return lambda frame, _g0=g0: ("ret", _g0(frame.regs))
        if code is Opcode.CALL:
            return self._call_step(fprog, op)

        # memory
        if code is Opcode.LD:
            dest = slot(op.dests[0])
            read = sim.memory.read
            g0 = self._getter(fprog, op.srcs[0])
            g1 = self._getter(fprog, op.srcs[1])

            def step(frame, _d=dest, _rd=read, _g0=g0, _g1=g1):
                regs = frame.regs
                regs[_d] = _rd(int(_g0(regs)) + int(_g1(regs)))
                return None

            return step
        if code is Opcode.ST:
            write = sim.memory.write
            st_value = sim._st_value
            g0 = self._getter(fprog, op.srcs[0])
            g1 = self._getter(fprog, op.srcs[1])
            g2 = self._getter(fprog, op.srcs[2])

            def step(frame, _wr=write, _st=st_value, _g0=g0, _g1=g1, _g2=g2):
                regs = frame.regs
                _wr(int(_g0(regs)) + int(_g1(regs)), _st(_g2(regs)))
                return None

            return step

        # predicates
        if code is Opcode.PRED_SET:
            dest = slot(op.dests[0])
            g0 = self._getter(fprog, op.srcs[0])

            def step(frame, _d=dest, _g0=g0):
                regs = frame.regs
                regs[_d] = 1 if _g0(regs) else 0
                return None

            return step
        if code is Opcode.PRED_DEF:
            cmpfn = _CMP[op.attrs["cmp"]]
            g0 = self._getter(fprog, op.srcs[0])
            g1 = self._getter(fprog, op.srcs[1])
            gslot = slot(op.guard) if op.guard is not None else None
            # fold Table 2 at decode: one write list per (guard, cond), so
            # execution is a table index plus stores — no per-dest dispatch
            table = tuple(
                tuple(
                    (slot(dest), update)
                    for dest, ptype in zip(op.dests, op.attrs["ptypes"])
                    if (update := pred_update(ptype, gc >> 1, gc & 1))
                    is not None
                )
                for gc in range(4)
            )
            if gslot is None:
                true_writes = table[3]
                false_writes = table[2]

                def step(frame, _c=cmpfn, _g0=g0, _g1=g1,
                         _t=true_writes, _f=false_writes):
                    regs = frame.regs
                    for dslot, value in (_t if _c(_g0(regs), _g1(regs))
                                         else _f):
                        regs[dslot] = value
                    return None

                return step

            def step(frame, _c=cmpfn, _g0=g0, _g1=g1, _gs=gslot, _t=table):
                regs = frame.regs
                gc = 2 if regs[_gs] else 0
                if _c(_g0(regs), _g1(regs)):
                    gc |= 1
                for dslot, value in _t[gc]:
                    regs[dslot] = value
                return None

            return step

        def unknown(frame, _op=op):
            raise SimError(f"interpreter cannot execute {_op!r}")

        return unknown

    def _lc_reload_step(self, fprog: FunctionProgram, op):
        """rec/exec directives on the functional engine (and exec on the
        VLIW): functionally they (re)load the loop counter."""
        if not op.srcs or "lc" not in op.attrs:
            return _nop_step
        lc_id = op.attrs["lc"]
        g0 = self._getter(fprog, op.srcs[0])

        def step(frame, _lc=lc_id, _g0=g0):
            frame.lc[_lc] = int(_g0(frame.regs))
            return None

        return step

    def _rec_step(self, fprog: FunctionProgram, op, label: str):
        """VLIW rec directive: drive the loop buffer's state machine.

        Dispatched dynamically through the simulator's ``_do_rec`` method
        (never inlined at decode time) so class-level instrumentation —
        notably the fuzzer's injected faults, which monkeypatch
        ``VLIWSimulator._do_rec`` — applies to the fast engine too; a
        compiled VLIW block calls this thunk as well.  Rec directives
        fire once per loop entry, so the dispatch is free.
        """
        sim = self.sim
        key = (fprog.name, label)

        def step(frame, _sim=sim, _k=key, _op=op):
            _sim._do_rec(frame, _k, _op)
            return None

        return step

    def _call_step(self, fprog: FunctionProgram, op):
        sim = self.sim
        callee_name = op.attrs["callee"]
        getters = tuple(self._getter(fprog, src) for src in op.srcs)
        dest = fprog.slot(op.dests[0]) if op.dests else None
        if self.vliw:
            penalty = sim.machine.branch_penalty

            def step(frame):
                counters = sim.counters
                counters.branch_bubbles += penalty
                counters.cycles += penalty
                regs = frame.regs
                result = sim._call(sim.module.function(callee_name),
                                   [g(regs) for g in getters])
                if dest is not None:
                    regs[dest] = result if result is not None else 0
                return None

            return step

        def step(frame):
            frame.calls += 1
            regs = frame.regs
            result = sim._call(sim.module.function(callee_name),
                               [g(regs) for g in getters])
            if dest is not None:
                regs[dest] = result if result is not None else 0
            return None

        return step


def _binary_step(fn, dest, ac, av, bc, bv):
    """Specialized two-source compute thunk (const operands folded)."""
    if ac and bc:
        def step(frame, _fn=fn, _d=dest, _a=av, _b=bv):
            frame.regs[_d] = _fn(_a, _b)
    elif ac:
        def step(frame, _fn=fn, _d=dest, _a=av, _b=bv):
            regs = frame.regs
            regs[_d] = _fn(_a, regs[_b])
    elif bc:
        def step(frame, _fn=fn, _d=dest, _a=av, _b=bv):
            regs = frame.regs
            regs[_d] = _fn(regs[_a], _b)
    else:
        def step(frame, _fn=fn, _d=dest, _a=av, _b=bv):
            regs = frame.regs
            regs[_d] = _fn(regs[_a], regs[_b])
    return step


# --------------------------------------------------------------------------
# compiled blocks


#: a block is compiled on its this-many'th pass and runs thunks before
#: that, so the many blocks of a short-lived program that execute only a
#: few times never pay for code generation (DESIGN.md §5f)
TIER_UP_PASSES = 8

#: block source digest -> compiled code object, bounded at 512 distinct
#: block sources
_block_code = Memo(512)


def _block_code_object(source: str):
    """The code object of ``source``, compiled once per process.

    Keyed by a digest rather than the text, so the cache holds no source.
    """
    key = hashlib.blake2b(source.encode(), digest_size=16).digest()
    code = _block_code.get(key)
    if code is None:
        code = compile(source, f"<block {key.hex()[:12]}>", "exec")
        _block_code.put(key, code)
    return code


class _NotEmitted(Exception):
    """An op the block compiler leaves to its thunk."""


_INT32 = "-2147483648 <= v <= 2147483647"

#: comparison tests as expressions over sources ``a`` and ``b``
_CMP_EXPR = {
    "eq": "{a} == {b}",
    "ne": "{a} != {b}",
    "lt": "{a} < {b}",
    "le": "{a} <= {b}",
    "gt": "{a} > {b}",
    "ge": "{a} >= {b}",
    "ltu": "({a} & 4294967295) < ({b} & 4294967295)",
    "geu": "({a} & 4294967295) >= ({b} & 4294967295)",
}

#: ops whose result goes through ``wrap32``
_WRAPPED_EXPR = {
    Opcode.ADD: "{a} + {b}",
    Opcode.SUB: "{a} - {b}",
    Opcode.AND: "{a} & {b}",
    Opcode.OR: "{a} | {b}",
    Opcode.XOR: "{a} ^ {b}",
    Opcode.SHL: "{a} << ({b} & 31)",
    Opcode.SHR: "({a} & 4294967295) >> ({b} & 31)",
    Opcode.SAR: "{a} >> ({b} & 31)",
    Opcode.MUL: "{a} * {b}",
    Opcode.MULH: "({a} * {b}) >> 32",
    Opcode.NEG: "-{a}",
    Opcode.NOT: "~{a}",
    Opcode.ABS: "abs({a})",
    Opcode.FTOI: "int({a})",
}

#: ops whose result is stored as computed (``min``/``max`` spelled out
#: with the builtins' tie rule: the first operand wins)
_PLAIN_EXPR = {
    Opcode.MIN: "{b} if {b} < {a} else {a}",
    Opcode.MAX: "{b} if {b} > {a} else {a}",
    Opcode.SAT: "_sat({a}, {b})",
    Opcode.DIV: "_div({a}, {b})",
    Opcode.REM: "_rem({a}, {b})",
    Opcode.FADD: "float({a}) + float({b})",
    Opcode.FSUB: "float({a}) - float({b})",
    Opcode.FMUL: "float({a}) * float({b})",
    Opcode.FDIV: "_fdiv({a}, {b})",
    Opcode.ITOF: "float({a})",
    Opcode.FMOV: "float({a})",
    Opcode.CLIP: "max({b}, min({c}, {a}))",
    Opcode.SELECT: "{b} if {a} else {c}",
}

_SATURATED_EXPR = {Opcode.SADD: "{a} + {b}", Opcode.SSUB: "{a} - {b}"}

_LOOP_BRANCHES = frozenset({Opcode.JUMP, Opcode.BR, Opcode.BR_WLOOP,
                            Opcode.BR_CLOOP})

_BLOCK_GLOBALS = {"_w": wrap32, "_mov": _mov, "_sat": saturate,
                  "_div": _div, "_rem": _rem, "_fdiv": _fdiv}


def _literal(value) -> str:
    """An exact integer literal, or :class:`_NotEmitted`."""
    if value.__class__ is not int:
        raise _NotEmitted
    return f"({value})" if value < 0 else str(value)


class _BlockCodegen:
    """Generates the Python function that runs one block on either fast
    engine.

    The function is ``_block(frame, limit) -> (reps, attempted,
    transfer)``: ``reps`` passes that each ran every op and jumped back
    to the block from its last op, then one final pass that attempted
    ``attempted`` ops and left by ``transfer`` (``None``: fallthrough).
    Only a functional block whose terminator targets its own label and
    which makes no call iterates inside the function (``reps > 0``), and
    it starts at most ``limit`` passes; a VLIW block runs one pass per
    call, so the VLIW charges every pass.  Each op is spelled out with
    its thunk's exact semantics; an op the generator does not emit runs
    its thunk, as the VLIW's ``rec`` directives do.
    """

    def __init__(self, cache: TraceCache, fprog: FunctionProgram,
                 prog: BlockProgram) -> None:
        self.loader = cache.sim.loader
        self.memory = cache.sim.memory
        self.st_value = cache.sim._st_value
        self.vliw = cache.vliw
        self.fprog = fprog
        self.prog = prog
        self.globals = dict(_BLOCK_GLOBALS)
        ops = prog.ops
        last = ops[-1]
        self.fuse = (not self.vliw
                     and last.opcode in _LOOP_BRANCHES
                     and last.target == prog.label
                     and not any(op.opcode is Opcode.CALL for op in ops)
                     and self._emits(last))
        #: the completed self-passes at an exit
        self.reps = "k" if self.fuse else "0"

    def source(self) -> str:
        prog = self.prog
        lines = ["def _block(frame, limit):", "    r = frame.regs",
                 "    lc = frame.lc"]
        indent = "    "
        if self.fuse:
            lines += ["    k = 0", "    while True:"]
            indent = "        "
        body: list[str] = []
        group = None  # guard slot of the open ``if``
        written: set[int] = set()  # slots the open ``if``'s ops write
        for i, op in enumerate(prog.ops):
            gslot, op_lines = self._op_lines(i, op)
            if not op_lines:
                continue
            if gslot is None:
                group = None
                body += op_lines
                continue
            # consecutive ops under one guard share one test, until one
            # of them writes the guard
            if gslot != group or gslot in written:
                body.append(f"if r[{gslot}]:")
                group, written = gslot, set()
            body += ["    " + line for line in op_lines]
            written.update(self.fprog.slot(dest) for dest in op.dests)
        body.append(f"return {self.reps}, {prog.n}, None")
        lines += [indent + line for line in body]
        return "\n".join(lines) + "\n"

    def build(self):
        """The block's function, bound to this interpreter's state."""
        code = _block_code_object(self.source())
        namespace = self.globals
        exec(code, namespace)
        return namespace["_block"]

    # -- operands ------------------------------------------------------------

    def _src(self, src) -> str:
        if isinstance(src, VReg):
            return f"r[{self.fprog.slot(src)}]"
        value = self._value(src)
        if value is None:
            raise _NotEmitted  # float immediates and anything unresolvable
        return _literal(value)

    def _value(self, src) -> int | None:
        """The integer a literal operand stands for, else ``None``."""
        if isinstance(src, Imm):
            value = src.value
        elif isinstance(src, GlobalRef):
            try:
                value = self.loader.global_addr(src.name)
            except Exception:  # the thunk raises it when run
                return None
        else:
            return None
        return value if value.__class__ is int else None

    def _emits(self, op) -> bool:
        try:
            for src in op.srcs:
                self._src(src)
        except _NotEmitted:
            return False
        return True

    def _bind(self, name: str, value) -> str:
        self.globals[name] = value
        return name

    # -- ops -----------------------------------------------------------------

    def _op_lines(self, i: int, op) -> tuple[int | None, list[str]]:
        """``(guard slot, lines)``: the lines run only when the guard
        (``None``: no guard, or one the lines test themselves) is set."""
        try:
            lines = self._emit(i, op)
        except _NotEmitted:
            # the thunk tests the op's guard itself
            thunk = self._bind(f"_t{i}", self.prog.thunks[i])
            return None, [f"t = {thunk}(frame)", "if t is not None:",
                          f"    return {self.reps}, {i + 1}, t"]
        if op.guard is None or op.opcode is Opcode.PRED_DEF:
            return None, lines
        return self.fprog.slot(op.guard), lines

    def _transfer(self, i: int, op) -> list[str]:
        """Lines that leave the pass by ``op``'s jump."""
        transfer = self._bind(f"_j{i}", ("jump", op.target))
        if self.fuse and i == self.prog.n - 1:
            return ["k += 1", "if k < limit:", "    continue",
                    f"return k - 1, {i + 1}, {transfer}"]
        return [f"return {self.reps}, {i + 1}, {transfer}"]

    def _lc_id(self, op) -> str:
        lc_id = op.attrs["lc"]
        if lc_id.__class__ is str:
            return repr(lc_id)
        return _literal(lc_id)

    def _emit(self, i: int, op) -> list[str]:  # noqa: C901
        code = op.opcode
        srcs = [self._src(src) for src in op.srcs]
        names = dict(zip("abc", srcs))
        values = [self._value(src) for src in op.srcs]

        if code is Opcode.NOP:
            return []
        if values and code in _FOLDABLE:
            value = _fold(op, values)
            if value is not None:
                return [f"r[{self.fprog.slot(op.dests[0])}] = "
                        f"{_literal(value)}"]
        if code is Opcode.AND and any(value is not None
                                      and 0 <= value <= INT_MAX
                                      for value in values):
            # masking with an in-range non-negative literal stays in range
            dest = self.fprog.slot(op.dests[0])
            return [f"r[{dest}] = {names['a']} & {names['b']}"]
        expr = _WRAPPED_EXPR.get(code)
        if expr is not None:
            dest = self.fprog.slot(op.dests[0])
            return [f"v = {expr.format(**names)}",
                    f"r[{dest}] = v if v.__class__ is int and {_INT32} "
                    "else _w(v)"]
        expr = _PLAIN_EXPR.get(code)
        if expr is not None:
            dest = self.fprog.slot(op.dests[0])
            return [f"r[{dest}] = {expr.format(**names)}"]
        expr = _SATURATED_EXPR.get(code)
        if expr is not None:
            dest = self.fprog.slot(op.dests[0])
            return [f"v = {expr.format(**names)}",
                    f"r[{dest}] = -32768 if v < -32768 else "
                    "32767 if v > 32767 else v"]
        if code is Opcode.MOV:
            dest = self.fprog.slot(op.dests[0])
            return [f"v = {names['a']}",
                    f"r[{dest}] = v if v.__class__ is int and {_INT32} "
                    "else _mov(v)"]
        if code in (Opcode.CMP, Opcode.FCMP):
            dest = self.fprog.slot(op.dests[0])
            test = _CMP_EXPR[op.attrs["cmp"]].format(**names)
            return [f"r[{dest}] = 1 if {test} else 0"]
        if code is Opcode.PRED_SET:
            dest = self.fprog.slot(op.dests[0])
            return [f"r[{dest}] = 1 if {names['a']} else 0"]

        # control
        if code is Opcode.JUMP:
            return self._transfer(i, op)
        if code in (Opcode.BR, Opcode.BR_WLOOP):
            test = _CMP_EXPR[op.attrs["cmp"]].format(**names)
            return [f"if {test}:"] + ["    " + line
                                      for line in self._transfer(i, op)]
        if code is Opcode.CLOOP_SET:
            return [f"lc[{self._lc_id(op)}] = int({names['a']})"]
        if code is Opcode.BR_CLOOP:
            lc_id = self._lc_id(op)
            return [f"c = lc.get({lc_id}, 0) - 1", f"lc[{lc_id}] = c",
                    "if c > 0:"] + ["    " + line
                                    for line in self._transfer(i, op)]
        if self.vliw and code in (Opcode.REC_CLOOP, Opcode.REC_WLOOP):
            raise _NotEmitted  # _rec_step, issued before the guard
        if code in (Opcode.REC_CLOOP, Opcode.REC_WLOOP, Opcode.EXEC_CLOOP,
                    Opcode.EXEC_WLOOP):
            # functionally they (re)load the loop counter (_lc_reload_step)
            if not op.srcs or "lc" not in op.attrs:
                return []
            return [f"lc[{self._lc_id(op)}] = int({names['a']})"]
        if code is Opcode.RET:
            value = names["a"] if srcs else "None"
            return [f"return {self.reps}, {i + 1}, ('ret', {value})"]

        # memory: through Memory.read/write, so its counters stay exact
        if code is Opcode.LD:
            dest = self.fprog.slot(op.dests[0])
            read = self._bind("_rd", self.memory.read)
            return [f"r[{dest}] = {read}({self._addr(op, srcs)})"]
        if code is Opcode.ST:
            write = self._bind("_wr", self.memory.write)
            store = self._bind("_st", self.st_value)
            return [f"v = {srcs[2]}",
                    f"{write}({self._addr(op, srcs)}, v if v.__class__ is "
                    f"int and {_INT32} else {store}(v))"]

        if code is Opcode.PRED_DEF:
            return self._pred_def(op, names, values)
        raise _NotEmitted  # calls and anything unknown

    @staticmethod
    def _addr(op, srcs: list[str]) -> str:
        parts = [f"int({src})" if isinstance(operand, VReg) else src
                 for operand, src in zip(op.srcs[:2], srcs)
                 if src != "0"]  # ``int(x) + 0`` is ``int(x)``
        return " + ".join(parts) or "0"

    def _pred_def(self, op, names: dict[str, str],
                  values: list[int | None]) -> list[str]:
        """Table 2 folded per (guard, condition), as the thunk does."""
        slot = self.fprog.slot
        table = [
            [f"r[{slot(dest)}] = {update}"
             for dest, ptype in zip(op.dests, op.attrs["ptypes"])
             if (update := pred_update(ptype, gc >> 1, gc & 1)) is not None]
            or ["pass"]
            for gc in range(4)
        ]
        test = _CMP_EXPR[op.attrs["cmp"]].format(**names)
        const = (None if None in values
                 else _CMP[op.attrs["cmp"]](*values))

        def pick(on_true: list[str], on_false: list[str]) -> list[str]:
            if const is not None:  # a literal condition picks at once
                return on_true if const else on_false
            return (["if c:"] + ["    " + line for line in on_true]
                    + ["else:"] + ["    " + line for line in on_false])

        lines = [f"c = {test}"] if const is None else []
        if op.guard is None:
            return lines + pick(table[3], table[2])
        gslot = slot(op.guard)
        return (lines + [f"if r[{gslot}]:"]
                + ["    " + line for line in pick(table[3], table[2])]
                + ["else:"]
                + ["    " + line for line in pick(table[1], table[0])])


#: single-result ops that are pure functions of their operands
_FOLDABLE = (frozenset(_UNARY) | frozenset(_BINARY) | frozenset(_TERNARY)
             | {Opcode.CMP, Opcode.FCMP, Opcode.PRED_SET})


def _fold(op, values: list[int | None]) -> int | None:
    """The integer an op over literal operands always computes, or
    ``None`` (an operand is not literal, the result is not an integer,
    or the op raises, which must then happen when it runs)."""
    if None in values:
        return None
    code = op.opcode
    if code is Opcode.PRED_SET:
        return 1 if values[0] else 0
    if code in (Opcode.CMP, Opcode.FCMP):
        fn = _CMP[op.attrs["cmp"]]
    else:
        fn = _UNARY.get(code) or _BINARY.get(code) or _TERNARY[code]
    try:
        value = fn(*values)
    except Exception:  # it must raise when the op runs
        return None
    return value if value.__class__ is int else None


def _compile_block(cache: TraceCache, fprog: FunctionProgram,
                   prog: BlockProgram):
    return _BlockCodegen(cache, fprog, prog).build()


# --------------------------------------------------------------------------
# fast engines


class _FastCallMixin:
    """What both fast engines share: the slot-list register file, frame
    setup, and the one frame loop.

    The frame loop hands each finished pass to the engine's pass
    ``observer`` (``None``: nobody watches): the functional engine's
    :class:`~repro.sim.replay.PassRecorder`, or the VLIW's
    :class:`_PassAccounting`.  An observer's ``looping`` is the block
    program whose last pass jumped to itself, which makes the next pass
    over it ``iterating``.
    """

    cache: TraceCache
    observer: object

    def _val(self, frame: _FastFrame, src):
        # the reference-engine helper on a fast frame: methods inherited
        # from the reference classes (``_do_rec``, including any
        # monkeypatched instrumentation wrapping them) call it
        if isinstance(src, VReg):
            return frame.regs[frame.fprog.slot(src)]
        if isinstance(src, (Imm, FImm)):
            return src.value
        if isinstance(src, GlobalRef):
            return self.loader.global_addr(src.name)
        raise SimError(f"cannot evaluate operand {src!r}")

    def _call(self, func, args):
        if len(args) != len(func.params):
            raise SimError(
                f"{func.name}: expected {len(func.params)} args, "
                f"got {len(args)}"
            )
        fprog = self.cache.function_program(func)
        regs = [0] * fprog.nslots
        for index, arg in zip(fprog.param_slots, args):
            regs[index] = arg
        frame = _FastFrame(func, fprog, regs, {})
        if func.frame_words:
            base = self.loader.push_frame(func.frame_words)
            if fprog.frame_base_slot is not None:
                regs[fprog.frame_base_slot] = base
        if self.profile is not None:
            fprog.calls += 1
        try:
            return self._run_frame(frame)
        finally:
            if func.frame_words:
                self.loader.pop_frame(func.frame_words)

    def _run_frame(self, frame: _FastFrame):  # noqa: C901
        fprog = frame.fprog
        prog = fprog.block_program(fprog.entry_label)
        profiling = self.profile is not None
        observer = self.observer
        max_steps = self.max_steps
        while True:
            if profiling:
                prog.passes += 1
            if observer is not None:
                iterating = observer.looping is prog
                calls = frame.calls
            n = prog.n
            run = prog.run
            if run is None:
                prog.heat -= 1
                if not prog.heat:
                    run = prog.run = _compile_block(self.cache, fprog, prog)
            if run is not None and self.steps + n <= max_steps:
                # a fused self-loop never starts a pass past the budget;
                # the per-op tail below runs the pass that crosses it
                reps, i, transfer = run(frame, (max_steps - self.steps) // n)
                if reps:
                    self.steps += reps * n
                    if profiling:
                        _fold_self_passes(prog, reps)
                    if observer is not None:
                        observer.record_repeat(fprog.name, prog, reps,
                                               iterating)
                        iterating = True
                self.steps += i
            else:
                transfer = None
                i = 0
                if self.steps + n > max_steps:
                    for step in prog.thunks:
                        self.steps += 1
                        if self.steps > max_steps:
                            raise StepLimitExceeded(
                                f"exceeded {max_steps} steps")
                        i += 1
                        transfer = step(frame)
                        if transfer is not None:
                            break
                else:
                    for step in prog.thunks:
                        i += 1
                        transfer = step(frame)
                        if transfer is not None:
                            break
                    self.steps += i
            if profiling and i:
                prog.prefix_counts[i - 1] += 1
            if observer is not None:
                observer.record(fprog.name, prog, i, transfer, iterating,
                                frame.calls - calls)
            if transfer is None:
                nxt = prog.next_label
                if nxt is None:
                    raise SimError(
                        f"{frame.func.name}: fell off the end at "
                        f"{prog.label}"
                    )
                if profiling:
                    edges = prog.edge_counts
                    edges[nxt] = edges.get(nxt, 0) + 1
                prog = fprog.block_program(nxt)
                continue
            if transfer[0] == "ret":
                return transfer[1]
            label = transfer[1]
            if profiling:
                if prog.is_cond[i - 1]:
                    prog.taken_counts[i - 1] += 1
                edges = prog.edge_counts
                edges[label] = edges.get(label, 0) + 1
            prog = fprog.block_program(label)


def _fold_self_passes(prog: BlockProgram, reps: int) -> None:
    """Profile ``reps`` passes over ``prog`` that each ran every op and
    jumped back to it from the last one, as ``reps`` passes would."""
    last = prog.n - 1
    prog.passes += reps
    prog.prefix_counts[last] += reps
    if prog.is_cond[last]:
        prog.taken_counts[last] += reps
    edges = prog.edge_counts
    edges[prog.label] = edges.get(prog.label, 0) + reps


class FastInterpreter(_FastCallMixin, Interpreter):
    """Pre-decoded functional interpreter; bit-identical to the reference
    (values, traps, profile counts).

    With ``record`` set, its pass observer is a
    :class:`~repro.sim.replay.PassRecorder` that notes every block pass
    in VLIW accounting order (a caller's pass after its callees') and
    the result carries the finished
    :class:`~repro.sim.replay.PassTrace`; a trapping run yields none.
    """

    def __init__(self, module, profile=None,
                 max_steps: int = 200_000_000, record: bool = False) -> None:
        super().__init__(module, profile=profile, max_steps=max_steps)
        self.cache = TraceCache(self, vliw=False)
        self.observer = None
        if record:
            from repro.sim.replay import PassRecorder

            self.observer = PassRecorder()

    def run(self, entry: str, args: list[int] | None = None) -> RunResult:
        func = self.module.function(entry)
        args = list(args or [])
        try:
            value = self._call(func, args)
        except BaseException:
            if self.profile is not None:
                self.profile.incomplete = True
            raise
        finally:
            if self.profile is not None:
                self.cache.finalize_profile(self.profile)
        trace = (self.observer.finish(entry, args, value, self.steps)
                 if self.observer is not None else None)
        return RunResult(value, self.steps, self.memory, self.loader,
                         self.profile, trace)


class _PassAccounting:
    """The VLIW's pass observer: charges each finished pass its cycles,
    bundles, fetch source and branch bubbles, as
    ``VLIWSimulator._account_pass`` does.  A compiled VLIW block runs one
    pass per call, so every pass arrives here by :meth:`record`."""

    __slots__ = ("sim", "looping")

    def __init__(self, sim: "FastVLIWSimulator") -> None:
        self.sim = sim
        #: the reference's ``_last_key``, as a block program
        self.looping = None

    def record(self, fname: str, prog: BlockProgram, i: int, transfer,
               iterating: bool, calls: int) -> None:
        # ``calls`` is unused: a VLIW call charges its bubble when issued
        counters = self.sim.counters
        executed = prog.executed_at[i - 1] if i else 0
        stats = prog.stats
        if stats is None:
            stats = prog.stats = counters.block_stats(*prog.key)
        stats.passes += 1
        if prog.mod_ii is not None:
            cycles = prog.mod_ii if iterating else prog.mod_len
        elif prog.cycles_at is not None:
            cycles = (prog.cycles_at[i - 1] if transfer is not None
                      else prog.sched_len)
        else:
            cycles = executed if executed else 1
        counters.cycles += cycles
        counters.bundles += cycles

        buffer = self.sim.buffer
        state = (buffer.state_of(prog.buffer_key)
                 if buffer is not None else LoopState.ABSENT)
        counters.ops_issued += executed
        lstats = prog.lstats
        if lstats is None:
            lstats = counters.per_loop.get(prog.buffer_key)
            if lstats is not None:
                prog.lstats = lstats
        if lstats is not None:
            lstats.passes += 1
        full_pass = transfer is None or i == prog.n
        if state is LoopState.RESIDENT:
            counters.ops_from_buffer += executed
            stats.ops_from_buffer += executed
            stats.buffered_passes += 1
            if lstats is not None:
                lstats.ops_from_buffer += executed
                lstats.buffered_passes += 1
        else:
            counters.ops_from_memory += executed
            stats.ops_from_memory += executed
            if lstats is not None:
                lstats.ops_from_memory += executed
            if state is LoopState.RECORDING and full_pass:
                buffer.finish_recording(prog.buffer_key)

        buffered = state is not LoopState.ABSENT
        penalty = prog.penalty
        if transfer is None:
            bubble = (penalty if (buffered and not prog.is_counted
                                  and prog.is_loop_block) else 0)
        elif transfer[0] == "ret":
            bubble = penalty
        elif transfer[1] == prog.label:
            bubble = 0 if buffered else penalty
        elif buffered and prog.is_counted and prog.is_brcloop[i - 1]:
            bubble = 0
        else:
            bubble = penalty
        counters.branch_bubbles += bubble
        counters.cycles += bubble

        self.looping = (prog if (transfer is not None
                                 and transfer[0] == "jump"
                                 and transfer[1] == prog.label)
                        else None)


class FastVLIWSimulator(_FastCallMixin, VLIWSimulator):
    """Pre-decoded cycle-level VLIW; ``SimCounters``/``LoopFetchStats`` and
    obs instants are bit-identical to the reference simulator."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.cache = TraceCache(self, vliw=True)
        self.observer = _PassAccounting(self)
