"""Cycle-level VLIW simulation with loop-buffer fetch accounting.

Execution is architecturally exact (same operation semantics as the
functional interpreter — transformed programs are verified to produce
identical memory/return results), while time and fetch are charged from
the static schedules, exactly the quantities the paper's evaluation uses:

* **cycles** — one per issued bundle, plus taken-branch bubbles
  (``machine.branch_penalty``) whenever fetch is redirected without the
  loop buffer's help.  Modulo-scheduled loops charge their fill
  (schedule length) on the first iteration of an entry and II per
  iteration thereafter.
* **operations fetched** — per pass over a block, its (compressed-format,
  NOP-free) operations, attributed to the loop buffer or global memory
  according to the buffer state machine: a ``rec_*`` loop's first
  iteration records while fetching from memory; subsequent iterations
  (and re-entries whose image is still intact per the residency table)
  issue from the buffer.
* **branch bubbles** — buffered counted loops (``rec_cloop`` +
  ``br_cloop``) loop back and fall out for free; buffered while-loops
  loop back for free but pay one bubble at exit; everything else pays on
  every taken transfer.

None of these charges changes which blocks execute, so :func:`simulate`
given a base's pass trace (``Compiled.pass_trace``) replays it instead
of re-executing the program (:mod:`repro.sim.replay`): the same
counters from one functional run per base rather than one per capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.opcodes import Opcode
from repro.loopbuffer.model import LoopBuffer, LoopState
from repro.obs import get_tracer
from repro.sched.machine import DEFAULT_MACHINE, MachineDescription
from repro.sim.interp import Interpreter


@dataclass
class BlockFetchStats:
    passes: int = 0
    buffered_passes: int = 0
    ops_from_buffer: int = 0
    ops_from_memory: int = 0


@dataclass
class LoopFetchStats:
    """Loop-buffer lifecycle counters for one recorded loop.

    Keyed like :class:`repro.loopbuffer.model.LoopBuffer` residency
    entries (``"func/header"``); an entry exists only once the loop's
    ``rec_*`` operation has executed at least once.
    """

    records: int = 0          # recording passes started
    residency_hits: int = 0   # rec skipped: image still intact
    evictions: int = 0        # overwritten by another loop's recording
    passes: int = 0           # dynamic passes over the loop body
    buffered_passes: int = 0  # passes issued from the buffer
    ops_from_buffer: int = 0
    ops_from_memory: int = 0

    @property
    def buffer_issue_fraction(self) -> float:
        fetched = self.ops_from_buffer + self.ops_from_memory
        if fetched == 0:
            return 0.0
        return self.ops_from_buffer / fetched

    def as_tuple(self) -> tuple[int, int, int, int, int, int, int]:
        """Canonical value form, for differential comparison and hashing."""
        return (self.records, self.residency_hits, self.evictions,
                self.passes, self.buffered_passes,
                self.ops_from_buffer, self.ops_from_memory)


@dataclass
class SimCounters:
    cycles: int = 0
    bundles: int = 0
    ops_issued: int = 0
    ops_from_buffer: int = 0
    ops_from_memory: int = 0
    branch_bubbles: int = 0
    per_block: dict[tuple[str, str], BlockFetchStats] = field(default_factory=dict)
    per_loop: dict[str, LoopFetchStats] = field(default_factory=dict)

    @property
    def buffer_issue_fraction(self) -> float:
        if self.ops_issued == 0:
            return 0.0
        return self.ops_from_buffer / self.ops_issued

    def block_stats(self, func: str, label: str) -> BlockFetchStats:
        return self.per_block.setdefault((func, label), BlockFetchStats())

    def loop_stats(self, key: str) -> LoopFetchStats:
        return self.per_loop.setdefault(key, LoopFetchStats())

    def loop_table(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """Sorted ``(loop key, counters)`` rows — a canonical per-loop
        snapshot two simulations can be compared (or hashed) by."""
        return tuple((key, self.per_loop[key].as_tuple())
                     for key in sorted(self.per_loop))


class VLIWSimulator(Interpreter):
    """Executes a module charging cycles/fetch against its schedules.

    ``schedules`` maps function name -> {block label -> Schedule};
    ``modulo`` maps (function, label) -> ModuloSchedule for loop bodies
    that were software-pipelined.
    """

    def __init__(
        self,
        module: Module,
        schedules: dict[str, dict[str, object]],
        modulo: dict[tuple[str, str], object] | None = None,
        machine: MachineDescription = DEFAULT_MACHINE,
        buffer: LoopBuffer | None = None,
        max_steps: int = 200_000_000,
    ) -> None:
        super().__init__(module, profile=None, max_steps=max_steps)
        self.schedules = schedules
        self.modulo = dict(modulo or {})
        self.machine = machine
        self.buffer = buffer
        self.counters = SimCounters()
        self.tracer = get_tracer()
        self._last_key: tuple[str, str] | None = None
        if buffer is not None and buffer.listener is None:
            buffer.listener = self._on_buffer_event

    # -- execution with accounting ---------------------------------------------

    def _run_block(self, frame, block):
        func: Function = frame.func
        key = (func.name, block.label)
        iterating = self._last_key == key

        transfer = None
        transfer_index = None
        executed = 0
        for index, op in enumerate(block.ops):
            self.steps += 1
            if self.steps > self.max_steps:
                from repro.sim.interp import StepLimitExceeded

                raise StepLimitExceeded(f"exceeded {self.max_steps} steps")
            if op.opcode != Opcode.NOP:
                executed += 1
            if op.opcode in (Opcode.REC_CLOOP, Opcode.REC_WLOOP):
                self._do_rec(frame, key, op)
                continue
            guard_ok = True
            if op.guard is not None:
                guard_ok = bool(frame.regs.get(op.guard, 0))
            if op.opcode == Opcode.PRED_DEF:
                self._exec_pred_def(frame, op, guard_ok)
                continue
            if not guard_ok:
                continue
            if op.opcode == Opcode.CALL:
                self.counters.branch_bubbles += self.machine.branch_penalty
                self.counters.cycles += self.machine.branch_penalty
            step = self._exec_op(frame, op)
            if step is not None:
                transfer = step
                transfer_index = index
                break

        full_pass = transfer_index is None or transfer_index == len(block.ops) - 1
        self._account_pass(func, block, key, iterating, transfer,
                           transfer_index, executed, full_pass)
        self._last_key = key if (transfer is not None
                                 and transfer[0] == "jump"
                                 and transfer[1] == block.label) else None
        return transfer

    # -- helpers -----------------------------------------------------------------

    def _do_rec(self, frame, key, op) -> None:
        if self.buffer is not None:
            loop_label = op.attrs["loop"]
            buffer_key = f"{key[0]}/{loop_label}"
            state = self.buffer.rec(
                key=buffer_key,
                offset=op.attrs["buf_addr"],
                length=op.attrs["num"],
                counted=op.opcode == Opcode.REC_CLOOP,
            )
            lstats = self.counters.loop_stats(buffer_key)
            if state is LoopState.RESIDENT:
                lstats.residency_hits += 1
                event = "buffer_hit"
            else:
                lstats.records += 1
                event = "buffer_record"
            if self.tracer.enabled:
                self.tracer.instant(event, category="sim",
                                    ts=self.counters.cycles, clock="cycles",
                                    loop=buffer_key)
        if op.opcode == Opcode.REC_CLOOP and op.srcs:
            frame.lc[op.attrs["lc"]] = int(self._val(frame, op.srcs[0]))

    def _on_buffer_event(self, event: str, key: str, **info) -> None:
        if event == "evict":
            self.counters.loop_stats(key).evictions += 1
            if self.tracer.enabled:
                self.tracer.instant("buffer_evict", category="sim",
                                    ts=self.counters.cycles, clock="cycles",
                                    loop=key, by=info.get("by"))

    def _account_pass(self, func, block, key, iterating, transfer,
                      transfer_index, executed, full_pass) -> None:
        counters = self.counters
        stats = counters.block_stats(*key)
        stats.passes += 1

        # --- cycles / bundles ----------------------------------------------------
        mod = self.modulo.get(key)
        sched = self.schedules.get(func.name, {}).get(block.label)
        if mod is not None and iterating:
            cycles = mod.ii
        elif mod is not None:
            cycles = mod.schedule_length
        elif sched is not None:
            if transfer_index is not None and transfer_index < len(block.ops) - 1:
                op = block.ops[transfer_index]
                place = sched.placement.get(op.uid)
                cycles = (place.cycle + 1) if place is not None else sched.length
            else:
                cycles = sched.length
        else:
            cycles = max(1, executed)  # unscheduled fallback: 1 op / cycle
        counters.cycles += cycles
        counters.bundles += cycles

        # --- fetch source ------------------------------------------------------------
        buffer_key = f"{key[0]}/{key[1]}"
        state = (self.buffer.state_of(buffer_key)
                 if self.buffer is not None else LoopState.ABSENT)
        counters.ops_issued += executed
        lstats = counters.per_loop.get(buffer_key)
        if lstats is not None:
            lstats.passes += 1
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
                self.buffer.finish_recording(buffer_key)

        # --- branch bubbles --------------------------------------------------------------
        bubble = self._bubble_for(block, key, transfer, transfer_index, state)
        counters.branch_bubbles += bubble
        counters.cycles += bubble

    def _bubble_for(self, block, key, transfer, transfer_index, state) -> int:
        penalty = self.machine.branch_penalty
        buffered = state is not LoopState.ABSENT
        is_counted = (block.terminator is not None
                      and block.terminator.opcode == Opcode.BR_CLOOP)

        if transfer is None:
            # fell through the block end; a buffered while-loop exits by
            # mispredicting its loop-back, a counted one falls out for free
            if buffered and not is_counted and self._is_loop_block(block):
                return penalty
            return 0
        kind, payload = transfer
        if kind == "ret":
            return penalty
        taken_op = block.ops[transfer_index]
        if payload == block.label:
            # loop-back branch: free from the buffer, a bubble otherwise
            return 0 if buffered else penalty
        if (buffered and is_counted and taken_op.opcode == Opcode.BR_CLOOP):
            return 0
        return penalty

    @staticmethod
    def _is_loop_block(block) -> bool:
        term = block.terminator
        return term is not None and term.target == block.label


def simulate(
    module: Module,
    schedules: dict[str, dict[str, object]],
    modulo: dict[tuple[str, str], object] | None = None,
    machine: MachineDescription = DEFAULT_MACHINE,
    buffer_capacity: int | None = 256,
    entry: str = "main",
    args: list[int] | None = None,
    max_steps: int = 200_000_000,
    trace=None,
):
    """Run a scheduled module on the predecoded
    :class:`~repro.sim.engine.FastVLIWSimulator`; returns (RunResult,
    SimCounters, LoopBuffer).  This module's :class:`VLIWSimulator` is
    the reference it answers to; oracles construct it directly.

    ``trace`` is the :class:`~repro.sim.replay.PassTrace` of the
    unbuffered base this module retargets (``Compiled.pass_trace``).
    Given one, the simulator *replays* it instead of re-executing the
    program (:mod:`repro.sim.replay`): same counters, buffer stats, value
    and step count, with ``memory``/``loader`` recomputed on demand.
    Replay is skipped — and the module simulated in full — under an
    enabled obs tracer and wherever :func:`repro.sim.replay.replay`
    declines.
    """
    from repro.sim.engine import FastVLIWSimulator

    if trace is not None and not get_tracer().enabled:
        from repro.sim.replay import replay

        replayed = replay(trace, module, schedules, modulo, machine,
                          buffer_capacity, entry, args, max_steps)
        if replayed is not None:
            return replayed

    buffer = LoopBuffer(buffer_capacity) if buffer_capacity else None
    sim = FastVLIWSimulator(module, schedules, modulo, machine, buffer,
                            max_steps=max_steps)
    return sim.run(entry, args), sim.counters, buffer
