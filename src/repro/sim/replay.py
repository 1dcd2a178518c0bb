"""Simulate once, replay per capacity: pass traces and their replay.

A buffer capacity never changes *which* blocks a program executes: the
``rec`` rewrite swaps a ``cloop_set`` for a ``rec_cloop`` that loads the
same counter, or inserts a ``rec_wloop`` with no architectural effect.
Capacity only changes how the VLIW charges each pass — its fetch
source, its branch bubbles, and the schedule of the preheaders that
gained ``rec`` directives.  So a capacity sweep need not re-execute the
program per capacity:

* the fast functional interpreter, asked to (``record=True``), records a
  :class:`PassTrace` of the run: every block pass as a *kind* — block,
  ops attempted, whether it left by a taken transfer, the VLIW's
  ``iterating`` bit, and how many calls it made (each one a taken-call
  bubble) — run-length encoded into two compact arrays, plus the return
  value and step count;
* :func:`replay` then drives a real :class:`~repro.loopbuffer.model.LoopBuffer`
  through that pass sequence against one capacity overlay's ``rec``
  sites and schedules, recomputing only what capacity changes, and
  produces the same ``SimCounters``, ``LoopFetchStats`` and buffer stats
  a full :func:`repro.sim.vliw.simulate` would.

Replay walks only the runs that can see the buffer.  The buffer changes
state only at a ``rec`` (which may evict other loops) and when a loop
it recorded finishes its first pass, so a block that issues no ``rec``
in this overlay and is not the body of a loop some ``rec`` here can
install is ``ABSENT`` for the whole run, and no ``LoopFetchStats``
entry names it.  Each pass kind of such a *capacity-invariant* block
costs the same every time it runs, so replay charges it once, as its
total pass count (:class:`TraceIndex`) times its per-pass charges.  Only
the runs of the other, *live* blocks are walked, in order; a run of
identical passes closes in O(1) once its loop's buffer state is stable.
With no buffer every block is invariant and replay is O(kinds).

:func:`replay` declines (returns ``None``, and the caller simulates in
full) whenever its assumptions are not certain to hold:

* an enabled obs tracer (replay emits no ``buffer_*`` instants), or an
  instrumented ``VLIWSimulator._do_rec``;
* a different entry point or arguments than the trace recorded;
* an executed block that is missing, or whose base block no longer
  matches the fingerprint recorded with the trace;
* a block that differs from its base by anything beyond the
  ``cloop_set`` -> ``rec_cloop`` swap or an inserted ``rec_wloop``, a
  guarded ``rec``, or a ``CALL`` after a ``rec`` site (the callee's
  passes would fall between the ``rec`` and its own pass);
* a step budget the overlay exceeds (the full simulation then raises
  ``StepLimitExceeded`` at the exact op).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat

from repro.ir.opcodes import Opcode
from repro.loopbuffer.model import LoopBuffer, LoopState
from repro.sim.interp import RunResult
from repro.sim.vliw import BlockFetchStats, SimCounters, VLIWSimulator

__all__ = ["PassRecorder", "PassTrace", "ReplayedRun", "TraceIndex", "replay"]

_REC_OPS = (Opcode.REC_CLOOP, Opcode.REC_WLOOP)

#: the rec handler replay models; an instrumented replacement (the
#: fuzzer's injected faults) must see every rec, so replay declines
_STOCK_DO_REC = VLIWSimulator._do_rec


def block_fingerprint(block) -> int:
    """Identity of a block's op list (op uids survive pickling)."""
    return hash(tuple(op.uid for op in block.ops))


@dataclass(frozen=True)
class PassTrace:
    """One functional run's block passes, run-length encoded.

    ``kinds[k]`` is ``(block id, ops attempted, taken, iterating,
    calls)``; ``blocks[b]`` is ``(function, label)`` and
    ``fingerprints[b]`` the recorded block's :func:`block_fingerprint`.
    Pass ``n`` of the run is kind ``seq[r]`` for the run ``r`` covering
    it, each run repeating its kind ``reps[r]`` times.
    """

    entry: str
    args: tuple
    blocks: tuple[tuple[str, str], ...]
    fingerprints: tuple[int, ...]
    kinds: tuple[tuple[int, int, bool, bool, int], ...]
    seq: array
    reps: array
    value: object
    steps: int

    @property
    def passes(self) -> int:
        return sum(self.reps)

    @property
    def runs(self) -> int:
        return len(self.seq)

    @cached_property
    def index(self) -> TraceIndex:
        """This trace's :class:`TraceIndex`, built on first use and kept
        for the trace's lifetime (never pickled: see :meth:`__getstate__`)."""
        return TraceIndex(self)

    def __getstate__(self) -> dict:
        # the index is derived data: a trace pickles to the same bytes
        # whether or not it was ever replayed
        state = dict(self.__dict__)
        state.pop("index", None)
        return state


class TraceIndex:
    """What replay reads of a :class:`PassTrace` besides its runs.

    ``totals[k]`` is how many passes of kind ``k`` the run made;
    ``block_runs[b]`` the positions of block ``b``'s runs in ``seq``, in
    order; ``first_seen`` the block ids in the order their first pass
    ran.
    """

    __slots__ = ("totals", "block_runs", "first_seen")

    def __init__(self, trace: PassTrace) -> None:
        block_of = [kind[0] for kind in trace.kinds]
        totals = [0] * len(trace.kinds)
        block_runs = [array("I") for _ in trace.blocks]
        first_seen = []
        for position, (kid, rep) in enumerate(zip(trace.seq, trace.reps)):
            totals[kid] += rep
            runs = block_runs[block_of[kid]]
            if not runs:
                first_seen.append(block_of[kid])
            runs.append(position)
        self.totals = totals
        self.block_runs = block_runs
        self.first_seen = first_seen

    def live_runs(self, blocks: set[int]):
        """The positions of ``blocks``' runs, in run order."""
        return sorted(chain.from_iterable(self.block_runs[bid]
                                          for bid in blocks))


class PassRecorder:
    """Builds a :class:`PassTrace` pass by pass inside the fast
    functional interpreter (``FastInterpreter(record=True)``)."""

    __slots__ = ("kind_ids", "names", "seq", "reps", "last", "looping")

    def __init__(self) -> None:
        self.kind_ids: dict[tuple, int] = {}
        self.names: dict[object, str] = {}
        self.seq = array("I")
        self.reps = array("I")
        self.last = -1
        #: the block program whose last pass jumped to itself (the VLIW's
        #: ``_last_key``): the next pass over it is ``iterating``
        self.looping = None

    def record(self, fname: str, prog, attempted: int, transfer,
               iterating: bool, calls: int) -> None:
        """Note one finished pass over ``prog`` (of function ``fname``)."""
        taken = transfer is not None
        self._note(fname, (prog, attempted, taken, iterating, calls), 1)
        self.looping = (prog if taken and transfer[0] == "jump"
                        and transfer[1] == prog.label else None)

    def record_repeat(self, fname: str, prog, count: int,
                      iterating: bool) -> None:
        """Note ``count`` finished passes over ``prog`` that each ran
        every op, made no call and jumped back to ``prog`` from its last
        op: the same trace as ``count`` :meth:`record` calls, the first
        ``iterating`` as given and the rest iterating."""
        self._note(fname, (prog, prog.n, True, iterating, 0), 1)
        if count > 1:
            self._note(fname, (prog, prog.n, True, True, 0), count - 1)
        self.looping = prog

    def _note(self, fname: str, key: tuple, count: int) -> None:
        kid = self.kind_ids.get(key)
        if kid is None:
            kid = self.kind_ids[key] = len(self.kind_ids)
            self.names.setdefault(key[0], fname)
        if kid == self.last:
            self.reps[-1] += count
        else:
            self.seq.append(kid)
            self.reps.append(count)
            self.last = kid

    def finish(self, entry: str, args, value, steps: int) -> PassTrace:
        block_ids: dict[object, int] = {}
        blocks: list[tuple[str, str]] = []
        fingerprints: list[int] = []
        kinds = []
        for prog, attempted, taken, iterating, calls in self.kind_ids:
            bid = block_ids.get(prog)
            if bid is None:
                bid = block_ids[prog] = len(blocks)
                blocks.append((self.names[prog], prog.label))
                fingerprints.append(block_fingerprint(prog.block))
            kinds.append((bid, attempted, taken, iterating, calls))
        return PassTrace(entry, tuple(args), tuple(blocks),
                         tuple(fingerprints), tuple(kinds), self.seq,
                         self.reps, value, steps)


class ReplayedRun(RunResult):
    """The ``RunResult`` of a replayed simulation.

    ``value`` and ``steps`` are exact.  Replay never builds a memory
    image, so ``memory`` and ``loader`` are recomputed by one functional
    run of the simulated module on first access.
    """

    def __init__(self, value, steps: int, module, entry: str, args,
                 max_steps: int) -> None:
        self.value = value
        self.steps = steps
        self._rerun = (module, entry, list(args), max_steps)
        self._final: RunResult | None = None

    def _final_state(self) -> RunResult:
        if self._final is None:
            from repro.sim.interp import run_module

            module, entry, args, max_steps = self._rerun
            self._final = run_module(module, entry, args,
                                     max_steps=max_steps)
        return self._final

    @property
    def memory(self):
        return self._final_state().memory

    @property
    def loader(self):
        return self._final_state().loader

    def __repr__(self) -> str:
        return f"ReplayedRun(value={self.value!r}, steps={self.steps})"


# --------------------------------------------------------------------------
# replay


def _block_view(base_block, block):
    """``(index map, rec ops)`` for one simulated block, or ``None``.

    The index map sends each base op position to its position in
    ``block`` (``None``: identical op lists); rec ops come back as
    ``(position, op)``.  ``None`` means the block differs from its base
    by more than rec edits, or holds a rec replay cannot place.
    """
    ops = block.ops
    if block is base_block:
        index_map = None
        recs = [(pos, op) for pos, op in enumerate(ops)
                if op.opcode in _REC_OPS]
    else:
        base_ops = base_block.ops
        index_map = []
        recs = []
        j = 0
        for pos, op in enumerate(ops):
            base = base_ops[j] if j < len(base_ops) else None
            code = op.opcode
            if op is base:
                index_map.append(pos)
                j += 1
            elif code is Opcode.REC_WLOOP:
                pass
            elif (code is Opcode.REC_CLOOP and base is not None
                  and base.opcode is Opcode.CLOOP_SET
                  and base.guard is None and base.srcs == op.srcs
                  and base.attrs.get("lc") == op.attrs.get("lc")):
                index_map.append(pos)
                j += 1
            else:
                return None
            if code in _REC_OPS:
                recs.append((pos, op))
        if j != len(base_ops):
            return None
    if recs:
        if any(op.guard is not None for _pos, op in recs):
            return None
        first = recs[0][0]
        if any(op.opcode is Opcode.CALL for op in ops[first + 1:]):
            return None
    return index_map, recs


class _BlockPlan:
    """Capacity-dependent constants of one block, shared by its kinds."""

    __slots__ = ("key", "buffer_key", "ops", "n", "index_map", "recs",
                 "executed_at", "sched", "mod", "is_counted",
                 "is_loop_block", "stats")


def _block_plans(trace: PassTrace, module, schedules, modulo):
    plans = []
    for (fname, label), fingerprint in zip(trace.blocks,
                                           trace.fingerprints):
        func = module.functions.get(fname)
        if func is None or not func.has_block(label):
            return None
        origin = getattr(func, "_decode_origin", func)
        if not origin.has_block(label):
            return None
        base_block = origin.block(label)
        if block_fingerprint(base_block) != fingerprint:
            return None
        block = func.block(label)
        view = _block_view(base_block, block)
        if view is None:
            return None
        plan = _BlockPlan()
        plan.key = (fname, label)
        plan.buffer_key = f"{fname}/{label}"
        plan.ops = block.ops
        plan.n = len(block.ops)
        plan.index_map, plan.recs = view
        running = 0
        executed_at = [0]
        for op in block.ops:
            if op.opcode is not Opcode.NOP:
                running += 1
            executed_at.append(running)
        plan.executed_at = executed_at
        plan.sched = schedules.get(fname, {}).get(label)
        plan.mod = modulo.get(plan.key)
        term = block.terminator
        plan.is_counted = term is not None and term.opcode is Opcode.BR_CLOOP
        plan.is_loop_block = term is not None and term.target == label
        plan.stats = None
        plans.append(plan)
    return plans


def _kind_plan(plan: _BlockPlan, attempted: int, taken: bool,
               iterating: bool, calls: int, penalty: int) -> tuple:
    """One pass kind's charges on the simulated block.

    Returns ``(block plan, cycles, executed, steps, full pass, bubble when
    absent, bubble when buffered, call bubbles, recs issued)``.
    """
    n = plan.n
    if plan.index_map is not None:
        attempted = plan.index_map[attempted - 1] + 1 if taken else n
    executed = plan.executed_at[attempted]
    if plan.mod is not None:
        cycles = plan.mod.ii if iterating else plan.mod.schedule_length
    elif plan.sched is not None:
        sched = plan.sched
        cycles = sched.length
        if taken and attempted < n:
            place = sched.placement.get(plan.ops[attempted - 1].uid)
            if place is not None:
                cycles = place.cycle + 1
    else:
        cycles = max(1, executed)

    if not taken:
        absent = 0
        buffered = (penalty if not plan.is_counted and plan.is_loop_block
                    else 0)
    else:
        exit_op = plan.ops[attempted - 1]
        if exit_op.opcode is Opcode.RET:
            absent = buffered = penalty
        elif exit_op.target == plan.key[1]:
            absent, buffered = penalty, 0
        elif plan.is_counted and exit_op.opcode is Opcode.BR_CLOOP:
            absent, buffered = penalty, 0
        else:
            absent = buffered = penalty
    recs = tuple(op for pos, op in plan.recs if pos < attempted)
    return (plan, cycles, executed, attempted, not taken or attempted == n,
            absent, buffered, calls * penalty, recs)


def replay(trace: PassTrace, module, schedules, modulo, machine,
           buffer_capacity: int | None, entry: str, args, max_steps: int):
    """Replay ``trace`` against one module/schedule set.

    Returns ``(ReplayedRun, SimCounters, LoopBuffer | None)`` exactly as
    :func:`repro.sim.vliw.simulate` would, or ``None`` when the trace
    cannot stand in for execution (see the module docstring; the caller
    checks the tracer and instrumentation before calling).
    """
    if VLIWSimulator._do_rec is not _STOCK_DO_REC:
        return None
    if entry != trace.entry or tuple(args or ()) != trace.args:
        return None
    if trace.steps > max_steps:
        return None
    plans = _block_plans(trace, module, schedules, modulo or {})
    if plans is None:
        return None
    penalty = machine.branch_penalty
    kinds = [_kind_plan(plans[bid], attempted, taken, iterating, calls,
                        penalty)
             for bid, attempted, taken, iterating, calls in trace.kinds]

    buffer = LoopBuffer(buffer_capacity) if buffer_capacity else None
    counters = SimCounters()
    per_loop = counters.per_loop
    per_block = counters.per_block
    if buffer is not None:
        def on_evict(event, key, **info):
            if event == "evict":
                counters.loop_stats(key).evictions += 1
        buffer.listener = on_evict
        state_of = buffer.state_of
    absent_state = LoopState.ABSENT
    resident = LoopState.RESIDENT
    recording = LoopState.RECORDING
    index = trace.index
    # every block's stats exist from the start, in first-pass order as a
    # full simulation creates them
    for bid in index.first_seen:
        plan = plans[bid]
        plan.stats = per_block.setdefault(plan.key, BlockFetchStats())
    live = _live_blocks(plans) if buffer is not None else set()

    cycles = bundles = issued = from_buffer = from_memory = bubbles = 0
    steps = 0
    # capacity-invariant kinds: always absent, charged once by total
    for (plan, cyc, executed, attempted, _full_pass, bubble_absent,
         _bubble_buffered, call_bubbles, _recs), (bid, *_), total in zip(
            kinds, trace.kinds, index.totals):
        if bid in live:
            continue
        stats = plan.stats
        stats.passes += total
        stats.ops_from_memory += executed * total
        cycles += (cyc + call_bubbles + bubble_absent) * total
        bundles += cyc * total
        bubbles += (call_bubbles + bubble_absent) * total
        issued += executed * total
        steps += attempted * total
        from_memory += executed * total

    # live runs, in order, one pass or one run at a time
    seq, reps = trace.seq, trace.reps
    for position in index.live_runs(live):
        (plan, cyc, executed, attempted, full_pass, bubble_absent,
         bubble_buffered, call_bubbles, recs) = kinds[seq[position]]
        rep = reps[position]
        stats = plan.stats
        buffer_key = plan.buffer_key
        # a pass issuing recs changes the buffer itself: one at a time
        for count in (repeat(1, rep) if recs else (rep,)):
            for op in recs:
                loop_key = f"{plan.key[0]}/{op.attrs['loop']}"
                state = buffer.rec(loop_key, op.attrs["buf_addr"],
                                   op.attrs["num"],
                                   op.opcode is Opcode.REC_CLOOP)
                lstats = counters.loop_stats(loop_key)
                if state is resident:
                    lstats.residency_hits += 1
                else:
                    lstats.records += 1
            state = state_of(buffer_key)
            stats.passes += count
            cycles += (cyc + call_bubbles) * count
            bundles += cyc * count
            bubbles += call_bubbles * count
            issued += executed * count
            steps += attempted * count
            lstats = per_loop.get(buffer_key)
            if lstats is not None:
                lstats.passes += count
            if state is resident:
                buffered_passes = count
            elif state is recording and full_pass:
                buffer.finish_recording(buffer_key)
                buffered_passes = count - 1
            else:
                buffered_passes = 0
            to_buffer = executed * buffered_passes
            to_memory = executed * (count - buffered_passes)
            from_buffer += to_buffer
            from_memory += to_memory
            stats.buffered_passes += buffered_passes
            stats.ops_from_buffer += to_buffer
            stats.ops_from_memory += to_memory
            if lstats is not None:
                lstats.buffered_passes += buffered_passes
                lstats.ops_from_buffer += to_buffer
                lstats.ops_from_memory += to_memory
            bubble = bubble_absent if state is absent_state else \
                bubble_buffered
            cycles += bubble * count
            bubbles += bubble * count
    if steps > max_steps:
        return None
    counters.cycles = cycles
    counters.bundles = bundles
    counters.ops_issued = issued
    counters.ops_from_buffer = from_buffer
    counters.ops_from_memory = from_memory
    counters.branch_bubbles = bubbles
    result = ReplayedRun(trace.value, steps, module, entry, args or [],
                         max_steps)
    return result, counters, buffer


def _live_blocks(plans) -> set[int]:
    """Ids of the blocks whose passes can see the buffer: each block
    that holds a ``rec``, and each block whose buffer key names a loop
    some ``rec`` here can install.  Every other block is ``ABSENT`` for
    the whole run and never gets a ``LoopFetchStats`` entry."""
    installable = {f"{plan.key[0]}/{op.attrs['loop']}"
                   for plan in plans for _pos, op in plan.recs}
    return {bid for bid, plan in enumerate(plans)
            if plan.recs or plan.buffer_key in installable}
