"""Capacity-symbolic retarget overlays (zero-copy ``with_buffer``).

Schedules, profiles, and modulo schedules are capacity-independent; the
only thing a buffer capacity changes is which preheaders gain ``rec``
directives.  Retargeting a compiled program to a new capacity therefore
does not need to deep-copy the module: this module plans the buffer
assignment against the shared immutable base, copies *only* the
preheader blocks the rewrite touches (copy-on-write at block
granularity), and wraps them in shallow ``Function``/``Module`` clones
that share every untouched block, operation, and global with the base.

The clones are real IR objects, so lint, the reference simulators, and
the fast engine all work on an overlay unchanged.  Each clone records
its base function (``_decode_origin``) for pass-trace replay alone:
:mod:`repro.sim.replay` uses it to find the base block a materialized
preheader was copied from and checks that only ``rec`` edits separate
them: the rewrite never changes which blocks execute, so one recorded
run of the base stands in for simulating every capacity.

List schedules are recomputed only for the copied blocks; every shared
block reuses the base artifact's ``Schedule`` object, which is what a
full reschedule of a deep copy would produce anyway (``schedule_block``
is content-deterministic, and the ``rec`` rewrite never changes
liveness: ``rec_cloop`` keeps its ``cloop_set``'s sources and guard,
``rec_wloop`` reads and writes no register, and neither is a branch).
So the copies are rescheduled from the *base* function's live-in sets,
computed once per base function (:func:`base_live_in`), and buffer
assignment places every capacity from the base's one loop scan
(:func:`loop_scan`).  ``tests/golden/retarget_grid.json`` pins the
result per benchmark cell; it was generated with that deep-copy
reschedule asserted identical.

Checked mode leans on the same sharing: it lints only what an overlay
materialized, after :func:`shared_departures` has confirmed that
everything else is the base's own object and :func:`is_rec_rewrite`
that each copy differs from its base block by ``rec`` edits alone
(DESIGN.md §5k).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.opcodes import Opcode
from repro.loopbuffer.assign import LoopCandidate, assign_buffer, scan_loops
from repro.memo import Memo


class RetargetError(ValueError):
    """Invalid retarget request (e.g. re-buffering a buffered artifact)."""


def check_capacity(capacity) -> None:
    """Raise :class:`RetargetError` unless ``capacity`` is ``None`` or a
    non-bool ``int >= 0``."""
    if capacity is not None and (type(capacity) is not int or capacity < 0):
        raise RetargetError(
            f"buffer capacity must be None or an int >= 0, got {capacity!r}")


def check_retarget(compiled, capacity) -> None:
    """Raise :class:`RetargetError` unless ``compiled`` is an unbuffered
    base and ``capacity`` passes :func:`check_capacity`: re-running
    assignment over installed ``rec`` ops would silently stack
    directives."""
    check_capacity(capacity)
    if compiled.buffer_capacity is not None:
        raise RetargetError(
            f"cannot retarget an artifact already buffered at capacity "
            f"{compiled.buffer_capacity}; recompile with "
            f"buffer_capacity=None and re-target that base instead"
        )


@dataclass(frozen=True)
class CapacityOverlay:
    """Record of what a zero-copy retarget materialized.

    ``materialized`` lists the ``(function, label)`` keys of the blocks
    that were copied to receive ``rec`` directives; every other block
    (``shared_blocks`` of them) is the base module's own object.
    """

    capacity: int | None
    materialized: tuple[tuple[str, str], ...]
    shared_blocks: int


def _clone_function(func: Function, replacements: dict[str, BasicBlock]) -> Function:
    """Shallow clone of ``func`` with some blocks swapped for copies.

    Untouched blocks (and all operations) are shared with the original.
    The clone records its origin (``_decode_origin``) only so pass-trace
    replay can find the base blocks its copies came from.
    """
    clone = func.with_blocks([replacements.get(b.label, b)
                              for b in func.blocks])
    clone._decode_origin = getattr(func, "_decode_origin", func)
    return clone


def overlay_module(
    base: Module, replacements: dict[tuple[str, str], BasicBlock]
) -> Module:
    """Shallow module view: shared globals, shared untouched functions."""
    view = Module.__new__(Module)
    view.name = base.name
    view.globals = base.globals
    per_func: dict[str, dict[str, BasicBlock]] = {}
    for (fname, label), block in replacements.items():
        per_func.setdefault(fname, {})[label] = block
    view.functions = {
        fname: (_clone_function(func, per_func[fname])
                if fname in per_func else func)
        for fname, func in base.functions.items()
    }
    return view


def is_rec_rewrite(base_block: BasicBlock, block: BasicBlock) -> bool:
    """Whether ``block`` differs from ``base_block`` by the buffer
    rewrite alone: the same label, hyperblock flag and operation objects
    in order, except that a ``cloop_set`` may have become a
    ``rec_cloop`` with its sources, guard and (empty) destinations, and
    an operand-free, unguarded ``rec_wloop`` may have been inserted.
    Neither ``rec`` op is a branch, so such a block reads, writes and
    branches to exactly what its base does (DESIGN.md §5k)."""
    if (block.label != base_block.label
            or block.hyperblock != base_block.hyperblock):
        return False
    base_ops = base_block.ops
    j = 0
    for op in block.ops:
        base = base_ops[j] if j < len(base_ops) else None
        if op is base:
            j += 1
        elif op.opcode is Opcode.REC_WLOOP:
            if op.dests or op.srcs or op.guard is not None:
                return False
        elif (op.opcode is Opcode.REC_CLOOP and base is not None
              and base.opcode is Opcode.CLOOP_SET
              and op.srcs == base.srcs and op.guard == base.guard
              and op.dests == base.dests):
            j += 1
        else:
            return False
    return j == len(base_ops)


def shared_departures(compiled, base) -> list[tuple[str | None, str | None,
                                                    str]]:
    """Where ``compiled``, a retarget of ``base``, is not the overlay its
    ``overlay`` record describes, as ``(function, block, message)``.

    Every block and list schedule outside ``overlay.materialized`` must
    be ``base``'s own object, and so must every modulo schedule, the
    machine, the function list and each function's block labels and
    parameters.  Checked mode relies on this to lint only what the
    overlay materialized (:func:`repro.pipeline.check_buffered`).
    """
    materialized = set(compiled.overlay.materialized)
    found = []
    if compiled.machine != base.machine:
        found.append((None, None, "the machine is not the base's"))
    module, base_module = compiled.module, base.module
    if list(module.functions) != list(base_module.functions):
        found.append((None, None, "the functions are not the base's"))
        return found
    for fname, label in sorted(materialized):
        if (fname not in base_module.functions
                or not base_module.functions[fname].has_block(label)):
            found.append((fname, label,
                          "a materialized block the base does not have"))
    for fname, func in module.functions.items():
        base_func = base_module.functions[fname]
        if func is base_func:
            continue
        if ([b.label for b in func.blocks]
                != [b.label for b in base_func.blocks]
                or func.params != base_func.params):
            found.append((fname, None,
                          "the blocks or parameters are not the base's"))
            continue
        for block, base_block in zip(func.blocks, base_func.blocks):
            if (block is not base_block
                    and (fname, block.label) not in materialized):
                found.append((fname, block.label,
                              "a shared block is not the base's own"))
    for fname in sorted(compiled.schedules.keys() | base.schedules.keys()):
        per = compiled.schedules.get(fname, {})
        base_per = base.schedules.get(fname, {})
        if per is base_per:
            continue
        for label in sorted(per.keys() | base_per.keys()):
            if ((fname, label) not in materialized
                    and per.get(label) is not base_per.get(label)):
                found.append((fname, label, "a shared block's list "
                              "schedule is not the base's own"))
    for key in sorted(compiled.modulo.keys() | base.modulo.keys()):
        if compiled.modulo.get(key) is not base.modulo.get(key):
            found.append((*key, "the modulo schedule is not the base's own"))
    return found


def loop_footprints(compiled) -> dict[tuple[str, str], int]:
    """Each modulo-scheduled loop's buffer footprint (kernel ops times
    the MVE factor), keyed ``(function, header)``: the ``footprint``
    that buffer assignment places ``compiled``'s loops with."""
    return {key: sched.buffered_op_count
            for key, sched in compiled.modulo.items()}


#: ``id`` of an unbuffered base ``Compiled`` -> ``(weak reference to
#: it, its loop scan)``: every capacity places the same scanned loops
LOOP_SCANS = Memo(32)

#: ``id`` of a base ``Function`` -> ``(weak reference to it, its
#: blocks' live-in sets)``: a ``rec`` edit changes no register's liveness
BASE_LIVE_IN = Memo(128)


def _per_object(memo: Memo, obj, make):
    """``make(obj)``, computed once while ``obj`` lives.  The entry is
    keyed by identity and holds only a weak reference to ``obj``: it
    keeps no base alive, and an id reused by a later object is a miss."""
    entry = memo.get(id(obj))
    if entry is None or entry[0]() is not obj:
        entry = (weakref.ref(obj), make(obj))
        memo.put(id(obj), entry)
    return entry[1]


def loop_scan(compiled) -> list[LoopCandidate]:
    """The loop scan (:func:`~repro.loopbuffer.assign.scan_loops`) of
    the unbuffered base ``compiled``, made once per base: buffer
    assignment places every capacity from it, and so does the runner's
    capacity-class planner."""
    return _per_object(LOOP_SCANS, compiled, lambda base: scan_loops(
        base.module, base.profile, loop_footprints(base)))


def base_live_in(func: Function) -> dict:
    """Each block's live-in set in base function ``func``, computed once
    per function.  They are every overlay's live-in sets too:
    ``rec_cloop`` keeps its ``cloop_set``'s sources and guard,
    ``rec_wloop`` reads and writes no register, and neither is a
    branch.  Rescheduling a copied preheader reads only these (its
    branch targets' live-in sets), so the live-out sets are not kept."""
    from repro.analysis.liveness import liveness

    return _per_object(BASE_LIVE_IN, func, lambda f: liveness(f).live_in)


def retarget_overlay(compiled, capacity: int | None,
                     overhead_aware: bool = True, assign=None):
    """Retarget ``compiled`` to ``capacity`` without copying the module.

    ``compiled`` is an unbuffered base artifact (``repro.pipeline``'s
    ``Compiled``; duck-typed here to keep the dependency one-way).
    ``assign`` overrides the assignment entry point (the pipeline passes
    its own module-level reference so instrumentation patched there
    applies).  Returns ``(module, assignment,
    schedules, overlay)`` for the caller to wrap in a new ``Compiled``.
    """
    if assign is None:
        assign = assign_buffer
    base_module = compiled.module
    materialized: dict[tuple[str, str], BasicBlock] = {}

    def cow_block(fname: str, label: str) -> BasicBlock:
        key = (fname, label)
        block = materialized.get(key)
        if block is None:
            src = base_module.function(fname).block(label)
            block = BasicBlock(src.label, src.ops)
            block.hyperblock = src.hyperblock
            materialized[key] = block
        return block

    assignment = None
    if capacity:
        assignment = assign(
            base_module, compiled.profile, capacity,
            overhead_aware=overhead_aware, get_block=cow_block,
            candidates=loop_scan(compiled),
        )

    module = (overlay_module(base_module, materialized)
              if materialized else base_module)
    schedules = {fname: scheds for fname, scheds in compiled.schedules.items()}
    if materialized:
        from repro.analysis.liveness import LivenessInfo
        from repro.sched.list_sched import exit_live_map, schedule_block

        by_func: dict[str, list[str]] = {}
        for fname, label in materialized:
            by_func.setdefault(fname, []).append(label)
        for fname, labels in by_func.items():
            func = module.function(fname)
            live = LivenessInfo(base_live_in(base_module.function(fname)))
            fsched = dict(schedules.get(fname, {}))
            for label in labels:
                block = func.block(label)
                fsched[label] = schedule_block(
                    block, compiled.machine,
                    exit_live=exit_live_map(func, block, live),
                )
            schedules[fname] = fsched

    total_blocks = sum(len(f.blocks) for f in base_module.functions.values())
    overlay = CapacityOverlay(
        capacity=capacity,
        materialized=tuple(sorted(materialized)),
        shared_blocks=total_blocks - len(materialized),
    )
    return module, assignment, schedules, overlay
