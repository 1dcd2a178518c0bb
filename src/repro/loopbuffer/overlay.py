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
the fast engine all work on an overlay unchanged — and because untouched
``BasicBlock`` objects are shared across capacities, the fast engine's
shared decode store (:mod:`repro.sim.engine`) decodes them once for an
entire capacity sweep.

List schedules are recomputed only for the copied blocks; every shared
block reuses the base artifact's ``Schedule`` object, which is what a
full reschedule of a deep copy would produce anyway (``schedule_block``
is content-deterministic, and the ``rec`` rewrite never changes
liveness: ``rec_cloop`` keeps its ``cloop_set``'s sources and
``rec_wloop`` has none).  ``tests/golden/retarget_grid.json`` pins the
result per benchmark cell; it was generated with that deep-copy
reschedule asserted identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.module import Module
from repro.loopbuffer.assign import assign_buffer


class RetargetError(ValueError):
    """Invalid retarget request (e.g. re-buffering a buffered artifact)."""


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

    @property
    def materialized_blocks(self) -> int:
        return len(self.materialized)


def _clone_function(func: Function, replacements: dict[str, BasicBlock]) -> Function:
    """Shallow clone of ``func`` with some blocks swapped for copies.

    Untouched blocks (and all operations) are shared with the original.
    The clone records its origin so the fast engine can key its shared
    decode layout by the base function: the rec rewrite never introduces
    or removes virtual registers, so base and clone have identical
    register populations and slot layouts.
    """
    clone = Function.__new__(Function)
    clone.name = func.name
    clone.params = list(func.params)
    clone.blocks = [replacements.get(b.label, b) for b in func.blocks]
    clone._by_label = {b.label: b for b in clone.blocks}
    clone._next_reg = dict(func._next_reg)
    clone._next_label = func._next_label
    clone.frame_words = func.frame_words
    clone.frame_base = func.frame_base
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


def retarget_overlay(compiled, capacity: int | None,
                     overhead_aware: bool = True, tracer=None,
                     assign=None):
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
        footprint = {key: sched.buffered_op_count
                     for key, sched in compiled.modulo.items()}
        assignment = assign(
            base_module, compiled.profile, capacity, footprint=footprint,
            overhead_aware=overhead_aware, tracer=tracer,
            get_block=cow_block,
        )

    module = (overlay_module(base_module, materialized)
              if materialized else base_module)
    schedules = {fname: scheds for fname, scheds in compiled.schedules.items()}
    if materialized:
        from repro.analysis.liveness import liveness
        from repro.sched.list_sched import exit_live_map, schedule_block

        by_func: dict[str, list[str]] = {}
        for fname, label in materialized:
            by_func.setdefault(fname, []).append(label)
        for fname, labels in by_func.items():
            func = module.function(fname)
            live = liveness(func)
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
