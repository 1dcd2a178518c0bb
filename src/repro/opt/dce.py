"""Global dead-code elimination (predicate-aware liveness based).

Also provides the paper's *partial dead-code removal* flavour
(Section 3 / Figure 2(d)): an operation whose value is consumed only by
operations guarded under a single predicate can itself be guarded under
that predicate, making it dead (nullified) on the executions where its
result was unused — turning fully-sequential code into parallelizable
disjoint-predicate code.
"""

from __future__ import annotations

from repro.analysis.liveness import liveness, op_unconditional_writes
from repro.analysis.predweb import PredicateWeb
from repro.ir.function import Function
from repro.ir.opcodes import NON_SPECULABLE, Opcode
from repro.ir.registers import VReg


def eliminate_dead_code(func: Function) -> int:
    """Remove side-effect-free ops whose destinations are all dead.

    Iterates to a fixed point (removing one op can kill its inputs).
    Returns the number of operations removed.
    """
    removed_total = 0
    while True:
        removed = _dce_once(func)
        removed_total += removed
        if removed == 0:
            return removed_total


def _dce_once(func: Function) -> int:
    info = liveness(func)
    removed = 0
    for block in func.blocks:
        live = set(info.live_out[block.label])
        keep: list = []
        for op in reversed(block.ops):
            # a mid-block side exit revives whatever is live on its taken
            # path: kills *below* the branch do not hold on the exit path
            if op.is_branch and op.target is not None \
                    and func.has_block(op.target):
                live |= info.live_in[op.target]
            removable = (
                not op.has_side_effects
                and not op.is_branch
                and op.opcode != Opcode.NOP
                and op.dests
                and all(dst not in live for dst in op.dests)
            )
            if op.opcode == Opcode.NOP:
                removed += 1
                continue
            if removable:
                removed += 1
                continue
            keep.append(op)
            live -= set(op_unconditional_writes(op))
            live |= set(op.reads())
        keep.reverse()
        block.ops = keep
    return removed


def sink_partially_dead(func: Function, web: PredicateWeb | None = None) -> int:
    """Partial dead-code removal by predication.

    If an unguarded, speculation-safe operation's destination is read
    only by guarded operations (before any unconditional redefinition),
    and one consumer's guard ``p`` is implied by every other consumer's
    guard, guard the defining operation by ``p``.  The definition then no
    longer executes on iterations where ``p`` is false, and
    disjoint-guard scheduling can overlap it with the ``!p`` work (the
    Figure 2(d) ``mov r2 = 0`` / ``add r2 = r2, 1`` pattern).

    Consumers under a *single* shared guard need no relation facts; mixed
    guards are accepted when the predicate web proves the implications
    (``g ⊆ p`` at each consumer), and web-proven definedness of ``p`` at
    the define replaces the old requirement that ``p`` be assigned
    earlier in the same block.
    """
    changed = 0
    info = liveness(func)
    for block in func.blocks:
        exit_live: set = set()
        for op in block.ops:
            if op.is_branch and op.target is not None \
                    and func.has_block(op.target) and op.target != block.label:
                exit_live |= info.live_in[op.target]
        points = None
        for i, op in enumerate(block.ops):
            if op.guard is not None or len(op.dests) != 1:
                continue
            if op.opcode in NON_SPECULABLE or op.has_side_effects or op.is_branch:
                continue
            dest = op.dests[0]
            if dest.is_predicate or dest in exit_live:
                continue
            consumers = _guarded_consumers(block.ops, i, dest,
                                           info.live_out[block.label])
            if not consumers:
                continue
            if points is None:
                # guarding a non-predicate op never changes the web
                if web is None:
                    web = PredicateWeb(func)
                points = web.points(block.label)
            guard = _covering_guard(op, i, consumers, block.ops, points)
            if guard is not None:
                op.guard = guard
                changed += 1
    return changed


def _guarded_consumers(ops, def_index, dest: VReg,
                       block_live_out) -> list[tuple[int, VReg]] | None:
    """The ``(index, guard)`` consumers of ``dest`` after ``def_index``,
    or None when a consumer is unguarded / dest escapes the block."""
    consumers: list[tuple[int, VReg]] = []
    for j, op in enumerate(ops[def_index + 1:], start=def_index + 1):
        if dest in op.reads():
            if op.guard is None:
                return None
            consumers.append((j, op.guard))
        if dest in op_unconditional_writes(op):
            # the redefinition masks any escape; the value cannot leak
            return consumers or None
    if dest in block_live_out:
        return None  # value escapes the block; must stay unconditional
    return consumers or None


def _covering_guard(op, def_index, consumers, ops, points) -> VReg | None:
    """A consumer guard ``p`` that every consumer's guard implies, stable
    and defined at the define's position — or None."""
    candidates: list[VReg] = []
    for _j, guard in consumers:
        if guard not in candidates:
            candidates.append(guard)
    for p in candidates:
        if p in op.dests:
            continue
        # p must keep its value from the define to the last consumer; a
        # later write anywhere in the block disqualifies it
        if any(p in later.dests for later in ops[def_index + 1:]):
            continue
        if points[def_index].possibly_undefined(p):
            continue
        if all(g == p or points[j].implies(g, p) for j, g in consumers):
            return p
    return None
