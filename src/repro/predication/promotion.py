"""Predicate promotion: removing guards from safely-speculable operations.

Section 4.3: "One technique that helps ... is predicate promotion, the
removal of a guard from an operation that may safely be executed when the
predicate is false (although the result is unneeded).  By removing the
predicates from all but those that absolutely require guards, the compiler
reduces the stress on this critical resource."

An operation ``(p) op d = ...`` may be promoted when executing it with
``p`` false cannot change an observable value:

* the op must be speculation-safe (never stores, branches, or predicate
  defines; potentially-excepting ops use the architecture's speculative
  form, Section 7);
* every read of ``d`` reachable before an *unconditional* redefinition must
  itself be guarded by a predicate that implies ``p`` (so on ``!p``
  executions the polluted value is never consumed);
* ``d`` must not escape the block while possibly polluted: either it is
  unconditionally redefined before block end, or it is not live out.

Promotion shortens predicate live ranges and directly reduces the number of
predicate-*sensitive* operations — the quantity the slot-based predication
scheme of Section 4.2 cares about.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.liveness import liveness, op_unconditional_writes
from repro.analysis.predrel import PredicateRelations
from repro.analysis.predweb import PredicateWeb
from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.opcodes import NON_SPECULABLE, POTENTIALLY_EXCEPTING, Opcode


@dataclass
class PromotionStats:
    promoted: int = 0
    speculative_forms: int = 0


def promote_block(block: BasicBlock, func: Function,
                  live_out=None, live_info=None,
                  ctx: "_WebContext | None" = None) -> PromotionStats:
    """Promote guards within one (hyper)block.

    Implication between a consumer's guard and the promoted guard is
    first tried against block-local :class:`PredicateRelations`; when
    that fails, the global predicate web (built on demand, shared by a
    function's blocks through ``ctx``) may still prove it, with each
    guard's site set pinned at its operation's position so a mid-block
    redefinition cannot conflate two webs.
    """
    if live_info is None:
        live_info = liveness(func)
    if live_out is None:
        live_out = live_info.live_out[block.label]
    exit_live = _exit_liveness(block, func, live_info)
    stats = PromotionStats()
    relations = PredicateRelations(block)
    if ctx is None:
        ctx = _WebContext(func)

    changed = True
    while changed:
        changed = False
        for i, op in enumerate(block.ops):
            if op.guard is None:
                continue
            if op.opcode in NON_SPECULABLE or op.is_branch:
                continue
            if not op.dests or any(d.is_predicate for d in op.dests):
                continue
            if _promotable(block, i, op, relations, live_out, exit_live, ctx):
                guard = op.guard
                op.guard = None
                if op.opcode in POTENTIALLY_EXCEPTING:
                    op.attrs["speculative"] = True
                    stats.speculative_forms += 1
                stats.promoted += 1
                changed = True
        # relations unaffected: promotion does not touch predicate defines
    return stats


def _exit_liveness(block, func, live_info) -> dict[int, set]:
    """Live-in sets of each mid-block side exit's target, by op index."""
    result: dict[int, set] = {}
    for i, op in enumerate(block.ops):
        if op.is_branch and op.target is not None and func.has_block(op.target):
            if op.target != block.label:
                result[i] = live_info.live_in.get(op.target, set())
    return result


class _WebContext:
    """Lazy view of the global predicate web of one function.

    The web is only solved when block-local relations fail to prove an
    implication; promotion never touches predicate defines, so the
    solved states stay valid across the fixpoint loop and the blocks.
    """

    def __init__(self, func):
        self._func = func
        self._web = None

    def implies_execution(self, label, consumer_index, consumer_guard,
                          def_index, guard) -> bool:
        if consumer_guard is None:
            return False
        if self._web is None:
            self._web = PredicateWeb(self._func)
        pts = self._web.points(label)
        return pts[consumer_index].implies_sites(
            pts[consumer_index].sites(consumer_guard),
            pts[def_index].sites(guard))


def _promotable(block, index, op, relations: PredicateRelations, live_out,
                exit_live, ctx: _WebContext) -> bool:
    guard = op.guard
    for dest in op.dests:
        killed = False
        for j, later in enumerate(block.ops[index + 1:], start=index + 1):
            if dest in later.reads():
                if not relations.implies_execution(later.guard, guard) \
                        and not ctx.implies_execution(block.label, j,
                                                      later.guard, index,
                                                      guard):
                    return False
            # a side exit taken before the kill exposes the polluted value
            if j in exit_live and dest in exit_live[j]:
                return False
            if dest in op_unconditional_writes(later):
                killed = True
                break
        if not killed and dest in live_out:
            return False
    return True


def promote_function(func: Function) -> PromotionStats:
    """Promote across all hyperblocks of ``func``."""
    info = liveness(func)
    total = PromotionStats()
    ctx = _WebContext(func)
    for block in func.blocks:
        if not block.hyperblock:
            continue
        got = promote_block(block, func, info.live_out[block.label], info,
                            ctx=ctx)
        total.promoted += got.promoted
        total.speculative_forms += got.speculative_forms
    return total


def sensitivity_stats(func: Function) -> tuple[int, int]:
    """(guarded ops, total ops) over hyperblocks — the static fraction of
    operations that remain sensitive to predicates after promotion."""
    guarded = 0
    total = 0
    for block in func.blocks:
        if not block.hyperblock:
            continue
        for op in block.ops:
            if op.opcode == Opcode.NOP:
                continue
            total += 1
            if op.guard is not None:
                guarded += 1
    return guarded, total
