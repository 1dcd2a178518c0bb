"""Predicate relation analysis (block-local).

Section 3 of the paper: "it is necessary for the compiler to be able to
understand the relations among predicates to perform effective optimization
on and around predication."  The classic example (Figure 2(d)) is that
``(p1) mov r2 = 0`` and ``(p2) add r2 = r2, 1`` may execute in the same
cycle because ``p1`` and ``p2`` come from the complementary destinations of
one define and are therefore *disjoint*.

We track, per straight-line region, which predicate pairs are disjoint
(never simultaneously true) and which are subsets (p true implies q true),
derived from define patterns:

* ``pred_def cmp p<ut>, q<uf> = a, b`` makes p,q disjoint (the pair is
  written under both guard polarities); an unguarded ``ct``/``cf`` pair
  is likewise disjoint, but a *guarded* one is not — when the guard is
  false both destinations keep their old, unrelated values.
* a ``ut``/``uf``-type define under guard ``g`` makes its dest a subset
  of ``g``.

Redefinitions are classified by the shared semantics in
:mod:`repro.analysis.predfacts`: an unconditional define starts a fresh
web (all standing facts about the destination die), while an ``ot``/``of``
accumulation only *grows* its destination, so "x implies dest" facts
survive it.  The flow-insensitive summary remains sound for the
single-assignment-ish webs produced by if-conversion; the global
:mod:`repro.analysis.predweb` analysis is the flow-sensitive refinement.
"""

from __future__ import annotations


from repro.ir.block import BasicBlock
from repro.ir.opcodes import Opcode
from repro.ir.registers import VReg

from .predfacts import (
    close_pred_facts,
    dfact,
    facts_disjoint,
    facts_subset,
    kill_for_redefinition,
    redefinition_kind,
)

#: complementary destination-type pairs of one define whose values can
#: never both be 1; ``ct``/``cf`` qualify only when the define is
#: unguarded (see module docstring).
_ALWAYS_COMPLEMENTARY = {("ut", "uf"), ("uf", "ut")}
_UNGUARDED_COMPLEMENTARY = {("ct", "cf"), ("cf", "ct")}


def block_pred_facts(block: BasicBlock) -> frozenset:
    """The closed predicate fact set of one block, over register atoms."""
    facts: set = set()
    for op in block.ops:
        if op.opcode == Opcode.PRED_SET:
            kind = redefinition_kind(op.opcode, None, op.guard is not None)
            facts = kill_for_redefinition(facts, op.dests[0], kind)
            continue
        if op.opcode != Opcode.PRED_DEF:
            for dst in op.dests:
                if dst.is_predicate:
                    facts = kill_for_redefinition(
                        facts, dst, redefinition_kind(
                            op.opcode, None, op.guard is not None))
            continue
        ptypes = op.attrs["ptypes"]
        guard = op.guard
        for dst, ptype in zip(op.dests, ptypes):
            kind = redefinition_kind(op.opcode, ptype, guard is not None)
            facts = kill_for_redefinition(facts, dst, kind)
        if len(op.dests) == 2 and op.dests[0] != op.dests[1]:
            pair = (ptypes[0], ptypes[1])
            if pair in _ALWAYS_COMPLEMENTARY or (
                    guard is None and pair in _UNGUARDED_COMPLEMENTARY):
                facts.add(dfact(op.dests[0], op.dests[1]))
        for dst, ptype in zip(op.dests, ptypes):
            if guard is not None and ptype in ("ut", "uf"):
                facts.add(("s", dst, guard))
    return close_pred_facts(facts)


class PredicateRelations:
    """Disjointness / subset facts for the predicates of one block.

    The analysis is flow-insensitive within the block but applies the
    shared redefinition semantics when a predicate is rewritten, which is
    sound for the single-assignment-ish predicate webs produced by
    if-conversion.
    """

    def __init__(self, block: BasicBlock) -> None:
        self._facts = block_pred_facts(block)

    # -- queries -----------------------------------------------------------------

    def disjoint(self, a: VReg | None, b: VReg | None) -> bool:
        """True when operations guarded by ``a`` and ``b`` can never both
        execute.  ``None`` (always-true guard) is disjoint with nothing."""
        if a is None or b is None or a == b:
            return False
        return facts_disjoint(self._facts, a, b)

    def subset(self, a: VReg, b: VReg) -> bool:
        """True when ``a`` true implies ``b`` true."""
        return facts_subset(self._facts, a, b)

    def implies_execution(self, a: VReg | None, b: VReg | None) -> bool:
        """True when op guarded by ``a`` executing implies op guarded by
        ``b`` executes (used to prove a conditional write is a kill)."""
        if b is None:
            return True
        if a is None:
            return False
        return self.subset(a, b)
