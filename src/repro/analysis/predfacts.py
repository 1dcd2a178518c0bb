"""Shared predicate-fact semantics: redefinition kinds, gen, closure.

Both predicate relation analyses — the block-local
:class:`~repro.analysis.predrel.PredicateRelations` and the global
:class:`~repro.analysis.predweb.PredicateWeb` — reason in the same fact
language and must agree on what a redefinition does to standing facts
(the ``ot``-accumulation question: an or-type define *grows* its
destination, so "x implies dest" facts survive it while "dest implies x"
facts do not).  This module owns that vocabulary once; the two analyses
differ only in their atoms (virtual registers locally, definition sites
globally) and in how facts flow.

Fact language (atoms are any hashable, orderable-by-``repr`` values):

``("s", a, b)``
    ``a`` true implies ``b`` true (subset of executions).
``("d", a, b)``
    ``a`` and ``b`` are never both true (disjoint); stored with the
    atoms in normalized order, build via :func:`dfact`.
``("z", a)``
    ``a`` is known false (the ``pred_set p = 0`` web roots); implies
    disjointness with everything and subset of everything, applied at
    query time rather than materialized.

Redefinition kinds (Table 2 of the paper, by destination type):

=============  ==============================================  =========
kind           writes                                          fact kill
=============  ==============================================  =========
REPLACE        always, a fresh value (``ut``/``uf``; unguarded  all facts
               ``ct``/``cf``/``pred_set``)                     about dest
STRENGTHEN     only ones (``ot``/``of``) — dest grows           keep x⊆dest
WEAKEN         only zeros (``at``/``af``) — dest shrinks        keep dest⊆x,
                                                               disjoint, zero
MERGE          sometimes, a fresh value (guarded ``ct``/``cf``  all facts
               /``pred_set``; opaque writes)                   about dest
=============  ==============================================  =========
"""

from __future__ import annotations

from collections import defaultdict
from typing import Hashable, Iterable

from repro.ir.opcodes import Opcode

REPLACE = "replace"
STRENGTHEN = "strengthen"
WEAKEN = "weaken"
MERGE = "merge"


def dfact(a: Hashable, b: Hashable) -> tuple:
    """A normalized disjointness fact."""
    a, b = sorted((a, b), key=repr)
    return ("d", a, b)


def redefinition_kind(opcode: Opcode, ptype: str | None,
                      guarded: bool) -> str:
    """How a write to a predicate register treats the standing value."""
    if opcode == Opcode.PRED_SET:
        return MERGE if guarded else REPLACE
    if opcode == Opcode.PRED_DEF:
        if ptype in ("ut", "uf"):
            return REPLACE  # Table 2: written under both guard polarities
        if ptype in ("ot", "of"):
            return STRENGTHEN
        if ptype in ("at", "af"):
            return WEAKEN
        if ptype in ("ct", "cf"):
            return MERGE if guarded else REPLACE
        raise ValueError(f"unknown predicate define type {ptype!r}")
    return MERGE  # opaque write: assume nothing


def kill_for_redefinition(facts: set, atom: Hashable, kind: str) -> set:
    """Facts surviving a redefinition of ``atom`` of the given kind."""
    if kind in (REPLACE, MERGE):
        return {f for f in facts if atom not in f[1:]}
    if kind == STRENGTHEN:
        # dest only gains executions: x ⊆ dest survives, all else dies
        return {
            f for f in facts
            if atom not in f[1:] or (f[0] == "s" and f[2] == atom)
        }
    if kind == WEAKEN:
        # dest only loses executions: dest ⊆ x, disjointness and known-
        # zero survive, x ⊆ dest dies
        return {
            f for f in facts
            if atom not in f[1:]
            or (f[0] == "s" and f[1] == atom)
            or f[0] in ("d", "z")
        }
    raise ValueError(f"unknown redefinition kind {kind!r}")


# -- closure ------------------------------------------------------------------

def close_pred_facts(facts: Iterable[tuple]) -> frozenset:
    """Saturate a predicate fact set under the three closure rules:
    ``a ⊆ b ⊆ c => a ⊆ c``, ``a ⊆ b ∦ c => a ∦ c`` (both for ``a != c``)
    and ``a ⊆ b``, ``b`` known-zero ``=> a`` known-zero.

    One worklist pass over indexed facts: ``supers`` for subset facts,
    ``disj`` for disjointness, ``zeros`` for the input's known-zero
    atoms.  Every rule has a subset premise, and only subset facts go
    through the worklist.  A popped ``a ⊆ b`` extends ``a`` by the
    supersets of ``b``, queueing the new facts, so the popped facts
    reach the transitive closure; it also takes on the disjointness
    facts of ``b`` indexed so far, and is known-zero when ``b`` is.
    Derived disjointness is indexed at once, so of the two subset facts
    that carry an input ``b ∦ c`` down to ``x ∦ y``, the one popped
    second sees what the first derived (DESIGN.md §5c).
    """
    closed = set(facts)
    supers, disj = defaultdict(set), defaultdict(set)
    zeros = {f[1] for f in closed if f[0] == "z"}
    work = []
    for f in closed:
        if f[0] == "s":
            supers[f[1]].add(f[2])
            work.append(f)
        elif f[0] == "d":
            disj[f[1]].add(f[2])
            disj[f[2]].add(f[1])
    while work:
        _, a, b = work.pop()
        for c in [c for c in supers[b] if c != a and c not in supers[a]]:
            supers[a].add(c)
            work.append(("s", a, c))
            closed.add(("s", a, c))
        for c in [c for c in disj[b] if c != a and c not in disj[a]]:
            disj[a].add(c)
            disj[c].add(a)
            closed.add(dfact(a, c))
        if b in zeros:
            closed.add(("z", a))
    return frozenset(closed)


# -- queries ------------------------------------------------------------------

def facts_disjoint(facts, a: Hashable, b: Hashable) -> bool:
    """``a`` and ``b`` provably never both true (``a != b`` assumed)."""
    return (dfact(a, b) in facts
            or ("z", a) in facts or ("z", b) in facts)


def facts_subset(facts, a: Hashable, b: Hashable) -> bool:
    """``a`` true provably implies ``b`` true."""
    return a == b or ("s", a, b) in facts or ("z", a) in facts
