"""Predicate-web lint rules: global, flow-sensitive predicate sanity.

These rules consult :mod:`repro.analysis.predweb` — the psi-style
global predicate relation analysis — so they can reason about facts the
block-local summary cannot: definedness through *partial* define chains
(an ``ot`` accumulation without a ``pred_set`` root), disjointness of
co-scheduled writes proven semantically rather than by syntactic define
pairing, and flow-insensitive facts that silently span a predicate
redefinition.
"""

from __future__ import annotations

from repro.analysis.predfacts import MERGE, REPLACE, redefinition_kind
from repro.analysis.predrel import block_pred_facts
from repro.analysis.predweb import PredicateWeb
from repro.ir.opcodes import Opcode

from .diagnostics import Severity
from .engine import LintTarget, rule
from .rules_sched import _same_value_write, _scheduled_blocks


@rule("pred-undef-web", Severity.WARNING, "ir")
def check_pred_undef_web(target: LintTarget, make) -> None:
    """An operation's guard may be undefined through a partial-define
    chain: every reaching define is conditional (or-/and-/c-type or
    guarded), so some path leaves the predicate unwritten.  The
    must-defined ``undef-guard`` rule cannot see this — it deliberately
    counts partial writes as definitions."""
    for func in target.selected_functions():
        web = None
        for block in func.blocks:
            points = None
            for index, op in enumerate(block.ops):
                if op.guard is None:
                    continue
                if points is None:
                    if web is None:
                        web = PredicateWeb(func)
                    points = web.points(block.label)
                if points[index].possibly_undefined(op.guard):
                    make(f"{op!r} is guarded by {op.guard!r} whose reaching "
                         f"defines are all partial; a path can leave it "
                         f"unwritten", function=func.name, block=block.label,
                         index=index)


@rule("pred-cycle-disjoint", Severity.WARNING, "sched")
def check_pred_cycle_disjoint(target: LintTarget, make) -> None:
    """Two co-issued writes to one register are not justified by
    *web-proven* guard disjointness (or a same-value or-/and-type pair).
    ``pred-write-overlap`` accepts the block-local syntactic argument;
    this rule re-proves it against the global predicate webs, with each
    guard's site set pinned at its operation's original position."""
    for func, block, sched in _scheduled_blocks(target):
        web = None
        points = None
        index_of = {op.uid: i for i, op in enumerate(block.ops)}
        by_op = {op.uid: op for op in block.ops}
        for bundle in sched.bundles:
            writers: dict = {}
            for _slot, op in bundle.in_slot_order():
                op = by_op.get(op.uid, op)
                if op.uid not in index_of:
                    continue  # sched-complete / modulo-stale report drift
                for reg in op.writes():
                    writers.setdefault(reg, []).append(op)
            for reg, ops in writers.items():
                for i in range(len(ops)):
                    for j in range(i + 1, len(ops)):
                        a, b = ops[i], ops[j]
                        if _same_value_write(a, reg, b, reg):
                            continue
                        if a.guard is None or b.guard is None \
                                or a.guard == b.guard:
                            make(f"{a!r} and {b!r} co-issue a write to "
                                 f"{reg!r} in cycle {bundle.cycle} without "
                                 f"disjoint guards", function=func.name,
                                 block=block.label)
                            continue
                        if web is None:
                            web = PredicateWeb(func)
                            points = web.points(block.label)
                        ia, ib = index_of[a.uid], index_of[b.uid]
                        later = points[max(ia, ib)]
                        sites_a = points[ia].sites(a.guard)
                        sites_b = points[ib].sites(b.guard)
                        if not later.disjoint_sites(sites_a, sites_b):
                            make(f"{a!r} and {b!r} co-issue a write to "
                                 f"{reg!r} in cycle {bundle.cycle}; the "
                                 f"predicate webs of {a.guard!r} and "
                                 f"{b.guard!r} are not provably disjoint",
                                 function=func.name, block=block.label)


@rule("pred-web-redef", Severity.WARNING, "ir")
def check_pred_web_redef(target: LintTarget, make) -> None:
    """A predicate guards operations on both sides of a web-replacing
    redefinition while block-local facts about it exist: any
    flow-insensitive consumer of those facts (scheduling, promotion)
    would apply the *new* web's facts to the earlier use."""
    for func in target.selected_functions():
        for block in func.blocks:
            facts = None
            used_before: set = set()       # guards read so far
            replaced_after_use: set = set()
            for index, op in enumerate(block.ops):
                if op.guard is not None:
                    if op.guard in replaced_after_use:
                        if facts is None:
                            facts = block_pred_facts(block)
                        if any(op.guard in f[1:] for f in facts):
                            make(f"{op!r} is guarded by {op.guard!r}, "
                                 f"which was redefined after an earlier "
                                 f"guarded use; block-local facts about it "
                                 f"span two webs", function=func.name,
                                 block=block.label, index=index)
                    used_before.add(op.guard)
                for dest_idx, dest in enumerate(op.dests):
                    if not dest.is_predicate or dest not in used_before:
                        continue
                    ptype = None
                    if op.opcode == Opcode.PRED_DEF:
                        ptype = op.attrs["ptypes"][dest_idx]
                    kind = redefinition_kind(op.opcode, ptype,
                                             op.guard is not None)
                    if kind in (REPLACE, MERGE):
                        replaced_after_use.add(dest)
