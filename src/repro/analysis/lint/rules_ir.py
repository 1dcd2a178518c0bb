"""IR-phase lint rules: dataflow sanity and predication attributes.

These rules need only the module (plus the machine description for slot
numbering) and therefore run after *every* pass in checked mode.
"""

from __future__ import annotations

from repro.analysis.cfgview import CFGView
from repro.ir.opcodes import Opcode
from repro.predication.slots import SLOTS_PER_DEFINE

from .diagnostics import Severity
from .engine import LintTarget, rule


@rule("use-before-def", Severity.ERROR, "ir")
def check_use_before_def(target: LintTarget, make) -> None:
    """A register is read without a write on every path from the entry."""
    for func in target.selected_functions():
        for label, index, op, reg in target.undefined_reads(func):
            if reg == op.guard:
                continue  # undef-guard owns guard reads
            make(f"{op!r} reads {reg!r} which is not defined on all paths",
                 function=func.name, block=label, index=index)


@rule("undef-guard", Severity.ERROR, "ir")
def check_undef_guard(target: LintTarget, make) -> None:
    """An operation's guard predicate may be uninitialized."""
    for func in target.selected_functions():
        for label, index, op, reg in target.undefined_reads(func):
            if reg != op.guard:
                continue
            make(f"{op!r} is guarded by {reg!r} which is not defined on "
                 f"all paths", function=func.name, block=label, index=index)


@rule("dead-pred-def", Severity.WARNING, "ir")
def check_dead_pred_def(target: LintTarget, make) -> None:
    """A predicate define writes a predicate no operation ever reads."""
    for func in target.selected_functions():
        read = {reg for op in func.ops() for reg in op.reads()}
        for block in func.blocks:
            for index, op in enumerate(block.ops):
                if op.opcode not in (Opcode.PRED_DEF, Opcode.PRED_SET):
                    continue
                for dst in op.dests:
                    if dst not in read:
                        make(f"{op!r} defines {dst!r} but nothing reads it",
                             function=func.name, block=block.label,
                             index=index)


@rule("psens-unguarded", Severity.ERROR, "ir")
def check_psens_unguarded(target: LintTarget, make) -> None:
    """A predicate-sensitive (``psens``) operation has no guard to consult."""
    for func in target.selected_functions():
        for block in func.blocks:
            for index, op in enumerate(block.ops):
                if op.attrs.get("psens") and op.guard is None:
                    make(f"{op!r} is marked psens but has no guard",
                         function=func.name, block=block.label, index=index)


@rule("slot-route-shape", Severity.ERROR, "ir")
def check_slot_route_shape(target: LintTarget, make) -> None:
    """A ``slot_route`` annotation is malformed or routes off-machine slots."""
    width = target.machine.width
    for func in target.selected_functions():
        for block in func.blocks:
            for index, op in enumerate(block.ops):
                routing = op.attrs.get("slot_route")
                if routing is None:
                    continue
                if op.opcode not in (Opcode.PRED_DEF, Opcode.PRED_SET):
                    make(f"{op!r} carries slot_route but is not a "
                         f"predicate define", function=func.name,
                         block=block.label, index=index)
                    continue
                dest_keys = {repr(dst) for dst in op.dests}
                for key, slots in routing.items():
                    if key not in dest_keys:
                        make(f"{op!r} routes {key} which is not one of its "
                             f"destinations", function=func.name,
                             block=block.label, index=index)
                    for slot in slots:
                        if not 0 <= slot < width:
                            make(f"{op!r} routes {key} to slot {slot} on a "
                                 f"{width}-slot machine", function=func.name,
                                 block=block.label, index=index)


@rule("slot-route-width", Severity.WARNING, "ir")
def check_slot_route_width(target: LintTarget, make) -> None:
    """A define routes one predicate to more slots than its encoding can
    drive (Figure 4: two slot predicates per define) — replication needed."""
    for func in target.selected_functions():
        for block in func.blocks:
            for index, op in enumerate(block.ops):
                routing = op.attrs.get("slot_route")
                if routing is None:
                    continue
                for key, slots in routing.items():
                    if len(slots) > SLOTS_PER_DEFINE:
                        make(f"{op!r} routes {key} to {len(slots)} slots; "
                             f"a define drives at most {SLOTS_PER_DEFINE}",
                             function=func.name, block=block.label,
                             index=index)


@rule("unreachable-block", Severity.ERROR, "ir")
def check_unreachable_block(target: LintTarget, make) -> None:
    """A block is unreachable from the entry (dead layout residue)."""
    for func in target.selected_functions():
        cfg = CFGView(func)
        reachable = cfg.reachable()
        for block in func.blocks:
            if block.label not in reachable:
                make(f"block {block.label!r} is unreachable from "
                     f"{cfg.entry!r}", function=func.name, block=block.label)
