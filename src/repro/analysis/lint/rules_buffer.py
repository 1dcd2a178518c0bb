"""Buffer-phase lint rules: loop-buffer assignment invariants.

The Table 3 contract between the compiler and the buffer hardware:
assigned segments fit the buffer, every assignment is realized by exactly
one ``rec_cloop``/``rec_wloop`` in the IR (and vice versa), recording
operations agree with the loop-back branch they pair with and carry no
guard, and segment lengths equal the footprint the scheduler computed
(kernel ops × MVE).
"""

from __future__ import annotations

from repro.ir.opcodes import Opcode

from .diagnostics import Severity
from .engine import LintTarget, rule

_REC_OPS = (Opcode.REC_CLOOP, Opcode.REC_WLOOP)
_EXEC_OPS = (Opcode.EXEC_CLOOP, Opcode.EXEC_WLOOP)


def _buffer_ops(target: LintTarget, opcodes):
    """Yield (func, block, index, op) for buffer-management operations."""
    for func in target.selected_functions():
        for block in func.blocks:
            for index, op in enumerate(block.ops):
                if op.opcode in opcodes:
                    yield func, block, index, op


@rule("buffer-capacity", Severity.ERROR, "buffer")
def check_buffer_capacity(target: LintTarget, make) -> None:
    """An assigned buffer segment lies outside [0, capacity)."""
    assignment = target.assignment
    if assignment is None:
        return
    capacity = target.buffer_capacity
    for a in assignment.assigned:
        where = dict(function=a.func, block=a.header)
        if a.length <= 0:
            make(f"loop {a.header!r} is assigned a {a.length}-op segment",
                 **where)
        if a.offset < 0:
            make(f"loop {a.header!r} is assigned negative offset "
                 f"{a.offset}", **where)
        if capacity is not None and a.offset + a.length > capacity:
            make(f"loop {a.header!r} occupies [{a.offset}, "
                 f"{a.offset + a.length}) beyond the {capacity}-op buffer",
                 **where)


@rule("buffer-residency", Severity.ERROR, "buffer")
def check_buffer_residency(target: LintTarget, make) -> None:
    """The assignment table and the IR's rec operations disagree."""
    assignment = target.assignment
    recs: dict[tuple[str, str], list] = {}
    for func, block, index, op in _buffer_ops(target, _REC_OPS):
        key = (func.name, op.attrs.get("loop"))
        recs.setdefault(key, []).append((func, block, index, op))

    if assignment is None:
        for (fname, loop), entries in sorted(recs.items()):
            func, block, index, op = entries[0]
            make(f"{op!r} records loop {loop!r} but no buffer assignment "
                 f"exists", function=fname, block=block.label, index=index)
        return

    table = {(a.func, a.header): a for a in assignment.assigned}
    for (fname, loop), entries in sorted(recs.items()):
        func, block, index, op = entries[0]
        where = dict(function=fname, block=block.label, index=index)
        if len(entries) > 1:
            make(f"loop {loop!r} has {len(entries)} rec operations; the "
                 f"residency table expects one", **where)
        a = table.get((fname, loop))
        if a is None:
            make(f"{op!r} records loop {loop!r} which is not in the "
                 f"assignment table", **where)
            continue
        if op.attrs.get("buf_addr") != a.offset or \
                op.attrs.get("num") != a.length:
            make(f"{op!r} records [{op.attrs.get('buf_addr')}, +"
                 f"{op.attrs.get('num')}) but the assignment says "
                 f"[{a.offset}, +{a.length})", **where)
        counted_op = op.opcode == Opcode.REC_CLOOP
        if counted_op != a.counted:
            make(f"{op!r} disagrees with the assignment's counted="
                 f"{a.counted} flag", **where)

    for a in assignment.assigned:
        if (a.func, a.header) not in recs:
            make(f"assignment for loop {a.header!r} ([{a.offset}, "
                 f"+{a.length})) has no rec operation in the IR",
                 function=a.func, block=a.header)


@rule("buffer-pairing", Severity.ERROR, "buffer")
def check_buffer_pairing(target: LintTarget, make) -> None:
    """A rec/exec operation does not pair with its loop's loop-back branch."""
    for func, block, index, op in _buffer_ops(target, _REC_OPS + _EXEC_OPS):
        where = dict(function=func.name, block=block.label, index=index)
        loop = op.attrs.get("loop")
        if loop is None or not func.has_block(loop):
            make(f"{op!r} names loop {loop!r} which is not a block of "
                 f"{func.name}", **where)
            continue
        term = func.block(loop).terminator
        if term is None or term.target != loop:
            make(f"{op!r} names {loop!r} whose final operation is not a "
                 f"loop-back branch", **where)
            continue
        counted = op.opcode in (Opcode.REC_CLOOP, Opcode.EXEC_CLOOP)
        if counted:
            if term.opcode != Opcode.BR_CLOOP:
                make(f"{op!r} is counted but {loop!r} loops back with "
                     f"{term.opcode.value}", **where)
            elif op.attrs.get("lc") != term.attrs.get("lc"):
                make(f"{op!r} drives counter {op.attrs.get('lc')!r} but "
                     f"the loop-back uses {term.attrs.get('lc')!r}", **where)
        elif term.opcode == Opcode.BR_CLOOP:
            make(f"{op!r} is uncounted but {loop!r} loops back with "
                 f"br_cloop", **where)

    assignment = target.assignment
    if assignment is not None:
        table = {(a.func, a.header) for a in assignment.assigned}
        for func, block, index, op in _buffer_ops(target, _EXEC_OPS):
            if (func.name, op.attrs.get("loop")) not in table:
                make(f"{op!r} executes a loop the assignment never "
                     f"recorded", function=func.name, block=block.label,
                     index=index)


@rule("buffer-rec-unguarded", Severity.ERROR, "buffer")
def check_buffer_rec_unguarded(target: LintTarget, make) -> None:
    """A rec operation carries a guard (the VLIW issues rec before any
    guard check, and pass-trace replay assumes it executes unconditionally
    wherever its block does)."""
    for func, block, index, op in _buffer_ops(target, _REC_OPS):
        if op.guard is not None:
            make(f"{op!r} is guarded by {op.guard}; rec operations must "
                 f"execute unconditionally", function=func.name,
                 block=block.label, index=index)


@rule("buffer-overlap", Severity.WARNING, "buffer")
def check_buffer_overlap(target: LintTarget, make) -> None:
    """Two assigned segments share buffer space (dynamic displacement:
    legal, but each entry re-records over the other)."""
    assignment = target.assignment
    if assignment is None:
        return
    placed = assignment.assigned
    for i in range(len(placed)):
        for j in range(i + 1, len(placed)):
            a, b = placed[i], placed[j]
            if a.offset < b.offset + b.length and \
                    b.offset < a.offset + a.length:
                make(f"loops {a.func}/{a.header} and {b.func}/{b.header} "
                     f"overlap in [{max(a.offset, b.offset)}, "
                     f"{min(a.offset + a.length, b.offset + b.length)})",
                     function=a.func, block=a.header)


@rule("buffer-footprint", Severity.ERROR, "buffer")
def check_buffer_footprint(target: LintTarget, make) -> None:
    """An assigned segment length differs from the loop's real footprint
    (modulo-scheduled: kernel ops × MVE factor; else the body op count)."""
    assignment = target.assignment
    if assignment is None:
        return
    modulo = target.modulo or {}
    for a in assignment.assigned:
        try:
            func = target.module.function(a.func)
        except KeyError:
            make(f"assignment names unknown function {a.func!r}",
                 function=a.func, block=a.header)
            continue
        sched = modulo.get((a.func, a.header))
        if sched is not None:
            expected = sched.buffered_op_count
            source = (f"modulo kernel ({sched.kernel_op_count} ops x "
                      f"MVE {sched.mve_factor})")
        elif func.has_block(a.header):
            expected = sum(1 for op in func.block(a.header).ops
                           if op.opcode != Opcode.NOP)
            source = "loop body op count"
        else:
            make(f"assignment names unknown loop {a.header!r}",
                 function=a.func, block=a.header)
            continue
        if a.length != expected:
            make(f"loop {a.header!r} is assigned {a.length} buffer ops "
                 f"but its footprint is {expected} ({source})",
                 function=a.func, block=a.header)
