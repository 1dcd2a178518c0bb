"""Compiler-side loop-buffer assignment (the Figure 5 scheduling problem).

"The compiler manages the buffer as a resource, scheduling loop bodies
into segments of the buffer as required ... the goal of scheduling loops
into the buffer is to minimize the total number of bundles fetched from
the global memory.  The compiler must choose locations for each buffered
loop, such that needed loops will not conflict with each other."

Heuristic implemented (mirroring the paper's Figure 5(d) discussion):

1. Candidate loops are simple loops whose buffer footprint (kernel ops
   times the MVE expansion factor) fits the buffer.
2. Candidates are ranked by *buffer benefit* — the dynamic operations they
   would issue from the buffer (iterations beyond each recording pass,
   times body size).
3. Each loop is placed first-fit into free buffer space.  When no gap
   fits, the loop is placed over the range whose current occupants carry
   the least benefit — displacement then happens dynamically through
   re-recording, which the hardware residency table makes cheap.
4. Ties between cohabitation candidates are broken by *recording
   overhead* (Figure 5(d): loop "F" stays resident over "E" because its
   recording overhead, 14 ops vs 12, is larger); with
   ``overhead_aware=False`` this tie-break is disabled for ablation.

The pass then rewrites the IR: each assigned counted loop's ``cloop_set``
becomes ``rec_cloop buf_addr, num, count``; other assigned loops get a
``rec_wloop`` in their preheader.

Only step 1's size filter and steps 3 and 4 depend on the capacity.  So
the pass is split: :func:`scan_loops` finds the loops, their weights
and their preheaders once per compiled program, and :func:`place_loops`
places them at one capacity without touching IR.  :func:`assign_buffer`
runs scan, placement and rewrite in one call, or placement and rewrite
of a scan the caller kept (a capacity overlay places every capacity
from its base's one scan, :func:`repro.loopbuffer.overlay.loop_scan`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cfgview import CFGView
from repro.analysis.loops import find_loops, is_simple_loop
from repro.analysis.profile import Profile
from repro.ir.module import Module
from repro.ir.opcodes import Opcode
from repro.ir.operation import Operation
from repro.obs import get_tracer


@dataclass
class LoopCandidate:
    func: str
    header: str
    ops: int                  # buffer footprint in operations
    iterations: int           # dynamic iterations (profile)
    entries: int              # times the loop is entered (recordings lower bound)
    counted: bool             # ends in br_cloop
    preheader: str | None = None   # where the rec directive goes
    lc: str | None = None     # loop counter of a counted loop
    cloop_sets: int = 0       # cloop_sets of ``lc`` in the preheader

    @property
    def benefit(self) -> int:
        """Dynamic ops issued from the buffer once resident."""
        if self.iterations <= 0:
            return 0
        recorded = max(self.entries, 1)
        return max(0, self.iterations - recorded) * self.ops

    @property
    def recording_overhead(self) -> int:
        return self.ops


@dataclass
class Assignment:
    func: str
    header: str
    offset: int
    length: int
    counted: bool


@dataclass
class AssignmentResult:
    assigned: list[Assignment] = field(default_factory=list)
    unassigned: list[str] = field(default_factory=list)

    def lookup(self, func: str, header: str) -> Assignment | None:
        for a in self.assigned:
            if a.func == func and a.header == header:
                return a
        return None


def scan_loops(
    module: Module,
    profile: Profile,
    footprint: dict[tuple[str, str], int] | None = None,
) -> list[LoopCandidate]:
    """Every loop the buffer could hold at some capacity, in module order.

    This is the capacity-independent half of buffer assignment: loop
    discovery, profile weights and where each loop would record.  Each
    candidate carries its preheader and, for a counted loop, how many
    ``cloop_set`` ops of its counter that preheader holds, so one scan
    of a compiled base serves every capacity (:func:`place_loops`).
    ``footprint`` optionally overrides a loop's op count with its
    modulo-scheduled, MVE-expanded kernel size.
    """
    candidates = []
    for func in module.functions.values():
        cfg = CFGView(func)
        for loop in find_loops(func, cfg):
            if not is_simple_loop(func, loop):
                continue
            block = func.block(loop.header)
            ops = sum(1 for op in block.ops if op.opcode != Opcode.NOP)
            if footprint is not None:
                ops = footprint.get((func.name, loop.header), ops)
            if ops == 0:
                continue
            pre = loop.preheader(cfg)
            iterations = profile.block_count(func.name, loop.header)
            entries = (profile.edge_count(func.name, pre, loop.header)
                       if pre is not None else 0)
            term = block.terminator
            counted = term is not None and term.opcode == Opcode.BR_CLOOP
            lc = term.attrs["lc"] if counted else None
            cloop_sets = 0
            if counted and pre is not None:
                cloop_sets = sum(
                    1 for op in func.block(pre).ops
                    if op.opcode == Opcode.CLOOP_SET
                    and op.attrs.get("lc") == lc)
            candidates.append(
                LoopCandidate(func.name, loop.header, ops, iterations,
                              max(entries, 1 if iterations else 0), counted,
                              pre, lc, cloop_sets)
            )
    return candidates


def assign_buffer(
    module: Module,
    profile: Profile,
    capacity: int = 256,
    footprint: dict[tuple[str, str], int] | None = None,
    overhead_aware: bool = True,
    get_block=None,
    candidates: list[LoopCandidate] | None = None,
) -> AssignmentResult:
    """Choose buffer offsets for the module's loops and rewrite the IR.

    ``get_block`` redirects the rewrite: ``get_block(func_name, label)``
    returns the block whose op list the ``rec`` directives land in.  The
    default edits ``module`` in place; a capacity-symbolic overlay
    (:mod:`repro.loopbuffer.overlay`) passes a copy-on-write getter so
    the shared base module is analyzed but never mutated.
    ``candidates``, when given, is :func:`scan_loops` of ``module``,
    ``profile`` and ``footprint``, placed instead of scanning again.
    """
    tracer = get_tracer()
    if not tracer.enabled:
        return _assign_buffer(module, profile, capacity, footprint,
                              overhead_aware, get_block, candidates)
    with tracer.span("assign_buffer", category="pass",
                     capacity=capacity) as span:
        result = _assign_buffer(module, profile, capacity, footprint,
                                overhead_aware, get_block, candidates)
        span.annotate(
            assigned=len(result.assigned),
            unassigned=len(result.unassigned),
            footprint_ops=sum(a.length for a in result.assigned),
        )
        return result


def _assign_buffer(module, profile, capacity, footprint, overhead_aware,
                   get_block=None, candidates=None):
    if candidates is None:
        candidates = scan_loops(module, profile, footprint)
    result = place_loops(candidates, capacity, overhead_aware)
    _rewrite_ir(module, result, candidates, get_block)
    return result


def place_loops(candidates: list[LoopCandidate], capacity: int,
                overhead_aware: bool = True) -> AssignmentResult:
    """The capacity-dependent half of buffer assignment: offsets for the
    scanned ``candidates`` that fit ``capacity``, without touching IR.

    Orphans (:func:`_orphans`: loops with no place to record) take
    part in placement and are then moved to the unassigned list, so the
    result is exactly what :func:`assign_buffer` installs.
    """
    candidates = [cand for cand in candidates if cand.ops <= capacity]
    if overhead_aware:
        candidates.sort(key=lambda c: (c.benefit, c.recording_overhead),
                        reverse=True)
    else:
        candidates.sort(key=lambda c: c.benefit, reverse=True)

    result = AssignmentResult()
    placed: list[tuple[Assignment, LoopCandidate]] = []

    for cand in candidates:
        if cand.benefit <= 0:
            result.unassigned.append(f"{cand.func}/{cand.header}")
            continue
        offset = _first_fit(placed, cand.ops, capacity)
        if offset is None:
            offset = _cheapest_overlap(placed, cand.ops, capacity)
        assignment = Assignment(cand.func, cand.header, offset, cand.ops,
                                cand.counted)
        placed.append((assignment, cand))
        result.assigned.append(assignment)

    for assignment in _orphans(placed):
        result.assigned.remove(assignment)
        result.unassigned.append(f"{assignment.func}/{assignment.header}")
    return result


def _orphans(placed) -> list[Assignment]:
    """The placed loops the rewrite cannot record: those without a
    preheader, and counted loops whose preheader has no ``cloop_set`` of
    their counter left once the loops placed before them sharing that
    preheader and counter have each replaced one."""
    left: dict[tuple, int] = {}
    orphans = []
    for assignment, cand in placed:
        if cand.preheader is None:
            orphans.append(assignment)
        elif cand.counted:
            slot = (cand.func, cand.preheader, cand.lc)
            sets = left.get(slot, cand.cloop_sets)
            if sets == 0:
                orphans.append(assignment)
            left[slot] = max(sets - 1, 0)
    return orphans


def _first_fit(placed, length: int, capacity: int) -> int | None:
    """Lowest offset whose [offset, offset+length) hits no placed loop."""
    taken = sorted(
        (a.offset, a.offset + a.length) for a, _ in placed
    )
    offset = 0
    for start, end in taken:
        if offset + length <= start:
            return offset
        offset = max(offset, end)
    if offset + length <= capacity:
        return offset
    return None


def _cheapest_overlap(placed, length: int, capacity: int) -> int:
    """Offset minimizing the total benefit of overlapped occupants."""
    best_offset, best_cost = 0, None
    starts = sorted({0} | {a.offset for a, _ in placed}
                    | {a.offset + a.length for a, _ in placed})
    for offset in starts:
        if offset + length > capacity:
            continue
        cost = sum(
            cand.benefit
            for a, cand in placed
            if a.offset < offset + length and offset < a.offset + a.length
        )
        if best_cost is None or cost < best_cost:
            best_offset, best_cost = offset, cost
    return best_offset


def _cloop_set_index(block, lc) -> int:
    """Index of ``block``'s first ``cloop_set`` of counter ``lc``;
    placement assigns no counted loop without one left (:func:`_orphans`)."""
    for i, op in enumerate(block.ops):
        if op.opcode == Opcode.CLOOP_SET and op.attrs.get("lc") == lc:
            return i
    raise AssertionError(f"{block.label}: no cloop_set of {lc} left")


def _rewrite_ir(module: Module, result: AssignmentResult,
                candidates: list[LoopCandidate], get_block=None) -> None:
    """Install rec_cloop / rec_wloop operations for assigned loops, in the
    preheaders ``candidates`` (the scan that placed them) recorded.

    Placement already dropped every loop with no place to record
    (:func:`_orphans`), so each assigned counted loop finds a
    ``cloop_set`` of its counter left in its preheader.

    The block actually edited comes from ``get_block`` (defaulting to
    in-place).  Successive assignments sharing a preheader see each
    other's edits either way, because the getter must return the same
    (copied) block for the same key.
    """
    if get_block is None:
        def get_block(fname, label):
            return module.function(fname).block(label)
    scanned = {(c.func, c.header): c for c in candidates}
    for assignment in result.assigned:
        cand = scanned[(assignment.func, assignment.header)]
        pre = get_block(assignment.func, cand.preheader)
        if assignment.counted:
            lc = cand.lc
            # replace the matching cloop_set with rec_cloop (same count)
            i = _cloop_set_index(pre, lc)
            op = pre.ops[i]
            pre.ops[i] = Operation(
                Opcode.REC_CLOOP, [], list(op.srcs), op.guard,
                {"lc": lc, "buf_addr": assignment.offset,
                 "num": assignment.length, "loop": assignment.header},
            )
        else:
            insert_at = len(pre.ops)
            if pre.terminator is not None:
                insert_at -= 1
            pre.insert(
                insert_at,
                Operation(Opcode.REC_WLOOP, [], [], None,
                          {"buf_addr": assignment.offset,
                           "num": assignment.length,
                           "loop": assignment.header}),
            )
