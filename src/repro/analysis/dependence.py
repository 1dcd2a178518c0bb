"""Data/control dependence graphs for straight-line regions.

Built over the operation list of one block (a basic block or hyperblock),
optionally with loop-carried (distance-1) edges for modulo scheduling.
Predicate-aware: operations guarded by *disjoint* predicates (from
:class:`~repro.analysis.predrel.PredicateRelations`) do not constrain each
other through register or memory conflicts, which is what lets the
collapsed loop of Figure 2(d) execute the outer-iteration code in parallel
with the inner-iteration code.

Edge semantics for the schedulers::

    time(dst) >= time(src) + latency - II * distance

(acyclic scheduling sets ``II*distance = 0`` because all distances are 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.opcodes import NON_SPECULABLE, Opcode
from repro.ir.operation import Operation
from repro.ir.registers import GlobalRef, Imm, VReg
from repro.memo import Memo, MemoStats

from .liveness import op_unconditional_writes
from .predrel import PredicateRelations


@dataclass(frozen=True)
class DepEdge:
    src: int
    dst: int
    latency: int
    distance: int
    kind: str  # "flow" | "anti" | "output" | "mem" | "ctrl"


@dataclass
class DependenceGraph:
    ops: list[Operation]
    edges: list[DepEdge] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.succs: dict[int, list[DepEdge]] = {i: [] for i in range(len(self.ops))}
        self.preds: dict[int, list[DepEdge]] = {i: [] for i in range(len(self.ops))}
        for edge in self.edges:
            self.succs[edge.src].append(edge)
            self.preds[edge.dst].append(edge)

    def add(self, edge: DepEdge) -> None:
        self.edges.append(edge)
        self.succs[edge.src].append(edge)
        self.preds[edge.dst].append(edge)

    def critical_path_length(self) -> int:
        """Longest latency path through distance-0 edges (dependence height)."""
        n = len(self.ops)
        height = [0] * n
        for i in range(n - 1, -1, -1):
            best = 0
            for edge in self.succs[i]:
                if edge.distance == 0:
                    best = max(best, edge.latency + height[edge.dst])
            height[i] = best
        return max(height, default=0) + (1 if self.ops else 0)


class _AddrKey:
    """Symbolic address: (base operand, base version, constant offset)."""

    __slots__ = ("base", "version", "offset", "known")

    def __init__(self, op: Operation, versions: dict[VReg, int]) -> None:
        base, offset = op.srcs[0], op.srcs[1]
        self.known = isinstance(offset, Imm) and isinstance(base, (VReg, GlobalRef, Imm))
        self.offset = offset.value if isinstance(offset, Imm) else 0
        self.base = base
        self.version = versions.get(base, 0) if isinstance(base, VReg) else 0

    def independent(self, other: "_AddrKey") -> bool:
        """Provably non-overlapping word addresses."""
        if not (self.known and other.known):
            return False
        if isinstance(self.base, GlobalRef) and isinstance(other.base, GlobalRef):
            if self.base.name != other.base.name:
                return True
            return self.offset != other.offset
        if self.base == other.base and self.version == other.version:
            return self.offset != other.offset
        return False


def _output_latency(first: Operation, second: Operation) -> int:
    return max(1, first.latency - second.latency + 1)


def _mem_kind(op: Operation) -> str | None:
    if op.opcode == Opcode.LD:
        return "ld"
    if op.opcode == Opcode.ST:
        return "st"
    if op.opcode == Opcode.CALL:
        return "call"
    return None


def build_dependence_graph(
    ops: list[Operation],
    relations: PredicateRelations | None = None,
    loop_carried: bool = False,
    exit_live: dict[int, set[VReg]] | None = None,
) -> DependenceGraph:
    """Dependence graph over ``ops``.

    ``relations`` enables disjoint-guard relaxation.  ``loop_carried`` adds
    distance-1 edges (for single-block loop bodies).  ``exit_live`` maps a
    branch op *index* to the registers live if that branch is taken; it
    permits speculable ops to be hoisted above a side exit when their
    destinations are not live on the exit path.
    """
    n = len(ops)
    graph = DependenceGraph(list(ops))
    if n == 0:
        return graph

    doubled = list(ops) + list(ops) if loop_carried else list(ops)
    seen: set[tuple[int, int, str, int]] = set()

    def emit(src2: int, dst2: int, latency: int, kind: str) -> None:
        distance = 0
        src, dst = src2, dst2
        if loop_carried:
            if src2 >= n and dst2 >= n:
                return  # duplicate of a first-copy edge
            if dst2 >= n:
                distance = 1
                dst -= n
            if src2 >= n:
                return
        if src == dst and distance == 0:
            return
        key = (src, dst, kind, distance)
        if key in seen:
            return
        seen.add(key)
        graph.add(DepEdge(src, dst, latency, distance, kind))

    def guards_disjoint(a: Operation, b: Operation) -> bool:
        return relations is not None and relations.disjoint(a.guard, b.guard)

    # register state
    reaching: dict[VReg, list[int]] = {}
    readers: dict[VReg, list[int]] = {}
    versions: dict[VReg, int] = {}
    # memory state
    prior_stores: list[tuple[int, _AddrKey | None]] = []
    prior_loads: list[tuple[int, _AddrKey | None]] = []
    branch_indices: list[int] = []
    cloop_sets: dict[str, int] = {}

    for i, op in enumerate(doubled):
        # -- register flow/anti deps from reads -------------------------------
        for reg in op.reads():
            for def_idx in reaching.get(reg, []):
                def_op = doubled[def_idx % n] if loop_carried else doubled[def_idx]
                if guards_disjoint(def_op, op) and reg not in (def_op.guard, op.guard):
                    continue
                emit(def_idx, i, def_op.latency, "flow")
            readers.setdefault(reg, []).append(i)

        # -- register output/anti deps from writes -----------------------------
        unconditional = set(op_unconditional_writes(op))
        for reg in op.writes():
            for def_idx in reaching.get(reg, []):
                def_op = doubled[def_idx % n] if loop_carried else doubled[def_idx]
                if guards_disjoint(def_op, op):
                    continue
                emit(def_idx, i, _output_latency(def_op, op), "output")
            for use_idx in readers.get(reg, []):
                if use_idx == i:
                    continue
                use_op = doubled[use_idx % n] if loop_carried else doubled[use_idx]
                if guards_disjoint(use_op, op) and reg != use_op.guard:
                    continue
                emit(use_idx, i, 0, "anti")
            if reg in unconditional:
                reaching[reg] = [i]
                readers[reg] = []
            else:
                reaching.setdefault(reg, []).append(i)
            versions[reg] = versions.get(reg, 0) + 1

        # -- memory dependences ---------------------------------------------------
        kind = _mem_kind(op)
        if kind == "call":
            for st_idx, _ in prior_stores:
                emit(st_idx, i, 1, "mem")
            for ld_idx, _ in prior_loads:
                emit(ld_idx, i, 0, "mem")
            prior_stores.append((i, None))
        elif kind == "st":
            addr = _AddrKey(op, versions)
            for st_idx, st_addr in prior_stores:
                if (st_addr is not None and addr.independent(st_addr)
                        and _same_iteration_only(loop_carried, st_idx, i, n)):
                    continue
                st_op = doubled[st_idx % n] if loop_carried else doubled[st_idx]
                if guards_disjoint(st_op, op):
                    continue
                emit(st_idx, i, 1, "mem")
            for ld_idx, ld_addr in prior_loads:
                if ld_addr is not None and addr.independent(ld_addr):
                    if _same_iteration_only(loop_carried, ld_idx, i, n):
                        continue
                ld_op = doubled[ld_idx % n] if loop_carried else doubled[ld_idx]
                if guards_disjoint(ld_op, op):
                    continue
                emit(ld_idx, i, 0, "mem")
            prior_stores.append((i, addr))
        elif kind == "ld":
            addr = _AddrKey(op, versions)
            for st_idx, st_addr in prior_stores:
                if st_addr is not None and addr.independent(st_addr):
                    if _same_iteration_only(loop_carried, st_idx, i, n):
                        continue
                st_op = doubled[st_idx % n] if loop_carried else doubled[st_idx]
                if guards_disjoint(st_op, op):
                    continue
                emit(st_idx, i, 1, "mem")
            prior_loads.append((i, addr))

        # -- control dependences ------------------------------------------------------
        if op.opcode == Opcode.CLOOP_SET:
            cloop_sets[op.attrs["lc"]] = i
        if op.opcode == Opcode.BR_CLOOP:
            set_idx = cloop_sets.get(op.attrs["lc"])
            if set_idx is not None:
                emit(set_idx, i, 1, "ctrl")
        if op.is_branch:
            for j in range(i - n if loop_carried and i >= n else 0, i):
                emit(j, i, 0, "ctrl")
            branch_indices.append(i)
        else:
            for br_idx in branch_indices:
                if loop_carried and br_idx < i - n:
                    continue
                if _may_hoist_above(op, doubled[br_idx % n] if loop_carried else doubled[br_idx],
                                    br_idx % n if loop_carried else br_idx, exit_live):
                    continue
                emit(br_idx, i, 1, "ctrl")

    return graph


# --------------------------------------------------------------------------
# content-keyed graph memoization
#
# A dependence graph is a pure function of the *content* of an op list
# (opcodes, operands, guards, latencies, loop-counter ids), the
# ``loop_carried`` flag and the ``exit_live`` relaxation map — never of
# operation identity (uids).  Capacity sweeps (``with_buffer`` deep-copies
# the module per capacity), the traditional/aggressive pipelines and the
# checked-mode schedule lint rules therefore rebuild *identical* graphs
# over and over.  This cache keys graphs by content and, on a hit, rebinds
# the stored edge list onto the caller's operations in O(edges).


def op_fingerprint(op: Operation) -> tuple:
    """Content identity of one operation for dependence purposes.

    ``repr`` covers opcode, cmp test, guard, destinations (with predicate
    define types), sources, branch target and callee; ``lc`` is the loop
    counter id that pairs ``cloop_set`` with ``br_cloop``.  Operand reprs
    are unambiguous across kinds (``r3`` / ``3`` / ``@label`` / ``$glob``).
    """
    return (repr(op), op.attrs.get("lc"))


def ops_fingerprint(ops: list[Operation]) -> tuple:
    """Hashable content key of an op list (order-sensitive)."""
    return tuple(op_fingerprint(op) for op in ops)


def exit_live_fingerprint(exit_live: dict[int, set[VReg]] | None) -> tuple | None:
    """Hashable content key of a side-exit liveness map."""
    if exit_live is None:
        return None
    return tuple(sorted(
        (index, tuple(sorted(repr(reg) for reg in regs)))
        for index, regs in exit_live.items()
    ))


#: (ops fingerprint, loop_carried, exit liveness) -> edge tuple; ~a few
#: KB per entry, so 4096 entries is comfortably more than a full
#: benchmark grid ever produces
_graph_cache = Memo(4096)


def dependence_cache_stats() -> MemoStats:
    return _graph_cache.stats


def dependence_graph(
    ops: list[Operation],
    relations: PredicateRelations | None = None,
    loop_carried: bool = False,
    exit_live: dict[int, set[VReg]] | None = None,
    fingerprint: tuple | None = None,
) -> DependenceGraph:
    """Content-cached :func:`build_dependence_graph`.

    On a hit the stored edges are rebound onto ``ops`` (edges are index
    based and immutable, so sharing them is sound); on a miss the graph is
    built and its edge list stored.  ``fingerprint`` lets a caller that
    already computed :func:`ops_fingerprint` (e.g. to key its own schedule
    cache) avoid recomputing it.
    """
    if fingerprint is None:
        fingerprint = ops_fingerprint(ops)
    key = (fingerprint, loop_carried, exit_live_fingerprint(exit_live))
    edges = _graph_cache.get(key)
    if edges is not None:
        return DependenceGraph(list(ops), list(edges))
    graph = build_dependence_graph(ops, relations=relations,
                                   loop_carried=loop_carried,
                                   exit_live=exit_live)
    _graph_cache.put(key, tuple(graph.edges))
    return graph


def _same_iteration_only(loop_carried: bool, src: int, dst: int, n: int) -> bool:
    """Address-based disambiguation is only valid within one iteration: in
    the doubled-op encoding, cross-copy pairs are distance-1 and the base
    register version comparison is meaningless across the back edge."""
    if not loop_carried:
        return True
    return (src < n) == (dst < n)


def _may_hoist_above(
    op: Operation,
    branch: Operation,
    branch_index: int,
    exit_live: dict[int, set[VReg]] | None,
) -> bool:
    """Can ``op`` be scheduled at/before ``branch`` (control speculation)?"""
    if op.opcode in NON_SPECULABLE:
        return False
    if exit_live is None:
        return False
    live = exit_live.get(branch_index)
    if live is None:
        return False
    return not any(dst in live for dst in op.dests)
