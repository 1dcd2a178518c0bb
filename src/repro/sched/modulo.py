"""Iterative modulo scheduling (Rau [2]) for simple loops.

Computes the minimum initiation interval (ResMII from unit counts, RecMII
from dependence recurrences) and places the loop body's operations into a
modulo reservation table, bumping conflicting operations as in classic IMS
until the schedule converges or the II is raised.

Modulo variable expansion (MVE): register lifetimes that exceed the II
overlap their own next-iteration definitions; without rotating registers
the kernel must be unrolled by ``ceil(max_lifetime / II)`` copies.  The
paper leans on exactly this effect when explaining mpg123's buffer
behaviour ("a number of large loops ... require four modulo variable
expansions, thus increasing their code size"), so the expansion factor and
the expanded kernel size are first-class outputs here — they determine a
loop's loop-buffer footprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from repro.analysis.dependence import (
    DependenceGraph,
    dependence_graph,
    ops_fingerprint,
)
from repro.analysis.predrel import PredicateRelations
from repro.ir.block import BasicBlock
from repro.ir.opcodes import Opcode, Unit, unit_of
from repro.ir.registers import VReg

from . import cache as sched_cache
from .machine import DEFAULT_MACHINE, MachineDescription


class ModuloSchedulingFailed(Exception):
    """No schedule found within the II search budget."""


@dataclass
class ModuloSchedule:
    ii: int
    times: dict[int, int]            # op uid -> issue time
    slots: dict[int, int]            # op uid -> issue slot
    ops: list                        # scheduled operations, original order
    mve_factor: int = 1

    @property
    def schedule_length(self) -> int:
        """Flat length of one iteration (the pipeline fill time)."""
        return max(self.times.values(), default=0) + 1

    @property
    def stages(self) -> int:
        return max(1, ceil(self.schedule_length / self.ii))

    @property
    def kernel_op_count(self) -> int:
        """Operations in one kernel copy (NOPs excluded)."""
        return sum(1 for op in self.ops if op.opcode != Opcode.NOP)

    @property
    def buffered_op_count(self) -> int:
        """Loop-buffer footprint: kernel ops times the MVE unroll factor."""
        return self.kernel_op_count * self.mve_factor


def resource_mii(ops, machine: MachineDescription) -> int:
    """ResMII: each unit class's op count over its slot count."""
    demand: dict[Unit, int] = {}
    for op in ops:
        if op.opcode == Opcode.NOP:
            continue
        unit = unit_of(op.opcode)
        demand[unit] = demand.get(unit, 0) + 1
    mii = 1
    for unit, count in demand.items():
        slots = machine.unit_count(unit)
        mii = max(mii, ceil(count / slots))
    # IALU ops can spill into any slot, but every op consumes *some* slot
    total = sum(demand.values())
    mii = max(mii, ceil(total / machine.width))
    return mii


#: RecMII search ceiling — a recurrence this long means the loop is not
#: profitably pipelineable on the modeled machine anyway
MAX_REC_MII = 512


def recurrence_mii(graph: DependenceGraph) -> int:
    """RecMII: smallest II with no positive cycle of weight lat - II*dist.

    Checked by Bellman-Ford-style relaxation on longest paths; the II is
    feasible when relaxation converges (no positive-weight cycle).
    Feasibility is monotone in II (raising II only lowers edge weights),
    so the smallest feasible II is found by doubling to an upper bound
    and bisecting.
    A graph with no loop-carried edge has no cycle at all: RecMII is 1
    without any relaxation.
    """
    if not any(edge.distance for edge in graph.edges):
        return 1
    if _feasible(graph, 1):
        return 1
    lo, hi = 1, 2  # lo is always infeasible, hi the candidate bound
    while not _feasible(graph, hi):
        lo, hi = hi, min(hi * 2, MAX_REC_MII - 1)
        if lo >= MAX_REC_MII - 1:
            raise ModuloSchedulingFailed(
                "recurrence MII exceeds search budget")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _feasible(graph, mid):
            hi = mid
        else:
            lo = mid
    return hi


def _feasible(graph: DependenceGraph, ii: int) -> bool:
    n = len(graph.ops)
    dist = [0] * n
    for _ in range(n + 1):
        changed = False
        for edge in graph.edges:
            weight = edge.latency - ii * edge.distance
            if dist[edge.src] + weight > dist[edge.dst]:
                dist[edge.dst] = dist[edge.src] + weight
                changed = True
        if not changed:
            return True
    return False


def modulo_schedule(
    block: BasicBlock,
    machine: MachineDescription = DEFAULT_MACHINE,
    max_ii: int = 256,
    budget_factor: int = 8,
    tracer=None,
) -> ModuloSchedule:
    """Iteratively modulo-schedule a simple loop body."""
    if tracer is None:
        from repro.obs import get_tracer
        tracer = get_tracer()
    if not tracer.enabled:
        return _modulo_schedule(block, machine, max_ii, budget_factor)
    with tracer.span(f"modulo:{block.label}", category="sched",
                     block=block.label) as span:
        sched = _modulo_schedule(block, machine, max_ii, budget_factor,
                                 span=span)
        span.annotate(
            ii=sched.ii,
            mve_factor=sched.mve_factor,
            kernel_ops=sched.kernel_op_count,
            buffered_ops=sched.buffered_op_count,
            schedule_length=sched.schedule_length,
            stages=sched.stages,
        )
        return sched


def _modulo_schedule(block, machine, max_ii, budget_factor, span=None):
    ops = [op for op in block.ops if op.opcode != Opcode.NOP]
    with sched_cache.timed("modulo"):
        fingerprint = ops_fingerprint(ops)
        key = (fingerprint, machine, max_ii, budget_factor)
        cached = sched_cache.modulo_result_get(key)
        if cached is not None:
            return _modulo_from_cache(block, ops, cached, span)
        relations = PredicateRelations(block)
        graph = dependence_graph(ops, relations=relations,
                                 loop_carried=True,
                                 fingerprint=fingerprint)
        # both lower bounds are known before any candidate schedule is
        # attempted: the II search never starts below max(ResMII, RecMII)
        res_mii = resource_mii(ops, machine)
        rec_mii = recurrence_mii(graph)
        mii = max(res_mii, rec_mii)
        if span is not None:
            span.annotate(min_ii=mii, resource_mii=res_mii,
                          recurrence_mii=rec_mii, ops=len(ops))

        for ii in range(mii, max_ii + 1):
            result = _try_schedule(ops, graph, machine, ii,
                                   budget_factor * len(ops) + 32)
            if result is not None:
                times, slots = result
                sched = ModuloSchedule(
                    ii=ii,
                    times={ops[i].uid: t for i, t in times.items()},
                    slots={ops[i].uid: s for i, s in slots.items()},
                    ops=list(ops),
                )
                sched.mve_factor = required_mve_factor(ops, graph, times, ii)
                sched_cache.modulo_result_put(key, (
                    "ok", ii,
                    tuple(times[i] for i in range(len(ops))),
                    tuple(slots[i] for i in range(len(ops))),
                    sched.mve_factor,
                    (mii, res_mii, rec_mii),
                ))
                return sched
        message = f"no II <= {max_ii} for {block.label}"
        sched_cache.modulo_result_put(key, ("fail", f"no II <= {max_ii}"))
        raise ModuloSchedulingFailed(message)


def _modulo_from_cache(block, ops, cached, span):
    """Rebind a memoized modulo outcome onto this block's operations."""
    if cached[0] == "fail":
        raise ModuloSchedulingFailed(f"{cached[1]} for {block.label}")
    _tag, ii, times, slots, mve, bounds = cached
    if span is not None:
        mii, res_mii, rec_mii = bounds
        span.annotate(min_ii=mii, resource_mii=res_mii,
                      recurrence_mii=rec_mii, ops=len(ops), cached=True)
    sched = ModuloSchedule(
        ii=ii,
        times={op.uid: times[i] for i, op in enumerate(ops)},
        slots={op.uid: slots[i] for i, op in enumerate(ops)},
        ops=list(ops),
        mve_factor=mve,
    )
    return sched


def _try_schedule(ops, graph, machine, ii, budget):
    """One IMS attempt at a fixed II; returns (times, slots) or None.

    The modulo reservation table is mirrored in per-modulo-cycle
    free-slot bitmasks so the placement probe is mask arithmetic instead
    of a per-slot dict scan.
    """
    n = len(ops)
    height = _heights(graph, ii)
    order = sorted(range(n), key=lambda i: (-height[i], i))
    times: dict[int, int] = {}
    slots: dict[int, int] = {}
    # modulo reservation table: (slot, time mod ii) -> op index
    mrt: dict[tuple[int, int], int] = {}
    # occupancy mirror: time mod ii -> bitmask of taken slots
    mrt_mask = [0] * ii
    full_mask = machine.full_mask
    worklist = list(order)
    attempts = 0

    while worklist:
        attempts += 1
        if attempts > budget:
            return None
        i = worklist.pop(0)
        lo = 0
        for edge in graph.preds[i]:
            if edge.src in times:
                lo = max(lo, times[edge.src] + edge.latency - ii * edge.distance)
        lo = max(lo, 0)
        hi = lo + ii - 1

        placed = False
        for t in range(lo, hi + 1):
            slot = machine.pick_slot(ops[i].opcode,
                                     full_mask & ~mrt_mask[t % ii])
            if slot is not None:
                _place(i, t, slot, times, slots, mrt, mrt_mask, ii)
                placed = True
                break
        if not placed:
            # forced placement at lo: evict whatever conflicts (classic IMS)
            t = lo
            slot_candidates = machine.slots_for_op(ops[i].opcode)
            slot = slot_candidates[0]
            evicted = [
                j for (s, m), j in list(mrt.items())
                if s == slot and m == t % ii
            ]
            for j in evicted:
                _unplace(j, times, slots, mrt, mrt_mask, ii)
                worklist.append(j)
            _place(i, t, slot, times, slots, mrt, mrt_mask, ii)

        # displace successors whose constraints broke
        for edge in graph.succs[i]:
            j = edge.dst
            if j in times and j != i:
                if times[i] + edge.latency - ii * edge.distance > times[j]:
                    _unplace(j, times, slots, mrt, mrt_mask, ii)
                    worklist.append(j)

    if _valid(graph, times, ii):
        return times, slots
    return None


def _heights(graph, ii):
    n = len(graph.ops)
    height = [0] * n
    for _ in range(n + 1):
        changed = False
        for edge in graph.edges:
            weight = edge.latency - ii * edge.distance
            if height[edge.src] < height[edge.dst] + weight:
                height[edge.src] = height[edge.dst] + weight
                changed = True
        if not changed:
            break
    return height


def _place(i, t, slot, times, slots, mrt, mrt_mask, ii):
    times[i] = t
    slots[i] = slot
    mrt[(slot, t % ii)] = i
    mrt_mask[t % ii] |= 1 << slot


def _unplace(i, times, slots, mrt, mrt_mask, ii):
    t = times.pop(i)
    slot = slots.pop(i)
    mrt.pop((slot, t % ii), None)
    mrt_mask[t % ii] &= ~(1 << slot)


def _valid(graph, times, ii):
    if len(times) != len(graph.ops):
        return False
    for edge in graph.edges:
        if times[edge.src] + edge.latency - ii * edge.distance > times[edge.dst]:
            return False
    return True


def required_mve_factor(ops, graph, times, ii) -> int:
    """Kernel unroll factor required by register lifetimes (no rotating
    register file on the modeled machine).  ``times`` maps op *index* (into
    ``ops``) to issue time.  Public so modulo-schedule legality checking
    can recompute the factor a stored schedule claims."""
    lifetime: dict[VReg, int] = {}
    for edge in graph.edges:
        if edge.kind != "flow":
            continue
        src_op = ops[edge.src]
        span = times[edge.dst] + ii * edge.distance - times[edge.src]
        for reg in src_op.dests:
            lifetime[reg] = max(lifetime.get(reg, 0), span)
    factor = 1
    for span in lifetime.values():
        if span > 0:
            factor = max(factor, ceil(span / ii))
    return factor
