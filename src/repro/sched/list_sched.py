"""Acyclic (prepass) list scheduling of blocks onto the VLIW.

Classic critical-path list scheduling: operations become ready when all
their dependence predecessors have issued and their latencies elapsed;
each cycle, ready operations are placed highest-priority-first into
compatible free slots (scarcest-unit slots preferred, so an IALU op does
not squat on the lone branch slot).

The dependence graph is predicate-aware (disjoint-guard relaxation) and,
when liveness is supplied, allows speculable operations to hoist above
hyperblock side exits (Section 3's control-speculation support).
"""

from __future__ import annotations

from repro.analysis.dependence import (
    DependenceGraph,
    dependence_graph,
    exit_live_fingerprint,
    ops_fingerprint,
)
from repro.analysis.predrel import PredicateRelations
from repro.ir.block import BasicBlock
from repro.ir.opcodes import Opcode
from repro.obs import get_tracer

from . import cache as sched_cache
from .bundle import Schedule
from .machine import DEFAULT_MACHINE, MachineDescription


def _priorities(graph: DependenceGraph) -> list[int]:
    """Latency-weighted height of each op (longest path to a leaf)."""
    n = len(graph.ops)
    height = [0] * n
    order = _topo(graph)
    for i in reversed(order):
        best = 0
        for edge in graph.succs[i]:
            if edge.distance == 0:
                best = max(best, max(edge.latency, 1) + height[edge.dst])
        height[i] = best
    return height


def _topo(graph: DependenceGraph) -> list[int]:
    n = len(graph.ops)
    indeg = [0] * n
    for edge in graph.edges:
        if edge.distance == 0:
            indeg[edge.dst] += 1
    stack = [i for i in range(n) if indeg[i] == 0]
    order: list[int] = []
    while stack:
        node = stack.pop()
        order.append(node)
        for edge in graph.succs[node]:
            if edge.distance == 0:
                indeg[edge.dst] -= 1
                if indeg[edge.dst] == 0:
                    stack.append(edge.dst)
    if len(order) != n:
        raise RuntimeError("dependence graph has a zero-distance cycle")
    return order


def schedule_block(
    block: BasicBlock,
    machine: MachineDescription = DEFAULT_MACHINE,
    exit_live: dict[int, set] | None = None,
    relations: PredicateRelations | None = None,
) -> Schedule:
    """List-schedule one block; returns the bundle schedule.

    Placements are memoized by block content (see :mod:`repro.sched.cache`):
    re-scheduling an identical block — a capacity-sweep deep copy, the same
    program under another pipeline config — replays the stored placements
    instead of re-running the scheduling search.
    """
    ops = [op for op in block.ops if op.opcode != Opcode.NOP]
    fingerprint = ops_fingerprint(ops)
    key = (fingerprint, machine, exit_live_fingerprint(exit_live))
    placements = sched_cache.list_placements_get(key)
    if placements is not None:
        return _replay(ops, placements)
    if relations is None:
        relations = PredicateRelations(block)
    graph = dependence_graph(ops, relations=relations,
                             exit_live=exit_live,
                             fingerprint=fingerprint)
    schedule = _schedule_ops(ops, graph, machine, block.label)
    sched_cache.list_placements_put(key, tuple(
        (i, place.cycle, place.slot)
        for i, op in enumerate(ops)
        for place in (schedule.placement[op.uid],)
    ))
    return schedule


def _replay(ops, placements) -> Schedule:
    """Rebuild a schedule from memoized (index, cycle, slot) placements."""
    schedule = Schedule()
    for i, cycle, slot in sorted(placements, key=lambda p: (p[1], p[2])):
        schedule.place(ops[i], cycle, slot)
    return schedule


def _schedule_ops(ops, graph, machine, label) -> Schedule:
    """The critical-path list-scheduling loop.

    Free slots are probed through a per-cycle bitmask and the machine's
    pick tables, in scarcest-capability-first order.
    """
    priority = _priorities(graph)

    n = len(ops)
    earliest = [0] * n
    unscheduled = set(range(n))
    schedule = Schedule()
    cycle = 0
    full_mask = machine.full_mask

    preds_remaining = [0] * n
    for edge in graph.edges:
        if edge.distance == 0:
            preds_remaining[edge.dst] += 1

    ready: list[int] = [i for i in range(n) if preds_remaining[i] == 0]

    while unscheduled:
        # candidates whose earliest start has arrived
        candidates = [i for i in ready if earliest[i] <= cycle]
        candidates.sort(key=lambda i: (-priority[i], i))
        free = full_mask

        for i in candidates:
            op = ops[i]
            slot = machine.pick_slot(op.opcode, free)
            if slot is None:
                continue
            schedule.place(op, cycle, slot)
            free &= ~(1 << slot)
            unscheduled.discard(i)
            ready.remove(i)
            for edge in graph.succs[i]:
                if edge.distance != 0:
                    continue
                preds_remaining[edge.dst] -= 1
                earliest[edge.dst] = max(
                    earliest[edge.dst], cycle + edge.latency
                )
                if preds_remaining[edge.dst] == 0:
                    ready.append(edge.dst)
        cycle += 1
        if cycle > 10 * (n + 8) + 64:
            raise RuntimeError(
                f"list scheduler failed to converge on {label}"
            )
    return schedule


def schedule_function(
    func,
    machine: MachineDescription = DEFAULT_MACHINE,
    liveness_info=None,
) -> dict[str, Schedule]:
    """List-schedule every block; returns label -> Schedule."""
    from repro.analysis.liveness import liveness

    tracer = get_tracer()
    if liveness_info is None:
        liveness_info = liveness(func)
    schedules: dict[str, Schedule] = {}
    if not tracer.enabled:
        for block in func.blocks:
            exit_live = exit_live_map(func, block, liveness_info)
            schedules[block.label] = schedule_block(
                block, machine, exit_live=exit_live
            )
        return schedules
    with tracer.span(f"list:{func.name}", category="sched",
                     func=func.name) as span:
        hits0, misses0, _ = sched_cache.LIST_STATS.counts()
        for block in func.blocks:
            exit_live = exit_live_map(func, block, liveness_info)
            schedules[block.label] = schedule_block(
                block, machine, exit_live=exit_live
            )
        bundles = sum(len(s.bundles) for s in schedules.values())
        slots_used = sum(
            sum(1 for _ in bundle.in_slot_order())
            for s in schedules.values() for bundle in s.bundles
        )
        span.annotate(
            blocks=len(schedules),
            bundles=bundles,
            slots_used=slots_used,
            slots_total=bundles * machine.width,
            cache_hits=sched_cache.LIST_STATS.hits - hits0,
            cache_misses=sched_cache.LIST_STATS.misses - misses0,
        )
    return schedules


def exit_live_map(func, block, liveness_info) -> dict[int, set]:
    """Map op-list index of each branch to registers live on its taken path.

    Public because schedule-legality checking (:mod:`repro.analysis.lint`)
    must rebuild the *same* dependence graph the scheduler used, including
    the side-exit hoisting relaxation this map enables.
    """
    ops = [op for op in block.ops if op.opcode != Opcode.NOP]
    result: dict[int, set] = {}
    for i, op in enumerate(ops):
        if op.is_branch and op.target is not None and func.has_block(op.target):
            result[i] = set(liveness_info.live_in.get(op.target, set()))
    return result
