"""Exact modulo-scheduling oracle: certify the heuristic's II, or beat it.

Iterative modulo scheduling (:mod:`repro.sched.modulo`) is a heuristic —
it can settle on an II above the true minimum when eviction-based
placement paints itself into a corner.  This module answers, per loop,
the question the heuristic cannot: *what is the smallest feasible II?*

For each candidate II (from MinII upward) the oracle solves the exact
constraint program

* ``t[j] - t[i] >= latency(e) - II * distance(e)`` for every dependence
  edge ``e : i -> j`` (the modulo precedence system), and
* the operations mapped to each modulo residue ``t[i] % II`` must admit a
  perfect matching into capable issue slots (the modulo reservation
  table, solved as bipartite matching rather than greedy slot probing),

by depth-first search over issue times with interval propagation
(Bellman-Ford tightening of every unassigned operation's time window
after each assignment).  Slot assignment is *not* branched on: a time
assignment is accepted only if the per-residue matching extends, which
keeps the search complete without enumerating slot permutations.

Completeness is relative to a finite time horizon.  The default horizon
is safe: any feasible modulo schedule can be normalized to fit within
``sum(latencies) + n * II`` cycles — shift each strongly-connected
component of the dependence graph earlier by multiples of II (which
preserves every residue, hence the reservation table) until it sits
within II cycles of its precedence-forced earliest start; the residual
spread is bounded by longest dependence paths, i.e. by the latency sum.
A search that exhausts this horizon has therefore *proved* the II
infeasible.  The only escape hatch is the node budget: when the search
trips it, the oracle reports honestly that the result is uncertified.

Everything here is pure Python over the existing dependence graph and
machine model — no solver dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

from repro.analysis.dependence import (
    DependenceGraph,
    dependence_graph,
    ops_fingerprint,
)
from repro.analysis.predrel import PredicateRelations
from repro.ir.block import BasicBlock
from repro.ir.opcodes import Opcode, latency_of
from repro.obs import get_tracer

from .machine import DEFAULT_MACHINE, MachineDescription
from .modulo import (
    ModuloSchedule,
    ModuloSchedulingFailed,
    recurrence_mii,
    required_mve_factor,
    resource_mii,
)

#: default DFS node budget per loop (across all candidate IIs)
DEFAULT_NODE_BUDGET = 200_000

#: loops larger than this are skipped (reported ``"too-large"``) — the
#: exact search is exponential in the worst case and the certification
#: claim is only interesting for loop *kernels*, which are small
DEFAULT_MAX_OPS = 24


class _BudgetExceeded(Exception):
    """The DFS node budget ran out mid-search."""


@dataclass(frozen=True)
class OracleResult:
    """Outcome of the exact II search for one loop.

    ``status``:

    * ``"optimal"`` — ``ii`` is the proven-minimal initiation interval
      (every smaller candidate was exhaustively refuted).
    * ``"feasible"`` — a schedule at ``ii`` was found, but some smaller
      candidate's refutation hit the node budget: ``ii`` is an upper
      bound on the optimum, not a certificate.
    * ``"infeasible"`` — no schedule exists at any ``II <= max_ii``
      (proven); ``ii`` is ``None``.
    * ``"unknown"`` — the budget ran out before any schedule was found.
    * ``"too-large"`` — the loop exceeds ``max_ops``; no search was run.
    """

    block: str
    n_ops: int
    res_mii: int
    rec_mii: int
    min_ii: int
    ii: int | None
    status: str
    nodes: int
    times: tuple[int, ...] | None = None   # per op index, original order
    slots: tuple[int, ...] | None = None

    @property
    def certified(self) -> bool:
        return self.status == "optimal"

    def as_dict(self) -> dict:
        return {
            "block": self.block, "ops": self.n_ops,
            "res_mii": self.res_mii, "rec_mii": self.rec_mii,
            "min_ii": self.min_ii, "ii": self.ii,
            "status": self.status, "nodes": self.nodes,
        }


# --------------------------------------------------------------------------
# the exact search at one fixed II


def _windows(graph: DependenceGraph, ii: int,
             horizon: int) -> tuple[list[int], list[int]] | None:
    """Initial [est, lst] per op, or ``None`` on a positive cycle."""
    n = len(graph.ops)
    est = [0] * n
    for _ in range(n + 1):
        changed = False
        for edge in graph.edges:
            weight = edge.latency - ii * edge.distance
            if est[edge.src] + weight > est[edge.dst]:
                est[edge.dst] = est[edge.src] + weight
                changed = True
        if not changed:
            break
    else:
        return None  # positive cycle: II infeasible at *any* horizon
    height = [0] * n
    for _ in range(n + 1):
        changed = False
        for edge in graph.edges:
            weight = edge.latency - ii * edge.distance
            if height[edge.dst] + weight > height[edge.src]:
                height[edge.src] = height[edge.dst] + weight
                changed = True
        if not changed:
            break
    lst = [min(horizon - 1, horizon - 1 - height[i]) for i in range(n)]
    return est, lst


class _ResidueMatcher:
    """Bipartite op-to-slot matching for one modulo residue class.

    Keeps ``slot_of[op_index]`` / ``op_at[slot]`` for the ops currently
    mapped to this residue.  ``add`` tries to extend the matching with a
    Hopcroft-Karp-style augmenting path; on failure the residue provably
    cannot host the op and the matching is left untouched.
    """

    def __init__(self, width: int):
        self.op_at: list[int | None] = [None] * width
        self.slot_of: dict[int, int] = {}

    def add(self, op: int, capable_mask: int, masks: dict[int, int]) -> bool:
        seen = 0

        def augment(op_index: int, mask: int) -> bool:
            nonlocal seen
            probe = mask & ~seen
            while probe:
                bit = probe & -probe
                probe &= probe - 1
                slot = bit.bit_length() - 1
                seen |= bit
                holder = self.op_at[slot]
                if holder is None or augment(holder, masks[holder]):
                    self.op_at[slot] = op_index
                    self.slot_of[op_index] = slot
                    return True
            return False

        return augment(op, capable_mask)

    def remove(self, op: int, masks: dict[int, int]) -> None:
        # rebuild from the remaining ops: augmenting-path removal is
        # fiddlier than re-matching <= width ops
        remaining = [i for i in self.slot_of if i != op]
        self.op_at = [None] * len(self.op_at)
        self.slot_of = {}
        for i in remaining:
            if not self.add(i, masks[i], masks):  # pragma: no cover
                raise AssertionError("matching shrank on removal")


def _search(ops, graph: DependenceGraph, machine: MachineDescription,
            ii: int, horizon: int, budget: list[int]):
    """Exact search at a fixed II.

    Returns ``("sat", times, slots)``, ``("unsat",)`` (exhausted — proof
    relative to ``horizon``), or ``("cycle",)`` (positive recurrence
    cycle — proof at any horizon).  Raises :class:`_BudgetExceeded` when
    ``budget[0]`` runs out; ``budget[0]`` is decremented per DFS node so
    one budget spans several candidate IIs.
    """
    n = len(ops)
    windows = _windows(graph, ii, horizon)
    if windows is None:
        return ("cycle",)
    est, lst = windows
    if any(est[i] > lst[i] for i in range(n)):
        return ("unsat",)

    masks = {i: machine.slot_mask_for_op(op.opcode) for i, op in
             enumerate(ops)}
    matchers = [_ResidueMatcher(machine.width) for _ in range(ii)]
    lb, ub = list(est), list(lst)
    assigned: dict[int, int] = {}

    def propagate() -> bool:
        """Bellman-Ford tightening of [lb, ub]; False on an empty window."""
        for _ in range(n + 1):
            changed = False
            for edge in graph.edges:
                weight = edge.latency - ii * edge.distance
                if lb[edge.src] + weight > lb[edge.dst]:
                    lb[edge.dst] = lb[edge.src] + weight
                    changed = True
                if ub[edge.dst] - weight < ub[edge.src]:
                    ub[edge.src] = ub[edge.dst] - weight
                    changed = True
            if not changed:
                break
        return all(lb[i] <= ub[i] for i in range(n))

    if not propagate():
        return ("unsat",)

    def dfs() -> bool:
        if len(assigned) == n:
            return True
        budget[0] -= 1
        if budget[0] < 0:
            raise _BudgetExceeded
        # most-constrained variable: smallest remaining time window
        i = min((j for j in range(n) if j not in assigned),
                key=lambda j: (ub[j] - lb[j], j))
        saved_lb, saved_ub = list(lb), list(ub)
        for t in range(lb[i], ub[i] + 1):
            if not matchers[t % ii].add(i, masks[i], masks):
                continue
            assigned[i] = t
            lb[i] = ub[i] = t
            if propagate() and dfs():
                return True
            matchers[t % ii].remove(i, masks)
            del assigned[i]
            lb[:], ub[:] = saved_lb, saved_ub
        return False

    if dfs():
        times = tuple(assigned[i] for i in range(n))
        slots = tuple(matchers[assigned[i] % ii].slot_of[i]
                      for i in range(n))
        return ("sat", times, slots)
    return ("unsat",)


# --------------------------------------------------------------------------
# the II sweep


def safe_horizon(ops, ii: int) -> int:
    """Horizon that provably contains a normalized feasible schedule."""
    total_latency = sum(latency_of(op.opcode) for op in ops)
    return total_latency + len(ops) * ii + 1


def oracle_schedule(
    block: BasicBlock,
    machine: MachineDescription = DEFAULT_MACHINE,
    max_ii: int = 64,
    node_budget: int = DEFAULT_NODE_BUDGET,
    max_ops: int = DEFAULT_MAX_OPS,
) -> OracleResult:
    """Exact minimal-II search over ``II in [MinII, max_ii]`` for a loop."""
    tracer = get_tracer()
    ops = [op for op in block.ops if op.opcode != Opcode.NOP]
    relations = PredicateRelations(block)
    graph = dependence_graph(ops, relations=relations,
                             loop_carried=True,
                             fingerprint=ops_fingerprint(ops))
    res_mii = resource_mii(ops, machine)
    try:
        rec_mii = recurrence_mii(graph)
    except ModuloSchedulingFailed:
        rec_mii = max_ii + 1
    mii = max(res_mii, rec_mii)

    def done(result: OracleResult) -> OracleResult:
        if tracer.enabled:
            tracer.instant("oracle", category="sched",
                           block=block.label, **result.as_dict())
        return result

    if max_ii < mii:
        # the MinII bound alone refutes every candidate — no search
        # (and no size limit) needed for this certificate
        return done(OracleResult(block.label, len(ops), res_mii,
                                 rec_mii, mii, None, "infeasible", 0))
    if len(ops) > max_ops:
        return done(OracleResult(block.label, len(ops), res_mii,
                                 rec_mii, mii, None, "too-large", 0))
    budget = [node_budget]
    refuted_all_below = True
    for ii in range(mii, max_ii + 1):
        horizon = safe_horizon(ops, ii)
        try:
            outcome = _search(ops, graph, machine, ii, horizon, budget)
        except _BudgetExceeded:
            refuted_all_below = False
            continue
        if outcome[0] == "sat":
            _tag, times, slots = outcome
            status = "optimal" if refuted_all_below else "feasible"
            return done(OracleResult(
                block.label, len(ops), res_mii, rec_mii, mii, ii,
                status, node_budget - budget[0], times, slots))
        # "unsat" at the safe horizon and "cycle" are both proofs
    if refuted_all_below:
        return done(OracleResult(block.label, len(ops), res_mii,
                                 rec_mii, mii, None, "infeasible",
                                 node_budget - budget[0]))
    return done(OracleResult(block.label, len(ops), res_mii, rec_mii,
                             mii, None, "unknown",
                             node_budget - budget[0]))


def as_modulo_schedule(block: BasicBlock, result: OracleResult,
                       machine: MachineDescription = DEFAULT_MACHINE,
                       ) -> ModuloSchedule:
    """Materialize an oracle solution as a :class:`ModuloSchedule`.

    The MVE factor is recomputed from the oracle's own issue times — a
    tighter II can need *more* kernel copies, and the loop-buffer
    footprint must reflect the schedule actually installed.
    """
    if result.ii is None or result.times is None:
        raise ValueError(f"oracle found no schedule for {block.label}")
    ops = [op for op in block.ops if op.opcode != Opcode.NOP]
    relations = PredicateRelations(block)
    graph = dependence_graph(ops, relations=relations, loop_carried=True,
                             fingerprint=ops_fingerprint(ops))
    times_by_index = dict(enumerate(result.times))
    sched = ModuloSchedule(
        ii=result.ii,
        times={op.uid: result.times[i] for i, op in enumerate(ops)},
        slots={op.uid: result.slots[i] for i, op in enumerate(ops)},
        ops=list(ops),
    )
    sched.mve_factor = required_mve_factor(ops, graph, times_by_index,
                                           result.ii)
    return sched


# --------------------------------------------------------------------------
# heuristic-vs-oracle gap reporting


@dataclass(frozen=True)
class LoopGap:
    """One row of the heuristic-vs-optimal gap table.

    ``oracle`` holds the result of searching ``II < heuristic II`` only
    — the heuristic's own schedule is already a feasibility witness at
    its II, so certification only requires refuting everything below it.
    """

    function: str
    block: str
    n_ops: int
    min_ii: int
    heuristic_ii: int
    oracle: OracleResult

    @property
    def optimal_ii(self) -> int | None:
        """The proven-minimal II, when known."""
        if self.oracle.status == "infeasible":
            return self.heuristic_ii        # nothing below it is feasible
        if self.oracle.status == "optimal":
            return self.oracle.ii
        return None

    @property
    def gap(self) -> int | None:
        """Cycles of II the heuristic left on the table (None = unknown)."""
        if self.oracle.status == "infeasible":
            return 0
        if self.oracle.ii is not None:      # found something below heur.ii
            return self.heuristic_ii - self.oracle.ii
        return None                         # unknown / too-large

    @property
    def certified(self) -> bool:
        """The gap value is a proof, not just an observed bound."""
        return self.oracle.status in ("infeasible", "optimal")

    def as_dict(self) -> dict:
        data = self.oracle.as_dict()
        data.update(function=self.function, block=self.block,
                    heuristic_ii=self.heuristic_ii,
                    optimal_ii=self.optimal_ii, gap=self.gap,
                    certified=self.certified)
        return data


def certify_compiled(compiled, node_budget: int = DEFAULT_NODE_BUDGET,
                     max_ops: int = DEFAULT_MAX_OPS) -> list[LoopGap]:
    """Gap table for every modulo-scheduled loop of a compiled program.

    Searches ``II in [MinII, heuristic II - 1]``: a heuristic already at
    MinII is certified optimal with zero search nodes (the bound proof
    suffices), and otherwise either every smaller II is refuted (gap 0,
    certified) or a better schedule quantifies the gap.
    """
    rows: list[LoopGap] = []
    for (fname, header), heur in sorted(compiled.modulo.items()):
        block = compiled.module.functions[fname].block(header)
        result = oracle_schedule(block, compiled.machine,
                                 max_ii=heur.ii - 1,
                                 node_budget=node_budget, max_ops=max_ops)
        rows.append(LoopGap(fname, header, result.n_ops, result.min_ii,
                            heur.ii, result))
    return rows


def swap_oracle_schedules(compiled, node_budget: int = DEFAULT_NODE_BUDGET,
                          max_ops: int = DEFAULT_MAX_OPS):
    """Replace heuristic modulo schedules with oracle ones where found.

    Returns ``(new_compiled, swapped)`` where ``swapped`` maps
    ``(function, header)`` to the oracle's II.  The original ``Compiled``
    is untouched; loops the oracle could not solve keep their heuristic
    schedules.  Used by the fuzz oracle to check that a semantically
    independent scheduler produces semantically identical programs.
    """
    new_modulo = dict(compiled.modulo)
    swapped: dict[tuple[str, str], int] = {}
    for (fname, header), heur in sorted(compiled.modulo.items()):
        block = compiled.module.functions[fname].block(header)
        result = oracle_schedule(block, compiled.machine, max_ii=heur.ii,
                                 node_budget=node_budget, max_ops=max_ops)
        if result.ii is None:
            continue
        new_modulo[(fname, header)] = as_modulo_schedule(
            block, result, compiled.machine)
        swapped[(fname, header)] = result.ii
    return dc_replace(compiled, modulo=new_modulo), swapped
