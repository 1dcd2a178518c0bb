"""Generic worklist dataflow engine over :class:`CFGView`.

Every global analysis in this package — liveness, must-defined, and the
predicate web — is the same shape: a value per block edge, a monotone
per-block transfer, and a meet over flow-predecessors, iterated to a
fixpoint.  This module owns that shape once.  A
:class:`DataflowProblem` supplies the direction, the boundary value, the
meet and the transfer; :func:`solve` runs a deterministic worklist
(seeded in flow order, re-armed in flow order) and returns per-block
``input``/``output`` maps plus fixpoint statistics.

Conventions
-----------

* Values flow in the *flow direction*: for a forward problem the input
  of a block is the meet over its CFG predecessors' outputs; for a
  backward problem it is the meet over its CFG successors' outputs.
  Liveness therefore reads ``input[b]`` as live-out and ``output[b]`` as
  live-in.
* ``meet([])`` is consulted for reachable blocks with no computed
  contribution yet (e.g. a loop entered only by a back edge).  Union
  problems return their identity (empty set); must-problems return
  :data:`TOP` and the block is left untransferred until a contribution
  arrives.
* Transfers may read *other* blocks' current outputs through the result
  (liveness revives side-exit targets mid-block); the engine re-arms
  flow-successors whenever an output changes, so such reads re-converge.

Only reachable blocks participate (matching ``CFGView.reverse_postorder``);
callers that must report on unreachable blocks default the missing
entries themselves.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any

from repro.obs import get_tracer

from .cfgview import CFGView

FORWARD = "forward"
BACKWARD = "backward"


class _Top:
    """Above every lattice value: "not yet constrained by any path"."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "TOP"


#: the unique top sentinel; ``meet([])`` returns it to defer a transfer.
TOP = _Top()


class DataflowProblem:
    """A dataflow problem instance: direction, boundary, meet, transfer.

    Subclasses bind whatever per-function context they need (the
    function, precomputed per-block summaries) in ``__init__`` and
    override the four hooks below.  Values must be comparable with
    ``==`` (override :meth:`equal` otherwise) and are stored as-is —
    transfers must not mutate their input.
    """

    #: :data:`FORWARD` or :data:`BACKWARD`
    direction = FORWARD
    #: short name used in fixpoint stats and trace instants
    name = "dataflow"

    def boundary(self) -> Any:
        """Value entering the flow at boundary blocks (the CFG entry for
        forward problems; exit blocks for backward problems)."""
        raise NotImplementedError

    def meet(self, values: list[Any]) -> Any:
        """Combine flow-predecessor outputs.  ``values`` may be empty
        (no contribution computed yet); return the meet identity or
        :data:`TOP` to defer the block."""
        raise NotImplementedError

    def transfer(self, label: str, value: Any, result: "DataflowResult") -> Any:
        """Flow ``value`` through block ``label``.  ``result`` exposes
        the in-progress solution for transfers that peek at other
        blocks' outputs (see module docstring)."""
        raise NotImplementedError

    def equal(self, a: Any, b: Any) -> bool:
        return a == b


@dataclass
class FixpointStats:
    """Work accounting for one :func:`solve` call."""

    problem: str = ""
    nodes: int = 0
    transfers: int = 0
    #: worklist pops, including deferred (TOP-input) visits
    visits: int = 0

    def as_dict(self) -> dict:
        return {
            "problem": self.problem,
            "nodes": self.nodes,
            "transfers": self.transfers,
            "visits": self.visits,
        }


@dataclass
class DataflowResult:
    """Fixpoint solution: per-block input/output values in flow order.

    Blocks never constrained (unreachable, or deferred forever because no
    path reaches them with a non-top value) are absent; the accessors
    take a default.
    """

    input: dict[str, Any] = field(default_factory=dict)
    output: dict[str, Any] = field(default_factory=dict)
    stats: FixpointStats = field(default_factory=FixpointStats)

    def input_of(self, label: str, default: Any = None) -> Any:
        return self.input.get(label, default)


#: accumulated stats per problem name (cleared with :func:`reset_stats`)
STATS: dict[str, FixpointStats] = {}


def reset_stats() -> None:
    STATS.clear()


def _accumulate(stats: FixpointStats) -> None:
    agg = STATS.setdefault(stats.problem, FixpointStats(stats.problem))
    agg.nodes += stats.nodes
    agg.transfers += stats.transfers
    agg.visits += stats.visits


def solve(problem: DataflowProblem, cfg: CFGView) -> DataflowResult:
    """Run ``problem`` to fixpoint over ``cfg`` with a deterministic
    worklist (priority = position in flow order; ties impossible)."""
    forward = problem.direction == FORWARD
    rpo = cfg.reverse_postorder()
    order = rpo if forward else list(reversed(rpo))
    pos = {label: i for i, label in enumerate(order)}
    flow_preds = cfg.preds if forward else cfg.succs
    flow_succs = cfg.succs if forward else cfg.preds
    boundary_labels = (
        {cfg.entry} if forward
        else {label for label in order if not cfg.succs[label]}
    )

    result = DataflowResult(stats=FixpointStats(
        problem=problem.name, nodes=len(order)))
    stats = result.stats

    heap: list[tuple[int, str]] = [(i, label) for i, label in enumerate(order)]
    heapq.heapify(heap)
    queued = set(order)

    while heap:
        _, label = heapq.heappop(heap)
        queued.discard(label)
        stats.visits += 1
        if label in boundary_labels:
            value = problem.boundary()
        else:
            contributions = [
                result.output[p] for p in flow_preds[label]
                if p in pos and result.output.get(p, TOP) is not TOP
            ]
            value = problem.meet(contributions)
        if value is TOP:
            continue  # deferred: re-armed when a contribution lands
        result.input[label] = value
        new_out = problem.transfer(label, value, result)
        stats.transfers += 1
        old_out = result.output.get(label, TOP)
        if old_out is TOP or not problem.equal(old_out, new_out):
            result.output[label] = new_out
            for succ in flow_succs[label]:
                if succ in pos and succ not in queued:
                    queued.add(succ)
                    heapq.heappush(heap, (pos[succ], succ))

    _accumulate(stats)
    tracer = get_tracer()
    if tracer.enabled:
        tracer.instant("dataflow_fixpoint", category="analysis",
                       **stats.as_dict())
    return result

