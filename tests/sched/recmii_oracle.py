"""The bisected Bellman-Ford RecMII search, kept as an oracle.

:func:`feasible` relaxes every edge of the modulo precedence system at a
fixed II up to n + 1 times and reports whether longest paths converge
(no cycle of positive weight ``latency - II * distance``).  Feasibility
is monotone in II, so :func:`oracle_recurrence_mii` finds the smallest
feasible II by doubling to an upper bound and bisecting.  It shares no
code with :func:`repro.sched.modulo.recurrence_mii`'s cycle jumping, so
the two must agree on every graph.

:func:`recorded_graphs` collects the dependence graph of every loop the
modulo scheduler sees while its body runs, so real compiles can be
checked against the oracle loop by loop.
"""

from __future__ import annotations

from contextlib import contextmanager

import repro.sched.modulo as modulo
from repro.analysis.dependence import DependenceGraph
from repro.memo import clear_caches
from repro.sched.modulo import MAX_REC_MII, ModuloSchedulingFailed


def feasible(graph: DependenceGraph, ii: int) -> bool:
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


def oracle_recurrence_mii(graph: DependenceGraph) -> int:
    """RecMII by doubling to a feasible II, then bisecting."""
    if not any(edge.distance for edge in graph.edges):
        return 1
    if feasible(graph, 1):
        return 1
    lo, hi = 1, 2  # lo is always infeasible, hi the candidate bound
    while not feasible(graph, hi):
        lo, hi = hi, min(hi * 2, MAX_REC_MII - 1)
        if lo >= MAX_REC_MII - 1:
            raise ModuloSchedulingFailed(
                "recurrence MII exceeds search budget")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(graph, mid):
            hi = mid
        else:
            lo = mid
    return hi


@contextmanager
def recorded_graphs():
    """Yield a list that fills with every graph the modulo scheduler
    passes to ``recurrence_mii`` inside the block.

    Process memos are dropped on entry and exit, so no loop is served
    from a schedule memoised before the block."""
    graphs: list[DependenceGraph] = []
    real = modulo.recurrence_mii

    def recording(graph):
        graphs.append(graph)
        return real(graph)

    modulo.recurrence_mii = recording
    clear_caches()
    try:
        yield graphs
    finally:
        clear_caches()
        modulo.recurrence_mii = real
