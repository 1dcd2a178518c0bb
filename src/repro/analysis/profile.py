"""Execution profiles.

The paper's compiler is profile-directed throughout: hyperblock formation,
inlining, loop-transform legality/benefit tests, and loop-buffer assignment
all consume block/edge/branch frequencies.  A :class:`Profile` is produced
by running the functional interpreter (:mod:`repro.sim.interp`) on a
training input, exactly as IMPACT profiles benchmarks before recompiling.

A run that traps leaves its profile *incomplete*: the engines tally in
different units (the reference per op, the fast engine per pass or per
fused run of self-loop passes), so the counts a trap leaves behind differ
between them.  Both engines set :attr:`Profile.incomplete`, and every
query method then raises :class:`IncompleteProfileError`.  Code that reads
the count dicts directly is not checked and must test the flag itself.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field


class IncompleteProfileError(RuntimeError):
    """A query on the profile of a run that trapped."""


@dataclass
class Profile:
    """Dynamic execution counts keyed by function name.

    After a trapping run (``incomplete``) the query methods raise;
    reading the count dicts directly bypasses that check.
    """

    #: (func, block_label) -> times the block was entered
    blocks: dict[tuple[str, str], int] = field(default_factory=lambda: defaultdict(int))
    #: (func, src_label, dst_label) -> times the CFG edge was traversed
    edges: dict[tuple[str, str, str], int] = field(default_factory=lambda: defaultdict(int))
    #: (func, op_uid) -> times the op was encountered (fetched)
    ops: dict[tuple[str, int], int] = field(default_factory=lambda: defaultdict(int))
    #: (func, op_uid) -> times a conditional branch was taken
    taken: dict[tuple[str, int], int] = field(default_factory=lambda: defaultdict(int))
    #: func -> number of invocations
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: total operations encountered (dynamic op count, NOPs excluded)
    total_ops: int = 0
    #: set when the profiled run trapped; the counts are then unspecified
    incomplete: bool = False

    # -- recording ------------------------------------------------------------

    def enter_block(self, func: str, label: str) -> None:
        self.blocks[(func, label)] += 1

    def traverse_edge(self, func: str, src: str, dst: str) -> None:
        self.edges[(func, src, dst)] += 1

    def record_op(self, func: str, uid: int) -> None:
        self.ops[(func, uid)] += 1
        self.total_ops += 1

    def record_taken(self, func: str, uid: int) -> None:
        self.taken[(func, uid)] += 1

    def enter_function(self, func: str) -> None:
        self.calls[func] += 1

    # -- queries ---------------------------------------------------------------

    def _check_complete(self) -> None:
        if self.incomplete:
            raise IncompleteProfileError(
                "the profiled run trapped; its counts are unspecified")

    def block_count(self, func: str, label: str) -> int:
        self._check_complete()
        return self.blocks.get((func, label), 0)

    def edge_count(self, func: str, src: str, dst: str) -> int:
        self._check_complete()
        return self.edges.get((func, src, dst), 0)

    def op_count(self, func: str, uid: int) -> int:
        self._check_complete()
        return self.ops.get((func, uid), 0)

    def taken_count(self, func: str, uid: int) -> int:
        self._check_complete()
        return self.taken.get((func, uid), 0)

    def taken_ratio(self, func: str, uid: int) -> float:
        """Fraction of encounters at which a conditional branch was taken."""
        seen = self.op_count(func, uid)
        if seen == 0:
            return 0.0
        return self.taken_count(func, uid) / seen

    def call_count(self, func: str) -> int:
        self._check_complete()
        return self.calls.get(func, 0)

    def function_weight(self, func: str) -> int:
        """Dynamic ops attributable to ``func`` (its own blocks only)."""
        self._check_complete()
        return sum(
            count for (name, _uid), count in self.ops.items() if name == func
        )

    def hottest_blocks(self, func: str, limit: int = 10) -> list[tuple[str, int]]:
        self._check_complete()
        items = [
            (label, count)
            for (name, label), count in self.blocks.items()
            if name == func
        ]
        items.sort(key=lambda item: -item[1])
        return items[:limit]
