"""Unit tests for the generic worklist dataflow engine."""

from repro.analysis.cfgview import CFGView
from repro.analysis.dataflow import (
    BACKWARD,
    FORWARD,
    STATS,
    TOP,
    DataflowProblem,
    reset_stats,
    solve,
)
from repro.ir import Function, Imm, IRBuilder


def _diamond():
    """entry -> (left | right) -> join, plus an unreachable block."""
    func = Function("main", [])
    b = IRBuilder(func)
    entry = func.add_block("entry")
    left = func.add_block("left")
    right = func.add_block("right")
    join = func.add_block("join")
    func.add_block("orphan")
    b.at(entry)
    x = b.movi(1)
    b.br("lt", x, Imm(0), "right")
    b.at(left)
    b.jump("join")
    b.at(right)
    b.jump("join")
    b.at(join)
    b.ret(x)
    return func, (entry, left, right, join)


class _GenProblem(DataflowProblem):
    """Forward union problem: each block contributes its own label."""

    direction = FORWARD
    name = "test-gen"

    def boundary(self):
        return frozenset()

    def meet(self, values):
        out = frozenset()
        for v in values:
            out |= v
        return out

    def transfer(self, label, value, result):
        return value | {label}


class _MustProblem(DataflowProblem):
    """Forward intersection problem with a TOP identity."""

    direction = FORWARD
    name = "test-must"

    def __init__(self, gen):
        self.gen = gen

    def boundary(self):
        return frozenset()

    def meet(self, values):
        if not values:
            return TOP
        out = values[0]
        for v in values[1:]:
            out &= v
        return out

    def transfer(self, label, value, result):
        return value | self.gen.get(label, frozenset())


class _BackwardProblem(DataflowProblem):
    """Backward union of block labels (liveness-shaped)."""

    direction = BACKWARD
    name = "test-backward"

    def boundary(self):
        return frozenset()

    def meet(self, values):
        out = frozenset()
        for v in values:
            out |= v
        return out

    def transfer(self, label, value, result):
        return value | {label}


class TestSolve:
    def test_forward_union_reaches_join(self):
        func, _ = _diamond()
        result = solve(_GenProblem(), CFGView(func))
        assert result.input["join"] == {"entry", "left", "right"}
        assert result.output["join"] == {"entry", "left", "right", "join"}
        assert result.input["entry"] == frozenset()

    def test_unreachable_block_absent(self):
        func, _ = _diamond()
        result = solve(_GenProblem(), CFGView(func))
        assert "orphan" not in result.input
        assert "orphan" not in result.output
        assert result.input_of("orphan", frozenset()) == frozenset()

    def test_must_problem_intersects_paths(self):
        func, _ = _diamond()
        gen = {"left": frozenset({"L"}), "right": frozenset({"R"}),
               "entry": frozenset({"E"})}
        result = solve(_MustProblem(gen), CFGView(func))
        # only the facts common to both paths survive the join meet
        assert result.input["join"] == {"E"}

    def test_backward_union(self):
        func, _ = _diamond()
        result = solve(_BackwardProblem(), CFGView(func))
        # entry's flow-input is the meet over its successors' outputs
        assert result.input["entry"] == {"left", "right", "join"}
        assert result.output["join"] == {"join"}

    def test_loop_converges(self):
        func = Function("main", [])
        b = IRBuilder(func)
        entry = func.add_block("entry")
        body = func.add_block("body")
        done = func.add_block("done")
        b.at(entry)
        i = b.movi(0)
        b.at(body)
        b.add(i, Imm(1), dest=i)
        b.br("lt", i, Imm(10), "body")
        b.at(done)
        b.ret(i)
        result = solve(_GenProblem(), CFGView(func))
        assert result.input["body"] == {"entry", "body"}
        assert result.input["done"] == {"entry", "body"}

    def test_deterministic(self):
        func, _ = _diamond()
        results = [solve(_GenProblem(), CFGView(func)) for _ in range(3)]
        assert results[0].input == results[1].input == results[2].input
        assert all(r.stats.transfers == results[0].stats.transfers
                   for r in results)


class TestStats:
    def test_stats_recorded_and_accumulated(self):
        func, _ = _diamond()
        reset_stats()
        result = solve(_GenProblem(), CFGView(func))
        assert result.stats.problem == "test-gen"
        assert result.stats.nodes == 4  # orphan excluded
        assert result.stats.transfers >= 4
        assert result.stats.visits >= result.stats.transfers
        solve(_GenProblem(), CFGView(func))
        agg = STATS["test-gen"]
        assert agg.transfers == 2 * result.stats.transfers
        d = result.stats.as_dict()
        assert d["problem"] == "test-gen" and d["nodes"] == 4
        reset_stats()
        assert STATS == {}

