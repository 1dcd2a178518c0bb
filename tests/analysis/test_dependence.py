"""Unit tests for dependence-graph construction."""

from pathlib import Path

from repro.analysis.dependence import build_dependence_graph, op_fingerprint
from repro.analysis.predrel import PredicateRelations
from repro.ir import (
    BasicBlock,
    FImm,
    Imm,
    Opcode,
    Operation,
    freg,
    ireg,
    preg,
)


def _ops_add_chain():
    return [
        Operation(Opcode.MOV, [ireg(0)], [Imm(1)]),
        Operation(Opcode.ADD, [ireg(1)], [ireg(0), Imm(2)]),
        Operation(Opcode.ADD, [ireg(2)], [ireg(1), Imm(3)]),
    ]


def _edges(graph, kind=None):
    return [
        (e.src, e.dst, e.kind, e.latency, e.distance)
        for e in graph.edges
        if kind is None or e.kind == kind
    ]


class TestRegisterDeps:
    def test_flow_chain(self):
        graph = build_dependence_graph(_ops_add_chain())
        flow = _edges(graph, "flow")
        assert (0, 1, "flow", 1, 0) in flow
        assert (1, 2, "flow", 1, 0) in flow
        assert (0, 2, "flow", 1, 0) not in flow

    def test_flow_latency_uses_producer(self):
        ops = [
            Operation(Opcode.LD, [ireg(0)], [ireg(9), Imm(0)]),
            Operation(Opcode.ADD, [ireg(1)], [ireg(0), Imm(1)]),
        ]
        graph = build_dependence_graph(ops)
        assert (0, 1, "flow", 3, 0) in _edges(graph)

    def test_anti_dep(self):
        ops = [
            Operation(Opcode.ADD, [ireg(1)], [ireg(0), Imm(1)]),
            Operation(Opcode.MOV, [ireg(0)], [Imm(5)]),
        ]
        graph = build_dependence_graph(ops)
        assert (0, 1, "anti", 0, 0) in _edges(graph)

    def test_output_dep(self):
        ops = [
            Operation(Opcode.LD, [ireg(0)], [ireg(9), Imm(0)]),
            Operation(Opcode.MOV, [ireg(0)], [Imm(5)]),
        ]
        graph = build_dependence_graph(ops)
        # load latency 3 vs mov latency 1: output latency 3
        assert (0, 1, "output", 3, 0) in _edges(graph)

    def test_guarded_write_does_not_kill_flow(self):
        # def r0; guarded def r0; use r0 -> use depends on BOTH defs
        ops = [
            Operation(Opcode.MOV, [ireg(0)], [Imm(1)]),
            Operation(Opcode.MOV, [ireg(0)], [Imm(2)], guard=preg(0)),
            Operation(Opcode.ADD, [ireg(1)], [ireg(0), Imm(0)]),
        ]
        graph = build_dependence_graph(ops)
        flow = _edges(graph, "flow")
        assert (0, 2, "flow", 1, 0) in flow
        assert (1, 2, "flow", 1, 0) in flow

    def test_guard_register_is_flow_source(self):
        ops = [
            Operation(Opcode.PRED_DEF, [preg(0)], [ireg(0), Imm(3)],
                      attrs={"cmp": "lt", "ptypes": ["ut"]}),
            Operation(Opcode.ADD, [ireg(1)], [ireg(0), Imm(1)], guard=preg(0)),
        ]
        graph = build_dependence_graph(ops)
        assert (0, 1, "flow", 1, 0) in _edges(graph)


class TestDisjointGuardRelaxation:
    def _block(self):
        pd = Operation(Opcode.PRED_DEF, [preg(1), preg(2)], [ireg(5), Imm(7)],
                       attrs={"cmp": "eq", "ptypes": ["ut", "uf"]})
        mov = Operation(Opcode.MOV, [ireg(2)], [Imm(0)], guard=preg(1))
        add = Operation(Opcode.ADD, [ireg(2)], [ireg(2), Imm(1)], guard=preg(2))
        return [pd, mov, add]

    def test_disjoint_guards_drop_reg_conflicts(self):
        ops = self._block()
        rel = PredicateRelations(BasicBlock("b", ops))
        graph = build_dependence_graph(ops, relations=rel)
        pairs = [(e.src, e.dst, e.kind) for e in graph.edges]
        # the Figure 2(d) effect: mov and add are independent
        assert (1, 2, "flow") not in pairs
        assert (1, 2, "output") not in pairs
        assert (1, 2, "anti") not in pairs

    def test_without_relations_conflicts_remain(self):
        ops = self._block()
        graph = build_dependence_graph(ops)
        pairs = [(e.src, e.dst, e.kind) for e in graph.edges]
        assert (1, 2, "flow") in pairs or (1, 2, "output") in pairs


class TestMemoryDeps:
    def test_store_load_same_unknown_address(self):
        ops = [
            Operation(Opcode.ST, [], [ireg(0), Imm(0), ireg(1)]),
            Operation(Opcode.LD, [ireg(2)], [ireg(3), Imm(0)]),
        ]
        graph = build_dependence_graph(ops)
        assert (0, 1, "mem", 1, 0) in _edges(graph)

    def test_same_base_different_offsets_independent(self):
        ops = [
            Operation(Opcode.ST, [], [ireg(0), Imm(0), ireg(1)]),
            Operation(Opcode.LD, [ireg(2)], [ireg(0), Imm(1)]),
        ]
        graph = build_dependence_graph(ops)
        assert _edges(graph, "mem") == []

    def test_base_redefinition_blocks_disambiguation(self):
        ops = [
            Operation(Opcode.ST, [], [ireg(0), Imm(0), ireg(1)]),
            Operation(Opcode.ADD, [ireg(0)], [ireg(0), Imm(4)]),
            Operation(Opcode.LD, [ireg(2)], [ireg(0), Imm(1)]),
        ]
        graph = build_dependence_graph(ops)
        assert (0, 2, "mem", 1, 0) in _edges(graph)

    def test_loads_do_not_conflict(self):
        ops = [
            Operation(Opcode.LD, [ireg(1)], [ireg(0), Imm(0)]),
            Operation(Opcode.LD, [ireg(2)], [ireg(0), Imm(0)]),
        ]
        graph = build_dependence_graph(ops)
        assert _edges(graph, "mem") == []

    def test_store_store_ordered(self):
        ops = [
            Operation(Opcode.ST, [], [ireg(0), Imm(0), ireg(1)]),
            Operation(Opcode.ST, [], [ireg(2), Imm(0), ireg(3)]),
        ]
        graph = build_dependence_graph(ops)
        assert (0, 1, "mem", 1, 0) in _edges(graph)


class TestControlDeps:
    def _branchy(self):
        return [
            Operation(Opcode.ADD, [ireg(1)], [ireg(0), Imm(1)]),
            Operation(Opcode.BR, [], [ireg(1), Imm(0)],
                      attrs={"cmp": "eq", "target": "exit"}),
            Operation(Opcode.ADD, [ireg(2)], [ireg(1), Imm(2)]),
            Operation(Opcode.ST, [], [ireg(9), Imm(0), ireg(2)]),
        ]

    def test_ops_cannot_sink_below_branch(self):
        graph = build_dependence_graph(self._branchy())
        assert (0, 1, "ctrl", 0, 0) in _edges(graph)

    def test_store_cannot_hoist_above_branch(self):
        graph = build_dependence_graph(self._branchy())
        assert (1, 3, "ctrl", 1, 0) in _edges(graph)

    def test_speculable_op_conservative_without_liveinfo(self):
        graph = build_dependence_graph(self._branchy())
        assert (1, 2, "ctrl", 1, 0) in _edges(graph)

    def test_speculable_op_hoists_with_liveinfo(self):
        ops = self._branchy()
        exit_live = {1: {ireg(1)}}  # r2 not live on the exit path
        graph = build_dependence_graph(ops, exit_live=exit_live)
        assert (1, 2, "ctrl", 1, 0) not in _edges(graph)
        # but the store still may not hoist
        assert (1, 3, "ctrl", 1, 0) in _edges(graph)

    def test_dest_live_on_exit_blocks_hoist(self):
        ops = self._branchy()
        exit_live = {1: {ireg(1), ireg(2)}}
        graph = build_dependence_graph(ops, exit_live=exit_live)
        assert (1, 2, "ctrl", 1, 0) in _edges(graph)

    def test_cloop_set_before_br_cloop(self):
        ops = [
            Operation(Opcode.CLOOP_SET, [], [Imm(8)], attrs={"lc": "lc0"}),
            Operation(Opcode.BR_CLOOP, [], [], attrs={"target": "x", "lc": "lc0"}),
        ]
        graph = build_dependence_graph(ops)
        assert (0, 1, "ctrl", 1, 0) in _edges(graph)


class TestLoopCarried:
    def test_recurrence_edge(self):
        # acc = acc + x : flow dep to next iteration, distance 1
        ops = [
            Operation(Opcode.ADD, [ireg(0)], [ireg(0), ireg(1)]),
            Operation(Opcode.BR_CLOOP, [], [], attrs={"target": "b", "lc": "l"}),
        ]
        graph = build_dependence_graph(ops, loop_carried=True)
        assert (0, 0, "flow", 1, 1) in _edges(graph)

    def test_independent_ops_have_no_carried_reg_edges(self):
        ops = [
            Operation(Opcode.ADD, [ireg(0)], [ireg(1), Imm(1)]),
            Operation(Opcode.ADD, [ireg(2)], [ireg(3), Imm(1)]),
        ]
        graph = build_dependence_graph(ops, loop_carried=True)
        kinds = {e.kind for e in graph.edges if e.distance == 1}
        assert "flow" not in kinds

    def test_memory_carried_dependence(self):
        # store then load via different pointers: must serialize across iters
        ops = [
            Operation(Opcode.LD, [ireg(2)], [ireg(1), Imm(0)]),
            Operation(Opcode.ST, [], [ireg(0), Imm(0), ireg(2)]),
        ]
        graph = build_dependence_graph(ops, loop_carried=True)
        assert (1, 0, "mem", 1, 1) in _edges(graph)

    def test_critical_path(self):
        graph = build_dependence_graph(_ops_add_chain())
        assert graph.critical_path_length() == 3


class TestOpFingerprint:
    """The memo key is built from an op's fields; it must never be
    looser than the ``(repr(op), lc)`` pair it replaced."""

    def test_immediates_that_compare_equal_but_print_apart(self):
        zero = Operation(Opcode.FMOV, [freg(0)], [FImm(0.0)])
        negative_zero = Operation(Opcode.FMOV, [freg(0)], [FImm(-0.0)])
        assert FImm(0.0) == FImm(-0.0)
        assert op_fingerprint(zero) != op_fingerprint(negative_zero)
        one = Operation(Opcode.MOV, [ireg(0)], [Imm(1)])
        true = Operation(Opcode.MOV, [ireg(0)], [Imm(True)])
        assert op_fingerprint(one) != op_fingerprint(true)

    def test_lc_and_attributes_are_keyed(self):
        a = Operation(Opcode.BR_CLOOP, [], [], None, {"target": "L", "lc": 0})
        b = Operation(Opcode.BR_CLOOP, [], [], None, {"target": "L", "lc": 1})
        c = Operation(Opcode.BR_CLOOP, [], [], None, {"target": "M", "lc": 0})
        assert len({op_fingerprint(a), op_fingerprint(b),
                    op_fingerprint(c)}) == 3

    def test_never_looser_than_repr_on_real_ops(self, monkeypatch):
        # every op the schedulers key while both pipelines compile the
        # tier-1 benchmarks and the fuzz regression corpus, plus every op
        # of the resulting bases
        from repro.analysis import dependence
        from repro.bench import benchmark
        from repro.frontend import compile_source
        from repro.fuzz.corpus import Corpus
        from repro.fuzz.oracle import DEFAULT_MAX_STEPS
        from repro.memo import clear_caches
        from repro.pipeline import COMPILERS
        from repro.sim.interp import SimError

        seen = []
        real = dependence.op_fingerprint

        def recording(op):
            seen.append(op)
            return real(op)

        monkeypatch.setattr(dependence, "op_fingerprint", recording)
        clear_caches()
        try:
            modules = []
            for name in ("adpcm_enc", "g724_dec", "jpeg_dec"):
                bench = benchmark(name)
                modules += [(bench.build(), dict(entry=bench.entry,
                                                 args=bench.args))]
            corpus = Path(__file__).resolve().parents[1] / "fuzz_corpus"
            modules += [(compile_source(entry.source),
                         dict(max_steps=DEFAULT_MAX_STEPS))
                        for entry in Corpus(corpus).entries()]
            for module, kwargs in modules:
                for compile_ in COMPILERS.values():
                    try:
                        base = compile_(module, buffer_capacity=None,
                                        **kwargs)
                    except SimError:
                        continue  # traps while profiling
                    seen.extend(op for func in base.module.functions.values()
                                for block in func.blocks for op in block.ops)
        finally:
            clear_caches()
        assert len(seen) > 1000
        printed: dict[tuple, set] = {}
        for op in seen:
            printed.setdefault(real(op), set()).add(
                (repr(op), op.attrs.get("lc")))
        assert all(len(forms) == 1 for forms in printed.values())
