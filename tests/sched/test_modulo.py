"""Unit tests for iterative modulo scheduling."""


from repro.analysis.dependence import build_dependence_graph
from repro.ir import BasicBlock, Imm, Opcode, Operation, ireg
from repro.sched.machine import DEFAULT_MACHINE
from repro.sched.modulo import (
    MAX_REC_MII,
    ModuloSchedule,
    _feasible,
    modulo_schedule,
    recurrence_mii,
    resource_mii,
)


def _counting_body(counted=True):
    """s += i; i += 1; loop-back  (a classic 1-recurrence loop).

    With ``counted`` the loop-back is a ``br_cloop`` (no register reads),
    allowing II=1; a plain ``br`` reading the induction register adds a
    flow-into-branch + branch-into-next-iteration recurrence forcing II=2
    — exactly the penalty the paper's counted-loop conversion removes.
    """
    back = (
        Operation(Opcode.BR_CLOOP, [], [], attrs={"target": "b", "lc": "l0"})
        if counted else
        Operation(Opcode.BR, [], [ireg(1), Imm(100)],
                  attrs={"cmp": "lt", "target": "b"})
    )
    return [
        Operation(Opcode.ADD, [ireg(0)], [ireg(0), ireg(1)]),
        Operation(Opcode.ADD, [ireg(1)], [ireg(1), Imm(1)]),
        back,
    ]


class TestMII:
    def test_resmii_single_branch_unit(self):
        ops = [
            Operation(Opcode.BR, [], [ireg(0), Imm(0)],
                      attrs={"cmp": "eq", "target": "x"}),
        ] + [
            Operation(Opcode.ADD, [ireg(10 + i)], [ireg(i), Imm(1)])
            for i in range(4)
        ]
        assert resource_mii(ops, DEFAULT_MACHINE) == 1

    def test_resmii_memory_bound(self):
        # 7 loads over 3 memory slots -> ceil(7/3) = 3
        ops = [
            Operation(Opcode.LD, [ireg(10 + i)], [ireg(0), Imm(i)])
            for i in range(7)
        ]
        assert resource_mii(ops, DEFAULT_MACHINE) == 3

    def test_resmii_width_bound(self):
        ops = [
            Operation(Opcode.ADD, [ireg(10 + i)], [ireg(i), Imm(1)])
            for i in range(17)
        ]
        assert resource_mii(ops, DEFAULT_MACHINE) == 3  # ceil(17/8)

    def test_recmii_counted_loop_is_one(self):
        graph = build_dependence_graph(_counting_body(), loop_carried=True)
        # i += 1 each iteration: latency 1, distance 1 -> RecMII 1
        assert recurrence_mii(graph) == 1

    def test_recmii_conditional_backbranch_costs_one(self):
        # br reads the induction value: flow into the branch plus the
        # next-iteration control edge -> II >= 2 (motivates br_cloop)
        graph = build_dependence_graph(_counting_body(counted=False),
                                       loop_carried=True)
        assert recurrence_mii(graph) == 2

    def test_recmii_long_recurrence(self):
        # x = load(x): latency-3 self-recurrence forces II >= 3
        ops = [Operation(Opcode.LD, [ireg(0)], [ireg(0), Imm(0)])]
        graph = build_dependence_graph(ops, loop_carried=True)
        assert recurrence_mii(graph) == 3


class TestModuloScheduling:
    def test_counting_loop(self):
        block = BasicBlock("loop", _counting_body())
        sched = modulo_schedule(block)
        assert sched.ii == 1
        assert len(sched.times) == 3
        _assert_valid(block, sched)

    def test_memory_heavy_loop(self):
        ops = [
            Operation(Opcode.LD, [ireg(10 + i)], [ireg(0), Imm(i)])
            for i in range(6)
        ] + [
            Operation(Opcode.ADD, [ireg(20)], [ireg(10), ireg(11)]),
            Operation(Opcode.BR_CLOOP, [], [], attrs={"target": "loop", "lc": "l0"}),
        ]
        block = BasicBlock("loop", ops)
        sched = modulo_schedule(block)
        assert sched.ii >= 2  # 6 loads / 3 mem slots
        _assert_valid(block, sched)

    def test_recurrence_limited_loop(self):
        ops = [
            Operation(Opcode.LD, [ireg(0)], [ireg(0), Imm(0)]),
            Operation(Opcode.ADD, [ireg(1)], [ireg(1), Imm(1)]),
            Operation(Opcode.BR, [], [ireg(1), Imm(10)],
                      attrs={"cmp": "lt", "target": "loop"}),
        ]
        block = BasicBlock("loop", ops)
        sched = modulo_schedule(block)
        assert sched.ii >= 3
        _assert_valid(block, sched)

    def test_stages_and_length(self):
        block = BasicBlock("loop", _counting_body())
        sched = modulo_schedule(block)
        assert sched.schedule_length >= 1
        assert sched.stages == -(-sched.schedule_length // sched.ii)

    def test_mve_factor_flat_loop(self):
        block = BasicBlock("loop", _counting_body())
        sched = modulo_schedule(block)
        assert sched.mve_factor >= 1
        assert sched.buffered_op_count == sched.kernel_op_count * sched.mve_factor

    def test_mve_needed_for_long_lifetime(self):
        # a load's value consumed 3 cycles later while II could be 1:
        # lifetime > II forces kernel expansion
        ops = [
            Operation(Opcode.LD, [ireg(2)], [ireg(0), Imm(0)]),
            Operation(Opcode.ADD, [ireg(3)], [ireg(2), Imm(1)]),
            Operation(Opcode.ADD, [ireg(0)], [ireg(0), Imm(1)]),
            Operation(Opcode.BR, [], [ireg(0), Imm(64)],
                      attrs={"cmp": "lt", "target": "loop"}),
        ]
        block = BasicBlock("loop", ops)
        sched = modulo_schedule(block)
        if sched.ii < 3:
            assert sched.mve_factor > 1


def _assert_valid(block, sched: ModuloSchedule):
    """All modulo-scheduling constraints hold on the result."""
    ops = [op for op in block.ops if op.opcode != Opcode.NOP]
    graph = build_dependence_graph(ops, loop_carried=True)
    times = {i: sched.times[op.uid] for i, op in enumerate(ops)}
    for edge in graph.edges:
        assert (times[edge.src] + edge.latency - sched.ii * edge.distance
                <= times[edge.dst]), f"violated {edge}"
    # modulo resource constraint: one op per (slot, time mod II)
    seen = set()
    for op in ops:
        key = (sched.slots[op.uid], sched.times[op.uid] % sched.ii)
        assert key not in seen
        seen.add(key)
        assert sched.slots[op.uid] in DEFAULT_MACHINE.slots_for_op(op.opcode)


class TestRecMIIBisection:
    """The doubling+bisection RecMII search must match the linear scan."""

    def _graphs(self):
        yield build_dependence_graph(_counting_body(), loop_carried=True)
        yield build_dependence_graph(_counting_body(counted=False),
                                     loop_carried=True)
        # chained loads: x = load(x) k times -> RecMII = 3k
        for k in (1, 2, 4):
            ops = [
                Operation(Opcode.LD, [ireg((i + 1) % k)],
                          [ireg(i), Imm(0)])
                for i in range(k)
            ]
            yield build_dependence_graph(ops, loop_carried=True)

    def test_matches_legacy_scan_on_known_graphs(self):
        for graph in self._graphs():
            # reference: the original one-by-one II scan
            expected = next(ii for ii in range(1, MAX_REC_MII)
                            if _feasible(graph, ii))
            assert recurrence_mii(graph) == expected

    def test_chained_load_recurrence_known_answer(self):
        # 4 chained latency-3 loads, one cycle of distance 1 -> RecMII 12
        ops = [
            Operation(Opcode.LD, [ireg((i + 1) % 4)], [ireg(i), Imm(0)])
            for i in range(4)
        ]
        graph = build_dependence_graph(ops, loop_carried=True)
        assert recurrence_mii(graph) == 12

    def test_no_loop_carried_edge_short_circuits(self):
        ops = [
            Operation(Opcode.ADD, [ireg(1)], [ireg(0), Imm(1)]),
            Operation(Opcode.ADD, [ireg(2)], [ireg(1), Imm(1)]),
        ]
        graph = build_dependence_graph(ops, loop_carried=True)
        if not any(edge.distance for edge in graph.edges):
            assert recurrence_mii(graph) == 1
