"""Unit tests for compiler-side buffer assignment."""

from repro.analysis.profile import Profile
from repro.ir import Function, Imm, IRBuilder, Module, Opcode
from repro.loopbuffer.assign import (
    LoopCandidate,
    _cheapest_overlap,
    _first_fit,
    assign_buffer,
    place_loops,
    scan_loops,
)
from repro.looptrans.cloop import convert_counted_loops
from repro.sim.interp import profile_module, run_module

from tests.helpers import build_counting_loop


def _profiled_counting(n=100):
    module = build_counting_loop(n)
    convert_counted_loops(module.function("main"))
    profile, _ = profile_module(module)
    return module, profile


class TestCandidates:
    def test_simple_counted_loop_found(self):
        module, profile = _profiled_counting()
        cands = scan_loops(module, profile)
        assert len(cands) == 1
        cand = cands[0]
        assert cand.counted
        assert cand.iterations == 100
        assert cand.entries == 1
        assert cand.benefit == (100 - 1) * cand.ops

    def test_footprint_override(self):
        module, profile = _profiled_counting()
        cands = scan_loops(module, profile,
                           footprint={("main", "body"): 99})
        assert cands[0].ops == 99

    def test_too_large_excluded(self):
        module, profile = _profiled_counting()
        cands = scan_loops(module, profile,
                           footprint={("main", "body"): 50})
        result = place_loops(cands, 2)
        assert result.assigned == [] and result.unassigned == []

    def test_multiblock_loop_not_candidate(self):
        from tests.helpers import build_nested_loop

        module = build_nested_loop()
        profile, _ = profile_module(module)
        cands = scan_loops(module, profile)
        headers = {c.header for c in cands}
        assert "outer" not in headers


class TestPlacement:
    def test_first_fit_basic(self):
        assert _first_fit([], 10, 64) == 0

    def test_first_fit_gap(self):
        from repro.loopbuffer.assign import Assignment

        placed = [(Assignment("f", "a", 0, 10, True), None),
                  (Assignment("f", "b", 30, 10, True), None)]
        assert _first_fit(placed, 10, 64) == 10
        assert _first_fit(placed, 25, 100) == 40
        assert _first_fit(placed, 30, 64) is None

    def test_cheapest_overlap_prefers_low_benefit(self):
        from repro.loopbuffer.assign import Assignment

        heavy = LoopCandidate("f", "h", 20, 10000, 1, True)
        light = LoopCandidate("f", "l", 20, 10, 1, True)
        placed = [(Assignment("f", "h", 0, 20, True), heavy),
                  (Assignment("f", "l", 20, 20, True), light)]
        offset = _cheapest_overlap(placed, 20, 40)
        assert offset == 20  # land on the light loop

    def test_orphans_take_space_then_drop_out(self):
        # an orphan (nowhere to record) is placed like any loop, as when
        # the rewrite found it, and only then moved to the unassigned list
        orphan = LoopCandidate("f", "o", 20, 1000, 1, False, None)
        loop = LoopCandidate("f", "k", 10, 100, 1, False, "pre")
        result = place_loops([loop, orphan], 64)
        assert [(a.header, a.offset) for a in result.assigned] == [("k", 20)]
        assert result.unassigned == ["f/o"]

    def test_shared_preheader_cloop_set_goes_to_the_first_placed(self):
        # two counted loops on one counter share a preheader holding one
        # cloop_set: the higher-benefit loop, placed first, replaces it
        # and the other is an orphan, at every capacity both fit
        module, profile = _shared_preheader_loops()
        scan = scan_loops(module, profile)
        assert [(c.header, c.preheader, c.lc, c.cloop_sets)
                for c in scan] == [("a", "entry", "lc0", 1),
                                   ("b", "entry", "lc0", 1)]
        for capacity in (8, 64):
            result = place_loops(scan, capacity)
            assert [(a.header, a.offset) for a in result.assigned] \
                == [("b", 0)]
            assert result.unassigned == ["main/a"]


def _shared_preheader_loops():
    """``entry`` sets counter ``lc0`` once, then enters loop ``a`` or
    loop ``b``; both count down ``lc0``.  The profile weighs ``b``
    above ``a``."""
    module = Module("shared")
    func = Function("main")
    module.add_function(func)
    b = IRBuilder(func)
    entry = func.add_block("entry")
    loop_a = func.add_block("a")
    exit_a = func.add_block("exit_a")
    loop_b = func.add_block("b")
    done = func.add_block("done")
    b.at(entry)
    s = b.movi(0)
    b.emit_op(Opcode.CLOOP_SET, [], [Imm(10)], lc="lc0")
    b.br("eq", s, Imm(0), "b")
    b.at(loop_a)
    b.add(s, Imm(1), dest=s)
    b.emit_op(Opcode.BR_CLOOP, [], [], target="a", lc="lc0")
    b.at(exit_a)
    b.jump("done")
    b.at(loop_b)
    b.add(s, Imm(2), dest=s)
    b.add(s, Imm(3), dest=s)
    b.emit_op(Opcode.BR_CLOOP, [], [], target="b", lc="lc0")
    b.at(done)
    b.ret(s)
    profile = Profile()
    for label, iterations in (("a", 10), ("b", 20)):
        profile.blocks[("main", label)] = iterations
        profile.edges[("main", "entry", label)] = 1
    return module, profile


class TestIRRewrite:
    def test_rec_cloop_installed(self):
        module, profile = _profiled_counting()
        result = assign_buffer(module, profile, 64)
        assert len(result.assigned) == 1
        func = module.function("main")
        recs = [op for op in func.ops() if op.opcode == Opcode.REC_CLOOP]
        assert len(recs) == 1
        rec = recs[0]
        assert rec.attrs["buf_addr"] == 0
        assert rec.attrs["num"] == result.assigned[0].length
        # the cloop_set it replaced is gone
        assert not any(op.opcode == Opcode.CLOOP_SET for op in func.ops())
        # semantics unchanged (rec_cloop still loads the loop counter)
        assert run_module(module).value == sum(range(100))

    def test_rec_wloop_for_uncounted_loop(self):
        module = build_counting_loop(50)  # keep the plain br loop-back
        profile, _ = profile_module(module)
        result = assign_buffer(module, profile, 64)
        assert len(result.assigned) == 1
        func = module.function("main")
        recs = [op for op in func.ops() if op.opcode == Opcode.REC_WLOOP]
        assert len(recs) == 1
        assert run_module(module).value == sum(range(50))

    def test_zero_benefit_loops_unassigned(self):
        module = build_counting_loop(50)
        result = assign_buffer(module, Profile(), 64)  # no profile weight
        assert result.assigned == []
        assert result.unassigned == ["main/body"]

    def test_rewrite_installs_exactly_the_placement(self):
        module, profile = _shared_preheader_loops()
        planned = place_loops(scan_loops(module, profile), 64)
        result = assign_buffer(module, profile, 64)
        assert result == planned
        ops = module.function("main").block("entry").ops
        assert [op.attrs["loop"] for op in ops
                if op.opcode == Opcode.REC_CLOOP] == ["b"]
        assert not any(op.opcode == Opcode.CLOOP_SET for op in ops)

    def test_lookup(self):
        module, profile = _profiled_counting()
        result = assign_buffer(module, profile, 64)
        assert result.lookup("main", "body") is not None
        assert result.lookup("main", "ghost") is None
