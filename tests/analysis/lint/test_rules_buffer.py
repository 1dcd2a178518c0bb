"""One deliberately-broken fixture per buffer-phase lint rule."""

from repro.analysis.lint import LintTarget, Severity, run_rules
from repro.ir import Opcode, Operation
from repro.loopbuffer.assign import Assignment, AssignmentResult
from repro.sched.modulo import modulo_schedule

from tests.helpers import build_counting_loop

#: non-NOP ops in the counting-loop body (add, add, loop-back branch)
BODY_OPS = 3


def _buffered_counting_loop(offset=0, length=BODY_OPS, install_rec=True):
    """Counting loop with a REC_WLOOP in its preheader and the matching
    assignment-table entry (the uncounted recording shape)."""
    module = build_counting_loop(8)
    func = module.function("main")
    if install_rec:
        entry = func.block("entry")
        entry.insert(len(entry.ops), Operation(
            Opcode.REC_WLOOP, [], [], None,
            {"buf_addr": offset, "num": length, "loop": "body"}))
    assignment = AssignmentResult(
        assigned=[Assignment("main", "body", offset, length, counted=False)])
    return module, func, assignment


def _target(module, assignment, capacity=256, modulo=None):
    return LintTarget(module=module, assignment=assignment,
                      buffer_capacity=capacity, modulo=modulo)


def _run(target, rule_id):
    return run_rules(target, rule_ids=[rule_id])


def test_clean_buffered_loop_lints_clean():
    module, _func, assignment = _buffered_counting_loop()
    assert run_rules(_target(module, assignment), phases=("buffer",)) == []


def test_buffer_capacity():
    module, _func, assignment = _buffered_counting_loop(offset=250, length=10)
    diags = _run(_target(module, assignment), "buffer-capacity")
    assert [d.rule for d in diags] == ["buffer-capacity"]
    assert "beyond the 256-op buffer" in diags[0].message


def test_buffer_capacity_negative_offset_and_empty_segment():
    module, _func, assignment = _buffered_counting_loop()
    assignment.assigned[0].offset = -4
    assignment.assigned[0].length = 0
    diags = _run(_target(module, assignment), "buffer-capacity")
    assert len(diags) == 2 and all(d.rule == "buffer-capacity" for d in diags)


def test_buffer_residency_mismatch():
    module, func, assignment = _buffered_counting_loop()
    rec = func.block("entry").ops[-1]
    rec.attrs["buf_addr"] = 17  # table says 0
    diags = _run(_target(module, assignment), "buffer-residency")
    assert [d.rule for d in diags] == ["buffer-residency"]


def test_buffer_residency_orphan_assignment():
    module, _func, assignment = _buffered_counting_loop(install_rec=False)
    diags = _run(_target(module, assignment), "buffer-residency")
    assert [d.rule for d in diags] == ["buffer-residency"]
    assert "no rec operation" in diags[0].message


def test_buffer_residency_rec_without_table():
    module, _func, _assignment = _buffered_counting_loop()
    diags = _run(_target(module, assignment=None), "buffer-residency")
    assert [d.rule for d in diags] == ["buffer-residency"]
    assert "no buffer assignment" in diags[0].message


def test_buffer_pairing_unknown_loop():
    module, func, assignment = _buffered_counting_loop()
    func.block("entry").ops[-1].attrs["loop"] = "nowhere"
    diags = _run(_target(module, assignment), "buffer-pairing")
    assert diags and all(d.rule == "buffer-pairing" for d in diags)


def test_buffer_pairing_counted_mismatch():
    # a rec_cloop recording a loop that loops back with a plain branch
    module, func, assignment = _buffered_counting_loop(install_rec=False)
    entry = func.block("entry")
    entry.insert(len(entry.ops), Operation(
        Opcode.REC_CLOOP, [], [], None,
        {"lc": 0, "buf_addr": 0, "num": BODY_OPS, "loop": "body"}))
    diags = _run(_target(module, assignment), "buffer-pairing")
    assert diags and all(d.rule == "buffer-pairing" for d in diags)
    assert any("counted" in d.message for d in diags)


def test_buffer_pairing_exec_of_unrecorded_loop():
    module, func, assignment = _buffered_counting_loop()
    assignment.assigned.clear()
    func.block("entry").ops.pop()  # drop the rec
    entry = func.block("entry")
    entry.insert(len(entry.ops), Operation(
        Opcode.EXEC_WLOOP, [], [], None,
        {"buf_addr": 0, "num": BODY_OPS, "loop": "body"}))
    diags = _run(_target(module, assignment), "buffer-pairing")
    assert diags and all(d.rule == "buffer-pairing" for d in diags)
    assert any("never recorded" in d.message for d in diags)


def test_buffer_rec_unguarded():
    module, func, assignment = _buffered_counting_loop()
    assert _run(_target(module, assignment), "buffer-rec-unguarded") == []
    func.block("entry").ops[-1].guard = func.new_pred()
    diags = _run(_target(module, assignment), "buffer-rec-unguarded")
    assert [d.rule for d in diags] == ["buffer-rec-unguarded"]
    assert diags[0].severity is Severity.ERROR
    assert "unconditionally" in diags[0].message


def test_buffer_overlap():
    module, _func, assignment = _buffered_counting_loop()
    assignment.assigned.append(
        Assignment("main", "body2", offset=1, length=8, counted=False))
    diags = _run(_target(module, assignment), "buffer-overlap")
    assert [d.rule for d in diags] == ["buffer-overlap"]
    assert diags[0].severity is Severity.WARNING


def test_buffer_footprint_plain_body():
    module, _func, assignment = _buffered_counting_loop(length=BODY_OPS + 5)
    diags = _run(_target(module, assignment), "buffer-footprint")
    assert [d.rule for d in diags] == ["buffer-footprint"]
    assert "loop body op count" in diags[0].message


def test_buffer_footprint_modulo_kernel():
    module, func, assignment = _buffered_counting_loop()
    sched = modulo_schedule(func.block("body"))
    modulo = {("main", "body"): sched}
    assignment.assigned[0].length = sched.buffered_op_count + 1
    func.block("entry").ops[-1].attrs["num"] = sched.buffered_op_count + 1
    diags = _run(_target(module, assignment, modulo=modulo),
                 "buffer-footprint")
    assert [d.rule for d in diags] == ["buffer-footprint"]
    assert "modulo kernel" in diags[0].message
