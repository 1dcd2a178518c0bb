"""Register binding checks: integer pressure against the register file
and predicate coloring against the predicate file."""

from dataclasses import replace

from repro.ir import PRED, Imm
from repro.sched.machine import DEFAULT_MACHINE
from repro.sched.regbind import check_bindability
from tests.helpers import single_block_function


def _sum_of_live(count: int):
    """``main`` holding ``count`` constants live at once, then summing
    them."""
    func, b = single_block_function()
    values = [b.movi(i) for i in range(count)]
    total = values[0]
    for value in values[1:]:
        total = b.add(total, value)
    b.ret(total)
    return func


def _live_predicates(count: int):
    """``main`` defining ``count`` predicates before any of them is
    read, so all ``count`` are live at once."""
    func, b = single_block_function()
    x = b.movi(5)
    preds = [b.reg(PRED) for _ in range(count)]
    for index, pred in enumerate(preds):
        b.pred_def("lt", x, Imm(index), [pred], ["ut"])
    acc = b.movi(0)
    for pred in preds:
        b.add(acc, Imm(1), dest=acc, guard=pred)
    b.ret(acc)
    return func


def test_small_function_fits():
    report = check_bindability(_sum_of_live(4))
    assert report.function == "main"
    assert report.int_pressure == 4
    assert report.float_pressure == 0
    assert report.predicate_colors == 0
    assert report.int_fits and report.predicates_fit


def test_int_pressure_over_a_small_register_file():
    func = _sum_of_live(6)
    small = replace(DEFAULT_MACHINE, int_registers=4)
    report = check_bindability(func, small)
    assert report.int_pressure == 6
    assert not report.int_fits
    assert report.predicates_fit
    assert check_bindability(func).int_fits


def test_more_live_predicates_than_the_predicate_file():
    count = DEFAULT_MACHINE.predicate_registers + 1
    func = _live_predicates(count)
    report = check_bindability(func)
    assert not report.predicates_fit
    assert report.int_fits
    wide = replace(DEFAULT_MACHINE, predicate_registers=count)
    report = check_bindability(func, wide)
    assert report.predicates_fit
    assert report.predicate_colors == count
