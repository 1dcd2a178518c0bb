"""Register binding checks.

The modeled machine provides 64 integer registers and 8 predicates
(Section 7).  The compiler schedules with virtual registers;
:func:`check_bindability` measures whether a function would bind:
integer pressure must not exceed the file size (spilling would be
required) and each block's predicates must color into the predicate
file (see :mod:`repro.predication.coloring`).  It reports rather than
spills, and nothing in the pipeline calls it.

Not every kernel fits (DESIGN.md §5a).  On the default bases, the
aggressive pipeline's ``g724_dec`` ``post_filter`` peaks at 66 live
integer registers and the ``pgp_dec``/``pgp_enc`` ``crypt_block`` at 92
and 90, and both ``crypt_block`` need more than 8 predicates; every
other function stays at or below 24 live integers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.liveness import liveness, max_register_pressure
from repro.ir.function import Function
from repro.predication.coloring import (
    PredicateSpillRequired,
    color_predicates,
)

from .machine import DEFAULT_MACHINE, MachineDescription


@dataclass
class BindReport:
    function: str
    int_pressure: int
    float_pressure: int
    predicate_colors: int
    int_fits: bool
    predicates_fit: bool


def check_bindability(
    func: Function, machine: MachineDescription = DEFAULT_MACHINE
) -> BindReport:
    """Measure register pressure and predicate colorability."""
    info = liveness(func)
    int_pressure = max_register_pressure(func, "i", info)
    float_pressure = max_register_pressure(func, "f", info)

    colors_needed = 0
    predicates_fit = True
    for block in func.blocks:
        try:
            coloring = color_predicates(block, machine.predicate_registers)
        except PredicateSpillRequired:
            predicates_fit = False
            continue
        if coloring:
            colors_needed = max(colors_needed, max(coloring.values()) + 1)

    return BindReport(
        function=func.name,
        int_pressure=int_pressure,
        float_pressure=float_pressure,
        predicate_colors=colors_needed,
        int_fits=int_pressure <= machine.int_registers,
        predicates_fit=predicates_fit,
    )
