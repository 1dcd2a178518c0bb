"""Canonical retarget forms and the golden digests pinned over them.

``tests/golden/retarget_grid.json`` holds, for every benchmark ×
pipeline × capacity in ``None`` + the Figure 7 sweep, the digest of

* ``retarget`` — :func:`canonical_retarget` of ``with_buffer(base, cap)``;
* ``runs`` — the cell's :class:`~repro.runner.summary.RunSummary`;
* ``loops`` — :func:`loop_table` of the retargeted artifact.

The file was generated once with the original unmemoized linear-probe
schedulers and the whole-module deep-copy retarget asserted identical to
the memoized schedulers and the zero-copy overlay on every cell; the
schedulers are gone, so the digests are what the fast paths answer to
now.  The deep-copy retarget survives here only, as
:func:`whole_module_retarget`, the reference the overlay is checked
against on programs the grid does not cover.  A deliberate change to the
compiler's output must regenerate the file and say why.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import replace
from pathlib import Path

from repro.loopbuffer.assign import assign_buffer
from repro.pipeline import run_compiled
from repro.sched.list_sched import schedule_function

GOLDEN_PATH = Path(__file__).parent / "golden" / "retarget_grid.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())
#: ``None`` plus the Figure 7 sweep
GRID_CAPACITIES = tuple(GOLDEN["capacities"])


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def cell_key(name: str, pipeline: str, capacity: int | None) -> str:
    return f"{name}/{pipeline}/{capacity}"


def canonical_schedules(compiled) -> tuple:
    """Schedule content of a compiled artifact, identity-comparable."""
    placements = {}
    for fname, schedules in compiled.schedules.items():
        for label, sched in schedules.items():
            ops = {op.uid: op
                   for bundle in sched.bundles for _, op in
                   bundle.in_slot_order()}
            placements[(fname, label)] = tuple(sorted(
                (place.cycle, place.slot, repr(ops[uid]))
                for uid, place in sched.placement.items()))
    modulo = {}
    for key, sched in compiled.modulo.items():
        by_uid = {op.uid: op for op in sched.ops}
        modulo[key] = (sched.ii, sched.mve_factor, tuple(sorted(
            (repr(by_uid[uid]), t, sched.slots[uid])
            for uid, t in sched.times.items())))
    return (tuple(sorted(placements.items())),
            tuple(sorted(modulo.items())))


def canonical_retarget(compiled) -> tuple:
    """Retarget-visible content of a compiled artifact.

    Assignment table, every ``rec_*`` site in the rewritten module and
    the canonical schedules.
    """
    from repro.ir.opcodes import Opcode

    assigned = tuple(sorted(
        (a.func, a.header, a.offset, a.length, a.counted)
        for a in compiled.assignment.assigned)) if compiled.assignment else ()
    unassigned = tuple(sorted(compiled.assignment.unassigned)) \
        if compiled.assignment else ()
    recs = []
    for func in compiled.module.functions.values():
        for block in func.blocks:
            for index, op in enumerate(block.ops):
                if op.opcode in (Opcode.REC_CLOOP, Opcode.REC_WLOOP):
                    recs.append((func.name, block.label, index, repr(op)))
    return (assigned, unassigned, tuple(sorted(recs)),
            canonical_schedules(compiled))


def loop_table(compiled) -> tuple:
    """Per-loop fetch counters plus buffer-model stats, canonicalized."""
    outcome = run_compiled(compiled)
    buffer_stats = (outcome.buffer.stats.as_tuple()
                    if outcome.buffer is not None else None)
    return (outcome.counters.loop_table(), buffer_stats)


def whole_module_retarget(base, capacity: int):
    """``base`` buffered at ``capacity`` the whole-module way: deep-copy
    it, assign the buffer in place with the modulo footprints and
    list-schedule every function again."""
    module = copy.deepcopy(base.module)
    footprint = {key: sched.buffered_op_count
                 for key, sched in base.modulo.items()}
    assignment = assign_buffer(module, base.profile, capacity,
                               footprint=footprint)
    schedules = {func.name: schedule_function(func, base.machine)
                 for func in module.functions.values()}
    return replace(base, module=module, schedules=schedules,
                   assignment=assignment, buffer_capacity=capacity,
                   pass_trace=None)
