"""Checked mode's overlay check against the whole-artifact lint.

:func:`repro.pipeline.check_buffered` checks a buffer overlay by what it
changed (DESIGN.md §5k): it confirms that every block and schedule the
overlay shares is its base's own object, lints the materialized
preheaders and runs the buffer rules over the whole assignment.  On
every overlay it must raise on exactly the error diagnostics, in the
same order, that ``errors_only(lint_compiled(...))`` finds, including
overlays with a non-``rec`` edit planted in a copied preheader.  A
shared block swapped for a copy must fail the sharing check, although
the copy lints clean.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import pytest

from repro.analysis.lint import errors_only, lint_compiled
from repro.bench import benchmark_names
from repro.experiments.common import FIG7_SIZES
from repro.frontend import compile_source
from repro.fuzz.corpus import default_corpus
from repro.fuzz.gen import generate
from repro.ir import Opcode, Operation, ireg
from repro.loopbuffer.overlay import is_rec_rewrite, overlay_module
from repro.pipeline import (
    COMPILERS,
    CheckedModeError,
    check_buffered,
    with_buffer,
)
from repro.sim.interp import SimError

from tests.helpers import compiled_base

PIPELINES = tuple(COMPILERS)
TIER1 = ("adpcm_enc", "g724_dec")
#: generated programs that buffer loops in both pipelines
FUZZ_SEEDS = (0, 4, 6, 7)


def _incremental(overlay, base) -> list:
    """The error diagnostics ``check_buffered`` raises on, unstamped."""
    try:
        check_buffered(overlay, base)
    except CheckedModeError as exc:
        assert exc.pass_name == "with_buffer"
        return [replace(d, passname=None) for d in exc.diagnostics]
    return []


def _assert_matches_whole_lint(base, label: str) -> int:
    """Check every Figure 7 overlay of ``base``; the number of
    materialized blocks seen."""
    materialized = 0
    for capacity in FIG7_SIZES:
        overlay = with_buffer(base, capacity)
        assert (_incremental(overlay, base)
                == errors_only(lint_compiled(overlay))), f"{label}@{capacity}"
        for fname, block_label in overlay.overlay.materialized:
            # the premise of skipping the dataflow rules
            assert is_rec_rewrite(
                base.module.function(fname).block(block_label),
                overlay.module.function(fname).block(block_label))
        materialized += len(overlay.overlay.materialized)
    return materialized


def _source_bases():
    """``(label, base)`` of every corpus and sampled generated program
    under both pipelines (programs that trap while profiling have none)."""
    sources = [(entry.id, entry.source)
               for entry in default_corpus().entries()]
    sources += [(f"seed{seed}", generate(seed).source)
                for seed in FUZZ_SEEDS]
    for name, source in sources:
        for pipeline, compiler in COMPILERS.items():
            try:
                yield (f"{name}/{pipeline}",
                       compiler(compile_source(source),
                                buffer_capacity=None))
            except SimError:
                continue


@pytest.mark.parametrize("name", TIER1)
@pytest.mark.parametrize("pipeline", PIPELINES)
def test_tier1_overlays_match_whole_lint(name, pipeline):
    _assert_matches_whole_lint(compiled_base(name, pipeline),
                               f"{name}/{pipeline}")


def test_program_overlays_match_whole_lint():
    materialized = sum(_assert_matches_whole_lint(base, label)
                       for label, base in _source_bases())
    assert materialized > 0


@pytest.mark.slow
@pytest.mark.parametrize("name", benchmark_names())
@pytest.mark.parametrize("pipeline", PIPELINES)
def test_every_base_overlay_matches_whole_lint(name, pipeline):
    _assert_matches_whole_lint(compiled_base(name, pipeline),
                               f"{name}/{pipeline}")


# ---------------------------------------------------------------------------
# planted faults


def _overlay_with_preheader(capacity: int = 256):
    """A base and an overlay of it with at least one materialized
    preheader, plus that preheader's key."""
    base = compiled_base("g724_dec", "traditional")
    overlay = with_buffer(base, capacity)
    assert overlay.overlay.materialized
    return base, overlay, overlay.overlay.materialized[0]


def test_planted_undefined_read_matches_whole_lint():
    # a read of a never-written register: a dataflow error the function
    # -wide rules must find, and an op the preheader's schedule lacks
    base, overlay, (fname, label) = _overlay_with_preheader()
    block = overlay.module.function(fname).block(label)
    block.insert(0, Operation(Opcode.MOV, [ireg(900)], [ireg(901)]))
    assert not is_rec_rewrite(base.module.function(fname).block(label),
                              block)
    whole = errors_only(lint_compiled(overlay))
    assert {d.rule for d in whole} >= {"use-before-def", "sched-complete"}
    assert _incremental(overlay, base) == whole


def test_planted_dropped_definition_matches_whole_lint():
    # deleting a preheader's definition of a register that other blocks
    # read reports those reads, outside the copied block
    base, overlay, (fname, label) = _overlay_with_preheader()
    func = overlay.module.function(fname)
    block = func.block(label)
    read_elsewhere = {reg for other in func.blocks if other is not block
                      for op in other.ops for reg in op.reads()}
    index = next(i for i, op in enumerate(block.ops)
                 if any(reg in read_elsewhere for reg in op.writes()))
    del block.ops[index]
    whole = errors_only(lint_compiled(overlay))
    assert any(d.block != label for d in whole), whole
    assert _incremental(overlay, base) == whole


def test_unreachable_base_block_is_still_reported():
    # per-pass checks skip unreachable-block, so no check of the base
    # has run it; the overlay check must, on shared blocks too
    base = copy.deepcopy(compiled_base("g724_dec", "traditional"))
    base.module.function("main").add_block("orphan")
    overlay = with_buffer(base, 256)
    assert ("main", "orphan") not in overlay.overlay.materialized
    whole = errors_only(lint_compiled(overlay))
    assert [(d.rule, d.block) for d in whole] == [
        ("unreachable-block", "orphan")]
    assert _incremental(overlay, base) == whole


def _swap(overlay, base, what: str):
    """``overlay`` with one shared object replaced by a content-equal
    copy, and the ``(function, block)`` it belongs to."""
    materialized = set(overlay.overlay.materialized)
    fname = "main"
    label = next(block.label
                 for block in base.module.function(fname).blocks
                 if (fname, block.label) not in materialized
                 and block.label in base.schedules[fname])
    if what == "block":
        replacements = {key: overlay.module.function(key[0]).block(key[1])
                        for key in materialized}
        replacements[(fname, label)] = copy.copy(
            base.module.function(fname).block(label))
        return replace(overlay, module=overlay_module(base.module,
                                                      replacements)), \
            (fname, label)
    if what == "schedule":
        schedules = dict(overlay.schedules)
        schedules[fname] = dict(schedules[fname])
        schedules[fname][label] = copy.copy(schedules[fname][label])
        return replace(overlay, schedules=schedules), (fname, label)
    key = next(iter(base.modulo))
    modulo = dict(overlay.modulo)
    modulo[key] = copy.copy(modulo[key])
    return replace(overlay, modulo=modulo), key


@pytest.mark.parametrize("what", ("block", "schedule", "modulo"))
def test_swapped_shared_object_fails_the_sharing_check(what):
    base, overlay, _ = _overlay_with_preheader()
    swapped, (fname, label) = _swap(overlay, base, what)
    # the copy is content-equal, so the whole-artifact lint is clean
    assert errors_only(lint_compiled(swapped)) == []
    with pytest.raises(CheckedModeError) as excinfo:
        check_buffered(swapped, base)
    diags = excinfo.value.diagnostics
    assert excinfo.value.pass_name == "with_buffer"
    assert [(d.rule, d.function, d.block) for d in diags] == [
        ("overlay-shared", fname, label)]
