"""Capacity retarget harness: zero-copy ``with_buffer`` against pinned digests.

The zero-copy overlay retarget (:mod:`repro.loopbuffer.overlay`) must
produce exactly what the whole-module deep-copy retarget it replaced
produced.  ``tests/golden/retarget_grid.json`` pins that per cell (see
:mod:`tests.retarget_golden`), and this suite checks it three ways:

* **artifact-identical** — for every benchmark × pipeline pair, the
  assignment table, every ``rec`` site and the canonical schedules match
  the pinned digest at every capacity of the Figure 7 sweep (and
  ``None``), with error-free lint at the headline capacity;
* **run-identical** — :class:`~repro.runner.summary.RunSummary` and
  per-loop buffer counters match their pinned digests on real
  simulations (the whole grid under ``-m slow``), and every fuzz-corpus
  reproducer retargets to the same artifact as the whole-module
  reference retarget (:func:`tests.retarget_golden.whole_module_retarget`)
  and to the reference interpreter's value;
* **order-independent** — a hypothesis property sweeps random capacity
  subsets in random order through one shared base and checks each
  retarget against the whole-module reference at that capacity, with
  the base module's pickle bytes unchanged throughout.

Plus the overlay-specific contracts: ``capacity=None`` is a pure view,
and re-targeting an already-buffered artifact raises
:class:`~repro.loopbuffer.overlay.RetargetError`.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings

from repro.analysis.lint import errors_only, lint_compiled
from repro.bench import all_benchmarks, benchmark_names
from repro.loopbuffer.overlay import RetargetError
from repro.pipeline import (
    compile_aggressive,
    compile_traditional,
    run_compiled,
    with_buffer,
)
from repro.runner.parallel import run_base

from tests.conftest import nightly_examples
from tests.helpers import compiled_base
from tests.retarget_golden import (
    GOLDEN,
    GRID_CAPACITIES,
    canonical_retarget,
    cell_key,
    digest,
    loop_table,
    whole_module_retarget,
)
from tests.strategies import capacity_sweeps

PIPELINES = ("traditional", "aggressive")
PAIRS = [(name, pipeline)
         for name in benchmark_names() for pipeline in PIPELINES]
#: the tier-1 capacity subgrid: nothing fits / headline / everything fits
TIER1_CAPACITIES = (16, 256, 2048)

_COMPILERS = {"traditional": compile_traditional,
              "aggressive": compile_aggressive}

#: compiled unbuffered bases, built on demand and shared process-wide
base_for = compiled_base


# ---------------------------------------------------------------------------
# artifact-identical: every benchmark × pipeline pair


@pytest.mark.parametrize("name,pipeline", PAIRS,
                         ids=[f"{n}-{p}" for n, p in PAIRS])
def test_artifacts_byte_identical(name, pipeline):
    base = base_for(name, pipeline)
    base_bytes = pickle.dumps(base.module)
    for capacity in GRID_CAPACITIES:
        key = cell_key(name, pipeline, capacity)
        overlay = with_buffer(base, capacity)
        assert (digest(canonical_retarget(overlay))
                == GOLDEN["retarget"][key]), \
            f"{key}: retarget artifacts differ from the pinned digest"
        assert overlay.buffer_capacity == capacity
    # the headline artifact lints free of errors
    assert errors_only(lint_compiled(with_buffer(base, 256))) == []
    # the shared base was never mutated by any of the retargets
    assert pickle.dumps(base.module) == base_bytes


# ---------------------------------------------------------------------------
# run-identical: summaries and per-loop counters on real simulations


SIM_SUBSET = (("adpcm_enc", "traditional"), ("adpcm_enc", "aggressive"),
              ("g724_dec", "aggressive"), ("mpeg2_dec", "traditional"))


@pytest.mark.parametrize("name,pipeline", SIM_SUBSET,
                         ids=[f"{n}-{p}" for n, p in SIM_SUBSET])
def test_run_summaries_byte_identical(name, pipeline):
    base = base_for(name, pipeline)
    for capacity in (16, 256):
        key = cell_key(name, pipeline, capacity)
        summary = run_base(name, pipeline, base, capacity)[0]
        assert digest(summary) == GOLDEN["runs"][key], \
            f"{key}: run summary differs from the pinned digest"


def test_per_loop_counters_identical():
    base = base_for("adpcm_enc", "traditional")
    for capacity in TIER1_CAPACITIES:
        key = cell_key("adpcm_enc", "traditional", capacity)
        assert (digest(loop_table(with_buffer(base, capacity)))
                == GOLDEN["loops"][key])


@pytest.mark.slow
@pytest.mark.parametrize("name,pipeline", PAIRS,
                         ids=[f"{n}-{p}" for n, p in PAIRS])
def test_full_grid_differential(name, pipeline):
    """The complete Figure 7 sweep plus ``None``, per cell (nightly)."""
    base = base_for(name, pipeline)
    for capacity in GRID_CAPACITIES:
        key = cell_key(name, pipeline, capacity)
        summary = run_base(name, pipeline, base, capacity)[0]
        assert digest(summary) == GOLDEN["runs"][key], \
            f"{key}: run summary differs from the pinned digest"
        assert (digest(loop_table(with_buffer(base, capacity)))
                == GOLDEN["loops"][key]), \
            f"{key}: per-loop counters differ from the pinned digest"


# ---------------------------------------------------------------------------
# fuzz corpus: every checked-in reproducer, both pipelines


def _corpus_sources():
    from repro.fuzz.corpus import default_corpus

    return [(entry.id, entry.source) for entry in default_corpus().entries()]


@pytest.mark.parametrize("entry_id,source",
                         _corpus_sources() or [("empty", None)],
                         ids=lambda v: v if isinstance(v, str) else "src")
def test_corpus_differential(entry_id, source):
    if source is None:
        pytest.skip("no corpus entries")
    from repro.frontend import compile_source
    from repro.fuzz.oracle import reference_outcome
    from repro.sim.interp import SimError

    status, expected = reference_outcome(source)
    for pipeline, compiler in _COMPILERS.items():
        try:
            base = compiler(compile_source(source), buffer_capacity=None)
        except SimError:
            continue  # reproducer traps at compile-time profiling
        for capacity in (16, 64):
            reference = whole_module_retarget(base, capacity)
            overlay = with_buffer(base, capacity)
            assert (canonical_retarget(overlay)
                    == canonical_retarget(reference)), \
                f"{entry_id}/{pipeline}@{capacity}: artifacts diverge"
            values = []
            for compiled in (reference, overlay):
                try:
                    values.append(
                        ("value", run_compiled(compiled).result.value))
                except SimError as exc:
                    values.append(("trap", type(exc).__name__))
            assert values == [(status, expected)] * 2, \
                f"{entry_id}/{pipeline}@{capacity}: values diverge"


# ---------------------------------------------------------------------------
# order independence (hypothesis)


_PROPERTY_STATE: dict[str, object] = {}


def _property_base():
    if not _PROPERTY_STATE:
        from tests.helpers import build_nested_loop

        base = compile_traditional(build_nested_loop(12, 12),
                                   buffer_capacity=None)
        _PROPERTY_STATE["base"] = base
        _PROPERTY_STATE["bytes"] = pickle.dumps(base.module)
        _PROPERTY_STATE["reference"] = {}
    return _PROPERTY_STATE


@given(caps=capacity_sweeps())
@settings(max_examples=nightly_examples(25))
def test_overlay_sweep_order_independent(caps):
    state = _property_base()
    base = state["base"]
    reference: dict = state["reference"]
    for capacity in caps:
        if capacity not in reference:
            reference[capacity] = canonical_retarget(
                whole_module_retarget(base, capacity))
        overlay = with_buffer(base, capacity)
        assert canonical_retarget(overlay) == reference[capacity]
    # no retarget order may ever write through to the shared base
    assert pickle.dumps(base.module) == state["bytes"]


# ---------------------------------------------------------------------------
# overlay-specific contracts


def test_capacity_none_returns_view():
    base = base_for("adpcm_enc", "traditional")
    view = with_buffer(base, None)
    assert view.module is base.module
    assert view.assignment is None
    assert view.overlay is not None
    assert view.overlay.materialized == ()
    # capacity=0 is falsy: also a pure view
    assert with_buffer(base, 0).module is base.module


def test_overlay_materializes_only_recd_preheaders():
    base = base_for("mpeg2_dec", "traditional")
    compiled = with_buffer(base, 256)
    assert compiled.overlay is not None
    materialized = set(compiled.overlay.materialized)
    assert materialized, "expected at least one rec'd preheader at 256"
    for fname, func in compiled.module.functions.items():
        base_func = base.module.function(fname)
        for block, base_block in zip(func.blocks, base_func.blocks):
            if (fname, block.label) in materialized:
                assert block is not base_block
            else:
                assert block is base_block


@pytest.mark.parametrize("capacity", [-1, 1.5, True, "64"])
def test_malformed_capacity_raises(capacity):
    base = base_for("adpcm_enc", "traditional")
    with pytest.raises(RetargetError, match="capacity"):
        with_buffer(base, capacity)
    with pytest.raises(RetargetError, match="capacity"):
        compile_traditional(base.module, buffer_capacity=capacity)


def test_retarget_already_buffered_raises():
    base = base_for("adpcm_enc", "traditional")
    buffered = with_buffer(base, 64)
    with pytest.raises(RetargetError):
        with_buffer(buffered, 128)
    bench = {b.name: b for b in all_benchmarks()}["adpcm_enc"]
    direct = compile_traditional(bench.build(), entry=bench.entry,
                                 args=bench.args, buffer_capacity=64)
    with pytest.raises(RetargetError):
        with_buffer(direct, 128)

