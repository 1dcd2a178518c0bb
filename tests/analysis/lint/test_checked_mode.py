"""Checked mode: per-pass sanitization with pass attribution."""

import pytest

import repro.pipeline as pipeline_mod
from repro.ir import Opcode, Operation, ireg
from repro.pipeline import (
    CheckedModeError,
    RunConfig,
    compile_aggressive,
    compile_traditional,
    with_buffer,
)

from tests.helpers import build_counting_loop, build_nested_loop


def test_checked_enabled_resolution():
    assert RunConfig().checked is False
    assert RunConfig(checked=True).checked is True
    assert RunConfig(checked=False).checked is False


def test_clean_compiles_pass_checked_mode():
    traditional = compile_traditional(build_counting_loop(16), checked=True)
    assert traditional.stats["checked"] is True
    aggressive = compile_aggressive(build_nested_loop(4, 4), checked=True)
    assert aggressive.stats["checked"] is True


def test_unchecked_compile_has_no_checked_stat():
    compiled = compile_traditional(build_counting_loop(16))
    assert "checked" not in compiled.stats


def test_checked_environment_is_not_read(monkeypatch):
    # ``REPRO_CHECKED`` is no longer read: a leftover ``1`` compiles
    # unchecked, like the default
    monkeypatch.setenv("REPRO_CHECKED", "1")
    compiled = compile_traditional(build_counting_loop(16))
    assert "checked" not in compiled.stats


def test_checked_mode_runs_no_warning_rule(monkeypatch):
    """Checked mode raises on error diagnostics only, so it runs only
    error rules: after every pass, over the schedules and over a
    buffered artifact."""
    from dataclasses import replace

    from repro.analysis.lint import Severity, all_rules, engine, get_rule

    def never(target, make):
        raise AssertionError("checked mode ran a warning rule")

    warnings = [r for r in all_rules() if r.severity is Severity.WARNING]
    assert {r.phase for r in warnings} == {"ir", "sched", "buffer"}
    for r in warnings:
        monkeypatch.setitem(engine._REGISTRY, r.rule_id, replace(r, fn=never))
    per_pass = [get_rule(r) for r in pipeline_mod._per_pass_rules()]
    assert per_pass
    assert all(r.severity is Severity.ERROR for r in per_pass)
    base = compile_aggressive(build_nested_loop(4, 4), buffer_capacity=None,
                              checked=True)
    assert with_buffer(base, 64).assignment.assigned


def _inject_undefined_read(real_pass):
    """Wrap a per-function pass so it plants a read of a never-written
    register — the kind of breakage the sanitizer must pin on the pass."""

    def evil(func, *args, **kwargs):
        result = real_pass(func, *args, **kwargs)
        func.blocks[0].insert(
            0, Operation(Opcode.MOV, [ireg(900)], [ireg(901)]))
        return result

    return evil


def test_violation_attributed_to_offending_pass(monkeypatch):
    monkeypatch.setattr(
        pipeline_mod, "promote_function",
        _inject_undefined_read(pipeline_mod.promote_function))
    with pytest.raises(CheckedModeError) as excinfo:
        compile_aggressive(build_nested_loop(4, 4), checked=True)
    err = excinfo.value
    assert err.pass_name == "promote_function"
    assert err.diagnostics[0].rule == "use-before-def"
    assert all(d.passname == "promote_function" for d in err.diagnostics)
    assert "promote_function" in str(err)


def test_attribution_names_first_offender_not_later_passes(monkeypatch):
    # sink_partially_dead runs before promote_function in the same loop;
    # the error must name it, not anything downstream
    monkeypatch.setattr(
        pipeline_mod, "sink_partially_dead",
        _inject_undefined_read(pipeline_mod.sink_partially_dead))
    with pytest.raises(CheckedModeError) as excinfo:
        compile_aggressive(build_nested_loop(4, 4), checked=True)
    assert excinfo.value.pass_name == "sink_partially_dead"


def test_unchecked_mode_does_not_raise(monkeypatch):
    # the same sabotage goes unnoticed without checked mode (the dead op
    # is swept by DCE later); this is exactly the gap checked mode closes
    monkeypatch.setattr(
        pipeline_mod, "promote_function",
        _inject_undefined_read(pipeline_mod.promote_function))
    compiled = compile_aggressive(build_nested_loop(4, 4), checked=False)
    assert compiled.module is not None


def test_with_buffer_checked_catches_bad_assignment(monkeypatch):
    base = compile_traditional(build_counting_loop(64), buffer_capacity=None,
                               checked=True)
    real = pipeline_mod.assign_buffer

    def evil(module, profile, capacity, **kwargs):
        result = real(module, profile, capacity, **kwargs)
        assert result.assigned, "fixture loop should be assigned"
        result.assigned[0].offset = capacity + 7  # table now lies
        return result

    monkeypatch.setattr(pipeline_mod, "assign_buffer", evil)
    with pytest.raises(CheckedModeError) as excinfo:
        with_buffer(base, 64)
    err = excinfo.value
    assert err.pass_name == "with_buffer"
    assert {d.rule for d in err.diagnostics} & {"buffer-capacity",
                                                "buffer-residency"}


def test_with_buffer_clean_under_checked():
    base = compile_traditional(build_counting_loop(64), buffer_capacity=None,
                               checked=True)
    compiled = with_buffer(base, 64)
    assert compiled.buffer_capacity == 64


def test_checked_error_survives_pickling():
    import pickle

    from repro.analysis.lint import Diagnostic, Severity

    err = CheckedModeError("some_pass", [
        Diagnostic("use-before-def", Severity.ERROR, "boom",
                   function="f", block="entry", index=0,
                   passname="some_pass")])
    clone = pickle.loads(pickle.dumps(err))
    assert clone.pass_name == "some_pass"
    assert clone.diagnostics == err.diagnostics


def test_injected_at_counted_loop_conversion(monkeypatch):
    # a module-level pass (not per-function) also gets attributed
    real = pipeline_mod.convert_counted_loops_all

    def evil(module):
        result = real(module)
        func = next(iter(module.functions.values()))
        func.blocks[0].insert(
            0, Operation(Opcode.MOV, [ireg(900)], [ireg(901)]))
        return result

    monkeypatch.setattr(pipeline_mod, "convert_counted_loops_all", evil)
    with pytest.raises(CheckedModeError) as excinfo:
        compile_traditional(build_counting_loop(16), checked=True)
    assert excinfo.value.pass_name == "convert_counted_loops"
