"""The lint rule registry and driver.

A *rule* is a function ``fn(target, make)`` registered under a stable id
with a default severity and a phase:

``ir``
    needs only the module (and machine description) — runs after any pass;
``sched``
    needs list and/or modulo schedules;
``buffer``
    needs the loop-buffer assignment.

``make(message, function=..., block=..., index=..., severity=...)`` builds
and collects a :class:`~repro.analysis.lint.diagnostics.Diagnostic`
pre-bound to the rule's id and default severity, so rule bodies stay
declarative.  Rules must not mutate the IR.

This module is imported by :mod:`repro.pipeline` (checked mode), so it
must never import the pipeline, the runner or the bench registry — the
sweep CLI in :mod:`repro.analysis.lint.cli` owns those dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from repro.analysis.reachdef import undefined_reads
from repro.ir.function import Function
from repro.ir.module import Module
from repro.sched.machine import DEFAULT_MACHINE, MachineDescription

from .diagnostics import Diagnostic, Severity

PHASES = ("ir", "sched", "buffer")


@dataclass
class LintTarget:
    """Everything a rule may inspect: IR plus optional backend artifacts.

    ``schedules`` is ``{function: {block label: Schedule}}``; ``modulo`` is
    ``{(function, header label): ModuloSchedule}`` — the shapes
    :class:`repro.pipeline.Compiled` carries.  ``functions`` restricts the
    sweep to a subset (checked mode lints only the function a pass just
    rewrote).
    """

    module: Module
    machine: MachineDescription = field(default_factory=lambda: DEFAULT_MACHINE)
    schedules: dict[str, dict[str, object]] | None = None
    modulo: dict[tuple[str, str], object] | None = None
    assignment: object | None = None
    buffer_capacity: int | None = None
    functions: Sequence[str] | None = None
    #: :meth:`undefined_reads` results by function name
    _undefined: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    def selected_functions(self) -> Iterator[Function]:
        for func in self.module.functions.values():
            if self.functions is None or func.name in self.functions:
                yield func

    def undefined_reads(self, func: Function) -> list:
        """:func:`~repro.analysis.reachdef.undefined_reads` of ``func``,
        computed once per target: ``use-before-def`` and ``undef-guard``
        both read it, and rules must not mutate the IR."""
        found = self._undefined.get(func.name)
        if found is None:
            found = self._undefined[func.name] = undefined_reads(func)
        return found


@dataclass(frozen=True)
class Rule:
    rule_id: str
    severity: Severity
    phase: str
    doc: str
    fn: Callable


_REGISTRY: dict[str, Rule] = {}


def rule(rule_id: str, severity: Severity, phase: str):
    """Register a lint rule; the decorated function's docstring is the
    rule-catalog entry."""
    if phase not in PHASES:
        raise ValueError(f"unknown lint phase {phase!r}")

    def decorate(fn: Callable) -> Callable:
        if rule_id in _REGISTRY:
            raise ValueError(f"duplicate lint rule id {rule_id!r}")
        doc = (fn.__doc__ or "").strip().split("\n")[0]
        _REGISTRY[rule_id] = Rule(rule_id, severity, phase, doc, fn)
        return fn

    return decorate


def all_rules() -> list[Rule]:
    return sorted(_REGISTRY.values(), key=lambda r: (PHASES.index(r.phase),
                                                     r.rule_id))


def get_rule(rule_id: str) -> Rule:
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise KeyError(
            f"unknown lint rule {rule_id!r} (known: "
            f"{', '.join(sorted(_REGISTRY))})"
        ) from None


def run_rules(
    target: LintTarget,
    rule_ids: Iterable[str] | None = None,
    phases: Iterable[str] | None = None,
) -> list[Diagnostic]:
    """Run the selected rules over ``target``; diagnostics in rule order."""
    selected = ([get_rule(rid) for rid in rule_ids]
                if rule_ids is not None else all_rules())
    if phases is not None:
        wanted = set(phases)
        selected = [r for r in selected if r.phase in wanted]

    found: list[Diagnostic] = []
    for rule_obj in selected:
        def make(message: str, function: str | None = None,
                 block: str | None = None, index: int | None = None,
                 severity: Severity | None = None,
                 _rule: Rule = rule_obj) -> Diagnostic:
            diag = Diagnostic(_rule.rule_id, severity or _rule.severity,
                              message, function, block, index)
            found.append(diag)
            return diag

        rule_obj.fn(target, make)
    return found


def lint_module(
    module: Module,
    machine: MachineDescription = DEFAULT_MACHINE,
    functions: Sequence[str] | None = None,
    rule_ids: Iterable[str] | None = None,
) -> list[Diagnostic]:
    """Run the IR-phase rules over a bare module."""
    target = LintTarget(module=module, machine=machine, functions=functions)
    return run_rules(target, rule_ids=rule_ids, phases=("ir",))


def lint_compiled(compiled, rule_ids: Iterable[str] | None = None,
                  phases: Iterable[str] | None = None) -> list[Diagnostic]:
    """Run rules over a :class:`repro.pipeline.Compiled` artifact."""
    target = LintTarget(
        module=compiled.module,
        machine=compiled.machine,
        schedules=compiled.schedules,
        modulo=compiled.modulo,
        assignment=compiled.assignment,
        buffer_capacity=compiled.buffer_capacity,
    )
    return run_rules(target, rule_ids=rule_ids, phases=phases)
