"""End-to-end compilation pipelines (Section 7.1's two configurations).

``compile_traditional``
    "only traditional compiler optimizations (i.e. no predication and no
    loop collapsing)": profile-guided inlining, classical scalar
    optimization, counted-loop conversion, modulo scheduling, loop-buffer
    assignment.

``compile_aggressive``
    adds the control transformations "intended to enhance opportunities
    for instruction buffering": loop peeling, predicated loop collapsing,
    hyperblock if-conversion of loop bodies (and acyclic hammocks),
    branch combining, predicate promotion, height reduction and
    predication-based partial dead-code removal.

Both start from one frontend -- cleanup, profile, inline, cleanup,
profile -- which runs once per program and settings per process
(:func:`_frontend`, DESIGN.md §5e).  Both share the backend:
re-profiling (recording the pass trace), modulo scheduling of simple
loops (with MVE footprints), then list scheduling of every block for the
cycle simulator.  That unbuffered base is capacity-independent.  A
capacity reaches it one way, :func:`with_buffer` (DESIGN.md §5k): buffer
assignment (which rewrites ``cloop_set`` into ``rec_cloop`` / inserts
``rec_wloop``) on a copy-on-write overlay of the base, which is also what
``compile_*(buffer_capacity=N)`` returns.

**Checked mode** (``checked=True``) runs the :mod:`repro.analysis.lint`
sanitizer after every pass and raises :class:`CheckedModeError` naming
the first pass that left the IR — or a schedule, or the buffer
assignment — in an illegal state.
"""

from __future__ import annotations

import copy
import hashlib
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.analysis.cfgview import CFGView
from repro.analysis.lint import (
    PHASES,
    Diagnostic,
    LintTarget,
    Severity,
    all_rules,
    errors_only,
    get_rule,
    lint_module,
    run_rules,
)
from repro.analysis.loops import find_loops, is_simple_loop
from repro.analysis.profile import Profile
from repro.ir.module import Module
from repro.obs import get_tracer
from repro.ir.verify import VerificationError, verify_module
from repro.loopbuffer.assign import AssignmentResult, assign_buffer
from repro.loopbuffer.overlay import (
    CapacityOverlay,
    check_retarget,
    is_rec_rewrite,
    retarget_overlay,
    shared_departures,
)
from repro.looptrans.cloop import convert_counted_loops
from repro.looptrans.collapse import collapse_nested_loops
from repro.looptrans.peel import peel_short_loops
from repro.opt.dce import eliminate_dead_code, sink_partially_dead
from repro.opt.inline import inline_module
from repro.opt.local import optimize_function
from repro.opt.reassoc import reassociate_function
from repro.opt.simplify_cfg import simplify_cfg
from repro.predication.branch_combine import combine_branches, reads_profile
from repro.predication.hyperblock import (
    form_hammock_hyperblocks,
    form_loop_hyperblocks,
)
from repro.predication.promotion import promote_function
from repro.sched.list_sched import schedule_function
from repro.sched.cache import (
    CHECK_STATS,
    CheckEntry,
    check_context,
    check_entry,
    frontend_get,
    frontend_put,
)
from repro.sched.machine import DEFAULT_MACHINE, MachineDescription
from repro.sched.modulo import ModuloSchedulingFailed, modulo_schedule
from repro.sim.interp import profile_module
from repro.sim.power import FetchEnergy
from repro.sim.vliw import simulate

if TYPE_CHECKING:
    from repro.sim.replay import PassTrace


@dataclass
class Compiled:
    """A compiled program plus everything the simulator needs."""

    module: Module
    profile: Profile
    schedules: dict[str, dict[str, object]]
    modulo: dict[tuple[str, str], object]
    assignment: AssignmentResult | None
    machine: MachineDescription
    entry: str
    args: list[int]
    stats: dict[str, object] = field(default_factory=dict)
    buffer_capacity: int | None = None
    #: set when this artifact is a zero-copy retarget of a shared base
    #: (``with_buffer``); ``None`` for unbuffered bases.
    overlay: CapacityOverlay | None = None
    #: the unbuffered base's recorded pass trace (every compile whose
    #: final profiling run completes records one; ``with_buffer`` carries
    #: it over), so ``run_compiled`` replays instead of re-executing;
    #: ``None`` only for artifacts cached before traces existed
    pass_trace: PassTrace | None = None

    @property
    def static_ops(self) -> int:
        return self.module.op_count()


@dataclass
class SimulationOutcome:
    result: object
    counters: object
    buffer: object
    energy: FetchEnergy

    @property
    def buffer_issue_fraction(self) -> float:
        """Dynamic ops issued from the loop buffer over all ops issued.

        0.0 (never a ZeroDivisionError) when the run fetched nothing —
        empty or trivial programs are legal inputs.
        """
        counters = self.counters
        if counters.ops_issued == 0:
            return 0.0
        return counters.ops_from_buffer / counters.ops_issued

    @property
    def per_loop(self) -> dict[str, object]:
        """``"func/header" -> LoopFetchStats`` for every recorded loop."""
        return self.counters.per_loop

    def per_loop_buffer_fractions(self) -> dict[str, float]:
        """Per-loop buffer issue fraction, 0.0 for loops that fetched
        nothing.  Buffer-sourced ops only ever come from recorded loops,
        so these decompose the aggregate :attr:`buffer_issue_fraction`."""
        return {
            key: stats.buffer_issue_fraction
            for key, stats in sorted(self.counters.per_loop.items())
        }

    @property
    def cycles(self) -> int:
        return self.counters.cycles


#: transforms legitimately strand remnant blocks between passes (peeling,
#: hyperblock formation); a later ``simplify_cfg`` sweeps them, so the
#: per-pass sanitizer must not flag them.
_PER_PASS_SKIP = frozenset({"unreachable-block"})


@dataclass(frozen=True)
class RunConfig:
    """How a compile or run executes: checked mode, step budget
    (``None``: each layer's default) and whether the runner records a
    trace.  Entry points build it once from their arguments and pass it
    down; ``RunConfig()`` is unchecked, default budget, untraced.
    Construction raises :class:`ValueError` on a bad checked flag or
    budget.
    """

    checked: bool = False
    max_steps: int | None = None
    trace: bool = False

    def __post_init__(self) -> None:
        if type(self.checked) is not bool:
            raise ValueError(f"checked must be a bool, got {self.checked!r}")
        if self.max_steps is not None and (type(self.max_steps) is not int
                                           or self.max_steps < 1):
            raise ValueError(
                f"max_steps must be a positive int, got {self.max_steps!r}")

    def key_flags(self) -> dict:
        """The cache-key fragment; ``trace`` only observes, so it is not
        keyed.  ``"engine": "fast"`` is a constant kept from when the
        simulator engine was a setting, so every key, and every cache
        entry stored under one, stays valid (DESIGN.md §5l)."""
        flags = {"checked": self.checked, "engine": "fast"}
        if self.max_steps is not None:
            flags["max_steps"] = self.max_steps
        return flags

    def budget(self) -> dict:
        """``max_steps`` as a keyword, unless the default is meant."""
        return {} if self.max_steps is None else {"max_steps": self.max_steps}


class CheckedModeError(Exception):
    """A pass left the program in a state the sanitizer rejects.

    ``pass_name`` names the offending pass; ``diagnostics`` holds the
    error-severity :class:`~repro.analysis.lint.Diagnostic` objects, each
    stamped with the pass in its ``passname`` field.
    """

    def __init__(self, pass_name: str, diagnostics: list[Diagnostic]):
        self.pass_name = pass_name
        self.diagnostics = list(diagnostics)
        lines = "\n".join(f"  {d.format()}" for d in self.diagnostics)
        super().__init__(
            f"pass {pass_name!r} left the program in an illegal state:\n"
            f"{lines}"
        )

    def __reduce__(self):
        # survive the pickle round-trip out of pool workers
        return (type(self), (self.pass_name, self.diagnostics))


def _module_shape(module: Module) -> tuple[int, int, int]:
    """(op count, block count, hyperblock count) — the per-pass IR delta."""
    blocks = 0
    hyperblocks = 0
    for func in module.functions.values():
        blocks += len(func.blocks)
        for block in func.blocks:
            if block.hyperblock:
                hyperblocks += 1
    return module.op_count(), blocks, hyperblocks


#: pass-result fields surfaced as span attributes (loop transforms report
#: what they did through their stats objects)
_RESULT_SPAN_FIELDS = ("loops_peeled", "loops_collapsed", "loops_converted",
                       "branches_combined", "promoted")


def _result_span_attrs(result) -> dict:
    attrs: dict[str, int] = {}
    if isinstance(result, dict):
        # e.g. convert_counted_loops_all: {function -> CloopStats}
        for value in result.values():
            for name in _RESULT_SPAN_FIELDS:
                count = getattr(value, name, None)
                if isinstance(count, int):
                    attrs[name] = attrs.get(name, 0) + count
        return attrs
    for name in _RESULT_SPAN_FIELDS:
        count = getattr(result, name, None)
        if isinstance(count, int):
            attrs[name] = count
    return attrs


def _function_digest(context: bytes, func) -> bytes:
    """Digest of ``context`` plus everything ``verify_function`` and the
    ``ir``-phase lint rules read of ``func``: name, parameters, frame
    base, and each block's label, hyperblock flag and operations (opcode,
    guard, dests, srcs and every attribute -- all an op holds but its
    uid).  One ``repr`` of the flat field list renders them all."""
    fields = [func.name, func.params, func.frame_base]
    add = fields.append
    for block in func.blocks:
        add(block.label)
        add(block.hyperblock)
        for op in block.ops:
            add(op.opcode._value_)
            add(op.guard)
            add(op.dests)
            add(op.srcs)
            add(op.attrs)
    return hashlib.blake2b(context + repr(fields).encode(),
                           digest_size=16).digest()


def _module_digest(module: Module, uids: bool = False) -> bytes:
    """Digest of a module's content: its name, each global's name, size
    and full ``init`` data, and each function's :func:`_function_digest`
    plus the frame size and register and label counters the passes
    allocate from.  ``uids`` adds every op's uid, which profiles key on.

    Printed IR cannot stand in for this: the printer shows only the first
    elements of each global initializer."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr((module.name, [
        (data.name, data.size, data.init)
        for data in module.globals.values()])).encode())
    for func in module.functions.values():
        digest.update(_function_digest(b"", func))
        extra = [func.frame_words, func._next_reg, func._next_label]
        if uids:
            extra.append([op.uid for block in func.blocks
                          for op in block.ops])
        digest.update(repr(extra).encode())
    return digest.digest()


def _per_pass_rules() -> tuple[str, ...]:
    """Rule ids checked mode runs after every pass."""
    return tuple(r.rule_id for r in all_rules()
                 if r.phase == "ir" and r.rule_id not in _PER_PASS_SKIP)


def _ir_check_context(machine: MachineDescription,
                      rule_ids: tuple[str, ...]) -> int:
    """The check memo's interned id of (machine, per-pass rules)."""
    return check_context((machine, tuple(get_rule(r) for r in rule_ids)))


class _PassChecker:
    """Runs the sanitizer after every pass, attributing violations, and —
    when a tracer is active — wraps each pass in a span recording its wall
    time and IR delta (op/block/hyperblock counts, loops transformed).

    When checking and tracing are both disabled every method is a cheap
    no-op wrapper, so the pipeline threads one code path for all modes.
    """

    def __init__(self, module: Module, machine: MachineDescription,
                 settings: RunConfig):
        self.module = module
        self.machine = machine
        self.enabled = settings.checked
        self.tracer = get_tracer()
        self._ir_rules = _per_pass_rules()

    def run(self, name: str, fn, *args, scope: str | None = None, **kwargs):
        """Run one pass, then lint the IR it touched (``scope`` narrows the
        sweep to a single function)."""
        tracer = self.tracer
        if not tracer.enabled:
            result = fn(*args, **kwargs)
            self.check_ir(name, scope=scope)
            return result
        before = _module_shape(self.module)
        with tracer.span(name, scope=scope) as span:
            result = fn(*args, **kwargs)
            after = _module_shape(self.module)
            span.annotate(
                ops=after[0], blocks=after[1], hyperblocks=after[2],
                d_ops=after[0] - before[0],
                d_blocks=after[1] - before[1],
                d_hyperblocks=after[2] - before[2],
                **_result_span_attrs(result))
            self.check_ir(name, scope=scope)
        return result

    def _check_span(self, name: str, **attrs):
        tracer = self.tracer
        return (tracer.span(f"check:{name}", category="check", **attrs)
                if tracer.enabled else nullcontext())

    def check_ir(self, name: str, scope: str | None = None) -> None:
        if self.enabled:
            with self._check_span(name, scope=scope):
                self._raise_errors(name, self._ir_diagnostics(scope))

    def _ir_diagnostics(self, scope: str | None) -> list[Diagnostic]:
        """Verify the module and lint ``scope`` (every function when
        ``None``): the verify diagnostic first, then the lint diagnostics
        rule-major, function-minor.  Each function's results come from
        the process-level check memo when its content was checked
        before; misses still run through ``verify_module`` and
        ``lint_module``."""
        module = self.module
        context = (f"{_ir_check_context(self.machine, self._ir_rules)}\0"
                   f"{' '.join(module.functions)}\0"
                   f"{' '.join(module.globals)}\0").encode()
        entries: dict[str, CheckEntry] = {}

        def entry_of(func) -> CheckEntry:
            entry = entries.get(func.name)
            if entry is None:
                entry = entries[func.name] = check_entry(
                    _function_digest(context, func))
            return entry

        stats = CHECK_STATS
        diags: list[Diagnostic] = []
        for func in module.functions.values():
            entry = entry_of(func)
            if entry.verify is None:
                stats.misses += 1
                try:
                    verify_module(module, allow_unreachable=True,
                                  functions=(func.name,))
                    entry.verify = ()
                except VerificationError as exc:
                    entry.verify = (str(exc),)
            else:
                stats.hits += 1
            if entry.verify:
                # like verify_module, stop at the first failing function
                diags.append(Diagnostic("verify", Severity.ERROR,
                                        entry.verify[0], function=scope))
                break

        selected = [func for func in module.functions.values()
                    if scope is None or func.name == scope]
        for func in selected:
            entry = entry_of(func)
            if entry.lint is None:
                stats.misses += 1
                by_rule: dict[str, list[Diagnostic]] = {}
                for diag in lint_module(module, self.machine,
                                        functions=(func.name,),
                                        rule_ids=self._ir_rules):
                    by_rule.setdefault(diag.rule, []).append(diag)
                entry.lint = {rule_id: tuple(found)
                              for rule_id, found in by_rule.items()}
            else:
                stats.hits += 1
        for rule_id in self._ir_rules:
            for func in selected:
                diags.extend(entries[func.name].lint.get(rule_id, ()))
        return diags

    def check_target(self, name: str, target: LintTarget,
                     phases: tuple[str, ...]) -> None:
        if self.enabled:
            with self._check_span(name):
                self._raise_errors(name, run_rules(target, phases=phases))

    def _raise_errors(self, name: str, diags: list[Diagnostic]) -> None:
        errors = errors_only(diags)
        if errors:
            raise CheckedModeError(
                name, [replace(d, passname=name) for d in errors])


def _scalar_cleanup(module: Module, checker: _PassChecker) -> None:
    for func in module.functions.values():
        checker.run("simplify_cfg", simplify_cfg, func, scope=func.name)
        checker.run("optimize_function", optimize_function, func,
                    scope=func.name)
        checker.run("eliminate_dead_code", eliminate_dead_code, func,
                    scope=func.name)
        checker.run("simplify_cfg", simplify_cfg, func, scope=func.name)


def _frontend_key(module: Module, entry: str, args: list[int],
                  inline_budget: float, machine: MachineDescription,
                  settings: RunConfig) -> tuple:
    """What a frontend run depends on: the input's content, the run's
    settings, the checks it ran when checked, and the pass functions
    themselves, so a patched or fault-injected pass never reuses what the
    stock passes produced."""
    checks = (_ir_check_context(machine, _per_pass_rules())
              if settings.checked else None)
    passes = (simplify_cfg, optimize_function, eliminate_dead_code,
              inline_module, profile_module, verify_module)
    return (_module_digest(module), entry, tuple(args), inline_budget,
            settings, checks, passes)


def _frontend(module: Module, entry: str, args: list[int],
              inline_budget: float, machine: MachineDescription,
              settings: RunConfig) -> tuple[Module, Profile]:
    """The frontend both pipelines share: cleanup, profile, inline,
    cleanup, profile.

    Returns a private deep copy of the cleaned, inlined module (deepcopy
    keeps op uids, so the profile's keys hold) and the profile, which is
    shared and must only be read.  One run per program and settings per
    process is memoised; a run that raises stores nothing.  ``module``
    itself is never mutated.
    """
    key = _frontend_key(module, entry, args, inline_budget, machine,
                        settings)
    tracer = get_tracer()
    with (tracer.span("frontend", category="pipeline") if tracer.enabled
          else nullcontext()) as span:
        stored = frontend_get(key)
        if span is not None:
            span.annotate(memo="miss" if stored is None else "hit")
        if stored is None:
            work = copy.deepcopy(module)
            checker = _PassChecker(work, machine, settings)
            stored = (work, _common_frontend(work, entry, args, inline_budget,
                                             checker, settings))
            frontend_put(key, stored)
    work, profile = stored
    return copy.deepcopy(work), profile


def _common_frontend(module: Module, entry: str, args: list[int],
                     inline_budget: float, checker: _PassChecker,
                     settings: RunConfig) -> Profile:
    _scalar_cleanup(module, checker)
    profile, _ = profile_module(module, entry, args,
                                max_steps=settings.max_steps)
    before = _module_digest(module, uids=True)
    checker.run("inline_module", inline_module, module, profile,
                expansion_limit=inline_budget)
    _scalar_cleanup(module, checker)
    verify_module(module)
    if _module_digest(module, uids=True) != before:
        # inlining or cleanup changed the program: profile what it became
        profile, _ = profile_module(module, entry, args,
                                    max_steps=settings.max_steps)
    return profile


def _backend(
    module: Module,
    entry: str,
    args: list[int],
    machine: MachineDescription,
    stats: dict,
    checker: _PassChecker,
    settings: RunConfig,
) -> Compiled:
    """Build the unbuffered base: re-profile, modulo-schedule simple
    loops and list-schedule every block.  The final profiling run doubles
    as the pass trace every capacity overlay of this base replays."""
    verify_module(module)
    profile, run = profile_module(module, entry, args,
                                  max_steps=settings.max_steps, record=True)
    tracer = checker.tracer

    # modulo-schedule simple loops; their MVE-expanded kernels are the
    # buffer footprints
    modulo: dict[tuple[str, str], object] = {}
    with tracer.span("modulo_schedule"):
        for func in module.functions.values():
            cfg = CFGView(func)
            for loop in find_loops(func, cfg):
                if not is_simple_loop(func, loop):
                    continue
                block = func.block(loop.header)
                try:
                    sched = modulo_schedule(block, machine)
                except ModuloSchedulingFailed as exc:
                    if tracer.enabled:
                        tracer.instant("modulo_failed", category="sched",
                                       func=func.name, block=loop.header,
                                       reason=str(exc))
                    continue
                modulo[(func.name, loop.header)] = sched
        tracer.annotate(loops_scheduled=len(modulo))
    checker.check_target(
        "modulo_schedule",
        LintTarget(module=module, machine=machine, modulo=modulo),
        phases=("sched",))

    with tracer.span("list_schedule"):
        schedules = {
            func.name: schedule_function(func, machine)
            for func in module.functions.values()
        }
    checker.check_target(
        "list_schedule",
        LintTarget(module=module, machine=machine, schedules=schedules,
                   modulo=modulo),
        phases=("sched",))
    stats["modulo_loops"] = len(modulo)
    return Compiled(module, profile, schedules, modulo, None, machine,
                    entry, list(args), stats, pass_trace=run.pass_trace)


def compile_traditional(
    module: Module,
    entry: str = "main",
    args: list[int] | None = None,
    machine: MachineDescription = DEFAULT_MACHINE,
    buffer_capacity: int | None = 256,
    inline_budget: float = 0.5,
    max_steps: int = 200_000_000,
    checked: bool = False,
) -> Compiled:
    """The baseline pipeline: no predication, no loop restructuring."""
    args = list(args or [])
    settings = RunConfig(checked, max_steps)
    stats: dict[str, object] = {"pipeline": "traditional"}
    if settings.checked:
        stats["checked"] = True
    with get_tracer().span("compile_traditional", category="pipeline",
                           entry=entry):
        module, _profile = _frontend(module, entry, args, inline_budget,
                                     machine, settings)
        checker = _PassChecker(module, machine, settings)
        stats["cloops"] = checker.run("convert_counted_loops",
                                      convert_counted_loops_all, module)
        _scalar_cleanup(module, checker)
        base = _backend(module, entry, args, machine, stats, checker,
                        settings)
        if buffer_capacity is None:
            return base
        return with_buffer(base, buffer_capacity)


def compile_aggressive(
    module: Module,
    entry: str = "main",
    args: list[int] | None = None,
    machine: MachineDescription = DEFAULT_MACHINE,
    buffer_capacity: int | None = 256,
    inline_budget: float = 0.5,
    max_steps: int = 200_000_000,
    hammocks: bool = True,
    collapse: bool = True,
    peel: bool = True,
    promote: bool = True,
    combine: bool = True,
    checked: bool = False,
) -> Compiled:
    """The paper's aggressive pipeline (hyperblock + loop transforms)."""
    args = list(args or [])
    settings = RunConfig(checked, max_steps)
    stats: dict[str, object] = {"pipeline": "aggressive"}
    if settings.checked:
        stats["checked"] = True
    with get_tracer().span("compile_aggressive", category="pipeline",
                           entry=entry):
        module, profile = _frontend(module, entry, args, inline_budget,
                                    machine, settings)
        checker = _PassChecker(module, machine, settings)
        base = _compile_aggressive_body(
            module, profile, entry, args, machine, hammocks, collapse,
            peel, promote, combine, stats, checker, settings)
        if buffer_capacity is None:
            return base
        return with_buffer(base, buffer_capacity)


def _compile_aggressive_body(
    module: Module,
    profile: Profile,
    entry: str,
    args: list[int],
    machine: MachineDescription,
    hammocks: bool,
    collapse: bool,
    peel: bool,
    promote: bool,
    combine: bool,
    stats: dict,
    checker: _PassChecker,
    settings: RunConfig,
) -> Compiled:
    peel_stats, collapse_stats, form_stats = [], [], []
    for func in module.functions.values():
        scope = func.name
        # innermost loops first become hyperblocks, dissolving their
        # internal control flow ...
        form_stats.append(checker.run("form_loop_hyperblocks",
                                      form_loop_hyperblocks, func, profile,
                                      scope=scope))
        # ... then short counted inner loops peel away entirely ...
        if peel:
            peel_stats.append(checker.run("peel_short_loops",
                                          peel_short_loops, func,
                                          scope=scope))
            checker.run("simplify_cfg", simplify_cfg, func, scope=scope)
        # ... remaining nests collapse into single predicated loops ...
        if collapse:
            collapse_stats.append(checker.run("collapse_nested_loops",
                                              collapse_nested_loops, func,
                                              scope=scope))
        # ... exposing new single-level loops for if-conversion
        form_stats.append(checker.run("form_loop_hyperblocks",
                                      form_loop_hyperblocks, func, profile,
                                      scope=scope))
        if hammocks:
            checker.run("form_hammock_hyperblocks",
                        form_hammock_hyperblocks, func, profile, scope=scope)
    verify_module(module)

    # only branch combining reads this profile, and only when some
    # hyperblock has enough exits to combine (DESIGN.md §5a)
    profile = None
    if combine and reads_profile(module):
        profile, _ = profile_module(module, entry, args,
                                    max_steps=settings.max_steps)
    combine_stats = []
    promote_stats = []
    for func in module.functions.values():
        scope = func.name
        if combine:
            combine_stats.append(checker.run("combine_branches",
                                             combine_branches, func, profile,
                                             scope=scope))
        checker.run("reassociate_function", reassociate_function, func,
                    scope=scope)
        checker.run("sink_partially_dead", sink_partially_dead, func,
                    scope=scope)
        if promote:
            promote_stats.append(checker.run("promote_function",
                                             promote_function, func,
                                             scope=scope))
        checker.run("optimize_function", optimize_function, func, scope=scope)
        checker.run("eliminate_dead_code", eliminate_dead_code, func,
                    scope=scope)
    verify_module(module)

    stats["peel"] = peel_stats
    stats["collapse"] = collapse_stats
    stats["hyperblocks"] = form_stats
    stats["combine"] = combine_stats
    stats["promotion"] = promote_stats
    stats["cloops"] = checker.run("convert_counted_loops",
                                  convert_counted_loops_all, module)
    for func in module.functions.values():
        checker.run("eliminate_dead_code", eliminate_dead_code, func,
                    scope=func.name)
    return _backend(module, entry, args, machine, stats, checker, settings)


#: pipeline name -> its compiler; the runner, the service and the fuzz
#: oracle all dispatch through this one table
COMPILERS = {
    "traditional": compile_traditional,
    "aggressive": compile_aggressive,
}


def convert_counted_loops_all(module: Module):
    return {
        func.name: convert_counted_loops(func)
        for func in module.functions.values()
    }


def with_buffer(compiled: Compiled, capacity: int | None,
                overhead_aware: bool = True) -> Compiled:
    """Buffer a compiled base at ``capacity``: the one way a capacity
    reaches the IR (``compile_*(buffer_capacity=N)`` ends here too).

    Buffer assignment is capacity-dependent (offsets, which loops fit),
    so a Figure 7-style size sweep re-runs assignment per size over one
    base.  Many sizes yield the same assignment, and the runner then
    skips this call altogether (:func:`repro.runner.parallel.run_base`,
    DESIGN.md §5m).  The input must be unbuffered
    (``buffer_capacity=None``, no ``rec`` ops installed yet); re-targeting
    an already-buffered artifact raises
    :class:`~repro.loopbuffer.overlay.RetargetError`, and so does a
    capacity that is not ``None`` or an ``int >= 0``
    (:func:`~repro.loopbuffer.overlay.check_retarget`).  The original
    ``Compiled`` is never mutated.

    The retarget is zero-copy (:mod:`repro.loopbuffer.overlay`): only
    preheaders that gain ``rec`` directives are materialized
    (copy-on-write at block granularity) and rescheduled; everything
    else, including ``capacity=None`` (which returns a pure view),
    shares the base artifact's objects, its pass trace included.
    A checked base (``stats["checked"]``, as :func:`run_compiled`
    decides) has the re-targeted artifact checked in every lint phase
    before it is returned (:func:`check_buffered`).
    """
    check_retarget(compiled, capacity)
    with get_tracer().span("with_buffer", category="pipeline",
                           capacity=capacity):
        module, assignment, schedules, overlay = retarget_overlay(
            compiled, capacity, overhead_aware=overhead_aware,
            assign=assign_buffer)
        result = Compiled(module, compiled.profile, schedules,
                          dict(compiled.modulo), assignment,
                          compiled.machine, compiled.entry,
                          list(compiled.args), dict(compiled.stats),
                          buffer_capacity=capacity, overlay=overlay,
                          pass_trace=compiled.pass_trace)
        if compiled.stats.get("checked"):
            check_buffered(result, compiled)
        return result


#: the function-wide dataflow rules a ``rec`` rewrite cannot change
#: (DESIGN.md §5k): an overlay's check runs them only on a function
#: whose copied preheaders differ from their base blocks by more
_REC_NEUTRAL = frozenset({"use-before-def", "undef-guard"})


def check_buffered(compiled: Compiled, base: Compiled,
                   phases: tuple[str, ...] = PHASES) -> None:
    """Checked mode's gate on a buffered artifact: raise
    :class:`CheckedModeError` for pass ``"with_buffer"`` on the error
    diagnostics :func:`~repro.analysis.lint.lint_compiled` finds in
    ``phases``, found by checking only what the overlay changed
    (DESIGN.md §5k).  ``base`` is the artifact ``compiled`` was
    retargeted from; only the ``ir`` and ``sched`` phases read it.

    1. Every block and schedule outside ``compiled.overlay.materialized``
       must be ``base``'s own object; a departure raises, naming the
       block (:func:`~repro.loopbuffer.overlay.shared_departures`).
    2. The ``ir`` and ``sched`` error rules then run with the schedules
       narrowed to the materialized preheaders; the function-wide
       dataflow rules (:data:`_REC_NEUTRAL`) run only on a function
       whose copies are more than a ``rec`` rewrite of their base blocks.
    3. The ``buffer`` rules run over the whole assignment.
    """
    selected = [r for r in all_rules()
                if r.severity is Severity.ERROR and r.phase in phases]
    rules = [r.rule_id for r in selected if r.phase != "buffer"]
    buffer_rules = [r.rule_id for r in selected if r.phase == "buffer"]
    errors = _overlay_errors(compiled, base, rules) if rules else []
    if buffer_rules:
        errors += run_rules(LintTarget(
            module=compiled.module, machine=compiled.machine,
            modulo=compiled.modulo, assignment=compiled.assignment,
            buffer_capacity=compiled.buffer_capacity), rule_ids=buffer_rules)
    errors = errors_only(errors)
    if errors:
        raise CheckedModeError(
            "with_buffer",
            [replace(d, passname="with_buffer") for d in errors])


def _overlay_errors(compiled: Compiled, base: Compiled,
                    rule_ids: list[str]) -> list[Diagnostic]:
    """The ``ir`` and ``sched`` part of :func:`check_buffered`:
    ``rule_ids``' diagnostics in rule order, the :data:`_REC_NEUTRAL`
    ones from the functions a non-``rec`` edit reached."""
    departures = shared_departures(compiled, base)
    if departures:
        raise CheckedModeError("with_buffer", [
            Diagnostic("overlay-shared", Severity.ERROR, message, function,
                       block, passname="with_buffer")
            for function, block, message in departures])
    materialized = set(compiled.overlay.materialized)
    module = compiled.module
    rewritten = {fname for fname, label in materialized
                 if not is_rec_rewrite(
                     base.module.function(fname).block(label),
                     module.function(fname).block(label))}
    touched = {fname for fname, _ in materialized}
    # a rewritten function's liveness, and so every block's exit-live
    # sets, may have changed: its sched rules see all its blocks
    schedules = {
        fname: (per if fname in rewritten else
                {label: sched for label, sched in per.items()
                 if (fname, label) in materialized})
        for fname, per in compiled.schedules.items() if fname in touched}
    modulo = {key: sched for key, sched in compiled.modulo.items()
              if key in materialized}
    found = run_rules(LintTarget(module=module, machine=compiled.machine,
                                 schedules=schedules, modulo=modulo),
                      rule_ids=[r for r in rule_ids if r not in _REC_NEUTRAL])
    neutral = [r for r in rule_ids if r in _REC_NEUTRAL]
    if rewritten and neutral:
        rank = {r.rule_id: i for i, r in enumerate(all_rules())}
        found += run_rules(LintTarget(module=module,
                                      machine=compiled.machine,
                                      functions=sorted(rewritten)),
                           rule_ids=neutral)
        found.sort(key=lambda d: rank[d.rule])
    return found


#: the scalar ``SimCounters`` fields checked mode compares
_COUNTER_FIELDS = ("cycles", "bundles", "ops_issued", "ops_from_buffer",
                   "ops_from_memory", "branch_bubbles")


def _check_replay(result, counters, buffer, full) -> None:
    """Checked mode: a replay must match the full simulation exactly."""
    full_result, full_counters, full_buffer = full
    pairs = [("value", result.value, full_result.value),
             ("steps", result.steps, full_result.steps)]
    pairs += [(name, getattr(counters, name), getattr(full_counters, name))
              for name in _COUNTER_FIELDS]
    for name in ("per_block", "per_loop"):
        mine, theirs = getattr(counters, name), getattr(full_counters, name)
        keys = sorted(key for key in mine.keys() | theirs.keys()
                      if mine.get(key) != theirs.get(key))
        pairs += [(f"{name}[{key}]", mine.get(key), theirs.get(key))
                  for key in keys]
    pairs.append(("buffer stats",
                  buffer.stats if buffer is not None else None,
                  full_buffer.stats if full_buffer is not None else None))
    diags = [
        Diagnostic("replay", Severity.ERROR,
                   f"replayed {name} {replayed!r} != simulated {simulated!r}")
        for name, replayed, simulated in pairs if replayed != simulated
    ]
    if diags:
        raise CheckedModeError("replay", diags)


def run_compiled(
    compiled: Compiled,
    max_steps: int = 200_000_000,
) -> SimulationOutcome:
    """Simulate a compiled program on the VLIW at the capacity it was
    buffered for (buffer assignment bakes offsets in).

    An artifact carrying its base's pass trace is replayed rather than
    re-executed (:mod:`repro.sim.replay`).  A checked artifact
    (``stats["checked"]``) is then simulated in full as well, and any
    difference raises :class:`CheckedModeError` for pass ``"replay"``.
    Under an enabled tracer the ``simulate`` span carries the run's
    counters and, as ``loops``, each recorded loop's
    :class:`~repro.sim.vliw.LoopFetchStats` as ``{buffer, memory,
    record, hit, evict}``.
    """
    buffer_capacity = compiled.buffer_capacity
    settings = RunConfig(max_steps=max_steps)
    tracer = get_tracer()
    sim_args = (compiled.module, compiled.schedules, compiled.modulo,
                compiled.machine, buffer_capacity, compiled.entry,
                compiled.args)
    with tracer.span("simulate", category="sim",
                     capacity=buffer_capacity) as span:
        result, counters, buffer = simulate(
            *sim_args, max_steps=settings.max_steps,
            trace=compiled.pass_trace)
        if compiled.stats.get("checked") and compiled.pass_trace is not None:
            from repro.sim.replay import ReplayedRun

            if isinstance(result, ReplayedRun):
                _check_replay(result, counters, buffer, simulate(
                    *sim_args, max_steps=settings.max_steps))
        if tracer.enabled:
            span.annotate(
                cycles=counters.cycles,
                ops_issued=counters.ops_issued,
                ops_from_buffer=counters.ops_from_buffer,
                ops_from_memory=counters.ops_from_memory,
                loops={key: {"buffer": stats.ops_from_buffer,
                             "memory": stats.ops_from_memory,
                             "record": stats.records,
                             "hit": stats.residency_hits,
                             "evict": stats.evictions}
                       for key, stats in sorted(counters.per_loop.items())},
            )
    energy = FetchEnergy(
        ops_from_memory=counters.ops_from_memory,
        ops_from_buffer=counters.ops_from_buffer,
        buffer_capacity=buffer_capacity or 1,
    )
    return SimulationOutcome(result, counters, buffer, energy)
