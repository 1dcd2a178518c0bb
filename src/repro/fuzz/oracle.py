"""Differential oracle: interpreter vs every pipeline configuration.

For each program the *reference outcome* is one pure-Python
interpretation of the unoptimized IR by the reference
:class:`repro.sim.interp.Interpreter`.
Each :class:`Config` then buffers the program's unbuffered base at its
capacity (:func:`repro.pipeline.with_buffer`) and simulates it on the
cycle-level VLIW (:func:`repro.pipeline.run_compiled`); any difference
in return value or trap class — or a checked-mode lint failure, or a
crash in the compiler itself — is a divergence.

:func:`check_program` parses each program once, for the reference and
every config, and compiles each pipeline's base once, for every
capacity config of that pipeline (DESIGN.md §5n).  Both live only for
that one call.

:func:`check_many` fans a batch of programs over a process pool (same
worker-count resolution as :mod:`repro.runner.parallel`) and can reuse the
:mod:`repro.runner.cache` artifact cache, so a re-run over an unchanged
corpus is nearly free.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import repro.pipeline
from repro.frontend import compile_source
from repro.ir.module import Module
from repro.pipeline import (
    COMPILERS,
    CheckedModeError,
    Compiled,
    RunConfig,
    run_compiled,
)
from repro.runner.cache import ArtifactCache, cache_key
from repro.runner.parallel import resolve_workers
from repro.sched.cache import CHECK_STATS, FRONTEND_STATS
from repro.sim.interp import Interpreter, SimError

#: step budget per interpretation/simulation — generated programs are tiny,
#: so anything approaching this is a runaway loop, reported as a trap
DEFAULT_MAX_STEPS = 2_000_000

DEFAULT_CAPACITIES: tuple[int | None, ...] = (None, 16, 64)


@dataclass(frozen=True, order=True)
class Config:
    """One pipeline × capacity × checked-mode point of the oracle grid.

    The compiled half runs on the fast engines; the reference half of
    every comparison is interpreted by the reference
    :class:`~repro.sim.interp.Interpreter`, so every config checks the
    fast engines against the reference on top of the usual
    compiled-vs-interpreted check.
    """

    pipeline: str
    capacity: int | None = None
    checked: bool = False
    sched_oracle: bool = False
    #: route this config's compiled half through an in-process
    #: :class:`repro.serve.Service` instead of calling the pipeline
    #: directly, so the service's compile/retarget/simulate path is
    #: differentially checked against the interpreter
    service: bool = False

    def run(self, max_steps: int) -> RunConfig:
        """The run settings this config compiles and simulates under."""
        return RunConfig(self.checked, max_steps)

    @property
    def label(self) -> str:
        cap = "none" if self.capacity is None else str(self.capacity)
        suffix = "+checked" if self.checked else ""
        if self.sched_oracle:
            suffix += "+oracle"
        if self.service:
            suffix += "+serve"
        return f"{self.pipeline}@{cap}{suffix}"

    def as_dict(self) -> dict:
        data = {"pipeline": self.pipeline, "capacity": self.capacity,
                "checked": self.checked}
        if self.sched_oracle:
            # only serialized when set: non-oracle configs keep the cache
            # keys (and corpus JSON shape) they had before the flag existed
            data["sched_oracle"] = True
        if self.service:
            # same compatibility rule
            data["service"] = True
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Config":
        # dicts saved while ``engine`` and ``retarget`` were config axes
        # still carry them; every config now runs the one remaining path
        return cls(data["pipeline"], data.get("capacity"),
                   bool(data.get("checked")),
                   bool(data.get("sched_oracle")),
                   bool(data.get("service")))


def default_configs(
    pipelines: Iterable[str] = ("traditional", "aggressive"),
    capacities: Iterable[int | None] = DEFAULT_CAPACITIES,
    checked: bool = True,
) -> tuple[Config, ...]:
    """The full pipeline × capacity grid, checked mode on by default."""
    return tuple(Config(pipeline, capacity, checked)
                 for pipeline in pipelines for capacity in capacities)


def oracle_configs(
    pipelines: Iterable[str] = ("traditional", "aggressive"),
    capacities: Iterable[int | None] = (None, 64),
) -> tuple[Config, ...]:
    """Configs that swap exact-oracle modulo schedules into the backend.

    Each one compiles normally, replaces every heuristic modulo schedule
    the exact scheduler (:mod:`repro.sched.oracle`) can solve, lints the
    swapped schedules, and simulates — so two independently derived
    schedules are differentially checked for semantic agreement.
    """
    return tuple(Config(pipeline, capacity, sched_oracle=True)
                 for pipeline in pipelines for capacity in capacities)


def service_configs(
    pipelines: Iterable[str] = ("traditional", "aggressive"),
    capacities: Iterable[int | None] = (None, 64),
) -> tuple[Config, ...]:
    """Configs whose compiled half is served by ``repro.serve``.

    The service buffers its base through ``with_buffer`` like every
    other config, so these configs differentially check what the service
    adds on that path (coalescing, the executor queue and the base memo)
    against the reference interpreter.
    """
    return tuple(Config(pipeline, capacity, service=True)
                 for pipeline in pipelines for capacity in capacities)


#: (status, payload) pairs — payload is the return value for ``"value"``,
#: the exception class name for ``"trap"``, a message otherwise
Outcome = tuple[str, object]


@dataclass(frozen=True)
class Verdict:
    """How one configuration's outcome relates to the reference."""

    config: Config
    kind: str          # "ok" | "value-mismatch" | "trap-mismatch" |
    #                    "checked-failure" | "compile-crash" | "sim-crash"
    reference: Outcome
    observed: Outcome

    @property
    def ok(self) -> bool:
        return self.kind == "ok"

    def describe(self) -> str:
        return (f"{self.config.label}: {self.kind} "
                f"(reference={self.reference!r}, observed={self.observed!r})")


@dataclass
class ProgramReport:
    """All verdicts for one program."""

    source: str
    reference: Outcome
    verdicts: list[Verdict] = field(default_factory=list)
    seed: int | None = None

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    @property
    def divergences(self) -> list[Verdict]:
        return [v for v in self.verdicts if not v.ok]


def _parse(source: str) -> Module | Outcome:
    """The program's unoptimized IR, or its ``("frontend-error", ...)``
    outcome."""
    try:
        return compile_source(source)
    except Exception as exc:
        return ("frontend-error", f"{type(exc).__name__}: {exc}")


def reference_outcome(source: str,
                      max_steps: int = DEFAULT_MAX_STEPS, *,
                      module: Module | Outcome | None = None) -> Outcome:
    """Interpret the unoptimized IR; ``("value", v)`` or ``("trap", cls)``.

    A frontend rejection comes back as ``("frontend-error", message)`` so
    the minimizer can tell "invalid program" apart from "divergence".
    ``module`` is ``source``'s parse (:func:`_parse`), when the caller
    has it; the interpreter only reads it.
    """
    module = _parse(source) if module is None else module
    if not isinstance(module, Module):
        return module
    try:
        # always the reference interpreter: this side anchors the
        # comparison
        return ("value",
                Interpreter(module, max_steps=max_steps).run("main").value)
    except SimError as exc:
        return ("trap", type(exc).__name__)


def _compile_failure(exc: Exception) -> Outcome:
    """The outcome of a compile, or a retarget, that raised ``exc``.

    Compile-time interpreter traps (profiling executes the program) are
    ``("trap", cls)``, so a program that traps identically in reference
    and compiled form is *not* a divergence.
    """
    if isinstance(exc, CheckedModeError):
        return ("checked-failure",
                f"{exc.pass_name}: {exc.diagnostics[0].format()}"
                if exc.diagnostics else exc.pass_name)
    if isinstance(exc, SimError):
        return ("trap", type(exc).__name__)
    return ("compile-crash", f"{type(exc).__name__}: {exc}")


def _base(module: Module, pipeline_name: str, settings: RunConfig,
          bases: dict) -> Compiled | Outcome:
    """``pipeline_name``'s unbuffered base of ``module``, or the outcome
    its compile gave, built once per (pipeline, settings) in ``bases``."""
    key = (pipeline_name, settings)
    if key not in bases:
        try:
            bases[key] = COMPILERS[pipeline_name](
                module, buffer_capacity=None, checked=settings.checked,
                max_steps=settings.max_steps)
        except Exception as exc:
            bases[key] = _compile_failure(exc)
    return bases[key]


def compiled_outcome(source: str, config: Config,
                     max_steps: int = DEFAULT_MAX_STEPS, *,
                     module: Module | Outcome | None = None,
                     bases: dict | None = None) -> Outcome:
    """Compile under ``config`` and simulate on the VLIW.

    The compile is the pipeline's unbuffered base, buffered at the
    config's capacity by :func:`~repro.pipeline.with_buffer`, as
    ``compile_*(buffer_capacity=...)`` does.  ``module`` is ``source``'s
    parse (:func:`_parse`) and ``bases`` a dict of bases already built
    from it, keyed by (pipeline, :class:`RunConfig`); this call adds
    the base it builds.  Neither is mutated: the frontend clones
    its input and every later step only reads the base.
    """
    settings = config.run(max_steps)
    module = _parse(source) if module is None else module
    if not isinstance(module, Module):
        return module
    if config.service:
        return _service_outcome(source, config, settings)
    base = _base(module, config.pipeline, settings,
                 {} if bases is None else bases)
    if not isinstance(base, Compiled):
        return base
    try:
        compiled = (base if config.capacity is None
                    else repro.pipeline.with_buffer(base, config.capacity))
    except Exception as exc:
        return _compile_failure(exc)
    if config.sched_oracle:
        compiled, error = _oracle_swap(compiled)
        if error is not None:
            return error
    try:
        outcome = run_compiled(compiled, max_steps=settings.max_steps)
    except SimError as exc:
        return ("trap", type(exc).__name__)
    except CheckedModeError as exc:
        return ("checked-failure", str(exc))
    except Exception as exc:
        return ("sim-crash", f"{type(exc).__name__}: {exc}")
    return ("value", outcome.result.value)


#: lazily-created in-process service shared by every ``service=True``
#: config in this process; no disk cache (check_many already caches
#: whole reports), warmth comes from the service's base memo
_SERVICE = None


def _service() -> "object":
    global _SERVICE
    if _SERVICE is None:
        from repro.serve.service import Service, ServiceConfig

        _SERVICE = Service(ServiceConfig(cache_dir=None))
    return _SERVICE


def _service_outcome(source: str, config: Config,
                     settings: RunConfig) -> Outcome:
    """The compiled half of the differential, via the service.  Only
    called for a source that parses: the caller reports a frontend
    rejection as ``frontend-error``, as the direct path does (the
    service would report it as a generic compile error)."""
    from repro.serve.protocol import Request

    response = _service().submit(Request(
        kind="run", source=source, pipeline=config.pipeline,
        capacity=config.capacity, checked=settings.checked,
        max_steps=settings.max_steps)).result()
    if response.status == "ok":
        return ("value", (response.payload or {}).get("value"))
    if response.status == "trap":
        return ("trap", response.error)
    if response.status == "checked-failure":
        return ("checked-failure", response.error)
    error = response.error or response.status
    if error.startswith("compile:"):
        return ("compile-crash", error[len("compile:"):].strip())
    if error.startswith("simulate:"):
        return ("sim-crash", error[len("simulate:"):].strip())
    return ("sim-crash", error)


#: DFS node budget for oracle-swap configs: fuzz loops are tiny, so this
#: is generous — hitting it just leaves the heuristic schedule in place
ORACLE_SWAP_BUDGET = 20_000


def _oracle_swap(compiled):
    """Swap exact-oracle modulo schedules into ``compiled``.

    Returns ``(new_compiled, None)``, or ``(None, outcome)`` when the
    swap itself crashed or produced a schedule the sanitizer rejects —
    either one is a scheduler bug, surfaced as a divergence.
    """
    from repro.analysis.lint import LintTarget, errors_only, run_rules
    from repro.sched.oracle import swap_oracle_schedules

    try:
        swapped, _ = swap_oracle_schedules(
            compiled, node_budget=ORACLE_SWAP_BUDGET)
    except Exception as exc:
        return None, ("compile-crash",
                      f"oracle-swap: {type(exc).__name__}: {exc}")
    errors = errors_only(run_rules(
        LintTarget(module=swapped.module, machine=swapped.machine,
                   modulo=swapped.modulo),
        phases=("sched",)))
    if errors:
        return None, ("checked-failure",
                      f"oracle-swap: {errors[0].format()}")
    return swapped, None


def _judge(config: Config, reference: Outcome, observed: Outcome) -> Verdict:
    status, _ = observed
    if observed == reference:
        return Verdict(config, "ok", reference, observed)
    if status == "checked-failure":
        return Verdict(config, "checked-failure", reference, observed)
    if status in ("compile-crash", "sim-crash", "frontend-error"):
        return Verdict(config, "compile-crash" if status != "sim-crash"
                       else "sim-crash", reference, observed)
    if status == "trap" or reference[0] == "trap":
        return Verdict(config, "trap-mismatch", reference, observed)
    return Verdict(config, "value-mismatch", reference, observed)


def check_program(
    source,
    configs: Sequence[Config] | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    fault: str | None = None,
) -> ProgramReport:
    """Differentially check one program (source text or FuzzProgram)."""
    from repro.fuzz.faults import inject_fault

    seed = getattr(source, "seed", None)
    source = getattr(source, "source", source)
    configs = tuple(configs) if configs is not None else default_configs()
    module = _parse(source)
    reference = reference_outcome(source, max_steps, module=module)
    report = ProgramReport(source, reference, seed=seed)
    with inject_fault(fault):
        # bases are built under the fault and dropped with it: a base
        # from a stock compile must never serve a fault-injected config
        bases: dict = {}
        for config in configs:
            observed = compiled_outcome(source, config, max_steps,
                                        module=module, bases=bases)
            report.verdicts.append(_judge(config, reference, observed))
    return report


# --------------------------------------------------------------------------
# batch fan-out over a process pool


def _fuzz_key(source: str, configs: Sequence[Config], max_steps: int,
              fault: str | None) -> str:
    return cache_key(source, "fuzz", {
        "configs": [c.as_dict() for c in configs],
        "max_steps": max_steps,
        "fault": fault,
    })


def _worker_check(source: str, configs: tuple[Config, ...], max_steps: int,
                  fault: str | None) -> bytes:
    """The pickled report plus the check-memo and frontend-memo counts it
    cost the worker, which :func:`check_many` folds into the parent's
    ``CHECK_STATS`` and ``FRONTEND_STATS``."""
    checks, frontends = CHECK_STATS.counts(), FRONTEND_STATS.counts()
    report = check_program(source, configs, max_steps, fault)
    return pickle.dumps((report, CHECK_STATS.since(checks),
                         FRONTEND_STATS.since(frontends)))


def check_many(
    programs: Sequence,
    configs: Sequence[Config] | None = None,
    workers: int | None = None,
    cache: ArtifactCache | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    fault: str | None = None,
    progress=None,
) -> list[ProgramReport]:
    """Check a batch of programs, in input order, over a process pool.

    ``programs`` holds source strings or :class:`~repro.fuzz.gen.FuzzProgram`
    objects.  ``workers <= 1`` (or a single program) runs serially.  With a
    ``cache``, verdict reports are stored under kind ``"fuzz"`` keyed by
    source + configs, so replaying an unchanged corpus hits disk only.
    ``progress`` is an optional ``callable(index, report)``.  Each
    program is checked once: a worker's exception propagates from here,
    and a worker that dies raises
    :class:`~concurrent.futures.process.BrokenProcessPool`.
    """
    configs = tuple(configs) if configs is not None else default_configs()
    seeds = [getattr(p, "seed", None) for p in programs]
    sources = [getattr(p, "source", p) for p in programs]
    results: list[ProgramReport | None] = [None] * len(sources)

    pending: list[int] = []
    for index, source in enumerate(sources):
        if cache is not None:
            hit = cache.load(_fuzz_key(source, configs, max_steps, fault),
                             "fuzz")
            if isinstance(hit, ProgramReport):
                hit.seed = seeds[index]
                results[index] = hit
                if progress is not None:
                    progress(index, hit)
                continue
        pending.append(index)

    workers = resolve_workers(workers)

    def _finish(index: int, report: ProgramReport) -> None:
        report.seed = seeds[index]
        results[index] = report
        if cache is not None:
            cache.store(_fuzz_key(sources[index], configs, max_steps, fault),
                        "fuzz", report)
        if progress is not None:
            progress(index, report)

    if workers <= 1 or len(pending) <= 1:
        for index in pending:
            _finish(index, check_program(sources[index], configs, max_steps,
                                         fault))
        return results  # type: ignore[return-value]

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {
            index: pool.submit(_worker_check, sources[index], configs,
                               max_steps, fault)
            for index in pending
        }
        for index, future in futures.items():
            report, checks, frontends = pickle.loads(future.result())
            CHECK_STATS.add(checks)
            FRONTEND_STATS.add(frontends)
            _finish(index, report)
    return results  # type: ignore[return-value]
