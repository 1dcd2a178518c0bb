"""Which public functions the traced run wraps, and what it reports.

Each :class:`Probe` names one function (``module:attr``) or method
(``module:Class.attr``) of the program, the layer it belongs to (the
module name) and a short span name.  A probe may derive the unit of work
its call belongs to from its arguments, and may run a *hook* after the
call to count what the call did; hooks run in their own ``trace`` span so
their cost shows as tracing overhead, not as the layer's time.

:data:`PER_LAYER` lists every per-layer metric with its unit, its better
direction and the end-to-end metric and workloads it should move.
``BENCHMARK.json`` carries the first three; a test keeps the two in step.
"""

from __future__ import annotations

import functools
import hashlib
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

from perfbench.patch import Patcher
from perfbench.spans import Recorder


@dataclass(frozen=True)
class Probe:
    target: str
    layer: str
    name: str
    #: ``(args, kwargs) -> unit id`` for the call and everything under it
    unit: Callable | None = None
    #: ``(recorder, state, args, kwargs, result) -> None`` after the call
    hook: Callable | None = None


# -- units -------------------------------------------------------------------


def _cell_unit(args, kwargs):
    cell = args[0]
    return f"cell:{cell.name}/{cell.pipeline}/{cell.capacity}"


def _capacity_unit(args, kwargs):
    return f"cell:{args[0]}/{args[1]}/{args[2]}"


def _base_unit(args, kwargs):
    return f"base:{args[0]}/{args[1]}"


def _program_id(source) -> str:
    text = getattr(source, "source", source)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def _program_unit(args, kwargs):
    return f"prog:{_program_id(args[0])}"


def _config_unit(args, kwargs):
    config = args[1] if len(args) > 1 else kwargs["config"]
    return f"prog:{_program_id(args[0])}/{config.label}"


def _request_unit(args, kwargs):
    # Service._run_one(self, request, base) / _base_for(self, worker, request)
    request = args[1] if not isinstance(args[1], int) else args[2]
    return f"req:{request.id}"


# -- hooks -------------------------------------------------------------------


def _count_attr(counter: str, *fields: str):
    def hook(rec, state, args, kwargs, result):
        rec.count(counter, sum(getattr(result, f, 0) for f in fields))
    return hook


def _count_int(counter: str):
    def hook(rec, state, args, kwargs, result):
        if isinstance(result, int):
            rec.count(counter, result)
    return hook


def _simulate_hook(rec, state, args, kwargs, result):
    rec.count("sim.ops_issued", result[1].ops_issued)


def _profile_hook(rec, state, args, kwargs, result):
    from repro.ir.printer import format_module

    module = args[0]
    entry = args[1] if len(args) > 1 else kwargs.get("entry", "main")
    call_args = args[2] if len(args) > 2 else kwargs.get("args")
    text = f"{entry}{list(call_args or [])}\n{format_module(module)}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    seen = state.setdefault("profiles", set())
    if digest in seen:
        rec.count("interp.profile_repeats")
    seen.add(digest)


def _cache_load_hook(rec, state, args, kwargs, result):
    cache, key, kind = args[0], args[1], args[2]
    if result is None:
        rec.count("cache.misses")
        return
    rec.count("cache.hits")
    try:
        rec.count("cache.bytes_read", cache.path_for(key, kind).stat().st_size)
    except OSError:
        pass


def _cache_store_hook(rec, state, args, kwargs, result):
    if result is None:
        return
    try:
        rec.count("cache.bytes_written", result.stat().st_size)
    except OSError:
        pass


PROBES: tuple[Probe, ...] = (
    # simulation
    Probe("repro.sim.vliw:simulate", "sim.vliw", "simulate",
          hook=_simulate_hook),
    Probe("repro.sim.interp:profile_module", "sim.interp", "profile",
          hook=_profile_hook),
    # the compiler
    Probe("repro.pipeline:compile_traditional", "pipeline", "compile"),
    Probe("repro.pipeline:compile_aggressive", "pipeline", "compile"),
    Probe("repro.opt.inline:inline_module", "opt", "inline",
          hook=_count_attr("opt.inlined_sites", "sites_inlined")),
    Probe("repro.opt.local:optimize_function", "opt", "local",
          hook=_count_attr("opt.local_rewrites", "folded",
                           "copies_propagated", "cse_hits",
                           "branches_folded")),
    Probe("repro.opt.dce:eliminate_dead_code", "opt", "dce",
          hook=_count_int("opt.dce_removed")),
    Probe("repro.opt.dce:sink_partially_dead", "opt", "dce",
          hook=_count_int("opt.dce_removed")),
    Probe("repro.opt.simplify_cfg:simplify_cfg", "opt", "cfg",
          hook=_count_int("opt.cfg_changes")),
    Probe("repro.opt.reassoc:reassociate_function", "opt", "reassoc",
          hook=_count_int("opt.reassoc_rewrites")),
    Probe("repro.predication.hyperblock:form_loop_hyperblocks",
          "predication", "hyperblock",
          hook=_count_attr("pred.hyperblocks_formed", "loops_converted")),
    Probe("repro.predication.hyperblock:form_hammock_hyperblocks",
          "predication", "hyperblock",
          hook=_count_attr("pred.hyperblocks_formed", "loops_converted")),
    Probe("repro.predication.branch_combine:combine_branches",
          "predication", "combine",
          hook=_count_attr("pred.branches_combined", "branches_combined")),
    Probe("repro.predication.promotion:promote_function",
          "predication", "promote",
          hook=_count_attr("pred.promoted", "promoted")),
    Probe("repro.predication.stats:collect_module_stats",
          "predication", "stats"),
    Probe("repro.looptrans.peel:peel_short_loops", "looptrans", "peel",
          hook=_count_attr("looptrans.loops_peeled", "loops_peeled")),
    Probe("repro.looptrans.collapse:collapse_nested_loops", "looptrans",
          "collapse",
          hook=_count_attr("looptrans.loops_collapsed", "loops_collapsed")),
    Probe("repro.looptrans.cloop:convert_counted_loops", "looptrans",
          "cloop",
          hook=_count_attr("looptrans.loops_converted", "loops_converted")),
    Probe("repro.analysis.lint.engine:run_rules", "analysis.lint", "run_rules"),
    Probe("repro.ir.verify:verify_module", "ir.verify", "verify_module"),
    Probe("repro.sched.modulo:modulo_schedule", "sched", "modulo"),
    Probe("repro.sched.list_sched:schedule_function", "sched", "list"),
    Probe("repro.pipeline:with_buffer", "loopbuffer", "retarget"),
    Probe("repro.loopbuffer.assign:assign_buffer", "loopbuffer", "assign"),
    Probe("repro.frontend.lower:compile_source", "frontend", "compile_source"),
    # inputs
    Probe("repro.bench.suite:benchmark", "bench", "lookup"),
    Probe("repro.bench.suite:Benchmark.build", "bench", "build"),
    Probe("repro.bench.suite:Benchmark.expected", "bench", "expected"),
    # the differential oracle
    Probe("repro.fuzz.oracle:check_program", "fuzz", "check",
          unit=_program_unit),
    Probe("repro.fuzz.oracle:reference_outcome", "fuzz", "reference"),
    Probe("repro.fuzz.oracle:compiled_outcome", "fuzz", "config",
          unit=_config_unit),
    # batch runner, its cache and the experiments facade
    Probe("repro.runner.cache:ArtifactCache.load", "runner.cache", "load",
          hook=_cache_load_hook),
    Probe("repro.runner.cache:ArtifactCache.store", "runner.cache", "store",
          hook=_cache_store_hook),
    Probe("repro.runner.parallel:run_grid", "runner.parallel", "run_grid"),
    Probe("repro.runner.parallel:run_cell", "runner.parallel", "run_cell",
          unit=_capacity_unit),
    Probe("repro.runner.parallel:_execute_cell", "runner.parallel", "cell",
          unit=_cell_unit),
    Probe("repro.runner.parallel:_compile_base_timed", "runner.parallel",
          "compile_base"),
    Probe("repro.experiments.common:prewarm", "experiments", "prewarm"),
    Probe("repro.experiments.common:run_at_capacity", "experiments",
          "run_at_capacity", unit=_capacity_unit),
    Probe("repro.experiments.common:compiled_base", "experiments",
          "compiled_base", unit=_base_unit),
    Probe("repro.experiments.fig3:run", "experiments", "fig3"),
    Probe("repro.experiments.fig5:run", "experiments", "fig5"),
    Probe("repro.experiments.fig7:run", "experiments", "fig7"),
    Probe("repro.experiments.fig8:run", "experiments", "fig8"),
    Probe("repro.experiments.fig3:report", "experiments", "report"),
    Probe("repro.experiments.fig5:report", "experiments", "report"),
    Probe("repro.experiments.fig7:report", "experiments", "report"),
    Probe("repro.experiments.fig8:report", "experiments", "report"),
    # the service (worker-thread side; the client side is timed by the
    # workload itself)
    Probe("repro.serve.service:Service.submit", "serve", "submit"),
    Probe("repro.serve.service:Service._execute_batch", "serve", "batch"),
    Probe("repro.serve.service:Service._base_for", "serve", "base_for",
          unit=_request_unit),
    Probe("repro.serve.service:Service._run_one", "serve", "run_one",
          unit=_request_unit),
)


def _make_wrapper(rec: Recorder, probe: Probe, state: dict):
    def make(original):
        layer, name, unit_of, hook = (probe.layer, probe.name, probe.unit,
                                      probe.hook)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            unit = unit_of(args, kwargs) if unit_of is not None else None
            with rec.unit(unit) if unit is not None else nullcontext():
                with rec.span(layer, name):
                    result = original(*args, **kwargs)
            if hook is not None:
                with rec.span("trace", "hook"):
                    hook(rec, state, args, kwargs, result)
            return result
        return wrapper
    return make


def install(patcher: Patcher, rec: Recorder,
            probes: tuple[Probe, ...] = PROBES) -> None:
    """Wrap every probe's target so its calls record spans into ``rec``."""
    state: dict = {}
    for probe in probes:
        module_name, _, attr = probe.target.partition(":")
        make = _make_wrapper(rec, probe, state)
        if "." in attr:
            class_name, method = attr.split(".")
            patcher.method(module_name, class_name, method, make)
        else:
            patcher.function(module_name, attr, make)


# -- per-layer metrics ---------------------------------------------------------

#: (name, unit, better, moves): ``moves`` names the end-to-end metric and
#: the workloads on which a change to this number should show
PER_LAYER: tuple[tuple[str, str, str, str], ...] = (
    ("req_p50_s", "s", "lower", "none: median unit latency of the untraced passes, scaled"),
    ("req_p95_s", "s", "lower", "none: tail unit latency of the untraced passes, scaled"),
    ("sim.simulate_s", "s", "lower", "wall_s on paper-cold, req_p95_s on serve-mixed; ~0 on fuzz-corpus"),
    ("sim.simulate_calls", "count", "lower", "wall_s on paper-cold, req_p95_s on serve-mixed"),
    ("sim.ops_per_s", "ops/s", "higher", "wall_s on paper-cold, req_p95_s on serve-mixed"),
    ("sim.decode_hit_frac", "frac", "higher", "wall_s on paper-cold, req_p95_s on serve-mixed"),
    ("interp.profile_s", "s", "lower", "wall_s on paper-cold and fuzz-corpus"),
    ("interp.profile_calls", "count", "lower", "wall_s on paper-cold and fuzz-corpus"),
    ("interp.profile_repeat_frac", "frac", "lower", "wall_s on paper-cold and fuzz-corpus"),
    ("pipeline.compile_s", "s", "lower", "wall_s on paper-cold and fuzz-corpus"),
    ("pipeline.self_s", "s", "lower", "wall_s on paper-cold and fuzz-corpus"),
    ("opt.inline_s", "s", "lower", "wall_s on fuzz-corpus"),
    ("opt.local_s", "s", "lower", "wall_s on fuzz-corpus"),
    ("opt.dce_s", "s", "lower", "wall_s on fuzz-corpus"),
    ("opt.cfg_s", "s", "lower", "wall_s on fuzz-corpus"),
    ("opt.reassoc_s", "s", "lower", "wall_s on fuzz-corpus"),
    ("opt.inlined_sites", "count", "higher", "static_ops and sim_cycles"),
    ("opt.local_rewrites", "count", "higher", "static_ops and sim_cycles"),
    ("opt.dce_removed", "count", "higher", "static_ops"),
    ("opt.cfg_changes", "count", "higher", "static_ops"),
    ("opt.reassoc_rewrites", "count", "higher", "sim_cycles"),
    ("pred.hyperblock_s", "s", "lower", "wall_s on fuzz-corpus"),
    ("pred.combine_s", "s", "lower", "wall_s on fuzz-corpus"),
    ("pred.promote_s", "s", "lower", "wall_s on fuzz-corpus"),
    ("pred.stats_s", "s", "lower", "wall_s on paper-warm"),
    ("pred.hyperblocks_formed", "count", "higher", "buffer_issue_frac"),
    ("pred.branches_combined", "count", "higher", "buffer_issue_frac"),
    ("pred.promoted", "count", "higher", "sim_cycles"),
    ("looptrans.s", "s", "lower", "wall_s on fuzz-corpus"),
    ("looptrans.loops_peeled", "count", "higher", "buffer_issue_frac"),
    ("looptrans.loops_collapsed", "count", "higher", "buffer_issue_frac"),
    ("looptrans.loops_converted", "count", "higher", "buffer_issue_frac"),
    ("lint.s", "s", "lower", "wall_s on fuzz-corpus; 0 on paper-*"),
    ("lint.calls", "count", "lower", "wall_s on fuzz-corpus; 0 on paper-*"),
    ("verify.s", "s", "lower", "wall_s on fuzz-corpus"),
    ("verify.calls", "count", "lower", "wall_s on fuzz-corpus"),
    ("sched.modulo_s", "s", "lower", "wall_s on fuzz-corpus and paper-cold"),
    ("sched.list_s", "s", "lower", "wall_s on fuzz-corpus and paper-cold"),
    ("sched.dep_hit_frac", "frac", "higher", "wall_s on fuzz-corpus and paper-cold"),
    ("loopbuffer.retarget_s", "s", "lower", "wall_s on paper-cold"),
    ("loopbuffer.assign_s", "s", "lower", "wall_s on paper-cold"),
    ("frontend.compile_source_s", "s", "lower", "wall_s on fuzz-corpus"),
    ("fuzz.reference_s", "s", "lower", "wall_s on fuzz-corpus"),
    ("fuzz.self_s", "s", "lower", "wall_s on fuzz-corpus"),
    ("bench.lookup_s", "s", "lower", "wall_s on paper-warm"),
    ("bench.build_s", "s", "lower", "wall_s on paper-warm"),
    ("bench.expected_s", "s", "lower", "wall_s on paper-warm"),
    ("cache.load_s", "s", "lower", "wall_s on paper-warm"),
    ("cache.store_s", "s", "lower", "wall_s on paper-cold, req_p95_s on serve-mixed"),
    ("cache.hit_frac", "frac", "higher", "wall_s on paper-warm"),
    ("cache.bytes_read", "bytes", "lower", "wall_s on paper-warm"),
    ("cache.bytes_written", "bytes", "lower", "wall_s on paper-cold and serve-mixed"),
    ("runner.self_s", "s", "lower", "wall_s on paper-warm and paper-cold"),
    ("experiments.self_s", "s", "lower", "wall_s on paper-warm"),
    ("serve.queue_wait_s", "s", "lower", "req_p95_s on serve-mixed"),
    ("serve.self_s", "s", "lower", "req_p95_s on serve-mixed"),
    ("serve.run_hit_frac", "frac", "higher", "req_p50_s on serve-mixed"),
    ("serve.coalesced_frac", "frac", "higher", "req_p95_s on serve-mixed"),
    ("serve.base_memo_hit_frac", "frac", "higher", "req_p95_s on serve-mixed"),
    ("serve.computations", "count", "lower", "wall_s on serve-mixed"),
    ("trace.hook_s", "s", "lower", "none: tracing cost of the counting hooks"),
    ("trace.spans", "count", "lower", "none: spans recorded in the traced pass"),
    ("trace.wall_s", "s", "lower", "wall_s of the traced pass"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced wall_s over untraced wall_s"),
    ("trace.coverage", "frac", "higher", "none: summed self time over traced wall_s"),
)

#: (layer, span name) -> metric for the self-time rows
_SELF_METRICS = {
    ("sim.vliw", "simulate"): "sim.simulate_s",
    ("sim.interp", "profile"): "interp.profile_s",
    ("pipeline", "compile"): "pipeline.self_s",
    ("opt", "inline"): "opt.inline_s",
    ("opt", "local"): "opt.local_s",
    ("opt", "dce"): "opt.dce_s",
    ("opt", "cfg"): "opt.cfg_s",
    ("opt", "reassoc"): "opt.reassoc_s",
    ("predication", "hyperblock"): "pred.hyperblock_s",
    ("predication", "combine"): "pred.combine_s",
    ("predication", "promote"): "pred.promote_s",
    ("predication", "stats"): "pred.stats_s",
    ("sched", "modulo"): "sched.modulo_s",
    ("sched", "list"): "sched.list_s",
    ("loopbuffer", "retarget"): "loopbuffer.retarget_s",
    ("loopbuffer", "assign"): "loopbuffer.assign_s",
    ("frontend", "compile_source"): "frontend.compile_source_s",
    ("fuzz", "reference"): "fuzz.reference_s",
    ("bench", "lookup"): "bench.lookup_s",
    ("bench", "build"): "bench.build_s",
    ("bench", "expected"): "bench.expected_s",
    ("runner.cache", "load"): "cache.load_s",
    ("runner.cache", "store"): "cache.store_s",
}

#: layer -> metric for whole-layer self time
_LAYER_METRICS = {
    "looptrans": "looptrans.s",
    "analysis.lint": "lint.s",
    "ir.verify": "verify.s",
    "fuzz": "fuzz.self_s",
    "runner.parallel": "runner.self_s",
    "experiments": "experiments.self_s",
    "serve": "serve.self_s",
    "trace": "trace.hook_s",
}


def _frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(rec: Recorder, wall_s: float, untraced_wall_s: float,
                  extra: dict[str, float]) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric for one traced pass.

    ``extra`` carries the counters the program keeps itself (decode
    store, dependence cache, service stats); ``wall_s`` is the traced
    pass's wall time and ``untraced_wall_s`` the untraced median.
    """
    by_name = rec.by_name()
    by_layer = rec.by_layer()
    counts = rec.counts
    m: dict[str, float] = {name: 0.0 for name, *_ in PER_LAYER}
    for key, metric in _SELF_METRICS.items():
        m[metric] = by_name.get(key, 0.0)
    for layer, metric in _LAYER_METRICS.items():
        m[metric] = by_layer.get(layer, 0.0)

    simulate_calls = len(rec.outer("sim.vliw", "simulate"))
    m["sim.simulate_calls"] = simulate_calls
    m["sim.ops_per_s"] = _frac(counts["sim.ops_issued"],
                               rec.inclusive("sim.vliw", "simulate"))
    profile_calls = len(rec.outer("sim.interp", "profile"))
    m["interp.profile_calls"] = profile_calls
    m["interp.profile_repeat_frac"] = _frac(counts["interp.profile_repeats"],
                                            profile_calls)
    m["pipeline.compile_s"] = rec.inclusive("pipeline", "compile")
    for counter in ("opt.inlined_sites", "opt.local_rewrites",
                    "opt.dce_removed", "opt.cfg_changes",
                    "opt.reassoc_rewrites", "pred.hyperblocks_formed",
                    "pred.branches_combined", "pred.promoted",
                    "looptrans.loops_peeled", "looptrans.loops_collapsed",
                    "looptrans.loops_converted", "cache.bytes_read",
                    "cache.bytes_written"):
        m[counter] = counts[counter]
    m["lint.calls"] = len(rec.outer("analysis.lint", "run_rules"))
    m["verify.calls"] = len(rec.outer("ir.verify", "verify_module"))
    m["cache.hit_frac"] = _frac(counts["cache.hits"],
                                counts["cache.hits"] + counts["cache.misses"])
    m["serve.queue_wait_s"] = queue_wait(rec)
    m["trace.spans"] = len(rec.spans)
    m["trace.wall_s"] = wall_s
    m["trace.overhead_ratio"] = _frac(wall_s, untraced_wall_s)
    m["trace.coverage"] = _frac(sum(by_layer.values()), wall_s)
    m.update(extra)
    return m


def queue_wait(rec: Recorder) -> float:
    """Summed over requests: client latency minus the wall time the
    service spent computing for that request (its ``base_for`` and
    ``run_one`` spans); a coalesced request computed nothing itself."""
    compute: dict[str, float] = {}
    for span in rec.spans:
        if span.layer == "serve" and span.name in ("base_for", "run_one"):
            compute[span.unit] = (compute.get(span.unit, 0.0)
                                  + span.duration(cpu=False))
    total = 0.0
    for span in rec.outer("serve", "request"):
        total += max(0.0, span.duration(cpu=False)
                     - compute.get(span.unit, 0.0))
    return total
