"""Pipeline/simulator instrumentation: span coverage, the disabled fast
path, nesting under checked mode and per-loop counter consistency."""

from repro import obs
from repro.bench import benchmark
from repro.obs import NULL_TRACER, NullTracer, Tracer
from repro.pipeline import compile_aggressive, compile_traditional, run_compiled
from repro.sched.cache import clear_caches
from repro.sim.vliw import LoopFetchStats, SimCounters


class CountingNullTracer(NullTracer):
    """Disabled tracer that counts every API touch: the fast-path probe.

    ``_PassChecker.run`` and the schedulers must not even *call* ``span``
    when tracing is off — the only permitted touch is the ``enabled``
    attribute read.
    """

    __slots__ = ("span_calls", "instant_calls")

    def __init__(self) -> None:
        self.span_calls = 0
        self.instant_calls = 0

    def span(self, name, category="pass", **attrs):
        self.span_calls += 1
        return super().span(name, category, **attrs)

    def instant(self, name, category="event", ts=None, clock="wall", **attrs):
        self.instant_calls += 1


def _compile_and_run(tracer=None, checked=False, pipeline=compile_aggressive):
    """Compile and run adpcm_enc with ``tracer`` installed (``None``:
    the null tracer)."""
    bench = benchmark("adpcm_enc")
    with obs.use(tracer):
        compiled = pipeline(bench.build(), entry=bench.entry,
                            args=bench.args, buffer_capacity=256,
                            checked=checked)
        return run_compiled(compiled)


class TestDisabledFastPath:
    def test_no_per_pass_tracer_calls_when_disabled(self):
        probe = CountingNullTracer()
        outcome = _compile_and_run(tracer=probe)
        assert outcome.result.value == benchmark("adpcm_enc").expected()
        # only the five pipeline-level group spans touch the disabled
        # tracer (compile root, modulo group, list group, with_buffer,
        # simulate); per-pass / per-block / per-function sites never
        # call span()
        assert probe.span_calls == 5
        assert probe.instant_calls == 0
        traced = Tracer()
        _compile_and_run(tracer=traced)
        assert len(traced.spans) > probe.span_calls

    def test_disabled_and_enabled_runs_agree(self):
        baseline = _compile_and_run(tracer=NULL_TRACER)
        traced = _compile_and_run(tracer=Tracer())
        assert traced.counters == baseline.counters


class TestSpanCoverage:
    def test_every_pass_spanned(self):
        tracer = Tracer()
        _compile_and_run(tracer=tracer)
        assert tracer.open_spans == 0
        names = [s.name for s in tracer.spans]
        for expected in ("compile_aggressive", "modulo_schedule",
                         "assign_buffer", "list_schedule", "simulate",
                         "simplify_cfg", "eliminate_dead_code"):
            assert expected in names, expected
        root = tracer.spans[0]
        assert root.name == "compile_aggressive" and root.depth == 0
        # pass spans carry IR-shape deltas
        peel = next(s for s in tracer.spans if s.name == "peel_short_loops")
        assert {"ops", "blocks", "hyperblocks", "d_ops"} <= set(peel.attrs)

    def test_frontend_memo_hit_has_no_pass_spans(self):
        clear_caches()
        first, second = Tracer(), Tracer()
        _compile_and_run(tracer=first, pipeline=compile_traditional)
        _compile_and_run(tracer=second)
        spans = {}
        for tracer in (first, second):
            (frontend,) = [s for s in tracer.spans if s.name == "frontend"]
            inside = [s for s in tracer.spans
                      if s.depth > frontend.depth
                      and frontend.ts_us <= s.ts_us
                      <= frontend.ts_us + frontend.dur_us]
            spans[frontend.attrs["memo"]] = {s.name for s in inside}
        assert set(spans) == {"miss", "hit"}
        assert {"inline_module", "simplify_cfg"} <= spans["miss"]
        assert spans["hit"] == set()

    def test_traditional_pipeline_root_span(self):
        tracer = Tracer()
        _compile_and_run(tracer=tracer, pipeline=compile_traditional)
        assert tracer.spans[0].name == "compile_traditional"

    def test_modulo_spans_record_achieved_vs_min_ii(self):
        tracer = Tracer()
        _compile_and_run(tracer=tracer)
        loop_spans = [s for s in tracer.spans
                      if s.category == "sched" and s.name.startswith("modulo:")]
        assert loop_spans
        for span in loop_spans:
            assert span.attrs["ii"] >= span.attrs["min_ii"]
            assert span.attrs["mve_factor"] >= 1
            assert span.attrs["buffered_ops"] \
                == span.attrs["kernel_ops"] * span.attrs["mve_factor"]

    def test_nesting_under_checked_mode(self):
        tracer = Tracer()
        _compile_and_run(tracer=tracer, checked=True)
        assert tracer.open_spans == 0
        checks = [s for s in tracer.spans if s.category == "check"]
        assert checks, "checked mode should open check spans"
        # each check:<name> nests inside the pass span of the same name
        for check in checks:
            assert check.depth >= 1
            parents = [s for s in tracer.spans
                       if s.depth == check.depth - 1
                       and s.ts_us <= check.ts_us]
            assert parents, check.name

    def test_simulate_span_attrs(self):
        tracer = Tracer()
        outcome = _compile_and_run(tracer=tracer)
        sim = next(s for s in tracer.spans if s.name == "simulate")
        assert sim.attrs["ops_issued"] == outcome.counters.ops_issued
        assert sim.attrs["ops_from_buffer"] == outcome.counters.ops_from_buffer


class TestPerLoopCounters:
    def test_per_loop_sums_match_aggregate(self):
        outcome = _compile_and_run()
        counters = outcome.counters
        assert counters.per_loop, "expected at least one recorded loop"
        assert sum(s.ops_from_buffer for s in counters.per_loop.values()) \
            == counters.ops_from_buffer
        for stats in counters.per_loop.values():
            assert 0.0 <= stats.buffer_issue_fraction <= 1.0
            assert stats.records >= 1
            assert stats.buffered_passes <= stats.passes

    def test_outcome_per_loop_fractions(self):
        outcome = _compile_and_run()
        fractions = outcome.per_loop_buffer_fractions()
        assert set(fractions) == set(outcome.per_loop)
        assert all(0.0 <= f <= 1.0 for f in fractions.values())

    def test_lifecycle_events_and_metrics(self):
        tracer = Tracer()
        outcome = _compile_and_run(tracer=tracer)
        records = [e for e in tracer.events if e.name == "buffer_record"]
        assert records
        assert all(e.clock == "cycles" for e in records)
        (sim,) = [s for s in tracer.spans if s.name == "simulate"]
        loops = sim.attrs["loops"]
        assert loops == {
            key: {"buffer": s.ops_from_buffer, "memory": s.ops_from_memory,
                  "record": s.records, "hit": s.residency_hits,
                  "evict": s.evictions}
            for key, s in outcome.counters.per_loop.items()}
        assert sum(row["record"] for row in loops.values()) == len(records)
        assert sum(row["buffer"] for row in loops.values()) \
            == outcome.counters.ops_from_buffer


class TestFractionGuards:
    def test_sim_counters_zero_ops(self):
        assert SimCounters().buffer_issue_fraction == 0.0

    def test_loop_stats_zero_fetches(self):
        assert LoopFetchStats().buffer_issue_fraction == 0.0

    def test_outcome_zero_ops(self):
        from repro.pipeline import SimulationOutcome

        outcome = SimulationOutcome(result=None, counters=SimCounters(),
                                    buffer=None, energy=None)
        assert outcome.buffer_issue_fraction == 0.0
        assert outcome.per_loop_buffer_fractions() == {}
