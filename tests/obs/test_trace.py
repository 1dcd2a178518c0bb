"""Tracer core: span timing/nesting, instants, the null fast path and the
process-global installation protocol."""

import pytest

from repro import obs
from repro.obs import NULL_TRACER, NullTracer, Tracer
from repro.obs.trace import _NULL_SPAN


class FakeClock:
    """Deterministic perf_counter: advances only when told to."""

    def __init__(self) -> None:
        self.t = 100.0

    def __call__(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


class TestTracer:
    def test_span_times_and_nests(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer", category="pipeline") as outer:
            clock.advance(0.001)
            with tracer.span("inner") as inner:
                clock.advance(0.002)
            clock.advance(0.003)
        assert outer.ts_us == 0.0
        assert outer.dur_us == pytest.approx(6000.0)
        assert inner.ts_us == pytest.approx(1000.0)
        assert inner.dur_us == pytest.approx(2000.0)
        assert (outer.depth, inner.depth) == (0, 1)
        assert tracer.open_spans == 0
        assert [s.name for s in tracer.spans] == ["outer", "inner"]

    def test_annotate_targets_innermost(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                tracer.annotate(ii=4)
            tracer.annotate(loops=2)
        assert inner.attrs == {"ii": 4}
        assert outer.attrs == {"loops": 2}
        tracer.annotate(ignored=True)  # no open span: a no-op
        assert "ignored" not in outer.attrs

    def test_exception_closes_span_and_marks_error(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        assert tracer.open_spans == 0
        assert tracer.spans[0].attrs["error"] == "ValueError"
        assert tracer.spans[0].dur_us is not None

    def test_instant_clock_domains(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        clock.advance(0.005)
        tracer.instant("wall_event")
        tracer.instant("sim_event", category="sim", ts=1234, clock="cycles")
        wall, sim = tracer.events
        assert wall.clock == "wall"
        assert wall.ts == pytest.approx(5000.0)
        assert sim.clock == "cycles"
        assert sim.ts == 1234

    def test_payload_shape(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("p", category="pass", scope="main"):
            pass
        tracer.instant("e", loop="main/L1")
        payload = tracer.to_payload()
        assert set(payload) == {"spans", "events"}
        (span,) = payload["spans"]
        assert span["name"] == "p" and span["cat"] == "pass"
        assert span["args"] == {"scope": "main"}
        (event,) = payload["events"]
        assert event["args"] == {"loop": "main/L1"}


class TestNullTracer:
    def test_span_is_shared_singleton(self):
        spans = {id(NULL_TRACER.span(f"s{i}", x=i)) for i in range(5)}
        assert spans == {id(_NULL_SPAN)}

    def test_all_operations_noop(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        with tracer.span("x") as span:
            span.annotate(ignored=1)
        tracer.instant("y", ts=1, clock="cycles")
        tracer.annotate(z=2)
        assert tracer.to_payload() == {"spans": [], "events": []}


class TestGlobalTracer:
    def test_defaults_to_null(self):
        assert obs.get_tracer() is NULL_TRACER

    def test_use_installs_and_restores(self):
        tracer = Tracer()
        with obs.use(tracer):
            assert obs.get_tracer() is tracer
            with obs.use(None):  # nests: None installs the null tracer
                assert obs.get_tracer() is NULL_TRACER
            assert obs.get_tracer() is tracer
        assert obs.get_tracer() is NULL_TRACER

    def test_use_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with obs.use(Tracer()):
                raise RuntimeError
        assert obs.get_tracer() is NULL_TRACER


class TestTraceDirFromEnv:
    @pytest.mark.parametrize("value", ["", "0", "false", "no", " "])
    def test_falsey(self, value):
        assert obs.trace_dir_from_env(value) is None

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on", "True"])
    def test_flag(self, value):
        assert obs.trace_dir_from_env(value) == obs.DEFAULT_TRACE_DIR

    def test_path(self):
        assert obs.trace_dir_from_env("/tmp/traces") == "/tmp/traces"

    def test_reads_environment(self, monkeypatch):
        monkeypatch.setenv(obs.ENV_TRACE, "somewhere")
        assert obs.trace_dir_from_env() == "somewhere"
        monkeypatch.delenv(obs.ENV_TRACE)
        assert obs.trace_dir_from_env() is None
