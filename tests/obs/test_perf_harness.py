"""Unified bench harness: specs, repeated samples, ratios, injection."""

import json

import pytest

from repro.obs.perf import harness
from repro.obs.perf.harness import (
    BenchError,
    BenchSpec,
    RatioSpec,
    Sample,
    check_budget,
    config_hash,
    fingerprint_key,
    mad,
    parse_injections,
    register,
    run_bench,
    run_suite,
)


@pytest.fixture
def registry():
    """Snapshot the global spec registry and restore it afterwards."""
    saved = dict(harness._REGISTRY)
    yield harness._REGISTRY
    harness._REGISTRY.clear()
    harness._REGISTRY.update(saved)


def _spec(name, values, phases=None, digest=None, group=None, **kw):
    """A toy spec yielding ``values`` in sequence (cycling the last)."""
    state = {"i": 0}

    def fn(mode):
        i = min(state["i"], len(values) - 1)
        state["i"] += 1
        meta = {"digest": digest} if digest is not None else {}
        return Sample(value=values[i],
                      phases=dict(phases or {}), meta=meta)

    return register(BenchSpec(
        name=name, fn=fn, config_fn=lambda mode: {"toy": True},
        digest_group=group, **kw))


class TestStatistics:
    def test_mad_is_robust_center_spread(self):
        assert mad([]) == 0.0
        assert mad([5.0, 5.0, 5.0]) == 0.0
        assert mad([1.0, 2.0, 3.0, 100.0]) == 1.0

    def test_config_hash_stable_and_order_insensitive(self):
        a = config_hash({"x": 1, "y": [2, 3]})
        b = config_hash({"y": [2, 3], "x": 1})
        assert a == b and len(a) == 12
        assert config_hash({"x": 2}) != a

    def test_fingerprint_key_ignores_extra_fields(self):
        env = {"python": "3.11", "platform": "p", "cpu_count": 4}
        assert fingerprint_key(env) == \
            fingerprint_key(dict(env, extra="ignored"))


class TestRunBench:
    def test_samples_phases_and_record(self, registry):
        spec = _spec("t.a", [0.3, 0.1, 0.2], phases={"work": 0.05})
        result = run_bench(spec, mode="quick", samples=3, injections={})
        assert result.samples == [0.3, 0.1, 0.2]
        assert result.median == 0.2
        assert result.phases["work"] == [0.05, 0.05, 0.05]
        assert result.config["bench"] == "t.a"
        assert result.config["mode"] == "quick"
        record = result.as_record()
        assert json.loads(json.dumps(record)) == record
        assert record["schema"] == harness.SCHEMA
        assert record["median"] == 0.2

    def test_divergent_digest_across_repeats_aborts(self, registry):
        state = {"i": 0}

        def fn(mode):
            state["i"] += 1
            return Sample(value=0.1, meta={"digest": f"d{state['i']}"})

        spec = register(BenchSpec(
            name="t.flaky", fn=fn, config_fn=lambda mode: {}))
        with pytest.raises(BenchError, match="non-deterministic"):
            run_bench(spec, samples=2, injections={})

    def test_injection_scales_phase_and_value(self, registry):
        spec = _spec("t.inj", [1.0], phases={"list": 0.4, "modulo": 0.1})
        result = run_bench(spec, samples=1,
                           injections={("t.inj", "list"): 3.0})
        assert result.phases["list"] == [pytest.approx(1.2)]
        assert result.phases["modulo"] == [0.1]
        assert result.samples == [pytest.approx(1.8)]  # +0.8 from the phase
        assert result.meta["injected"] == ["listx3"]

    def test_parse_injections(self):
        assert parse_injections("a:b:2.5, c:d:3") == \
            {("a", "b"): 2.5, ("c", "d"): 3.0}
        assert parse_injections("") == {}
        with pytest.raises(BenchError, match="bad"):
            parse_injections("nonsense")


class TestSuite:
    def test_ratio_derived_sample_wise(self, registry):
        _spec("t.slow", [1.0, 2.0], digest="d")
        _spec("t.fast", [0.5, 0.5], digest="d")
        register(RatioSpec(name="t.speedup", numerator="t.slow",
                           denominator="t.fast"))
        results = run_suite(["t.speedup"], samples=2, injections={})
        assert set(results) == {"t.slow", "t.fast", "t.speedup"}
        ratio = results["t.speedup"]
        assert ratio.samples == [2.0, 4.0]
        assert ratio.unit == "x" and ratio.direction == "higher"

    def test_digest_group_divergence_aborts(self, registry):
        _spec("t.ref", [1.0], digest="AAA", group="t")
        _spec("t.opt", [0.5], digest="BBB", group="t")
        with pytest.raises(BenchError, match="diverged"):
            run_suite(["t.ref", "t.opt"], samples=1, injections={})

    def test_matching_digest_group_passes(self, registry):
        _spec("t.ref", [1.0], digest="AAA", group="t")
        _spec("t.opt", [0.5], digest="AAA", group="t")
        results = run_suite(["t.ref", "t.opt"], samples=1, injections={})
        assert results["t.ref"].meta["digest"] == "AAA"


class TestBudgets:
    def test_floor_for_higher_better(self, registry):
        spec = _spec("t.ratio", [1.5], unit="x", direction="higher",
                     budgets={"quick": 2.0})
        result = run_bench(spec, mode="quick", samples=1, injections={})
        assert "below budget floor" in check_budget(result)

    def test_ceiling_for_lower_better(self, registry):
        spec = _spec("t.overhead", [1.2], unit="x",
                     budgets={"quick": 1.10})
        result = run_bench(spec, mode="quick", samples=1, injections={})
        assert "above budget ceiling" in check_budget(result)

    def test_within_budget_is_none(self, registry):
        spec = _spec("t.ok", [1.05], unit="x", budgets={"quick": 1.10})
        result = run_bench(spec, mode="quick", samples=1, injections={})
        assert check_budget(result) is None

    def test_no_budget_for_mode_is_none(self, registry):
        spec = _spec("t.free", [9.9], budgets={"full": 1.0})
        result = run_bench(spec, mode="quick", samples=1, injections={})
        assert check_budget(result) is None


class TestBuiltins:
    def test_builtin_specs_registered(self):
        names = harness.bench_names()
        for name in ("sim.ref", "sim.fast", "sim.speedup", "obs.off",
                     "obs.on", "obs.overhead"):
            assert name in names

    def test_unknown_bench_raises(self):
        with pytest.raises(BenchError, match="unknown bench"):
            harness.get_spec("no.such.bench")
