"""Tests for the differential interp-vs-VLIW oracle."""

import pickle
from pathlib import Path

import pytest

import repro.fuzz.oracle as oracle_mod
from repro.frontend import compile_source
from repro.fuzz.corpus import Corpus
from repro.fuzz.gen import generate
from repro.fuzz.oracle import (
    DEFAULT_MAX_STEPS,
    Config,
    check_many,
    check_program,
    compiled_outcome,
    default_configs,
    oracle_configs,
    reference_outcome,
    service_configs,
)
from repro.memo import clear_caches
from repro.pipeline import (
    COMPILERS,
    CheckedModeError,
    _module_digest,
    run_compiled,
    with_buffer,
)
from repro.runner.cache import ArtifactCache
from repro.sched.cache import FRONTEND_STATS

CLEAN_SEED = 3
#: these seeds are known to diverge under the named injected fault (see
#: tests/fuzz/test_reduce.py, which minimizes them)
FAULTY = {"cloop-reload-off-by-one": 4, "dce-drop-store": 1,
          "ifconvert-guard-drop": 19, "rec-num-short": 6}

SMALL_GRID = default_configs(capacities=(None, 16), checked=False)


class TestConfig:
    def test_label(self):
        assert Config("aggressive", 64, True).label == "aggressive@64+checked"
        assert Config("traditional").label == "traditional@none"

    def test_dict_roundtrip(self):
        config = Config("aggressive", 16, True)
        assert Config.from_dict(config.as_dict()) == config

    def test_default_grid_shape(self):
        grid = default_configs()
        assert len(grid) == 2 * 3
        assert all(c.checked for c in grid)
        assert len(set(grid)) == len(grid)

    def test_sched_oracle_label_and_roundtrip(self):
        config = Config("traditional", 64, sched_oracle=True)
        assert config.label == "traditional@64+oracle"
        assert Config.from_dict(config.as_dict()) == config

    def test_sched_oracle_off_keeps_legacy_dict_shape(self):
        # pre-flag cache keys and corpus JSON must not change
        assert "sched_oracle" not in Config("traditional", 64).as_dict()

    def test_oracle_grid_shape(self):
        grid = oracle_configs()
        assert grid and all(c.sched_oracle for c in grid)
        assert len(set(grid)) == len(grid)

    def test_retarget_direct_keeps_legacy_dict_shape(self):
        # cache keys and corpus JSON keep their shape, and a dict written
        # while configs still had a retarget or an engine axis loads as
        # the plain config
        config = Config("traditional", 64)
        assert config.as_dict() == {"pipeline": "traditional",
                                    "capacity": 64, "checked": False}
        assert config.label == "traditional@64"
        for legacy in ({"retarget": "overlay"}, {"engine": "fast"},
                       {"engine": "ref"},
                       {"engine": "ref", "retarget": "direct"}):
            assert Config.from_dict({**config.as_dict(), **legacy}) == config


class TestSchedOracleConfig:
    def test_oracle_swap_agrees_with_reference(self):
        program = generate(CLEAN_SEED)
        configs = (Config("traditional", 16, sched_oracle=True),
                   Config("aggressive", 16, sched_oracle=True))
        report = check_program(program, configs)
        assert report.ok, [v.describe() for v in report.divergences]


class TestRetargetConfig:
    def test_retarget_agrees_with_reference(self, monkeypatch):
        # every capacity config reaches its capacity through with_buffer
        import repro.pipeline as pipeline_mod

        calls = []
        real = pipeline_mod.with_buffer

        def counting(base, capacity, **kwargs):
            calls.append(capacity)
            return real(base, capacity, **kwargs)

        monkeypatch.setattr(pipeline_mod, "with_buffer", counting)
        program = generate(CLEAN_SEED)
        report = check_program(program, default_configs(capacities=(16,)))
        assert report.ok, [v.describe() for v in report.divergences]
        assert calls == [16, 16]


class TestReferenceOutcome:
    def test_value(self):
        assert reference_outcome("int main() { return 42; }") == ("value", 42)

    def test_frontend_error(self):
        status, detail = reference_outcome("int main() { return 1 + ; }")
        assert status == "frontend-error"
        assert detail

    def test_trap(self):
        status, detail = reference_outcome(
            "int main() { int a = 0; return 1 / a; }")
        assert status == "trap"

    def test_step_limit_is_a_trap(self):
        src = ("int main() {\n    int s = 0;\n"
               "    for (int i = 0; i < 100000; i++) { s += i; }\n"
               "    return s;\n}")
        assert reference_outcome(src, max_steps=100)[0] == "trap"


class TestCheckProgram:
    def test_clean_program_has_no_divergences(self):
        report = check_program(generate(CLEAN_SEED), SMALL_GRID)
        assert report.ok
        assert len(report.verdicts) == len(SMALL_GRID)
        assert report.seed == CLEAN_SEED

    def test_accepts_raw_source(self):
        report = check_program("int main() { return 7; }", SMALL_GRID)
        assert report.ok
        assert report.seed is None

    def test_matching_traps_are_not_divergences(self):
        # both sides trap on division by zero: parity, not divergence
        report = check_program("int main() { int a = 0; return 9 / a; }",
                               SMALL_GRID)
        assert report.reference[0] == "trap"
        assert report.ok

    @pytest.mark.parametrize("fault,seed", sorted(FAULTY.items()))
    def test_injected_fault_is_caught(self, fault, seed):
        report = check_program(generate(seed), fault=fault)
        assert not report.ok
        kinds = {v.kind for v in report.divergences}
        assert kinds <= {"value-mismatch", "trap-mismatch",
                         "checked-failure", "compile-crash", "sim-crash"}

    def test_buffer_fault_is_a_checked_failure(self):
        # every buffering config of the program records a loop; each is
        # rejected by the checked retarget's buffer rules, never run
        report = check_program(generate(FAULTY["rec-num-short"]),
                               fault="rec-num-short")
        buffered = [v for v in report.verdicts if v.config.capacity]
        assert buffered and all(v.kind == "checked-failure"
                                for v in buffered)
        assert all(v.ok for v in report.verdicts if not v.config.capacity)
        assert all("buffer-residency" in v.observed[1] for v in buffered)

    def test_fault_does_not_leak(self):
        check_program(generate(FAULTY["cloop-reload-off-by-one"]),
                      SMALL_GRID, fault="cloop-reload-off-by-one")
        # after the faulty check the same program must be clean again
        assert check_program(generate(FAULTY["cloop-reload-off-by-one"]),
                             SMALL_GRID).ok

    def test_fault_after_stock_run_is_not_served_stock_artifacts(self):
        """The service's base and class memos are keyed without the
        patched functions: a stock run of the same program once left
        artifacts that answered the faulted run, hiding the fault."""
        program = generate(FAULTY["dce-drop-store"])
        clear_caches()
        fresh = check_program(program, service_configs(),
                              fault="dce-drop-store")
        clear_caches()
        assert check_program(program, service_configs()).ok
        after_stock = check_program(program, service_configs(),
                                    fault="dce-drop-store")
        assert not fresh.ok
        assert len(after_stock.divergences) == len(fresh.divergences)

    def test_stock_after_fault_is_not_served_faulted_artifacts(self):
        """...and the reverse: a faulted run's artifacts once answered
        the next stock run with false value mismatches."""
        program = generate(FAULTY["dce-drop-store"])
        clear_caches()
        assert not check_program(program, service_configs(),
                                 fault="dce-drop-store").ok
        # the fault's memo clears keep the counters a fuzz run reports
        assert FRONTEND_STATS.counts() != (0, 0, 0)
        report = check_program(program, service_configs())
        assert report.ok, [v.describe() for v in report.divergences]

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError, match="unknown fault"):
            check_program(generate(0), SMALL_GRID, fault="no-such-fault")


class TestCheckMany:
    def test_serial_matches_input_order(self):
        programs = [generate(seed) for seed in range(4)]
        reports = check_many(programs, SMALL_GRID, workers=0)
        assert [r.seed for r in reports] == [0, 1, 2, 3]
        assert all(r.ok for r in reports)

    def test_pool_matches_serial(self):
        programs = [generate(seed) for seed in range(4)]
        serial = check_many(programs, SMALL_GRID, workers=0)
        pooled = check_many(programs, SMALL_GRID, workers=2)
        assert [(r.seed, r.ok, r.reference) for r in serial] == \
            [(r.seed, r.ok, r.reference) for r in pooled]

    def test_cache_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        programs = [generate(seed) for seed in range(3)]
        first = check_many(programs, SMALL_GRID, workers=0, cache=cache)
        stored = cache.stats.stores
        assert stored == len(programs)
        second = check_many(programs, SMALL_GRID, workers=0, cache=cache)
        assert cache.stats.hits >= len(programs)
        assert [r.reference for r in first] == [r.reference for r in second]

    def test_cache_key_isolates_fault(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        program = generate(FAULTY["dce-drop-store"])
        clean = check_many([program], workers=0, cache=cache)[0]
        faulty = check_many([program], workers=0, cache=cache,
                            fault="dce-drop-store")[0]
        assert clean.ok and not faulty.ok

    def test_progress_callback(self):
        seen = []
        check_many([generate(0), generate(1)], SMALL_GRID, workers=0,
                   progress=lambda index, report: seen.append(index))
        assert seen == [0, 1]

    def test_dead_worker_fails_the_batch(self, monkeypatch):
        import multiprocessing
        import os
        from concurrent.futures.process import BrokenProcessPool

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched check reaches workers only under fork")
        parent, real, parent_checks = os.getpid(), check_program, []

        def check(source, *args):
            if os.getpid() != parent:
                os._exit(1)
            parent_checks.append(source)
            return real(source, *args)

        # the patched module global reaches the forked workers
        monkeypatch.setattr(oracle_mod, "check_program", check)
        with pytest.raises(BrokenProcessPool):
            check_many([generate(0), generate(1)], SMALL_GRID, workers=2)
        assert parent_checks == []


CORPUS_DIR = Path(__file__).resolve().parent.parent / "fuzz_corpus"


def _count_parses(monkeypatch) -> list:
    """Record each parse the oracle makes: the module and its digest, or
    ``None`` for a source the frontend rejects."""
    parsed = []

    def counting(source, *args, **kwargs):
        parsed.append(None)
        module = compile_source(source, *args, **kwargs)
        parsed[-1] = (module, _module_digest(module, uids=True))
        return module

    monkeypatch.setattr(oracle_mod, "compile_source", counting)
    return parsed


def _count_compiles(monkeypatch, replace=None) -> list:
    """Record each pipeline compile as ``(pipeline, buffer_capacity)``;
    ``replace`` maps a pipeline to the compiler to call instead."""
    calls = []
    for name, compiler in list(COMPILERS.items()):
        compiler = (replace or {}).get(name, compiler)

        def counting(module, *args, _name=name, _compiler=compiler,
                     **kwargs):
            calls.append((_name, kwargs.get("buffer_capacity", 256)))
            return _compiler(module, *args, **kwargs)

        monkeypatch.setitem(COMPILERS, name, counting)
    return calls


class TestSharedBases:
    """check_program parses once and compiles one base per pipeline."""

    def test_one_parse_and_one_base_per_pipeline(self, monkeypatch):
        program = generate(CLEAN_SEED)
        configs = default_configs()
        parsed = _count_parses(monkeypatch)
        compiles = _count_compiles(monkeypatch)
        report = check_program(program, configs)
        assert len(parsed) == 1
        assert compiles == [("traditional", None), ("aggressive", None)]
        assert report.ok, [v.describe() for v in report.divergences]
        assert [v.observed for v in report.verdicts] == [
            compiled_outcome(program.source, config) for config in configs]

    @pytest.mark.parametrize("error,kind", [
        (CheckedModeError("promote_function", []), "checked-failure"),
        (RuntimeError("planted"), "compile-crash"),
    ], ids=["checked", "crash"])
    def test_failed_base_is_reported_per_config(self, monkeypatch, error,
                                                kind):
        def failing(module, **kwargs):
            raise error

        program = generate(CLEAN_SEED)
        configs = default_configs()
        compiles = _count_compiles(monkeypatch, {"aggressive": failing})
        report = check_program(program, configs)
        assert [call for call in compiles if call[0] == "aggressive"] == [
            ("aggressive", None)]
        for verdict in report.verdicts:
            if verdict.config.pipeline == "traditional":
                assert verdict.ok, verdict.describe()
            else:
                assert verdict.kind == kind
                assert verdict.observed == compiled_outcome(
                    program.source, verdict.config)

    def test_frontend_error_parses_once(self, monkeypatch):
        parsed = _count_parses(monkeypatch)
        report = check_program("int main() { return 1 + ; }", SMALL_GRID)
        assert parsed == [None]
        assert report.reference[0] == "frontend-error"
        assert report.ok
        assert {v.observed for v in report.verdicts} == {report.reference}


def _snapshot(compiled) -> bytes:
    return pickle.dumps((compiled.module, compiled.schedules,
                         compiled.modulo, compiled.profile,
                         compiled.pass_trace, compiled.stats))


@pytest.mark.parametrize("entry", Corpus(CORPUS_DIR).entries(),
                         ids=lambda entry: entry.id)
class TestSharedBaseUnmutated:
    """Every step a config runs on a shared base leaves it unchanged."""

    def test_config_steps_leave_base_unchanged(self, entry):
        module = compile_source(entry.source)
        for name, compiler in COMPILERS.items():
            base = compiler(module, buffer_capacity=None, checked=True,
                            max_steps=DEFAULT_MAX_STEPS)
            before = _snapshot(base)
            run_compiled(base, max_steps=DEFAULT_MAX_STEPS)
            oracle_mod._oracle_swap(base)
            for capacity in (16, 64):
                overlay = with_buffer(base, capacity)
                run_compiled(overlay, max_steps=DEFAULT_MAX_STEPS)
                oracle_mod._oracle_swap(overlay)
            assert _snapshot(base) == before, name

    def test_check_program_leaves_parse_unchanged(self, entry,
                                                  monkeypatch):
        parsed = _count_parses(monkeypatch)
        report = check_program(entry.source,
                               default_configs() + oracle_configs())
        assert report.ok, [v.describe() for v in report.divergences]
        [(module, digest)] = parsed
        assert _module_digest(module, uids=True) == digest
