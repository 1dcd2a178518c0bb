"""Tests for the differential interp-vs-VLIW oracle."""

import pytest

from repro.fuzz.gen import generate
from repro.fuzz.oracle import (
    Config,
    check_many,
    check_program,
    default_configs,
    oracle_configs,
    reference_outcome,
)
from repro.runner.cache import ArtifactCache

CLEAN_SEED = 3
#: these seeds are known to diverge under the named injected fault (see
#: tests/fuzz/test_reduce.py, which minimizes them)
FAULTY = {"cloop-reload-off-by-one": 4, "dce-drop-store": 1,
          "ifconvert-guard-drop": 19}

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

    def test_fault_does_not_leak(self):
        check_program(generate(FAULTY["cloop-reload-off-by-one"]),
                      SMALL_GRID, fault="cloop-reload-off-by-one")
        # after the faulty check the same program must be clean again
        assert check_program(generate(FAULTY["cloop-reload-off-by-one"]),
                             SMALL_GRID).ok

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
