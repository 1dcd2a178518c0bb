"""Capacity classes: each distinct buffer assignment of a base is
retargeted and simulated once per process, and every other cell of the
class is served from :data:`repro.runner.parallel.CLASS_MEMO`.

The served summaries must equal a fresh retarget and simulation of the
same cell; checked mode keeps checking both the class and each cell it
serves; a traced grid bypasses the classes.
"""

import pytest

import repro.runner.parallel as parallel
import repro.sim.replay as replay_mod
from repro.memo import clear_caches
from repro.pipeline import CheckedModeError, RunConfig, run_compiled, with_buffer
from repro.runner.metrics import CellMetrics, MetricsRecorder
from repro.runner.parallel import (
    _compile_base_timed,
    base_key,
    expand_grid,
    run_base,
    run_grid,
)
from repro.runner.summary import RunSummary

SIZES = (16, 32, 64, 128, 256, 512, 1024, 2048)
SWEEP = expand_grid(("adpcm_enc", "g724_dec"), ("traditional", "aggressive"),
                    SIZES)


@pytest.fixture(autouse=True)
def _fresh_memos():
    clear_caches()
    yield
    clear_caches()


def _fresh_summary(cell) -> RunSummary:
    """``cell`` retargeted and simulated the direct way, no runner.

    The class key's plan must be exactly what the retarget installs."""
    base, *_ = _compile_base_timed(cell.name, cell.pipeline, None)
    compiled = with_buffer(base, cell.capacity)
    key = base_key(cell.name, cell.pipeline, RunConfig())
    assert parallel._planned(base, key, cell.capacity) \
        == parallel.assignment_key(compiled.assignment), cell
    counters = run_compiled(compiled).counters
    return RunSummary(cell.name, cell.pipeline, cell.capacity,
                      counters.cycles, counters.bundles,
                      counters.ops_issued, counters.ops_from_buffer,
                      counters.ops_from_memory, compiled.static_ops,
                      counters.branch_bubbles)


def test_class_served_summaries_equal_fresh_runs():
    metrics = MetricsRecorder()
    served = run_grid(SWEEP, workers=1, cache=None, metrics=metrics)
    # 32 cells hold 12 distinct assignments: 12 computed, 20 served
    assert metrics.class_hits == 20
    assert sum(1 for c in metrics.cells if "simulate" in c.stages) == 12
    assert len(parallel.CLASS_MEMO) == 12
    clear_caches()
    for cell, summary, cm in zip(SWEEP, served, metrics.cells):
        assert summary == _fresh_summary(cell), (cell, cm.class_hit)


def test_pooled_sweep_serves_the_serial_classes():
    """Each pool task runs a benchmark's cells in one worker, so the
    pool compiles each base once, records that compile and serves the
    same classes as the serial grid."""
    runs = {}
    for workers in (1, 2):
        clear_caches()
        metrics = MetricsRecorder()
        runs[workers] = (run_grid(SWEEP, workers=workers, cache=None,
                                  metrics=metrics), metrics)
    assert runs[1][0] == runs[2][0]
    for _summaries, metrics in runs.values():
        assert metrics.class_hits == 20
        # one compile per (benchmark, pipeline) group
        assert sum(1 for c in metrics.cells if "compile" in c.stages) == 4


def test_checked_class_hit_reruns_the_buffer_rules():
    settings = RunConfig(checked=True)
    base, *_ = _compile_base_timed("g724_dec", "traditional", None,
                                   settings)
    run_base("g724_dec", "traditional", base, 2048, settings)
    # g724_dec traditional places the same loops at 64 ops as at 2048
    key = base_key("g724_dec", "traditional", settings)
    plan = parallel._planned(base, key, 64)
    assert plan == parallel._planned(base, key, 2048)
    run = parallel.CLASS_MEMO.get((key, plan, True))
    assert run is not None and run.compiled is not None
    # plant an assignment that fits 2048 ops but not 64
    run.compiled.assignment.assigned[-1].offset = 64
    cm = CellMetrics("g724_dec", "traditional", 64)
    with pytest.raises(CheckedModeError) as excinfo:
        run_base("g724_dec", "traditional", base, 64, settings, cm)
    assert cm.class_hit
    assert excinfo.value.pass_name == "with_buffer"
    assert "buffer-capacity" in {d.rule for d in excinfo.value.diagnostics}


def test_checked_class_miss_still_cross_checks_the_replay(monkeypatch):
    settings = RunConfig(checked=True)
    base, *_ = _compile_base_timed("g724_dec", "aggressive", None, settings)
    real = replay_mod.replay

    def perturbed(*args, **kwargs):
        replayed = real(*args, **kwargs)
        if replayed is not None:
            replayed[1].cycles += 1
        return replayed

    monkeypatch.setattr(replay_mod, "replay", perturbed)
    with pytest.raises(CheckedModeError) as excinfo:
        run_base("g724_dec", "aggressive", base, 64, settings)
    assert excinfo.value.pass_name == "replay"
    assert len(parallel.CLASS_MEMO) == 0


def test_traced_grid_bypasses_the_classes():
    cells = expand_grid(("adpcm_enc",), ("traditional",), (64, 128, 256))
    metrics = MetricsRecorder()
    run_grid(cells, workers=1, cache=None, metrics=metrics, trace=True)
    assert metrics.class_hits == 0
    for cm in metrics.cells:
        names = {span["name"] for span in cm.trace["run"]["spans"]}
        assert {"with_buffer", "simulate"} <= names, cm
