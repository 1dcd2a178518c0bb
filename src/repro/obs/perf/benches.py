"""The built-in benchmark specs behind ``scripts/bench_*.py`` and CI.

Each is measured as a *pair* of specs plus a derived machine-portable
ratio:

* ``sim.ref`` / ``sim.fast`` / ``sim.speedup`` — cold Figure 7 grid
  compute seconds per engine (the BENCH_sim.json study).  Both engines'
  run summaries must be byte-identical (``digest_group="sim"``).
* ``obs.off`` / ``obs.on`` / ``obs.overhead`` — cold-grid wall seconds
  with tracing disabled vs. enabled; the ratio is the instrumentation
  overhead (lower is better, ceiling-budgeted).

Every timing spec records per-phase series (compile/retarget/simulate),
so a regression flagged by the gate arrives with the phase that caused
it.  ``mode`` selects the grid: ``quick`` is the CI smoke
subset, ``full`` the complete Figure 7 study.
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

from repro.obs.perf.harness import (
    BenchError,
    BenchSpec,
    RatioSpec,
    Sample,
    register,
)

FULL_CAPACITIES = (16, 32, 64, 128, 256, 512, 1024, 2048)
PIPELINES = ("traditional", "aggressive")

#: CI smoke grids (kept tiny: the gate runs on every pull request)
QUICK_SIM = {"benchmarks": ("adpcm_enc", "mpeg2_dec"),
             "capacities": (64, 256)}
QUICK_OBS = {"benchmarks": ("adpcm_enc", "mpeg2_dec"),
             "capacities": (256,)}


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _grid_config(quick_grid: dict, mode: str) -> dict:
    from repro.bench import benchmark_names

    if mode == "quick":
        names = list(quick_grid["benchmarks"])
        capacities = list(quick_grid["capacities"])
    elif mode == "full":
        names = benchmark_names()
        capacities = list(FULL_CAPACITIES)
    else:
        raise BenchError(f"unknown mode {mode!r} (quick|full)")
    return {"benchmarks": names, "pipelines": list(PIPELINES),
            "capacities": capacities}


# ---------------------------------------------------------------------------
# sim: reference vs. fast engine, cold grid


def _sim_config(mode: str, engine: str) -> dict:
    return dict(_grid_config(QUICK_SIM, mode), engine=engine, workers=1)


def _sim_sample(mode: str, engine: str) -> Sample:
    from repro.runner.cache import ArtifactCache
    from repro.runner.metrics import MetricsRecorder
    from repro.runner.parallel import expand_grid, run_grid

    config = _sim_config(mode, engine)
    cells = expand_grid(config["benchmarks"], PIPELINES,
                        config["capacities"])
    with tempfile.TemporaryDirectory(prefix="repro-perf-sim-") as tmp:
        cache = ArtifactCache(Path(tmp) / "cache")
        metrics = MetricsRecorder()
        summaries = run_grid(cells, workers=1, cache=cache,
                             metrics=metrics, engine=engine)
    if metrics.run_cache_hits:
        raise BenchError("sim bench: cold run hit the cache")
    phases = {
        stage: sum(c.stages.get(stage, 0.0) for c in metrics.cells)
        for stage in ("compile", "retarget", "simulate")
    }
    return Sample(
        value=sum(phases.values()),
        phases=phases,
        meta={"digest": _digest(summaries), "cells": len(cells)},
        check=summaries,
    )


# ---------------------------------------------------------------------------
# obs: tracing disabled vs. enabled, cold grid wall time


def _obs_config(mode: str, tracing: str) -> dict:
    return dict(_grid_config(QUICK_OBS, mode), tracing=tracing,
                engine="fast", workers=1)


def _obs_sample(mode: str, trace: bool) -> Sample:
    from repro.runner.cache import ArtifactCache
    from repro.runner.metrics import MetricsRecorder
    from repro.runner.parallel import expand_grid, run_grid

    config = _obs_config(mode, "on" if trace else "off")
    cells = expand_grid(config["benchmarks"], PIPELINES,
                        config["capacities"])
    with tempfile.TemporaryDirectory(prefix="repro-perf-obs-") as tmp:
        cache = ArtifactCache(Path(tmp) / "cache")
        metrics = MetricsRecorder()
        summaries = run_grid(cells, workers=1, cache=cache,
                             metrics=metrics, engine="fast", trace=trace)
    if metrics.run_cache_hits:
        raise BenchError("obs bench: cold run hit the cache")
    phases = {
        stage: sum(c.stages.get(stage, 0.0) for c in metrics.cells)
        for stage in ("compile", "retarget", "simulate")
    }
    return Sample(
        value=metrics.wall_time_s,
        phases=phases,
        meta={"digest": _digest(summaries), "cells": len(cells)},
        check=summaries,
    )


# ---------------------------------------------------------------------------
# registration


#: the CI gate's default suite (every ratio pulls in its inputs)
DEFAULT_SUITE = ("sim.speedup", "obs.overhead", "serve.speedup",
                 "serve.hitrate")


def ensure_registered() -> None:
    """Register the built-in specs (idempotent; keyed on the registry
    itself, so a test that snapshots and restores it re-triggers)."""
    from repro.obs.perf.harness import _REGISTRY
    from repro.serve import benches as serve_benches

    serve_benches.ensure_registered()
    if "sim.ref" in _REGISTRY:
        return

    register(BenchSpec(
        "sim.ref", lambda mode: _sim_sample(mode, "ref"),
        lambda mode: _sim_config(mode, "ref"),
        digest_group="sim",
        help="cold-grid compute seconds, reference interpreter/VLIW"))
    register(BenchSpec(
        "sim.fast", lambda mode: _sim_sample(mode, "fast"),
        lambda mode: _sim_config(mode, "fast"),
        digest_group="sim",
        help="cold-grid compute seconds, predecoded fast engine"))
    register(RatioSpec(
        "sim.speedup", "sim.ref", "sim.fast",
        budgets={"quick": 1.0, "full": 2.0},
        help="fast-engine speedup (ref/fast compute seconds)"))

    register(BenchSpec(
        "obs.off", lambda mode: _obs_sample(mode, False),
        lambda mode: _obs_config(mode, "off"),
        digest_group="obs",
        help="cold-grid wall seconds, tracing disabled"))
    register(BenchSpec(
        "obs.on", lambda mode: _obs_sample(mode, True),
        lambda mode: _obs_config(mode, "on"),
        digest_group="obs",
        help="cold-grid wall seconds, tracing enabled"))
    register(RatioSpec(
        "obs.overhead", "obs.on", "obs.off",
        direction="lower",
        budgets={"quick": 1.5, "full": 1.10},
        help="tracing overhead ratio (on/off wall time; lower is better)"))
