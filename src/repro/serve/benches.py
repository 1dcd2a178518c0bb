"""``serve.*`` saturation/load benchmarks for the service front end.

Registered into the same harness as ``sim.*``
(:mod:`repro.obs.perf`), so ``perf record``, the CI perf-gate and the
nightly history all treat the service like any other protected fast
path.  Four specs plus a ratio:

* ``serve.cold`` — per-request p50 wall seconds for the serve grid
  driven concurrently at a *fresh* service (empty cache, cold workers);
  p95/p99 ride along as phases.
* ``serve.warm`` — the same workload repeated against the now-warm
  service: every request must come straight from the run cache.
* ``serve.speedup`` = cold/warm p50 — the service's warm-path contract
  (budget: warm at least 10x faster than cold).
* ``serve.hitrate`` — run-cache hit rate of the repeated workload
  (dimensionless ``frac``; budget 0.9, and being unit-portable it stays
  gated even when the history baseline moved machines).
* ``serve.throughput`` — warm requests/s under concurrent load
  (informational: no budget, absolute rates are machine-bound).

All three measuring specs share ``digest_group="serve"``: the summaries
the service returns cold, warm and under load must be byte-identical.
Latencies are the *service-side* per-request walls (``meta.latency_s``),
so client/thread overhead never pollutes the series.
"""

from __future__ import annotations

import hashlib
import tempfile

from repro.obs.perf.harness import (
    BenchError,
    BenchSpec,
    RatioSpec,
    Sample,
    register,
)
from repro.serve.cli import percentile

#: CI smoke grid (quick mode); full mode serves the whole Figure 7 grid
QUICK_SERVE = {"benchmarks": ("adpcm_enc", "mpeg2_dec"),
               "capacities": (64, 256)}
FULL_CAPACITIES = (16, 32, 64, 128, 256, 512, 1024, 2048)
PIPELINES = ("traditional", "aggressive")

#: concurrent client threads the load driver uses
CONCURRENCY = 8
SERVICE_WORKERS = 2


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _serve_config(mode: str, temperature: str) -> dict:
    from repro.bench import benchmark_names

    if mode == "quick":
        names = list(QUICK_SERVE["benchmarks"])
        capacities = list(QUICK_SERVE["capacities"])
    elif mode == "full":
        names = benchmark_names()
        capacities = list(FULL_CAPACITIES)
    else:
        raise BenchError(f"unknown mode {mode!r} (quick|full)")
    return {"benchmarks": names, "pipelines": list(PIPELINES),
            "capacities": capacities, "temperature": temperature,
            "workers": SERVICE_WORKERS, "concurrency": CONCURRENCY}


def _requests(config: dict) -> list:
    from repro.serve.protocol import Request

    return [
        Request(kind="run", benchmark=name, pipeline=pipeline,
                capacity=capacity)
        for name in config["benchmarks"]
        for pipeline in config["pipelines"]
        for capacity in config["capacities"]
    ]


def _drive(service, requests: list) -> list:
    """Issue the workload concurrently in-process; responses in order."""
    from repro.serve.client import Client, drive

    responses = drive(lambda: Client(service), requests,
                      concurrency=CONCURRENCY)
    failed = [r for r in responses if not r.ok]
    if failed:
        raise BenchError(
            f"serve bench: {len(failed)} request(s) failed, first: "
            f"{failed[0].status}: {failed[0].error}")
    return responses


def _latency_sample(responses: list, config: dict,
                    extra_meta: dict | None = None) -> Sample:
    latencies = sorted(r.meta["latency_s"] for r in responses)
    summaries = [r.summary() for r in responses]
    meta = {"digest": _digest(summaries), "requests": len(responses)}
    if extra_meta:
        meta.update(extra_meta)
    return Sample(
        value=percentile(latencies, 50),
        phases={"p95": percentile(latencies, 95),
                "p99": percentile(latencies, 99)},
        meta=meta,
        check=summaries,
    )


def _fresh_service(tmp: str):
    from repro.serve.service import Service, ServiceConfig

    return Service(ServiceConfig(workers=SERVICE_WORKERS,
                                 cache_dir=tmp))


def _cold_sample(mode: str) -> Sample:
    config = _serve_config(mode, "cold")
    with tempfile.TemporaryDirectory(prefix="repro-serve-cold-") as tmp:
        with _fresh_service(tmp) as service:
            responses = _drive(service, _requests(config))
            if service.stats.run_cache_hits:
                raise BenchError("serve.cold: a cold request hit the "
                                 "run cache")
            return _latency_sample(responses, config)


def _repeat_pass(config: dict) -> tuple[list, int, int]:
    """Drive the workload at a fresh service twice; returns the second
    pass's responses, run-cache hits and request count."""
    with tempfile.TemporaryDirectory(prefix="repro-serve-repeat-") as tmp:
        with _fresh_service(tmp) as service:
            requests = _requests(config)
            _drive(service, requests)  # warm the cache
            hits, total = service.stats.run_cache_hits, service.stats.requests
            responses = _drive(service, requests)
            return (responses, service.stats.run_cache_hits - hits,
                    service.stats.requests - total)


def _warm_sample(mode: str) -> Sample:
    config = _serve_config(mode, "warm")
    responses, hits, _total = _repeat_pass(config)
    if hits < len(responses):
        raise BenchError(
            f"serve.warm: only {hits}/{len(responses)} repeated "
            "requests came from the run cache")
    return _latency_sample(responses, config)


def _hitrate_sample(mode: str) -> Sample:
    """Hit rate over a *repeat* workload: everything the service already
    answered must come from the cache."""
    config = _serve_config(mode, "repeat")
    responses, hits, total = _repeat_pass(config)
    sample = _latency_sample(
        responses, config,
        extra_meta={"hits": hits, "repeat_requests": total})
    sample.value = hits / total if total else 0.0
    sample.phases = {}
    return sample


def _throughput_sample(mode: str) -> Sample:
    """Warm requests/s at CONCURRENCY clients (offered-load plateau)."""
    import time

    config = _serve_config(mode, "warm")
    #: repeat the grid so the measured window is long enough to matter
    rounds = 8 if mode == "quick" else 2
    with tempfile.TemporaryDirectory(prefix="repro-serve-tput-") as tmp:
        with _fresh_service(tmp) as service:
            requests = _requests(config)
            _drive(service, requests)  # warm
            load = requests * rounds
            t0 = time.perf_counter()
            responses = _drive(service, load)
            wall = time.perf_counter() - t0
            summaries = [r.summary() for r in responses[:len(requests)]]
            return Sample(
                value=len(load) / wall if wall else 0.0,
                phases={"wall_s": wall},
                meta={"digest": _digest(summaries),
                      "requests": len(load), "rounds": rounds},
                check=summaries,
            )


def ensure_registered() -> None:
    """Register the ``serve.*`` specs (idempotent, like the built-ins)."""
    from repro.obs.perf.harness import _REGISTRY

    if "serve.cold" in _REGISTRY:
        return

    register(BenchSpec(
        "serve.cold", _cold_sample,
        lambda mode: _serve_config(mode, "cold"),
        digest_group="serve",
        help="service p50 request seconds, fresh cache and cold workers"))
    register(BenchSpec(
        "serve.warm", _warm_sample,
        lambda mode: _serve_config(mode, "warm"),
        digest_group="serve",
        help="service p50 request seconds, repeated (fully warm) "
             "workload"))
    register(RatioSpec(
        "serve.speedup", "serve.cold", "serve.warm",
        budgets={"quick": 10.0, "full": 10.0},
        # unlike engine-vs-engine speedups, the two halves measure
        # different work (compile-bound cold vs. cache-lookup warm), so
        # between-run machine noise does not divide out of the ratio;
        # the 10x floor above carries the contract and the gate only
        # needs to catch gross collapses
        gate_budget=0.5,
        help="warm-path speedup (cold/warm p50 request seconds)"))
    register(BenchSpec(
        "serve.hitrate", _hitrate_sample,
        lambda mode: _serve_config(mode, "repeat"),
        unit="frac", direction="higher",
        budgets={"quick": 0.9, "full": 0.9},
        digest_group="serve",
        help="run-cache hit rate over a repeated workload"))
    register(BenchSpec(
        "serve.throughput", _throughput_sample,
        lambda mode: _serve_config(mode, "throughput"),
        unit="rps", direction="higher",
        help="warm requests/s under concurrent load (informational)"))
