"""The unified benchmark harness: specs, repeated samples, one schema.

A :class:`BenchSpec` names a measurement (``sim.fast``, ``obs.on``,
``serve.warm``...) and how to take *one* sample of it; :func:`run_bench`
takes several and folds them into a :class:`BenchResult` — the single
schema every benchmark in this repo reports in and the history store
(:mod:`repro.obs.perf.history`) persists:

* ``samples`` — every raw observation (never just the best one);
* ``median`` / ``mad`` — robust center and noise scale, the only two
  statistics the regression gate trusts;
* ``phases`` — per-phase sample series (compile/retarget/simulate...),
  so a flagged regression can be blamed on the phase
  that caused it;
* ``config`` + ``config_hash`` — what was measured (grid, mode,
  variant), the history key;
* ``env`` + ``env_fingerprint`` — where it was measured, so absolute
  seconds recorded on one machine are never gated against another's;
* ``git_sha`` — when (in history terms) it was measured.

A :class:`RatioSpec` derives a dimensionless series from two specs
(sample-wise numerator/denominator — e.g. ``obs.overhead = obs.on /
obs.off``).  Ratios are machine-portable, so they stay gateable even
across environment changes where raw seconds are not.

``REPRO_PERF_INJECT=bench:phase:factor`` multiplies one phase of one
bench after measurement — the test hook CI and the acceptance checks use
to prove the regression gate actually fires and blames the right phase.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from typing import Callable

ENV_INJECT = "REPRO_PERF_INJECT"

#: result-record schema version (bump on incompatible changes)
SCHEMA = "repro-perf-v1"


class BenchError(RuntimeError):
    """A benchmark failed its own invariants (non-determinism, divergent
    summaries across variants, unknown spec...)."""


def mad(values: list[float], center: float | None = None) -> float:
    """Median absolute deviation — the robust noise scale the gate uses."""
    if not values:
        return 0.0
    if center is None:
        center = statistics.median(values)
    return statistics.median(abs(v - center) for v in values)


def config_hash(config: dict) -> str:
    """Stable short digest of a JSON-able config dict (the history key)."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def env_fingerprint() -> dict:
    """Where a sample was taken: everything that moves absolute seconds."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def fingerprint_key(env: dict) -> str:
    """Short digest of an environment fingerprint dict."""
    return config_hash({k: env.get(k) for k in
                        ("python", "platform", "cpu_count")})


def git_sha() -> str | None:
    """Current short commit SHA, or ``None`` outside a work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


# ---------------------------------------------------------------------------
# specs and samples


@dataclass
class Sample:
    """One observation of a benchmark.

    ``value`` is the headline number (seconds for timing benches);
    ``phases`` attributes it (phase name -> seconds); ``meta`` is small
    JSON-able context (cell counts, digests); ``check`` is an arbitrary
    in-process object (e.g. the run summaries) used only for
    equivalence diffing — it never reaches the serialized record.
    """

    value: float
    phases: dict[str, float] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    check: object | None = None


@dataclass(frozen=True)
class BenchSpec:
    """One registered measurement.

    ``fn(mode)`` takes a single cold :class:`Sample`.  ``direction`` says
    which way is better (``"lower"`` for seconds, ``"higher"`` for
    speedups); ``budgets[mode]`` is an absolute floor (higher-better) or
    ceiling (lower-better) enforced on the median regardless of history.
    ``digest_group`` names an equivalence class: every spec in the group
    must produce byte-identical ``meta["digest"]`` values in one suite
    run (e.g. traced and untraced grid summaries must agree).
    ``gate_budget`` overrides the regression gate's per-unit relative
    budget for this spec alone — for benches whose between-run noise is
    wider than their unit's default assumes (``None`` keeps the
    default).
    """

    name: str
    fn: Callable[[str], Sample]
    config_fn: Callable[[str], dict]
    unit: str = "s"
    direction: str = "lower"
    digest_group: str | None = None
    budgets: dict = field(default_factory=dict)
    gate_budget: float | None = None
    help: str = ""


@dataclass(frozen=True)
class RatioSpec:
    """A derived sample-wise ratio of two registered specs."""

    name: str
    numerator: str
    denominator: str
    unit: str = "x"
    direction: str = "higher"
    budgets: dict = field(default_factory=dict)
    gate_budget: float | None = None
    help: str = ""


@dataclass
class BenchResult:
    """The one schema every benchmark reports in (see module docstring)."""

    name: str
    unit: str
    direction: str
    mode: str
    samples: list[float]
    phases: dict[str, list[float]]
    config: dict
    config_hash: str
    env: dict
    env_fingerprint: str
    git_sha: str | None
    meta: dict = field(default_factory=dict)
    check: object | None = None

    @property
    def median(self) -> float:
        return statistics.median(self.samples)

    @property
    def mad(self) -> float:
        return mad(self.samples)

    def as_record(self) -> dict:
        """The JSON-able history-line form (``check`` never serializes)."""
        return {
            "schema": SCHEMA,
            "bench": self.name,
            "unit": self.unit,
            "direction": self.direction,
            "mode": self.mode,
            "samples": [round(s, 6) for s in self.samples],
            "median": round(self.median, 6),
            "mad": round(self.mad, 6),
            "phases": {
                name: {
                    "samples": [round(s, 6) for s in series],
                    "median": round(statistics.median(series), 6),
                }
                for name, series in sorted(self.phases.items())
            },
            "config": self.config,
            "config_hash": self.config_hash,
            "env": self.env,
            "env_fingerprint": self.env_fingerprint,
            "git_sha": self.git_sha,
            "meta": self.meta,
        }


# ---------------------------------------------------------------------------
# registry


_REGISTRY: dict[str, BenchSpec | RatioSpec] = {}


def register(spec: BenchSpec | RatioSpec) -> BenchSpec | RatioSpec:
    """Register (or replace) a spec under its name; returns it."""
    _REGISTRY[spec.name] = spec
    return spec


def get_spec(name: str) -> BenchSpec | RatioSpec:
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise BenchError(f"unknown bench {name!r}; registered: {known}") \
            from None


def bench_names() -> list[str]:
    _ensure_builtins()
    return sorted(_REGISTRY)


def _ensure_builtins() -> None:
    # the built-in specs live in a sibling module that imports the runner;
    # load them lazily so `import repro.obs` stays light
    from repro.obs.perf import benches

    benches.ensure_registered()


# ---------------------------------------------------------------------------
# the injection test hook


def parse_injections(value: str | None = None) -> dict[tuple[str, str], float]:
    """``"bench:phase:factor[,...]"`` -> {(bench, phase): factor}."""
    if value is None:
        value = os.environ.get(ENV_INJECT, "")
    injections: dict[tuple[str, str], float] = {}
    for part in value.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            bench, phase, factor = part.split(":")
            injections[(bench, phase)] = float(factor)
        except ValueError:
            raise BenchError(
                f"bad {ENV_INJECT} entry {part!r}; "
                "expected bench:phase:factor") from None
    return injections


def _apply_injection(name: str, sample: Sample,
                     injections: dict[tuple[str, str], float]) -> None:
    for (bench, phase), factor in injections.items():
        if bench != name or phase not in sample.phases:
            continue
        before = sample.phases[phase]
        sample.phases[phase] = before * factor
        sample.value += sample.phases[phase] - before
        sample.meta.setdefault("injected", []).append(
            f"{phase}x{factor:g}")


# ---------------------------------------------------------------------------
# running


def run_bench(spec: BenchSpec, mode: str = "quick", samples: int = 3,
              injections: dict[tuple[str, str], float] | None = None,
              progress: Callable[[str], None] | None = None) -> BenchResult:
    """Take ``samples`` cold observations of one spec and fold them.

    Every sample's ``meta["digest"]`` (when present) must agree across
    repeats — a benchmark whose measured artifact changes between runs is
    broken, not noisy.
    """
    if samples < 1:
        raise BenchError("samples must be >= 1")
    if injections is None:
        injections = parse_injections()
    config = dict(spec.config_fn(mode))
    config.setdefault("bench", spec.name)
    config.setdefault("mode", mode)
    taken: list[Sample] = []
    for i in range(samples):
        t0 = time.perf_counter()
        sample = spec.fn(mode)
        elapsed = time.perf_counter() - t0
        _apply_injection(spec.name, sample, injections)
        sample.meta.setdefault("sample_wall_s", round(elapsed, 3))
        if taken and sample.meta.get("digest") != \
                taken[0].meta.get("digest"):
            raise BenchError(
                f"{spec.name}: non-deterministic artifact across repeats "
                f"(sample {i} digest {sample.meta.get('digest')!r} != "
                f"{taken[0].meta.get('digest')!r})")
        taken.append(sample)
        if progress is not None:
            progress(f"{spec.name}[{i + 1}/{samples}] "
                     f"{sample.value:.3f}{spec.unit}")
    phase_names = sorted({name for s in taken for name in s.phases})
    meta = dict(taken[0].meta)
    meta.pop("sample_wall_s", None)
    meta["sample_walls_s"] = [s.meta.get("sample_wall_s") for s in taken]
    env = env_fingerprint()
    return BenchResult(
        name=spec.name,
        unit=spec.unit,
        direction=spec.direction,
        mode=mode,
        samples=[s.value for s in taken],
        phases={name: [s.phases.get(name, 0.0) for s in taken]
                for name in phase_names},
        config=config,
        config_hash=config_hash(config),
        env=env,
        env_fingerprint=fingerprint_key(env),
        git_sha=git_sha(),
        meta=meta,
        check=taken[0].check,
    )


def _derive_ratio(spec: RatioSpec, num: BenchResult,
                  den: BenchResult) -> BenchResult:
    if len(num.samples) != len(den.samples):
        raise BenchError(
            f"{spec.name}: sample counts differ "
            f"({len(num.samples)} vs {len(den.samples)})")
    samples = []
    for a, b in zip(num.samples, den.samples):
        samples.append(a / b if b else float("inf"))
    phases = {}
    for name in sorted(set(num.phases) & set(den.phases)):
        phases[name] = [
            (a / b if b else float("inf"))
            for a, b in zip(num.phases[name], den.phases[name])
        ]
    config = {
        "bench": spec.name,
        "mode": num.mode,
        "numerator": num.config_hash,
        "denominator": den.config_hash,
    }
    env = env_fingerprint()
    return BenchResult(
        name=spec.name,
        unit=spec.unit,
        direction=spec.direction,
        mode=num.mode,
        samples=samples,
        phases=phases,
        config=config,
        config_hash=config_hash(config),
        env=env,
        env_fingerprint=fingerprint_key(env),
        git_sha=git_sha(),
        meta={"numerator": num.name, "denominator": den.name},
    )


def _check_digest_groups(results: dict[str, BenchResult]) -> None:
    groups: dict[str, list[BenchResult]] = {}
    for result in results.values():
        spec = _REGISTRY.get(result.name)
        if isinstance(spec, BenchSpec) and spec.digest_group:
            groups.setdefault(spec.digest_group, []).append(result)
    for group, members in sorted(groups.items()):
        digests = {m.meta.get("digest") for m in members}
        if len(digests) > 1:
            detail = ", ".join(
                f"{m.name}={m.meta.get('digest')}" for m in members)
            first_diff = _first_check_diff(members)
            raise BenchError(
                f"digest group {group!r} diverged: {detail}"
                + (f"; first differing entry: {first_diff}"
                   if first_diff else ""))


def _first_check_diff(members: list[BenchResult]) -> str | None:
    """Diff the in-process check objects (lists) of a diverged group."""
    checks = [m.check for m in members if isinstance(m.check, list)]
    if len(checks) < 2:
        return None
    a, b = checks[0], checks[1]
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"[{i}] {x!r} != {y!r}"
    if len(a) != len(b):
        return f"length {len(a)} != {len(b)}"
    return None


def run_suite(names: list[str], mode: str = "quick", samples: int = 3,
              injections: dict[tuple[str, str], float] | None = None,
              progress: Callable[[str], None] | None = None,
              ) -> dict[str, BenchResult]:
    """Run the named benches (pulling in ratio dependencies), in order.

    Returns ``{name: BenchResult}``; ratio specs are derived after their
    inputs run, and every digest group is cross-checked — divergent
    artifacts (e.g. traced-vs-untraced grid summaries) abort the suite.
    """
    _ensure_builtins()
    ordered: list[str] = []
    seen: set[str] = set()

    def _want(name: str) -> None:
        if name in seen:
            return
        spec = get_spec(name)
        if isinstance(spec, RatioSpec):
            _want(spec.numerator)
            _want(spec.denominator)
        seen.add(name)
        ordered.append(name)

    for name in names:
        _want(name)

    results: dict[str, BenchResult] = {}
    for name in ordered:
        spec = get_spec(name)
        if isinstance(spec, RatioSpec):
            results[name] = _derive_ratio(
                spec, results[spec.numerator], results[spec.denominator])
        else:
            results[name] = run_bench(spec, mode, samples, injections,
                                      progress)
    _check_digest_groups(results)
    return results


def check_budget(result: BenchResult) -> str | None:
    """Absolute budget check; returns a failure message or ``None``."""
    spec = _REGISTRY.get(result.name)
    if spec is None:
        return None
    floor = spec.budgets.get(result.mode)
    if floor is None:
        return None
    median = result.median
    if result.direction == "higher":
        if median < floor:
            return (f"{result.name}: median {median:.3f}{result.unit} "
                    f"below budget floor {floor:.3f}{result.unit}")
    else:
        if median > floor:
            return (f"{result.name}: median {median:.3f}{result.unit} "
                    f"above budget ceiling {floor:.3f}{result.unit}")
    return None
