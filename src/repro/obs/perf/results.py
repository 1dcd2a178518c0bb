"""perfbench's result lines, read as the perf gate's series.

``perfbench/run.py`` ends every run with one JSON line, ``{"correct",
"attempted", "failed", "metrics"}``.  A results file holds one such line
per run, each tagged with the workload it ran::

    {"workload": "paper-cold", "correct": true, "attempted": 191,
     "failed": 0, "metrics": {"wall_s": {"value": 3.07, "unit": "s"}, ...}}

``scripts/perf_results.sh`` writes one.  Each ``<workload>/<metric>``
pair is one series, and each run gives it one sample:

* an untraced run (``--trace 0``) gives the end-to-end metrics;
* a traced run (``--trace 1``) gives the per-layer metrics.  A layer's
  seconds (a dotted ``*_s`` name such as ``sched.list_s``) become its
  share of the traced pass's wall time, ``trace.wall_s``.  A share has
  no unit, so it gates on any host.

Which way is better for each metric comes from ``BENCHMARK.json``, the
benchmark's own declaration, so this package never imports perfbench.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.perf.history import config_hash as hash_config
from repro.obs.perf.regress import SHARE, mad

#: the benchmark declaration at the repo root: every metric's direction
DEFAULT_BENCHMARK = "BENCHMARK.json"

#: result-record schema version (bump on incompatible changes)
SCHEMA = "repro-perf-v1"

#: the traced pass's wall time, which every layer share divides by
TRACED_WALL = "trace.wall_s"


class ResultsError(ValueError):
    """A results file, or the benchmark declaration, cannot be read."""


@dataclass
class Series:
    """One ``<workload>/<metric>`` series: one sample per run."""

    name: str
    unit: str
    direction: str
    samples: list[float] = field(default_factory=list)

    @property
    def metric(self) -> str:
        return self.name.split("/", 1)[1]

    @property
    def layer(self) -> str | None:
        """The per-layer metric this series measures (``sched.list_s``),
        or ``None`` for an end-to-end metric."""
        return self.metric if "." in self.metric else None

    @property
    def median(self) -> float:
        return statistics.median(self.samples)

    @property
    def mad(self) -> float:
        return mad(self.samples)

    @property
    def config(self) -> dict:
        workload = self.name.split("/", 1)[0]
        return {"workload": workload, "metric": self.metric,
                "unit": self.unit}

    @property
    def config_hash(self) -> str:
        """The history key of this series."""
        return hash_config(self.config)

    def as_record(self, env: dict, env_key: str,
                  git_sha: str | None) -> dict:
        """The JSON-able history-line form."""
        return {
            "schema": SCHEMA,
            "bench": self.name,
            "unit": self.unit,
            "direction": self.direction,
            "samples": [round(s, 6) for s in self.samples],
            "median": round(self.median, 6),
            "mad": round(self.mad, 6),
            "config": self.config,
            "config_hash": self.config_hash,
            "env": env,
            "env_fingerprint": env_key,
            "git_sha": git_sha,
        }


def load_directions(path: str | Path = DEFAULT_BENCHMARK) -> dict[str, str]:
    """``metric -> "lower" | "higher"`` from the benchmark declaration."""
    try:
        doc = json.loads(Path(path).read_text())
        return {m["name"]: m["better"]
                for m in doc["end_to_end"] + doc["per_layer"]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ResultsError(f"{path}: no metric directions ({exc})") \
            from None


def read_results(path: str | Path) -> list[dict]:
    """Every tagged result line of ``path``, in file order."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ResultsError(str(exc)) from None
    runs = []
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            run = json.loads(line)
        except ValueError:
            run = None
        if not (isinstance(run, dict) and isinstance(run.get("workload"), str)
                and isinstance(run.get("metrics"), dict)):
            raise ResultsError(
                f"{path}:{number}: not a perfbench result line tagged "
                "with its workload")
        runs.append(run)
    if not runs:
        raise ResultsError(f"{path}: no result lines")
    return runs


def failed_runs(runs: list[dict]) -> list[str]:
    """One line for each run that was not correct or failed a unit."""
    return [
        f"{run['workload']} (line {number}): correct={run.get('correct')}, "
        f"failed={run.get('failed')}"
        for number, run in enumerate(runs, 1)
        if run.get("correct") is not True or run.get("failed") != 0
    ]


def collect(runs: list[dict], directions: dict[str, str],
            ) -> dict[str, Series]:
    """Fold the runs into ``{"<workload>/<metric>": Series}``."""
    series: dict[str, Series] = {}
    for run in runs:
        metrics = run["metrics"]
        traced_wall = metrics.get(TRACED_WALL, {}).get("value")
        for metric, entry in metrics.items():
            if metric not in directions:
                raise ResultsError(
                    f"{metric}: no direction declared in "
                    f"{DEFAULT_BENCHMARK}")
            value, unit = float(entry["value"]), entry["unit"]
            if (traced_wall is not None and unit == "s" and "." in metric
                    and metric != TRACED_WALL):
                value = value / traced_wall if traced_wall else 0.0
                unit = SHARE
            name = f"{run['workload']}/{metric}"
            series.setdefault(
                name, Series(name, unit, directions[metric])
            ).samples.append(value)
    return series
