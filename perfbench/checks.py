"""Golden output digests and the canonical forms they are taken over.

``golden.json`` (beside this file) holds:

- ``cells``: one digest per Figure 7/8 cell ``name/pipeline/capacity``
  of its :class:`~repro.runner.summary.RunSummary` fields.  The paper
  workloads check every cell they compute, and serve-mixed checks every
  response summary, against these.
- ``grid176``: one digest over the 176 Figure 7 cells in canonical order.
- ``figures``: one digest per figure of its result data in canonical
  order (the seed permutes the order the figure runs see).
- ``fuzz_corpus``: the generator seeds of the fuzz corpus, and ``fuzz``:
  per generator seed, one digest per oracle config of the reference
  outcome, the verdict kind and the observed outcome.

The modelled machine is not validated against hardware: the digests pin
this model's results, and the paper's reported numbers are the only
outside comparison (EXPERIMENTS.md).  Regenerate the file with
``python3 perfbench/make_golden.py`` when the model changes on purpose.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: significant digits kept of a float before hashing, so a figure's
#: reductions summed in another order still hash the same
FLOAT_DIGITS = 12


def canonical(value):
    """JSON-ready form: floats rounded, tuples as lists, keys as str."""
    if isinstance(value, float):
        return float(f"{value:.{FLOAT_DIGITS}g}")
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return canonical(dataclasses.asdict(value))
    return value


def digest(value) -> str:
    text = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def cell_key(name: str, pipeline: str, capacity) -> str:
    return f"{name}/{pipeline}/{capacity}"


def summary_digest(summary) -> str:
    """Digest of a RunSummary or of its ``summary_to_dict`` form."""
    if not isinstance(summary, dict):
        summary = dataclasses.asdict(summary)
    return digest(summary)


# -- canonical figure data ----------------------------------------------------


def fig3_data(result) -> dict:
    return {
        "consumers_static": sorted(result.consumers_static.items()),
        "consumers_dynamic": sorted(result.consumers_dynamic.items()),
        "duration_static": sorted(result.duration_static.items()),
        "duration_dynamic": sorted(result.duration_dynamic.items()),
        "overlap_dynamic": sorted(result.overlap_dynamic.items()),
        "predicates_for_99pct": result.predicates_for_99pct,
        "sensitive_fraction_loops": result.sensitive_fraction_loops,
        "predicated_loops": result.predicated_loops,
        "modulo_candidate_loops": result.modulo_candidate_loops,
    }


def fig5_data(rows) -> list:
    return [[row.capacity, row.whole_fraction, row.postfilter_fraction,
             sorted(row.loop_passes.items())]
            for row in sorted(rows, key=lambda r: r.capacity)]


def fig7_data(result) -> dict:
    return {
        pipeline: {name: sorted(zip(result.sizes, fractions))
                   for name, fractions in sorted(series.items())}
        for pipeline, series in sorted(result.series.items())
    }


def fig8_data(result) -> list:
    return [dataclasses.asdict(row)
            for row in sorted(result.rows, key=lambda r: r.name)]


def verdict_digest(verdict) -> str:
    return digest([verdict.reference, verdict.kind, verdict.observed])


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)
