"""Regenerate ``perfbench/golden.json`` from the current program.

    python3 perfbench/make_golden.py

Runs the paper path once in canonical order into an empty cache and the
fuzz corpus once, and writes the digests described in
:mod:`perfbench.checks`.  Only run it when the modelled results are meant
to change; the benchmark checks every run against the file.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import checks
    from perfbench.workloads import (
        FIG5_SIZES,
        FIG7_SIZES,
        fuzz_corpus,
        paper_outputs,
        reset_process_state,
        run_paper_path,
    )
    from repro.bench import benchmark_names
    from repro.experiments import common
    from repro.fuzz.gen import generate
    from repro.fuzz.oracle import check_program, default_configs
    from repro.runner.cache import ArtifactCache

    cache_dir = ROOT / ".perfbench_out" / "golden-cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir(parents=True)
    try:
        reset_process_state()
        common.reset(ArtifactCache(cache_dir))
        figures = run_paper_path(benchmark_names(), FIG7_SIZES, FIG5_SIZES)
        paper = paper_outputs(figures)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    corpus = fuzz_corpus()
    fuzz = {}
    for seed in corpus:
        report = check_program(generate(seed), default_configs())
        if not report.ok:
            raise SystemExit(f"fuzz seed {seed} diverges: "
                             f"{report.divergences[0].describe()}")
        fuzz[str(seed)] = {v.config.label: checks.verdict_digest(v)
                           for v in report.verdicts}

    golden = {
        "note": "digests of this model's outputs; the model is not "
                "validated against hardware",
        "grid176": paper["grid176"],
        "figures": paper["figures"],
        "cells": paper["cells"],
        "fuzz_corpus": corpus,
        "fuzz": fuzz,
    }
    with open(checks.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {checks.GOLDEN_PATH}: {len(paper['cells'])} cells, "
          f"{len(fuzz)} fuzz programs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
