#!/usr/bin/env bash
# Run every perfbench workload untraced and traced, and append each run's
# last output line, tagged with its workload, to one results file:
#
#     scripts/perf_results.sh perf-results.jsonl
#
# `python -m repro.obs perf record|compare perf-results.jsonl` reads it.
# Each run gives every series one sample; the rounds are interleaved so
# a slow spell of the host spreads over all workloads.  Run from the
# repository root.
set -euo pipefail

results=$1
rounds=5

for _ in $(seq "$rounds"); do
  for workload in paper-cold paper-warm fuzz-corpus serve-mixed; do
    for trace in 0 1; do
      line=$(python3 perfbench/run.py --workload "$workload" --seed 1 \
        --seconds 0 --trace "$trace" | tail -n 1)
      printf '{"workload": "%s", %s\n' "$workload" "${line#\{}" \
        >> "$results"
    done
  done
done
