#!/usr/bin/env bash
# Per-stage performance baseline gate (ROADMAP: "per-stage performance
# baselines").
#
#   scripts/perf_baseline.sh            # check against BENCH_trees.json
#   scripts/perf_baseline.sh --record   # re-pin the baseline (after a
#                                       # deliberate behaviour change)
#
# The check re-measures the four pinned stages — exact and histogram
# forest fits, the `sweep.cell` span aggregate of one reduced sweep,
# and the `imputer.fit` span aggregate of an autoencoder training —
# and hard-fails if any stage's deterministic pinned counter drifts
# from the recorded baseline; wall-clock drift beyond the tolerance
# band is flagged as a warning only.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="--check"
if [[ "${1:-}" == "--record" ]]; then
  mode="--record"
fi

cargo build --release -p hotspot-bench --bin perf_baseline
./target/release/perf_baseline "$mode" --path BENCH_trees.json
