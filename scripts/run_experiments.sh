#!/usr/bin/env bash
# Regenerate paper tables/figures into results/ from the experiment
# registry results/RUNS.tsv (one row per result: stem, binary, flags).
#
#   scripts/run_experiments.sh              # every row
#   scripts/run_experiments.sh STEM [...]   # only these rows
#
# Each run writes results/<stem>.tsv (stdout), .manifest.json,
# .metrics.jsonl and .log (stderr), and prints its wall time.
set -euo pipefail
cd "$(dirname "$0")/.."

REGISTRY=results/RUNS.tsv
declare -A binary flags
stems=()
while IFS=$'\t' read -r stem bin extra; do
  [[ "$stem" == stem ]] && continue
  binary[$stem]=$bin
  flags[$stem]=$extra
  stems+=("$stem")
done < "$REGISTRY"

if (($#)); then
  for stem in "$@"; do
    [[ -n "${binary[$stem]:-}" ]] || { echo "no row for '$stem' in $REGISTRY" >&2; exit 2; }
  done
  stems=("$@")
fi

cargo build --release -p hotspot-bench --bins

for stem in "${stems[@]}"; do
  read -r -a extra <<< "${flags[$stem]}"
  echo ">>> ${binary[$stem]} ${extra[*]}"
  t0=$SECONDS
  # The metrics sink appends, so clear any stale stream first.
  rm -f "results/$stem.metrics.jsonl"
  ./target/release/"${binary[$stem]}" "${extra[@]}" \
    --manifest "results/$stem.manifest.json" \
    --metrics-out "results/$stem.metrics.jsonl" \
    > "results/$stem.tsv" 2> "results/$stem.log"
  echo "    $((SECONDS - t0))s elapsed"
done
