#!/usr/bin/env bash
# Sharded-sweep smoke: the collector's byte-identity invariant, end to
# end across real processes of a real experiment binary.
#
# Runs the Fig. 9 horizon sweep (exp_fig09_lift_vs_horizon, all eight
# models) twice through the per-binary sharding flags — once as one
# shard, once as 3 concurrent shard workers — merges each set with
# --merge, and asserts:
#
#   1. byte identity of the collector's deterministic artifacts:
#        <base>.merged.tsv           canonical TSV (plan order, no wall clock)
#        <base>.merged.metrics.json  deterministic metrics projection
#   2. the 3-shard --merge run prints the same stdout as a plain
#      unsharded run;
#   3. the shard manifests of one run share a config fingerprint
#      (manifest_check --compare exits 0);
#   4. a merge over shards journaled under a different seed is
#      refused, and the refusal names the fingerprint.
#
# It also checks that a shard worker marks its stdout as partial, that
# a bare --shards N (neither --shard nor --merge) is refused, and the
# plain --checkpoint flow the same runner serves: a re-run without
# --resume exits 2, --resume over the complete journal prints the plain
# run's stdout, and --resume under another --seed exits 2 naming the
# fingerprint.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=target/sweep-shard-smoke
rm -rf "$OUT"
mkdir -p "$OUT/single" "$OUT/sharded" "$OUT/mixed" "$OUT/journal"

# expect_refusal LABEL STDERR_FILE CMD... — CMD must exit exactly 2.
expect_refusal() {
  local label=$1 stderr=$2
  shift 2
  local code=0
  "$@" > /dev/null 2> "$stderr" || code=$?
  if [[ $code -ne 2 ]]; then
    echo "sweep shard smoke: $label exited $code, expected 2" >&2
    cat "$stderr" >&2
    exit 1
  fi
}

cargo build --release -p hotspot-bench --bin exp_fig09_lift_vs_horizon --bin manifest_check

EXP=./target/release/exp_fig09_lift_vs_horizon
# 80 sectors × 12 weeks, t-step 30 → a 120-cell grid (8 models × 1
# forecast day × 15 horizons × w=7): small enough for CI, sharded
# non-trivially 3 ways. No --cell-deadline-ms: byte identity is only
# promised for clean runs (timeouts are timing-dependent).
ARGS=(--sectors 80 --weeks 12 --t-step 30 --trees 8 --train-days 4)

echo '>>> sweep shard smoke: plain unsharded run'
"$EXP" "${ARGS[@]}" > "$OUT/plain.stdout"

echo '>>> sweep shard smoke: single-shard reference (1 worker + merge)'
"$EXP" "${ARGS[@]}" --shards 1 --shard 0 --checkpoint "$OUT/single/sweep.tsv" > /dev/null
"$EXP" "${ARGS[@]}" --shards 1 --merge --checkpoint "$OUT/single/sweep.tsv" > /dev/null

echo '>>> sweep shard smoke: 3 concurrent shard workers + merge'
pids=()
for i in 0 1 2; do
  "$EXP" "${ARGS[@]}" --shards 3 --shard "$i" --checkpoint "$OUT/sharded/sweep.tsv" \
    > "$OUT/sharded/worker-$i.stdout" &
  pids+=("$!")
done
for pid in "${pids[@]}"; do
  wait "$pid"
done
"$EXP" "${ARGS[@]}" --shards 3 --merge --checkpoint "$OUT/sharded/sweep.tsv" \
  > "$OUT/sharded/merge.stdout"

echo '>>> sweep shard smoke: byte identity (TSV + metrics projection)'
cmp "$OUT/single/sweep.merged.tsv" "$OUT/sharded/sweep.merged.tsv"
cmp "$OUT/single/sweep.merged.metrics.json" "$OUT/sharded/sweep.merged.metrics.json"

echo '>>> sweep shard smoke: merged stdout equals the plain run'
cmp "$OUT/plain.stdout" "$OUT/sharded/merge.stdout"

echo '>>> sweep shard smoke: a worker marks its stdout as partial'
grep -q '^# partial: shard 1/3 ran [0-9]* of 120 plan cells; combine the shards with --merge$' \
  "$OUT/sharded/worker-1.stdout" || {
  echo 'sweep shard smoke: worker stdout lacks the partial marker' >&2
  exit 1
}

echo '>>> sweep shard smoke: shard manifests share the config fingerprint'
./target/release/manifest_check --compare \
  "$OUT/sharded/sweep.shard-0-of-3.manifest.json" \
  "$OUT/sharded/sweep.shard-1-of-3.manifest.json"

echo '>>> sweep shard smoke: mixed-fingerprint merge is refused'
# Shard 0 journaled under a different seed, shards 1–2 from the good
# run: the collector must refuse the set, not silently merge it.
"$EXP" "${ARGS[@]}" --seed 8 \
  --shards 3 --shard 0 --checkpoint "$OUT/mixed/sweep.tsv" > /dev/null
cp "$OUT/sharded/sweep.shard-1-of-3.tsv" "$OUT/sharded/sweep.shard-1-of-3.manifest.json" \
   "$OUT/sharded/sweep.shard-2-of-3.tsv" "$OUT/sharded/sweep.shard-2-of-3.manifest.json" \
   "$OUT/mixed/"
expect_refusal 'mixed-fingerprint merge' "$OUT/mixed/refusal.txt" \
  "$EXP" "${ARGS[@]}" --shards 3 --merge --checkpoint "$OUT/mixed/sweep.tsv"
grep -q fingerprint "$OUT/mixed/refusal.txt" || {
  echo 'sweep shard smoke: refusal does not mention the fingerprint' >&2
  cat "$OUT/mixed/refusal.txt" >&2
  exit 1
}

echo '>>> sweep shard smoke: a bare --shards N is refused'
expect_refusal 'bare --shards 3' "$OUT/bare.txt" \
  "$EXP" "${ARGS[@]}" --shards 3 --checkpoint "$OUT/bare.tsv"
grep -q -- '--shard I' "$OUT/bare.txt" && grep -q -- '--merge' "$OUT/bare.txt" || {
  echo 'sweep shard smoke: bare --shards refusal does not name --shard I and --merge' >&2
  cat "$OUT/bare.txt" >&2
  exit 1
}

echo '>>> sweep shard smoke: plain --checkpoint run prints the plain stdout'
"$EXP" "${ARGS[@]}" --checkpoint "$OUT/journal/sweep.tsv" > "$OUT/journal/first.stdout"
cmp "$OUT/plain.stdout" "$OUT/journal/first.stdout"

echo '>>> sweep shard smoke: re-running onto the journal without --resume exits 2'
expect_refusal 're-run without --resume' "$OUT/journal/rerun.txt" \
  "$EXP" "${ARGS[@]}" --checkpoint "$OUT/journal/sweep.tsv"

echo '>>> sweep shard smoke: --resume over the complete journal prints the plain stdout'
"$EXP" "${ARGS[@]}" --checkpoint "$OUT/journal/sweep.tsv" --resume \
  > "$OUT/journal/resumed.stdout"
cmp "$OUT/plain.stdout" "$OUT/journal/resumed.stdout"

echo '>>> sweep shard smoke: --resume under another --seed exits 2 naming the fingerprint'
expect_refusal '--resume under --seed 8' "$OUT/journal/reseeded.txt" \
  "$EXP" "${ARGS[@]}" --seed 8 --checkpoint "$OUT/journal/sweep.tsv" --resume
grep -q fingerprint "$OUT/journal/reseeded.txt" || {
  echo 'sweep shard smoke: --resume refusal does not mention the fingerprint' >&2
  cat "$OUT/journal/reseeded.txt" >&2
  exit 1
}

echo 'sweep shard smoke passed.'
