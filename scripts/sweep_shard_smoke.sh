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
# It also checks that a shard worker marks its stdout as partial and
# that a bare --shards N (neither --shard nor --merge) is refused.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=target/sweep-shard-smoke
rm -rf "$OUT"
mkdir -p "$OUT/single" "$OUT/sharded" "$OUT/mixed"

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
if "$EXP" "${ARGS[@]}" --shards 3 --merge \
     --checkpoint "$OUT/mixed/sweep.tsv" > /dev/null 2> "$OUT/mixed/refusal.txt"; then
  echo 'sweep shard smoke: mixed-fingerprint merge was NOT refused' >&2
  exit 1
fi
grep -q fingerprint "$OUT/mixed/refusal.txt" || {
  echo 'sweep shard smoke: refusal does not mention the fingerprint' >&2
  cat "$OUT/mixed/refusal.txt" >&2
  exit 1
}

echo '>>> sweep shard smoke: a bare --shards N is refused'
if "$EXP" "${ARGS[@]}" --shards 3 --checkpoint "$OUT/bare.tsv" \
     > /dev/null 2> "$OUT/bare.txt"; then
  echo 'sweep shard smoke: bare --shards 3 was NOT refused' >&2
  exit 1
fi
grep -q -- '--shard I' "$OUT/bare.txt" && grep -q -- '--merge' "$OUT/bare.txt" || {
  echo 'sweep shard smoke: bare --shards refusal does not name --shard I and --merge' >&2
  cat "$OUT/bare.txt" >&2
  exit 1
}

echo 'sweep shard smoke passed.'
