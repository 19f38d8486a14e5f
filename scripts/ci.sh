#!/usr/bin/env bash
# Continuous-integration gate.
#
#   scripts/ci.sh          # tier-1 gate + clippy on the workspace
#   scripts/ci.sh --full   # additionally run every workspace test
#
# Tier-1 (ROADMAP.md) is the root package: release build + its tests.
# Clippy runs with -D warnings so lints cannot accumulate silently.
set -euo pipefail
cd "$(dirname "$0")/.."

echo '>>> tier-1: cargo build --release'
cargo build --release

echo '>>> tier-1: cargo test -q'
cargo test -q

echo '>>> clippy (workspace, -D warnings)'
cargo clippy --workspace --all-targets -- -D warnings

# perfbench is its own workspace; building it here makes a change to
# the hotspot_bench API it calls fail CI rather than the benchmark run.
echo '>>> perfbench build (its own workspace, against hotspot_bench)'
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml

echo '>>> observability smoke'
scripts/obs_smoke.sh

echo '>>> sweep shard smoke (exp_fig09: 3 concurrent shard workers + --merge, byte identity)'
scripts/sweep_shard_smoke.sh

if [[ "${1:-}" == "--full" ]]; then
  echo '>>> full workspace tests'
  cargo test --workspace -q
fi

echo 'CI gate passed.'
