//! Sharded sweep driver / worker / collector — the multi-process face
//! of the plan → executor → collector engine.
//!
//! One binary, three modes, selected by the standard sharding flags
//! (`--checkpoint PATH` is always required; it is the base the shard
//! files derive from, per `ShardFiles::for_base`):
//!
//! * **driver** (default): with `--shards N` (N > 1), spawn N copies
//!   of this binary — one per shard, via `MultiProcessExecutor` —
//!   wait for them, merge their shard files, and write the canonical
//!   merged artifacts. With `--shards 1` (the default), run the whole
//!   sweep in-process instead and write the *same* artifacts — the
//!   single-process reference the byte-identity invariant is checked
//!   against.
//! * **worker** (`--shard I`): prepare the dataset, run only shard
//!   `I`'s cells, journal them to the shard checkpoint, and write a
//!   manifest sidecar carrying the shard identity and metrics
//!   snapshot.
//! * **collector** (`--merge`): compute nothing — validate and merge
//!   already-written shard files (e.g. after rerunning a crashed
//!   worker with `--resume`).
//!
//! Driver and collector modes write two deterministic artifacts next
//! to the base path: `<base>.merged.tsv` (canonical TSV, no
//! wall-clock columns) and `<base>.merged.metrics.json` (the
//! deterministic metrics projection). `scripts/sweep_shard_smoke.sh`
//! diffs these byte-for-byte between a 3-shard and a single-process
//! run.

use hotspot_bench::experiments::{context, resilience, run_sweep_with_options};
use hotspot_bench::{prepare, Experiment, RunOptions};
use hotspot_forecast::context::Target;
use hotspot_forecast::models::ModelSpec;
use hotspot_forecast::sweep::{
    canonical_tsv, deterministic_projection, merge_shards, MultiProcessExecutor, ShardFiles,
    ShardSpec, SweepConfig, SweepPlan, SweepResult, WorkerSpec,
};
use hotspot_obs as obs;
use hotspot_obs::MetricsSnapshot;
use std::path::{Path, PathBuf};

/// The grid this binary sweeps: small enough for CI smoke runs, broad
/// enough to cover a baseline, an informed baseline, and a classifier.
/// Everything is derived from the standard flags, so workers spawned
/// with the same argv build the identical config (and fingerprint).
fn sweep_config(opts: &RunOptions) -> SweepConfig {
    let hs = vec![1, 3, 7];
    let max_h = 7;
    SweepConfig {
        models: vec![ModelSpec::Random, ModelSpec::Average, ModelSpec::RfF1],
        ts: opts.ts(opts.weeks * 7, max_h),
        hs,
        ws: vec![3, 7],
        n_trees: opts.trees,
        train_days: opts.train_days,
        random_repeats: 15,
        seed: opts.seed,
        n_threads: None,
        resilience: resilience(opts),
        split: opts.split_strategy(),
    }
}

/// This process's argv minus the sharding flags — what the driver
/// hands to `MultiProcessExecutor`, which appends each worker's own
/// `--shards N --shard I`.
fn passthrough_args() -> Vec<String> {
    let mut out = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--shards" | "--shard" => {
                let _ = args.next();
            }
            "--merge" => {}
            other => out.push(other.to_string()),
        }
    }
    out
}

fn die(msg: &str) -> ! {
    eprintln!("sweep_worker: {msg}");
    std::process::exit(2);
}

fn write_file(path: &Path, contents: &str) {
    std::fs::write(path, contents)
        .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
}

/// Write the deterministic merged artifacts next to `base`.
fn write_merged_artifacts(
    base: &Path,
    plan: &SweepPlan,
    result: &SweepResult,
    metrics: &MetricsSnapshot,
) -> (PathBuf, PathBuf) {
    let tsv = canonical_tsv(plan, result)
        .unwrap_or_else(|e| die(&format!("cannot render canonical TSV: {e}")));
    let tsv_path = base.with_extension("merged.tsv");
    let metrics_path = base.with_extension("merged.metrics.json");
    write_file(&tsv_path, &tsv);
    write_file(&metrics_path, &format!("{}\n", deterministic_projection(metrics).to_json().render()));
    (tsv_path, metrics_path)
}

fn shard_files(base: &Path, shards: u64) -> Vec<ShardFiles> {
    (0..shards).map(|i| ShardFiles::for_base(base, ShardSpec { index: i, count: shards })).collect()
}

fn main() {
    let mut opts = RunOptions::from_env();
    let base = opts
        .checkpoint
        .clone()
        .unwrap_or_else(|| die("--checkpoint PATH is required (the shard/output base path)"));

    if opts.merge || (opts.shards > 1 && opts.shard.is_none()) {
        // Collector / driver: neither prepares the dataset — the
        // workers carry all the science.
        obs::init_from_env();
        if let Some(level) = opts.log_level {
            obs::set_level(level);
        }
        let config = sweep_config(&opts);
        let plan = SweepPlan::new(&config);
        let merged = if opts.merge {
            merge_shards(&plan, &shard_files(&base, opts.shards))
                .unwrap_or_else(|e| die(&e.to_string()))
        } else {
            let executor = MultiProcessExecutor {
                worker: WorkerSpec {
                    program: std::env::current_exe()
                        .unwrap_or_else(|e| die(&format!("cannot locate own binary: {e}"))),
                    args: passthrough_args(),
                },
                shards: opts.shards,
                base: base.clone(),
            };
            executor.run(&plan).unwrap_or_else(|e| die(&e.to_string()))
        };
        let metrics = merged
            .metrics
            .unwrap_or_else(|| die("shard manifests missing; cannot build merged metrics"));
        let (tsv_path, metrics_path) =
            write_merged_artifacts(&base, &plan, &merged.result, &metrics);
        println!(
            "sweep_worker: merged {} shards → {} cells ({}), fingerprint {:016x}",
            opts.shards,
            merged.result.cells.len(),
            merged.result.health.summary(),
            merged.fingerprint
        );
        println!("sweep_worker: wrote {} and {}", tsv_path.display(), metrics_path.display());
        return;
    }

    if let Some(index) = opts.shard {
        // Worker: manifest goes to the shard sidecar so the collector
        // can validate fingerprints and merge metrics.
        let files = ShardFiles::for_base(&base, ShardSpec { index, count: opts.shards });
        opts.manifest = Some(files.manifest.clone());
        let _run = Experiment::start("sweep_worker", &opts);
        let prep = prepare(&opts);
        let ctx = context(&prep, Target::BeHotSpot);
        let config = sweep_config(&opts);
        let result = run_sweep_with_options(&ctx, &config, &opts);
        println!("sweep_worker: shard {index}/{}: {}", opts.shards, result.health.summary());
        return;
    }

    // Single-process reference: same sweep, same artifacts, one
    // process. The smoke script diffs this against the sharded run.
    let _run = Experiment::start("sweep_worker", &opts);
    let prep = prepare(&opts);
    let ctx = context(&prep, Target::BeHotSpot);
    let config = sweep_config(&opts);
    let result = run_sweep_with_options(&ctx, &config, &opts);
    let plan = SweepPlan::new(&config);
    let snapshot = obs::global().snapshot();
    let (tsv_path, metrics_path) = write_merged_artifacts(&base, &plan, &result, &snapshot);
    println!(
        "sweep_worker: single-process run → {} cells ({})",
        result.cells.len(),
        result.health.summary()
    );
    println!("sweep_worker: wrote {} and {}", tsv_path.display(), metrics_path.display());
}
