//! The sweep cache's one hard invariant, end to end: a sweep is
//! **byte-identical** — same canonical TSV, same health — whatever its
//! cache holds, for any split strategy, shard topology, or
//! checkpoint-resume history. The reference runs use an uncached
//! sweep in all but name: an injected `SweepCache::with_budgets(1, 1)`
//! keeps no plane and no quantised lag past the next build, so every
//! evicted entry is rebuilt afresh. The cache may only move wall-clock
//! time, never a number.
//!
//! All cache-behaviour assertions use an injected [`SweepCache`]'s
//! per-instance statistics; the global observability counters are
//! shared across this test process and are never asserted here.

use hotspot::forecast::context::{ForecastContext, Target};
use hotspot::forecast::models::ModelSpec;
use hotspot::forecast::SweepCache;
use hotspot::forecast::sweep::{
    canonical_tsv, merge_shards, run_sweep, CellOutcome, InProcessExecutor, ResiliencePolicy,
    ShardFiles, ShardSpec, SweepConfig, SweepPlan, SweepResult,
};
use hotspot::trees::SplitStrategy;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// Shared 10-sector synthetic context (hot weekday-business-hours
/// cluster in sectors 0–2); building it is the expensive part, so the
/// whole suite reuses one.
fn ctx() -> &'static ForecastContext {
    static CTX: OnceLock<ForecastContext> = OnceLock::new();
    CTX.get_or_init(|| {
        let catalog = hotspot::core::kpi::KpiCatalog::standard();
        let kpis = hotspot::core::tensor::Tensor3::from_fn(
            10,
            hotspot::core::HOURS_PER_WEEK * 6,
            21,
            |i, j, k| {
                let def = &catalog.defs()[k];
                let dow = (j / 24) % 7;
                if i < 3 && (6..22).contains(&(j % 24)) && dow < 5 {
                    def.degraded
                } else {
                    def.nominal
                }
            },
        );
        let scored = hotspot::core::pipeline::ScorePipeline::standard().run(&kpis).unwrap();
        ForecastContext::build(&kpis, &scored, Target::BeHotSpot).unwrap()
    })
}

/// A reduced classifier grid (classifiers are the only consumers of
/// feature planes, so parity must be exercised through one).
fn config(
    ts: Vec<usize>,
    hs: Vec<usize>,
    seed: u64,
    n_threads: usize,
    split: SplitStrategy,
) -> SweepConfig {
    SweepConfig {
        models: vec![ModelSpec::Average, ModelSpec::RfF1],
        ts,
        hs,
        ws: vec![3],
        n_trees: 4,
        train_days: 4,
        random_repeats: 5,
        seed,
        n_threads: Some(n_threads),
        resilience: ResiliencePolicy::default(),
        split,
    }
}

fn tsv(cfg: &SweepConfig, result: &SweepResult) -> String {
    canonical_tsv(&SweepPlan::new(cfg), result).expect("complete sweep renders")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("hotspot-plane-cache-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Execute the full (unsharded) plan with an injected cache, so the
/// test can read that cache's private stats afterwards.
fn run_with_cache(
    cfg: &SweepConfig,
    cache: &Arc<SweepCache>,
    checkpoint: Option<PathBuf>,
) -> SweepResult {
    InProcessExecutor {
        ctx: ctx(),
        config: cfg,
        shard: ShardSpec::FULL,
        checkpoint,
        cache: Some(Arc::clone(cache)),
    }
    .execute()
    .unwrap()
}

/// The reference sweep: same config, run against a cache that evicts
/// on every build.
fn run_evicting(cfg: &SweepConfig) -> SweepResult {
    let cache = Arc::new(SweepCache::with_budgets(1, 1));
    let result = run_with_cache(cfg, &cache, None);
    assert!(cache.planes.stats().evictions > 0, "the reference cache must evict");
    result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A sweep at the default budget is byte-identical to one whose
    /// cache evicts on every build, for every split strategy, seed,
    /// and thread count.
    #[test]
    fn cached_sweep_is_byte_identical_to_uncached(
        n_ts in 1usize..3,
        both_hs in any::<bool>(),
        seed in 1u64..5,
        n_threads in 1usize..3,
        exact in any::<bool>(),
    ) {
        let ts = vec![20, 24][..n_ts].to_vec();
        let hs = if both_hs { vec![1, 3] } else { vec![1] };
        let split = if exact { SplitStrategy::Exact } else { SplitStrategy::default() };
        let cfg = config(ts, hs, seed, n_threads, split);

        let cached = run_sweep(ctx(), &cfg);
        let reference = run_evicting(&cfg);
        prop_assert!(cached.health.is_clean());
        prop_assert_eq!(
            tsv(&cfg, &cached),
            tsv(&cfg, &reference),
            "cache must be byte-transparent"
        );
    }
}

/// A 2-shard run merges to the same bytes as a single-process sweep
/// whose cache evicts on every build: per-shard caches cannot leak
/// state into the results.
#[test]
fn sharded_cached_run_merges_to_uncached_single_process() {
    let cfg = config(vec![20, 24], vec![1, 3], 3, 2, SplitStrategy::default());
    let plan = SweepPlan::new(&cfg);
    let dir = scratch_dir("sharded");
    let base = dir.join("sweep.tsv");
    const N: u64 = 2;
    let files: Vec<ShardFiles> = (0..N)
        .map(|index| {
            let shard = ShardSpec { index, count: N };
            let files = ShardFiles::for_base(&base, shard);
            InProcessExecutor {
                ctx: ctx(),
                config: &cfg,
                shard,
                checkpoint: Some(files.checkpoint.clone()),
                cache: None,
            }
            .execute()
            .unwrap();
            files
        })
        .collect();
    let merged = merge_shards(&plan, &files).unwrap();
    assert_eq!(
        canonical_tsv(&plan, &merged.result).unwrap(),
        tsv(&cfg, &run_evicting(&cfg)),
        "sharded merge must equal the evicting single-process sweep"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Resuming a finished checkpoint adopts every cell without touching
/// the feature cache, and re-executing against a warm shared cache
/// builds nothing new — build-at-most-once across executes.
#[test]
fn resume_and_warm_cache_build_nothing_new() {
    let cfg = config(vec![20, 24], vec![1, 3], 3, 2, SplitStrategy::default());
    let dir = scratch_dir("resume");
    let checkpoint = dir.join("sweep.tsv");

    // Fresh run journaling to the checkpoint: planes get built.
    let warm = Arc::new(SweepCache::default());
    let first = run_with_cache(&cfg, &warm, Some(checkpoint.clone()));
    let after_first = warm.planes.stats();
    let columns_first = warm.columns.stats();
    assert!(first.health.is_clean());
    assert!(after_first.builds > 0, "a classifier sweep must build planes");
    assert!(columns_first.columns_quantised > 0, "an RF-F1 sweep must quantise columns");
    assert_eq!(after_first.evictions, 0, "an ample budget must not evict");
    assert_eq!(columns_first.evictions, 0, "an ample budget must not evict");

    // Resume from the complete journal: every cell is adopted, so the
    // cache (a fresh one — nothing warm to serve from) sees no traffic.
    let idle = Arc::new(SweepCache::default());
    let resumed = run_with_cache(&cfg, &idle, Some(checkpoint.clone()));
    assert_eq!(idle.planes.stats().builds, 0, "adopted cells must not featurise");
    assert_eq!(idle.columns.stats().columns_quantised, 0, "adopted cells must not quantise");
    assert_eq!(resumed.health.resumed, first.cells.len(), "every journaled cell is adopted");
    assert_eq!(tsv(&cfg, &resumed), tsv(&cfg, &first), "resume must reproduce the run");

    // Re-execute (no checkpoint) against the warm cache: identical
    // bytes, zero new builds, and the replay is served from cache.
    let replay = run_with_cache(&cfg, &warm, None);
    let after_replay = warm.planes.stats();
    assert_eq!(
        after_replay.builds, after_first.builds,
        "a warm cache must build nothing new (build-at-most-once)"
    );
    assert_eq!(
        warm.columns.stats().columns_quantised,
        columns_first.columns_quantised,
        "a warm store must quantise nothing new"
    );
    assert!(after_replay.hits > after_first.hits, "the replay must hit the cache");
    assert_eq!(tsv(&cfg, &replay), tsv(&cfg, &first), "warm replay must reproduce the run");
    std::fs::remove_dir_all(&dir).ok();
}

/// A cell whose target day holds no positive label cannot be scored,
/// so it is empty before anything is fitted: its classifier never asks
/// the plane cache for a plane.
#[test]
fn unscorable_cell_is_empty_without_a_fit() {
    let (t, h) = (24, 1);
    let mut unscorable = ctx().clone();
    for i in 0..unscorable.n_sectors() {
        unscorable.target.set(i, t + h, 0.0);
    }
    let cfg = SweepConfig {
        models: vec![ModelSpec::RfF1],
        ..config(vec![t], vec![h], 1, 1, SplitStrategy::default())
    };
    let cache = Arc::new(SweepCache::default());
    let result = InProcessExecutor {
        ctx: &unscorable,
        config: &cfg,
        shard: ShardSpec::FULL,
        checkpoint: None,
        cache: Some(Arc::clone(&cache)),
    }
    .execute()
    .unwrap();
    assert_eq!(result.cells.len(), 1, "the grid has one cell");
    assert_eq!(result.cells[0].outcome, CellOutcome::Empty);
    let stats = cache.planes.stats();
    assert_eq!(stats.hits + stats.misses, 0, "an unscorable cell must not featurise");
}
