//! The collector's merge invariant, end to end: merging any sharded
//! partition of a sweep must reproduce the single-process run — same
//! cells, same health counters, same canonical TSV bytes — and a
//! crashed worker must be resumable from its torn journal without
//! disturbing that equality. Mixed-fingerprint shard sets must be
//! refused, never silently merged.

use hotspot::core::kpi::KpiCatalog;
use hotspot::core::pipeline::ScorePipeline;
use hotspot::core::tensor::Tensor3;
use hotspot::core::HOURS_PER_WEEK;
use hotspot::forecast::context::{ForecastContext, Target};
use hotspot::forecast::models::ModelSpec;
use hotspot::forecast::sweep::{
    canonical_tsv, merge_shards, run_sweep, InProcessExecutor, ResiliencePolicy, ShardFiles,
    ShardSpec, SweepConfig, SweepPlan, SweepResult,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Shared 10-sector synthetic context (hot weekday-business-hours
/// cluster in sectors 0–2); building it is the expensive part, so the
/// whole suite reuses one.
fn ctx() -> &'static ForecastContext {
    static CTX: OnceLock<ForecastContext> = OnceLock::new();
    CTX.get_or_init(|| {
        let catalog = KpiCatalog::standard();
        let kpis = Tensor3::from_fn(10, HOURS_PER_WEEK * 6, 21, |i, j, k| {
            let def = &catalog.defs()[k];
            let dow = (j / 24) % 7;
            if i < 3 && (6..22).contains(&(j % 24)) && dow < 5 {
                def.degraded
            } else {
                def.nominal
            }
        });
        let scored = ScorePipeline::standard().run(&kpis).unwrap();
        ForecastContext::build(&kpis, &scored, Target::BeHotSpot).unwrap()
    })
}

fn config(models: Vec<ModelSpec>, ts: Vec<usize>, hs: Vec<usize>, ws: Vec<usize>) -> SweepConfig {
    SweepConfig {
        models,
        ts,
        hs,
        ws,
        n_trees: 4,
        train_days: 4,
        random_repeats: 10,
        seed: 3,
        n_threads: Some(2),
        resilience: ResiliencePolicy::default(),
        split: Default::default(),
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("hotspot-sharded-sweep-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run every shard of an `n`-way partition in-process, journaling to
/// shard files under `base`, and return those files.
fn run_shards(cfg: &SweepConfig, plan: &SweepPlan, base: &Path, n: u64) -> Vec<ShardFiles> {
    (0..n)
        .map(|index| {
            let shard = ShardSpec { index, count: n };
            let files = ShardFiles::for_base(base, shard);
            let executor = InProcessExecutor {
                ctx: ctx(),
                config: cfg,
                shard,
                checkpoint: Some(files.checkpoint.clone()),
                cache: None,
            };
            executor.execute(plan).unwrap();
            files
        })
        .collect()
}

fn health_tuple(r: &SweepResult) -> (usize, usize, usize, usize, usize, usize) {
    let h = &r.health;
    (h.evaluated, h.skipped, h.errored, h.timed_out, h.retried, h.resumed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any partition of any reduced grid merges back to the
    /// single-process result: identical cells (canonical TSV bytes),
    /// identical health counters, same fingerprint.
    #[test]
    fn any_partition_merges_to_the_unsharded_sweep(
        n_shards in 1u64..6,
        use_average in any::<bool>(),
        n_ts in 1usize..4,
        n_hs in 1usize..3,
        wide_w in any::<bool>(),
        case in 0u32..1000,
    ) {
        let mut models = vec![ModelSpec::Random];
        if use_average {
            models.push(ModelSpec::Average);
        }
        let cfg = config(
            models,
            vec![20, 24, 28][..n_ts].to_vec(),
            vec![1, 3][..n_hs].to_vec(),
            if wide_w { vec![3, 7] } else { vec![3] },
        );
        let plan = SweepPlan::new(&cfg);
        let full = run_sweep(ctx(), &cfg);

        let dir = scratch_dir(&format!("prop-{case}-{n_shards}"));
        let files = run_shards(&cfg, &plan, &dir.join("sweep.tsv"), n_shards);
        let merged = merge_shards(&plan, &files).unwrap();

        prop_assert_eq!(merged.fingerprint, plan.fingerprint());
        prop_assert_eq!(merged.result.cells.len(), full.cells.len());
        prop_assert_eq!(health_tuple(&merged.result), health_tuple(&full));
        prop_assert_eq!(
            canonical_tsv(&plan, &merged.result).unwrap(),
            canonical_tsv(&plan, &full).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A worker that dies mid-shard leaves a crash-consistent journal:
/// merging refuses (naming the missing cells), rerunning just that
/// shard resumes from the tear, and the re-merge is byte-identical to
/// the single-process sweep.
#[test]
fn killed_worker_resumes_and_remerges_identically() {
    let cfg = config(
        vec![ModelSpec::Random, ModelSpec::Average],
        vec![20, 24, 28],
        vec![1, 3],
        vec![3, 7],
    );
    let plan = SweepPlan::new(&cfg);
    let full = run_sweep(ctx(), &cfg);

    let dir = scratch_dir("killed-worker");
    let base = dir.join("sweep.tsv");
    const N: u64 = 3;
    let files = run_shards(&cfg, &plan, &base, N);

    // Pick a shard with at least 2 cells and tear its journal: keep
    // the header and the first entry, as if the worker died mid-run.
    let victim = (0..N)
        .find(|&i| plan.shard_cells(ShardSpec { index: i, count: N }).len() >= 2)
        .expect("24-cell grid must give some shard 2+ cells");
    let victim_files = &files[victim as usize];
    let journal = std::fs::read_to_string(&victim_files.checkpoint).unwrap();
    let torn: Vec<&str> = journal.lines().take(2).collect();
    std::fs::write(&victim_files.checkpoint, format!("{}\n", torn.join("\n"))).unwrap();

    // Merging the torn set refuses and points at the crashed shard.
    let err = merge_shards(&plan, &files).unwrap_err().to_string();
    assert!(err.contains("missing"), "refusal should name missing cells: {err}");
    assert!(err.contains("resume"), "refusal should hint at resuming: {err}");

    // Rerun only the victim shard against its torn journal (the
    // `--resume` path): it must adopt the surviving entry and compute
    // the rest.
    let shard = ShardSpec { index: victim, count: N };
    let executor = InProcessExecutor {
        ctx: ctx(),
        config: &cfg,
        shard,
        checkpoint: Some(victim_files.checkpoint.clone()),
        cache: None,
    };
    let cells = executor.execute(&plan).unwrap();
    assert_eq!(cells.len(), plan.shard_cells(shard).len());

    let merged = merge_shards(&plan, &files).unwrap();
    assert_eq!(health_tuple(&merged.result), health_tuple(&full));
    assert_eq!(
        canonical_tsv(&plan, &merged.result).unwrap(),
        canonical_tsv(&plan, &full).unwrap(),
        "post-resume merge must be byte-identical to the unsharded sweep"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Shards journaled under different configurations never merge: the
/// fingerprint check refuses before any cell is combined.
#[test]
fn mixed_fingerprint_shards_refuse_to_merge() {
    let cfg_a = config(vec![ModelSpec::Random], vec![20, 24], vec![1], vec![3]);
    let cfg_b = SweepConfig { seed: cfg_a.seed + 1, ..cfg_a.clone() };
    let plan_a = SweepPlan::new(&cfg_a);
    let plan_b = SweepPlan::new(&cfg_b);
    assert_ne!(plan_a.fingerprint(), plan_b.fingerprint(), "seed must change the fingerprint");

    let dir = scratch_dir("mixed-fingerprint");
    let base = dir.join("sweep.tsv");
    const N: u64 = 2;
    // Shard 0 under config A, shard 1 under config B, same base.
    let shard0 = ShardSpec { index: 0, count: N };
    let shard1 = ShardSpec { index: 1, count: N };
    let files = vec![ShardFiles::for_base(&base, shard0), ShardFiles::for_base(&base, shard1)];
    InProcessExecutor {
        ctx: ctx(),
        config: &cfg_a,
        shard: shard0,
        checkpoint: Some(files[0].checkpoint.clone()),
        cache: None,
    }
    .execute(&plan_a)
    .unwrap();
    InProcessExecutor {
        ctx: ctx(),
        config: &cfg_b,
        shard: shard1,
        checkpoint: Some(files[1].checkpoint.clone()),
        cache: None,
    }
    .execute(&plan_b)
    .unwrap();

    let err = merge_shards(&plan_a, &files).unwrap_err().to_string();
    assert!(err.contains("merge_shards refused"), "hard refusal expected: {err}");
    assert!(err.contains("fingerprint"), "refusal should blame the fingerprint: {err}");
    std::fs::remove_dir_all(&dir).ok();
}
