//! End-to-end fault tolerance: fault-injected sweeps must complete
//! with structured failures, and resuming from a mid-run checkpoint
//! must reproduce the uninterrupted run exactly.

use hotspot::core::pipeline::ScorePipeline;
use hotspot::core::tensor::Tensor3;
use hotspot::core::HOURS_PER_WEEK;
use hotspot::core::error::Result as CoreResult;
use hotspot::forecast::checkpoint::{load_checkpoint_sharded, CheckpointWriter};
use hotspot::forecast::context::{ForecastContext, Target};
use hotspot::forecast::models::ModelSpec;
use hotspot::forecast::sweep::{
    run_sweep, CellOutcome, FaultPlan, InProcessExecutor, ResiliencePolicy, ShardSpec, SweepConfig,
    SweepPlan, SweepResult,
};
use std::path::{Path, PathBuf};

fn ctx() -> ForecastContext {
    let catalog = hotspot::core::kpi::KpiCatalog::standard();
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
}

fn config(models: Vec<ModelSpec>) -> SweepConfig {
    SweepConfig {
        models,
        ts: vec![20, 24, 28],
        hs: vec![1, 3],
        ws: vec![3, 7],
        n_trees: 8,
        train_days: 4,
        random_repeats: 10,
        seed: 3,
        n_threads: Some(2),
        resilience: ResiliencePolicy::default(),
        split: Default::default(),
    }
}

/// The `--checkpoint` run: the unsharded sweep, journaling to `path`
/// and adopting whatever it already holds.
fn run_journaled(c: &ForecastContext, cfg: &SweepConfig, path: &Path) -> CoreResult<SweepResult> {
    let checkpoint = Some(path.to_path_buf());
    InProcessExecutor { ctx: c, config: cfg, shard: ShardSpec::FULL, checkpoint, cache: None }
        .execute()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hotspot-fault-tolerance-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}-{name}", std::process::id()))
}

/// A sweep where a nontrivial share of cells panic or overrun their
/// deadline still visits every cell and reports the damage instead of
/// crashing.
#[test]
fn fault_injected_sweep_completes_with_structured_failures() {
    let c = ctx();
    let mut cfg = config(vec![ModelSpec::Average, ModelSpec::Persist]);
    cfg.resilience.cell_deadline_ms = Some(25);
    cfg.resilience.faults = Some(FaultPlan {
        panic_fraction: 0.2,
        transient: false,
        delay_fraction: 0.2,
        delay_ms: 100,
        seed: 5,
    });
    let n_cells = 2 * 3 * 2 * 2;

    // The plan really does hit ≥ 5% of the grid (panics are checked
    // before delays, so a cell scheduled for both counts as a panic).
    let plan = cfg.resilience.faults.clone().unwrap();
    let mut injected = 0;
    for &m in &cfg.models {
        for &t in &cfg.ts {
            for &h in &cfg.hs {
                for &w in &cfg.ws {
                    if plan.panics(m, t, h, w) || plan.delays(m, t, h, w) {
                        injected += 1;
                    }
                }
            }
        }
    }
    assert!(
        injected * 20 >= n_cells,
        "fault plan covers {injected}/{n_cells} cells, want ≥ 5%"
    );

    let result = run_sweep(&c, &cfg);
    assert_eq!(result.cells.len(), n_cells, "every cell must be visited");
    assert!(result.health.errored > 0, "{}", result.health.summary());
    assert!(result.health.timed_out > 0, "{}", result.health.summary());
    assert!(result.health.evaluated > 0, "{}", result.health.summary());
    assert_eq!(
        result.health.evaluated
            + result.health.skipped
            + result.health.errored
            + result.health.timed_out,
        n_cells
    );
    // Failures are structured and attributable.
    for cell in &result.cells {
        if let CellOutcome::Failed { error, attempts, .. } = &cell.outcome {
            assert!(error.contains("injected fault"), "{error}");
            assert_eq!(*attempts, cfg.resilience.max_attempts);
        }
    }
    // Aggregates over the partial results still work.
    let (lift, _) = result.mean_lift(ModelSpec::Average, 1, 7);
    assert!(lift.is_finite() || result.lifts(ModelSpec::Average, 1, 7).is_empty());
}

/// Interrupt a sweep halfway (simulated by checkpointing only half of
/// its cells), resume, and require bit-identical records to the
/// uninterrupted run.
#[test]
fn resume_from_mid_run_checkpoint_matches_uninterrupted_run() {
    let c = ctx();
    let cfg = config(vec![ModelSpec::Average, ModelSpec::RfF1]);
    let path = tmp("resume.tsv");
    let _ = std::fs::remove_file(&path);

    let uninterrupted = run_sweep(&c, &cfg);
    let n_cells = uninterrupted.cells.len();

    // Journal the "first half" of the run, as if the process died there.
    let half = n_cells / 2;
    let plan = SweepPlan::new(&cfg);
    let writer = CheckpointWriter::open_sharded(&path, &plan, ShardSpec::FULL).unwrap();
    for cell in &uninterrupted.cells[..half] {
        writer.append(cell).unwrap();
    }
    drop(writer);

    let resumed = run_journaled(&c, &cfg, &path).unwrap();
    assert_eq!(resumed.cells.len(), n_cells);
    assert_eq!(resumed.health.resumed, half, "{}", resumed.health.summary());

    for cell in &uninterrupted.cells {
        let twin = resumed
            .cells
            .iter()
            .find(|x| x.model == cell.model && x.t == cell.t && x.h == cell.h && x.w == cell.w)
            .unwrap_or_else(|| panic!("missing cell {} t={} h={} w={}", cell.model, cell.t, cell.h, cell.w));
        assert_eq!(
            cell.outcome, twin.outcome,
            "{} t={} h={} w={} diverged after resume",
            cell.model, cell.t, cell.h, cell.w
        );
    }
    // Derived statistics are bit-identical too.
    assert_eq!(
        uninterrupted.mean_lift(ModelSpec::RfF1, 3, 7),
        resumed.mean_lift(ModelSpec::RfF1, 3, 7)
    );

    // The resumed run journaled the remaining cells: a further resume
    // recomputes nothing.
    assert_eq!(load_checkpoint_sharded(&path, &plan, ShardSpec::FULL).unwrap().len(), n_cells);
    let third = run_journaled(&c, &cfg, &path).unwrap();
    assert_eq!(third.health.resumed, n_cells);

    let _ = std::fs::remove_file(&path);
}

/// A checkpoint written under one configuration refuses to resume a
/// different one.
#[test]
fn checkpoint_is_bound_to_its_configuration() {
    let c = ctx();
    let cfg = config(vec![ModelSpec::Average]);
    let path = tmp("fingerprint.tsv");
    let _ = std::fs::remove_file(&path);

    run_journaled(&c, &cfg, &path).unwrap();
    let mut other = cfg.clone();
    other.seed = 99;
    assert!(run_journaled(&c, &other, &path).is_err());

    let _ = std::fs::remove_file(&path);
}
