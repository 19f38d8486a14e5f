//! The `(model, t, h, w)` grid sweep of Table III, structured as an
//! explicit **plan → executor → collector** engine.
//!
//! A Table III sweep is tens of thousands of independent fits. This
//! module decomposes the run into three layers, each testable on its
//! own:
//!
//! * **plan** ([`SweepPlan`]) — enumerate the grid in one canonical
//!   order, carry the config fingerprint, and partition the cells into
//!   N deterministic shards by stable cell key;
//! * **executor** ([`SweepExecutor`]) — actually run cells.
//!   [`InProcessExecutor`] is the classic thread-pool path with
//!   per-cell [`catch_unwind`](std::panic::catch_unwind) panic
//!   isolation, bounded deterministic retry, cooperative deadlines
//!   (see [`CancelToken`](hotspot_trees::CancelToken)), and an
//!   append-only checkpoint journal. [`MultiProcessExecutor`] spawns
//!   one worker *process* per shard (`--shard i/N`), each journaling
//!   its own checkpoint plus metrics/manifest sidecars;
//! * **collector** ([`merge_shards`]) — validate that every shard
//!   belongs to the same configuration (checkpoint fingerprints, and
//!   manifest sidecars when present) and merge the shards back into a
//!   single [`SweepResult`] whose deterministic artifacts are
//!   byte-identical to a single-process run of the same config.
//!
//! The historic entry points [`run_sweep`] and [`run_sweep_resumable`]
//! remain as thin wrappers over plan + execute + collect, so existing
//! callers keep their exact semantics (including crash-consistent
//! resume and the [`SweepHealth`] triage report).

pub mod collector;
pub mod executor;
pub mod plan;

pub use collector::{canonical_tsv, deterministic_projection, merge_shards, MergedSweep, ShardFiles};
pub use executor::{InProcessExecutor, MultiProcessExecutor, SweepExecutor, WorkerSpec};
pub use plan::{CellKey, ShardSpec, SweepPlan};

use crate::context::ForecastContext;
use crate::evaluate::EvalRecord;
use crate::models::ModelSpec;
use hotspot_core::error::Result as CoreResult;
use hotspot_trees::SplitStrategy;
use std::path::Path;
use std::time::Duration;

/// The paper's Table III grid values.
pub struct TableIIIGrid;

impl TableIIIGrid {
    /// `t ∈ {52, …, 87}`.
    pub fn ts() -> Vec<usize> {
        (52..=87).collect()
    }

    /// `h ∈ {1, 2, 3, 4, 5, 7, 8, 10, 12, 14, 16, 19, 22, 26, 29}`.
    pub fn hs() -> Vec<usize> {
        vec![1, 2, 3, 4, 5, 7, 8, 10, 12, 14, 16, 19, 22, 26, 29]
    }

    /// `w ∈ {1, 2, 3, 5, 7, 10, 14, 21}`.
    pub fn ws() -> Vec<usize> {
        vec![1, 2, 3, 5, 7, 10, 14, 21]
    }
}

/// Deterministic fault injection for exercising the resilient runner.
///
/// Whether a given cell faults is a pure function of `(seed, cell)` —
/// never of wall-clock or scheduling — so fault-injected sweeps are
/// exactly reproducible and checkpoint/resume equivalence holds under
/// injected faults too.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Fraction of cells made to panic.
    pub panic_fraction: f64,
    /// When `true`, an injected panic fires only on the first attempt
    /// (a transient fault the retry path should absorb); when `false`
    /// the cell panics on every attempt and must surface as
    /// [`CellOutcome::Failed`].
    pub transient: bool,
    /// Fraction of cells made to sleep `delay_ms` before working —
    /// pair with a short `cell_deadline_ms` to exercise timeouts.
    pub delay_fraction: f64,
    /// Injected delay per affected cell.
    pub delay_ms: u64,
    /// Seed decorrelating the fault pattern from the sweep seed.
    pub seed: u64,
}

impl FaultPlan {
    fn cell_hash(&self, model: ModelSpec, t: usize, h: usize, w: usize, salt: u64) -> f64 {
        let mut z = self.seed ^ salt;
        for b in model.name().bytes() {
            z = splitmix(z ^ b as u64);
        }
        z = splitmix(z ^ t as u64);
        z = splitmix(z ^ (h as u64) << 20);
        z = splitmix(z ^ (w as u64) << 40);
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Apply the plan for one attempt: may sleep, may panic.
    pub(crate) fn apply(&self, model: ModelSpec, t: usize, h: usize, w: usize, attempt: u32) {
        if self.cell_hash(model, t, h, w, 0xDE1A) < self.delay_fraction {
            std::thread::sleep(Duration::from_millis(self.delay_ms));
        }
        if self.cell_hash(model, t, h, w, 0xFA17) < self.panic_fraction
            && (!self.transient || attempt == 1)
        {
            panic!("injected fault: {} t={t} h={h} w={w} attempt={attempt}", model.name());
        }
    }

    /// Whether this plan panics the given cell on its first attempt.
    pub fn panics(&self, model: ModelSpec, t: usize, h: usize, w: usize) -> bool {
        self.cell_hash(model, t, h, w, 0xFA17) < self.panic_fraction
    }

    /// Whether this plan delays the given cell.
    pub fn delays(&self, model: ModelSpec, t: usize, h: usize, w: usize) -> bool {
        self.cell_hash(model, t, h, w, 0xDE1A) < self.delay_fraction
    }
}

pub(crate) fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fault-tolerance knobs for the sweep runner.
#[derive(Debug, Clone)]
pub struct ResiliencePolicy {
    /// Attempts per cell before giving up (≥ 1). Retries reseed
    /// deterministically, so a seed-dependent pathology in one fit
    /// does not doom the cell.
    pub max_attempts: u32,
    /// Cooperative soft deadline per cell attempt, in milliseconds.
    /// `None` disables deadlines.
    pub cell_deadline_ms: Option<u64>,
    /// Deterministic fault injection (tests and chaos drills only).
    pub faults: Option<FaultPlan>,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy { max_attempts: 2, cell_deadline_ms: None, faults: None }
    }
}

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Models to run.
    pub models: Vec<ModelSpec>,
    /// Evaluation days `t`.
    pub ts: Vec<usize>,
    /// Horizons `h`.
    pub hs: Vec<usize>,
    /// Windows `w`.
    pub ws: Vec<usize>,
    /// Forest size / boosting rounds for classifier models.
    pub n_trees: usize,
    /// Trailing label days stacked into each training set.
    pub train_days: usize,
    /// Random rankings averaged into the `ψ(F⁰)` reference.
    pub random_repeats: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker threads (`None` = available parallelism).
    pub n_threads: Option<usize>,
    /// Fault-tolerance policy.
    pub resilience: ResiliencePolicy,
    /// Split-search strategy for every tree-based model in the grid.
    pub split: SplitStrategy,
}

impl SweepConfig {
    /// A reduced but shape-preserving default: the Table III h/w
    /// grids with a thinned `t` axis and a compact forest.
    pub fn reduced(models: Vec<ModelSpec>) -> Self {
        SweepConfig {
            models,
            ts: (52..=87).step_by(6).collect(),
            hs: TableIIIGrid::hs(),
            ws: TableIIIGrid::ws(),
            n_trees: 30,
            train_days: 7,
            random_repeats: 15,
            seed: 0,
            n_threads: None,
            resilience: ResiliencePolicy::default(),
            split: SplitStrategy::default(),
        }
    }
}

/// What happened to one grid cell.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// The cell produced an evaluation.
    Evaluated(EvalRecord),
    /// Legitimately empty: the window did not fit, or the target day
    /// had no positive labels.
    Empty,
    /// Every attempt panicked; `error` is the final panic payload.
    Failed {
        /// Rendered panic payload.
        error: String,
        /// Wall-clock spent across all attempts (diagnostic only —
        /// not compared across runs).
        elapsed_ms: u64,
        /// Attempts consumed.
        attempts: u32,
    },
    /// The soft deadline fired before the attempt finished.
    TimedOut {
        /// Wall-clock spent (diagnostic only).
        elapsed_ms: u64,
        /// Attempts consumed.
        attempts: u32,
    },
}

impl CellOutcome {
    /// The evaluation record, when one exists.
    pub fn record(&self) -> Option<&EvalRecord> {
        match self {
            CellOutcome::Evaluated(r) => Some(r),
            _ => None,
        }
    }

    /// Short stable tag used by health summaries and checkpoints.
    pub fn status(&self) -> &'static str {
        match self {
            CellOutcome::Evaluated(_) => "eval",
            CellOutcome::Empty => "empty",
            CellOutcome::Failed { .. } => "failed",
            CellOutcome::TimedOut { .. } => "timeout",
        }
    }
}

/// One grid cell and its outcome.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Model.
    pub model: ModelSpec,
    /// Evaluation day.
    pub t: usize,
    /// Horizon.
    pub h: usize,
    /// Window.
    pub w: usize,
    /// What happened.
    pub outcome: CellOutcome,
    /// Wall-clock the cell took (or, for resumed cells, took in the
    /// original run).
    pub elapsed_ms: u64,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Whether the outcome was adopted from a checkpoint rather than
    /// recomputed.
    pub resumed: bool,
}

impl SweepCell {
    /// The evaluation record, when the cell evaluated.
    pub fn record(&self) -> Option<&EvalRecord> {
        self.outcome.record()
    }

    /// This cell's position in the grid, as the planner keys it.
    pub fn key(&self) -> CellKey {
        CellKey { model: self.model, t: self.t, h: self.h, w: self.w }
    }
}

/// Triage summary of a sweep: how many cells landed in each outcome,
/// and where the time went.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepHealth {
    /// Cells that produced an evaluation.
    pub evaluated: usize,
    /// Cells legitimately empty (unfit window / no positives).
    pub skipped: usize,
    /// Cells that exhausted their attempts panicking.
    pub errored: usize,
    /// Cells stopped by the soft deadline.
    pub timed_out: usize,
    /// Cells whose first attempt failed but a retry succeeded.
    pub retried: usize,
    /// Cells adopted from a checkpoint.
    pub resumed: usize,
    /// The slowest cells, worst first: `(model, t, h, w, elapsed_ms)`.
    pub slowest: Vec<(ModelSpec, usize, usize, usize, u64)>,
}

impl SweepHealth {
    /// Number of slowest cells retained.
    pub const SLOWEST_KEPT: usize = 5;

    /// Build the report from finished cells.
    pub fn from_cells(cells: &[SweepCell]) -> Self {
        let mut health = SweepHealth::default();
        for c in cells {
            match c.outcome {
                CellOutcome::Evaluated(_) => health.evaluated += 1,
                CellOutcome::Empty => health.skipped += 1,
                CellOutcome::Failed { .. } => health.errored += 1,
                CellOutcome::TimedOut { .. } => health.timed_out += 1,
            }
            if c.attempts > 1 && c.outcome.record().is_some() {
                health.retried += 1;
            }
            if c.resumed {
                health.resumed += 1;
            }
        }
        let mut by_time: Vec<&SweepCell> = cells.iter().filter(|c| !c.resumed).collect();
        by_time.sort_by_key(|c| std::cmp::Reverse(c.elapsed_ms));
        health.slowest = by_time
            .into_iter()
            .take(Self::SLOWEST_KEPT)
            .map(|c| (c.model, c.t, c.h, c.w, c.elapsed_ms))
            .collect();
        health
    }

    /// Whether every cell either evaluated or was legitimately empty.
    pub fn is_clean(&self) -> bool {
        self.errored == 0 && self.timed_out == 0
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} evaluated, {} skipped, {} errored, {} timed out ({} retried, {} resumed)",
            self.evaluated, self.skipped, self.errored, self.timed_out, self.retried, self.resumed
        )
    }
}

/// All cells of a sweep, with query helpers and a health report.
#[derive(Debug, Clone, Default)]
pub struct SweepResult {
    /// Finished cells (order unspecified for in-process runs;
    /// canonical plan order for merged runs).
    pub cells: Vec<SweepCell>,
    /// Triage summary.
    pub health: SweepHealth,
}

impl SweepResult {
    /// Assemble a result from finished cells (computes the health
    /// report) — the collector step shared by every execution path.
    pub fn from_cells(cells: Vec<SweepCell>) -> Self {
        let health = SweepHealth::from_cells(&cells);
        SweepResult { cells, health }
    }

    /// Lift values over `t` for a `(model, h, w)` slice (finite only).
    pub fn lifts(&self, model: ModelSpec, h: usize, w: usize) -> Vec<f64> {
        self.cells
            .iter()
            .filter(|c| c.model == model && c.h == h && c.w == w)
            .filter_map(|c| c.record())
            .map(|r| r.lift)
            .filter(|l| l.is_finite())
            .collect()
    }

    /// Average-precision values over `t` for a `(model, h, w)` slice,
    /// restricted to `t` inside `t_range` — the KS-test inputs of
    /// Sec. V-A.
    pub fn aps_in_t_range(
        &self,
        model: ModelSpec,
        h: usize,
        w: usize,
        t_range: (usize, usize),
    ) -> Vec<f64> {
        self.cells
            .iter()
            .filter(|c| {
                c.model == model && c.h == h && c.w == w && c.t >= t_range.0 && c.t <= t_range.1
            })
            .filter_map(|c| c.record())
            .map(|r| r.ap)
            .filter(|a| a.is_finite())
            .collect()
    }

    /// Mean lift and 95% CI half-width for a `(model, h, w)` slice.
    pub fn mean_lift(&self, model: ModelSpec, h: usize, w: usize) -> (f64, f64) {
        hotspot_eval::stats::mean_ci95(&self.lifts(model, h, w))
    }

    /// Mean lift over `t` *and* `w` for a `(model, h)` slice — the
    /// per-horizon averages of Figs. 9–12 marginalise over the grid.
    pub fn mean_lift_over_h(&self, model: ModelSpec, h: usize) -> (f64, f64) {
        let lifts: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| c.model == model && c.h == h)
            .filter_map(|c| c.record())
            .map(|r| r.lift)
            .filter(|l| l.is_finite())
            .collect();
        hotspot_eval::stats::mean_ci95(&lifts)
    }

    /// Number of cells that produced an evaluation.
    pub fn n_evaluated(&self) -> usize {
        self.cells.iter().filter(|c| c.record().is_some()).count()
    }
}

/// Run the sweep in memory (no checkpoint). Panicking or overrunning
/// cells degrade to structured outcomes; the sweep itself always
/// completes.
pub fn run_sweep(ctx: &ForecastContext, config: &SweepConfig) -> SweepResult {
    run_sweep_resumable(ctx, config, None)
        .expect("in-memory sweep performs no I/O and cannot fail")
}

/// Run the sweep, journaling each finished cell to `checkpoint` (when
/// given). If the checkpoint file already exists its cells are adopted
/// instead of recomputed, so re-running after an interruption finishes
/// only the remainder — and, because cells are deterministic under the
/// config seed, produces the same records an uninterrupted run would.
///
/// This is the plan → execute → collect pipeline specialised to one
/// in-process executor covering the full (unsharded) plan.
///
/// # Errors
///
/// Checkpoint I/O and validation errors (wrong config fingerprint,
/// grid shape disagreeing with the plan, corrupt non-final lines). The
/// sweep computation itself never errors.
pub fn run_sweep_resumable(
    ctx: &ForecastContext,
    config: &SweepConfig,
    checkpoint: Option<&Path>,
) -> CoreResult<SweepResult> {
    let plan = SweepPlan::new(config);
    let executor = InProcessExecutor {
        ctx,
        config,
        shard: ShardSpec::FULL,
        checkpoint: checkpoint.map(Path::to_path_buf),
        plane_cache: None,
    };
    Ok(SweepResult::from_cells(executor.execute(&plan)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Target;
    use hotspot_core::pipeline::ScorePipeline;
    use hotspot_core::tensor::Tensor3;
    use hotspot_core::HOURS_PER_WEEK;

    fn ctx() -> ForecastContext {
        let catalog = hotspot_core::kpi::KpiCatalog::standard();
        // 10 sectors: 3 with strong weekday-daytime overload, 7 healthy.
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

    fn small_sweep(models: Vec<ModelSpec>) -> SweepConfig {
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
            split: SplitStrategy::default(),
        }
    }

    #[test]
    fn table_iii_grid_matches_paper() {
        assert_eq!(TableIIIGrid::ts().len(), 36);
        assert_eq!(TableIIIGrid::hs().len(), 15);
        assert_eq!(TableIIIGrid::ws().len(), 8);
        assert_eq!(TableIIIGrid::hs()[14], 29);
        assert_eq!(TableIIIGrid::ws()[7], 21);
    }

    #[test]
    fn sweep_covers_grid_and_informed_models_beat_random() {
        let c = ctx();
        let result = run_sweep(&c, &small_sweep(vec![ModelSpec::Random, ModelSpec::Average]));
        assert_eq!(result.cells.len(), 2 * 3 * 2 * 2);
        assert!(result.n_evaluated() > 0);
        assert!(result.health.is_clean());
        assert_eq!(result.health.evaluated, result.n_evaluated());
        let (random_lift, _) = result.mean_lift(ModelSpec::Random, 1, 7);
        let (average_lift, _) = result.mean_lift(ModelSpec::Average, 1, 7);
        assert!(
            average_lift > random_lift,
            "Average {average_lift} vs Random {random_lift}"
        );
        assert!((random_lift - 1.0).abs() < 0.8, "random lift {random_lift}");
    }

    #[test]
    fn classifier_cells_run_in_sweep() {
        let c = ctx();
        let result = run_sweep(&c, &small_sweep(vec![ModelSpec::RfF1]));
        let lifts = result.lifts(ModelSpec::RfF1, 1, 7);
        assert!(!lifts.is_empty());
        let (mean, _) = result.mean_lift(ModelSpec::RfF1, 1, 7);
        assert!(mean > 1.0, "RF-F1 lift {mean}");
    }

    #[test]
    fn unfit_windows_yield_empty_records() {
        let c = ctx();
        let config = SweepConfig {
            ts: vec![2], // too early for h + w
            ..small_sweep(vec![ModelSpec::Average])
        };
        let result = run_sweep(&c, &config);
        assert_eq!(result.n_evaluated(), 0);
        assert!(result.lifts(ModelSpec::Average, 1, 7).is_empty());
        assert_eq!(result.health.skipped, result.cells.len());
    }

    #[test]
    fn ap_slices_for_ks() {
        let c = ctx();
        let result = run_sweep(&c, &small_sweep(vec![ModelSpec::Average]));
        let first = result.aps_in_t_range(ModelSpec::Average, 1, 7, (20, 24));
        let second = result.aps_in_t_range(ModelSpec::Average, 1, 7, (25, 28));
        assert!(!first.is_empty());
        assert!(!second.is_empty());
        assert_eq!(first.len() + second.len(), result.lifts(ModelSpec::Average, 1, 7).len());
    }

    #[test]
    fn sweep_is_deterministic() {
        let c = ctx();
        let cfg = small_sweep(vec![ModelSpec::Average, ModelSpec::RfF1]);
        let a = run_sweep(&c, &cfg);
        let b = run_sweep(&c, &cfg);
        assert_eq!(a.mean_lift(ModelSpec::RfF1, 3, 7), b.mean_lift(ModelSpec::RfF1, 3, 7));
    }

    #[test]
    fn persistent_panics_become_failed_cells_not_crashes() {
        let c = ctx();
        let mut cfg = small_sweep(vec![ModelSpec::Average]);
        cfg.resilience.faults = Some(FaultPlan {
            panic_fraction: 0.4,
            transient: false,
            delay_fraction: 0.0,
            delay_ms: 0,
            seed: 1,
        });
        let result = run_sweep(&c, &cfg);
        assert_eq!(result.cells.len(), 12, "sweep must still cover the grid");
        assert!(result.health.errored > 0, "{}", result.health.summary());
        let failed = result
            .cells
            .iter()
            .find(|cell| matches!(cell.outcome, CellOutcome::Failed { .. }))
            .unwrap();
        match &failed.outcome {
            CellOutcome::Failed { error, attempts, .. } => {
                assert!(error.contains("injected fault"), "{error}");
                assert_eq!(*attempts, cfg.resilience.max_attempts);
            }
            _ => unreachable!(),
        }
        // Healthy cells still evaluated.
        assert!(result.health.evaluated > 0);
    }

    #[test]
    fn transient_panics_are_absorbed_by_retry() {
        let c = ctx();
        let mut cfg = small_sweep(vec![ModelSpec::Average]);
        cfg.resilience.faults = Some(FaultPlan {
            panic_fraction: 0.4,
            transient: true,
            delay_fraction: 0.0,
            delay_ms: 0,
            seed: 1,
        });
        let result = run_sweep(&c, &cfg);
        assert_eq!(result.health.errored, 0, "{}", result.health.summary());
        assert!(result.health.retried > 0, "{}", result.health.summary());
        // Fault-injected runs are themselves deterministic.
        let again = run_sweep(&c, &cfg);
        for (a, b) in result.cells.iter().zip(&again.cells) {
            // Order is scheduling-dependent; compare via lookup.
            let matching = again
                .cells
                .iter()
                .find(|x| x.model == a.model && x.t == a.t && x.h == a.h && x.w == a.w)
                .unwrap();
            assert_eq!(a.outcome, matching.outcome);
            let _ = b;
        }
    }

    #[test]
    fn deadline_turns_slow_cells_into_timeouts() {
        let c = ctx();
        let mut cfg = small_sweep(vec![ModelSpec::Average]);
        cfg.resilience.cell_deadline_ms = Some(30);
        cfg.resilience.faults = Some(FaultPlan {
            panic_fraction: 0.0,
            transient: false,
            delay_fraction: 0.3,
            delay_ms: 120,
            seed: 2,
        });
        let result = run_sweep(&c, &cfg);
        assert!(result.health.timed_out > 0, "{}", result.health.summary());
        assert!(result.health.evaluated > 0, "{}", result.health.summary());
        let slow = result
            .cells
            .iter()
            .find(|cell| matches!(cell.outcome, CellOutcome::TimedOut { .. }))
            .unwrap();
        assert!(slow.elapsed_ms >= 30, "elapsed {}", slow.elapsed_ms);
    }

    #[test]
    fn health_tracks_slowest_cells() {
        let c = ctx();
        let result = run_sweep(&c, &small_sweep(vec![ModelSpec::Average, ModelSpec::RfF1]));
        assert!(!result.health.slowest.is_empty());
        assert!(result.health.slowest.len() <= SweepHealth::SLOWEST_KEPT);
        // Worst first.
        for pair in result.health.slowest.windows(2) {
            assert!(pair[0].4 >= pair[1].4);
        }
    }
}
