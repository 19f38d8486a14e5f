//! The executor layer: running cells of a [`SweepPlan`].
//!
//! [`InProcessExecutor`] is the classic path — a scoped thread pool
//! pulling cells off an atomic work queue, with per-cell
//! [`catch_unwind`] panic isolation, bounded deterministic retry,
//! cooperative soft deadlines, and an append-only checkpoint journal.
//! It executes any [`ShardSpec`], so one type serves both the
//! single-process whole ([`ShardSpec::FULL`]) and a `--shard i/n`
//! worker process.
//!
//! [`MultiProcessExecutor`] scales past one process: it spawns one
//! worker process per shard (each an [`InProcessExecutor`] under the
//! hood, journaling its own checkpoint and writing a manifest
//! sidecar), waits for all of them, and hands the shard files to
//! [`merge_shards`](super::collector::merge_shards).

use super::collector::{merge_shards, MergedSweep, ShardFiles};
use super::plan::{CellKey, ShardSpec, SweepPlan};
use super::{splitmix, CellOutcome, SweepCell, SweepConfig};
use crate::checkpoint::{config_fingerprint, load_checkpoint_sharded, CheckpointWriter};
use crate::classifier::fit_and_forecast;
use crate::context::ForecastContext;
use crate::evaluate::{evaluate_day, EvalRecord};
use crate::models::ModelSpec;
use hotspot_core::error::{CoreError, Result as CoreResult};
use hotspot_features::plane::{self, PlaneCache};
use hotspot_features::windows::WindowSpec;
use hotspot_obs as obs;
use hotspot_trees::CancelToken;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Something that can execute (a shard of) a sweep plan.
///
/// Executors return bare cells; assembling a
/// [`SweepResult`](super::SweepResult) (health report, canonical
/// ordering) is the collector's job, shared by every implementation.
pub trait SweepExecutor {
    /// Run the cells this executor covers and return their outcomes.
    ///
    /// # Errors
    ///
    /// Infrastructure failures only — checkpoint I/O/validation, or a
    /// dead worker process. Cell-level panics, timeouts, and retries
    /// degrade to structured [`CellOutcome`]s instead of erroring.
    fn execute(&self, plan: &SweepPlan) -> CoreResult<Vec<SweepCell>>;
}

/// Thread-pool executor for one shard (or the unsharded whole) of a
/// plan, refactored from the original `run_sweep_resumable` monolith:
/// same work queue, same resilience semantics, same checkpoint
/// adoption.
pub struct InProcessExecutor<'a> {
    /// Forecasting context the cells evaluate against.
    pub ctx: &'a ForecastContext,
    /// The sweep configuration (must match the plan's fingerprint).
    pub config: &'a SweepConfig,
    /// Which slice of the plan to run.
    pub shard: ShardSpec,
    /// Optional append-only checkpoint journal; existing cells are
    /// adopted instead of recomputed.
    pub checkpoint: Option<PathBuf>,
    /// Externally supplied feature-plane cache. `None` (the normal
    /// case) builds one per `execute()` with the
    /// [`plane::BUDGET_BYTES`] budget; tests inject a cache here to
    /// observe its per-instance statistics.
    pub plane_cache: Option<Arc<PlaneCache>>,
}

impl SweepExecutor for InProcessExecutor<'_> {
    fn execute(&self, plan: &SweepPlan) -> CoreResult<Vec<SweepCell>> {
        let _span = obs::span!("sweep");
        let config = self.config;
        self.shard.validate()?;
        if plan.fingerprint() != config_fingerprint(config) {
            return Err(CoreError::InvalidConfig(
                "executor config does not match the plan's fingerprint — \
                 plan and executor must be built from the same SweepConfig"
                    .into(),
            ));
        }
        let combos = plan.shard_cells(self.shard);
        // One cache per execution, shared by every worker thread (and
        // both sides of every classifier fit).
        let plane_cache = self
            .plane_cache
            .clone()
            .unwrap_or_else(|| Arc::new(PlaneCache::new(plane::BUDGET_BYTES)));

        let mut done: HashMap<CellKey, SweepCell> = HashMap::new();
        let writer = match &self.checkpoint {
            Some(path) => {
                for entry in load_checkpoint_sharded(path, config, self.shard)? {
                    done.insert(entry.key(), entry.into_cell());
                }
                Some(CheckpointWriter::open_sharded(path, config, self.shard)?)
            }
            None => None,
        };

        let threads = config
            .n_threads
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
            .clamp(1, combos.len().max(1));
        let results: Mutex<Vec<SweepCell>> = Mutex::new(Vec::with_capacity(combos.len()));
        let write_error: Mutex<Option<CoreError>> = Mutex::new(None);
        let next = AtomicUsize::new(0);

        // Each worker pulls cells off the shared queue until it drains.
        let worker = || loop {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            if idx >= combos.len() {
                break;
            }
            let key = combos[idx];
            let cell = match done.get(&key) {
                Some(prev) => prev.clone(),
                None => {
                    let cell = run_cell_resilient(
                        self.ctx,
                        config,
                        &plane_cache,
                        key.model,
                        key.t,
                        key.h,
                        key.w,
                    );
                    if let Some(writer) = &writer {
                        if let Err(e) = writer.append(&cell) {
                            write_error
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .get_or_insert(e);
                        }
                    }
                    cell
                }
            };
            record_cell_metrics(&cell);
            results.lock().unwrap_or_else(PoisonError::into_inner).push(cell);
        };
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            for handle in workers {
                handle.join().expect("sweep worker panicked outside cell isolation");
            }
        });

        if let Some(e) = write_error.into_inner().unwrap_or_else(PoisonError::into_inner) {
            return Err(e);
        }
        Ok(results.into_inner().unwrap_or_else(PoisonError::into_inner))
    }
}

/// How [`MultiProcessExecutor`] invokes a worker process: `program`
/// runs with `args` plus `--shards <n> --shard <i>` appended. The
/// worker must run its shard with checkpoints/manifests at the
/// executor's base path (the `sweep_worker` bench binary does exactly
/// this when re-exec'd with its own argv).
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// Binary to spawn (typically `std::env::current_exe()`).
    pub program: PathBuf,
    /// Arguments shared by every worker, *without* shard flags.
    pub args: Vec<String>,
}

/// Executor that partitions the plan across `shards` worker
/// *processes* and merges their shard files back into one result.
///
/// Worker `i` must journal to
/// [`ShardFiles::for_base`]`(base, i/n)` paths; after every worker
/// exits cleanly the collector validates fingerprints and merges. A
/// worker that dies mid-shard leaves a crash-consistent checkpoint —
/// rerunning the same executor resumes the missing cells.
#[derive(Debug, Clone)]
pub struct MultiProcessExecutor {
    /// How to invoke one worker.
    pub worker: WorkerSpec,
    /// Number of shards / worker processes (≥ 1).
    pub shards: u64,
    /// Base path shard files derive from (e.g. `out/sweep.tsv` →
    /// `out/sweep.shard-0-of-3.tsv`).
    pub base: PathBuf,
}

impl MultiProcessExecutor {
    /// The shard-file layout this executor expects workers to fill.
    pub fn shard_files(&self) -> Vec<ShardFiles> {
        (0..self.shards)
            .map(|i| ShardFiles::for_base(&self.base, ShardSpec { index: i, count: self.shards }))
            .collect()
    }

    /// Spawn all workers, wait for them, and merge their shards.
    ///
    /// # Errors
    ///
    /// Spawn failures and non-zero worker exits (as
    /// [`CoreError::Io`] naming the shard), plus every
    /// [`merge_shards`] validation error.
    pub fn run(&self, plan: &SweepPlan) -> CoreResult<MergedSweep> {
        ShardSpec { index: 0, count: self.shards }.validate()?;
        let mut children = Vec::with_capacity(self.shards as usize);
        for i in 0..self.shards {
            let child = Command::new(&self.worker.program)
                .args(&self.worker.args)
                .arg("--shards")
                .arg(self.shards.to_string())
                .arg("--shard")
                .arg(i.to_string())
                .stdout(Stdio::null())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| {
                    CoreError::Io(format!(
                        "failed to spawn shard {i}/{} worker {:?}: {e}",
                        self.shards, self.worker.program
                    ))
                })?;
            children.push((i, child));
        }
        let mut first_failure: Option<CoreError> = None;
        for (i, mut child) in children {
            let status = child
                .wait()
                .map_err(|e| CoreError::Io(format!("failed to wait for shard {i} worker: {e}")))?;
            if !status.success() && first_failure.is_none() {
                first_failure = Some(CoreError::Io(format!(
                    "shard {i}/{} worker exited with {status} — its checkpoint is \
                     crash-consistent; rerun to resume the missing cells",
                    self.shards
                )));
            }
        }
        if let Some(e) = first_failure {
            return Err(e);
        }
        merge_shards(plan, &self.shard_files())
    }
}

impl SweepExecutor for MultiProcessExecutor {
    fn execute(&self, plan: &SweepPlan) -> CoreResult<Vec<SweepCell>> {
        Ok(self.run(plan)?.result.cells)
    }
}

/// Per-cell metric accounting, mirroring
/// [`SweepHealth::from_cells`](super::SweepHealth::from_cells) so the
/// final counter totals equal the health report: `evaluated`, `empty`
/// (= skipped), `failed` (= errored), `timeout`, plus
/// `retried`/`resumed` under the same conditions. Recomputed cells
/// also feed the `sweep.cell_ms` duration histogram (adopted cells'
/// timings belong to the original run).
fn record_cell_metrics(cell: &SweepCell) {
    let name = match cell.outcome {
        CellOutcome::Evaluated(_) => "sweep.cells.evaluated",
        CellOutcome::Empty => "sweep.cells.empty",
        CellOutcome::Failed { .. } => "sweep.cells.failed",
        CellOutcome::TimedOut { .. } => "sweep.cells.timeout",
    };
    obs::counter(name).inc();
    if cell.attempts > 1 && cell.outcome.record().is_some() {
        obs::counter("sweep.cells.retried").inc();
    }
    if cell.resumed {
        obs::counter("sweep.cells.resumed").inc();
    } else {
        obs::histogram("sweep.cell_ms", &obs::DURATION_MS_BOUNDS).observe(cell.elapsed_ms as f64);
    }
}

/// The seed a given attempt runs with: attempt 1 uses the configured
/// seed unchanged (so resilient runs reproduce the original sweep),
/// retries derive fresh-but-deterministic seeds.
fn attempt_seed(seed: u64, attempt: u32) -> u64 {
    if attempt <= 1 {
        seed
    } else {
        splitmix(seed ^ (attempt as u64) << 32)
    }
}

#[allow(clippy::too_many_arguments)] // a cell is its full coordinate tuple
fn run_cell_resilient(
    ctx: &ForecastContext,
    config: &SweepConfig,
    plane_cache: &Arc<PlaneCache>,
    model: ModelSpec,
    t: usize,
    h: usize,
    w: usize,
) -> SweepCell {
    let _span = obs::span!("sweep.cell");
    let started = Instant::now();
    let max_attempts = config.resilience.max_attempts.max(1);
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let cancel = config
            .resilience
            .cell_deadline_ms
            .map(|ms| CancelToken::with_deadline(Duration::from_millis(ms)));
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            run_cell_once(ctx, config, plane_cache, model, t, h, w, attempts, cancel.as_ref())
        }));
        let elapsed_ms = started.elapsed().as_millis() as u64;
        match attempt {
            Ok(record) => {
                let outcome = if cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                    obs::warn!(
                        "cell {} t={t} h={h} w={w} timed out after {elapsed_ms} ms",
                        model.name()
                    );
                    CellOutcome::TimedOut { elapsed_ms, attempts }
                } else {
                    match record {
                        Some(r) => CellOutcome::Evaluated(r),
                        None => CellOutcome::Empty,
                    }
                };
                return SweepCell { model, t, h, w, outcome, elapsed_ms, attempts, resumed: false };
            }
            Err(payload) => {
                if attempts >= max_attempts {
                    let error = panic_message(payload);
                    obs::warn!(
                        "cell {} t={t} h={h} w={w} failed after {attempts} attempts: {error}",
                        model.name()
                    );
                    let outcome = CellOutcome::Failed { error, elapsed_ms, attempts };
                    return SweepCell {
                        model,
                        t,
                        h,
                        w,
                        outcome,
                        elapsed_ms,
                        attempts,
                        resumed: false,
                    };
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)] // a cell is its full coordinate tuple
fn run_cell_once(
    ctx: &ForecastContext,
    config: &SweepConfig,
    plane_cache: &Arc<PlaneCache>,
    model: ModelSpec,
    t: usize,
    h: usize,
    w: usize,
    attempt: u32,
    cancel: Option<&CancelToken>,
) -> Option<EvalRecord> {
    if let Some(plan) = &config.resilience.faults {
        plan.apply(model, t, h, w, attempt);
    }
    let spec = WindowSpec::new(t, h, w);
    if !spec.fits(ctx.n_days()) {
        return None;
    }
    let seed = attempt_seed(config.seed, attempt);
    let predictions = if model.is_classifier() {
        let mut cc = model
            .classifier_config(config.n_trees, config.train_days, seed, config.split)
            .expect("classifier");
        cc.forest_threads = Some(1); // the sweep already parallelises
        cc.cancel = cancel.cloned();
        cc.plane_cache = Some(Arc::clone(plane_cache));
        fit_and_forecast(ctx, &spec, &cc).map(|f| f.predictions)
    } else {
        model.forecast(ctx, &spec, config.n_trees, config.train_days, seed, config.split)
    };
    if cancel.is_some_and(|c| c.is_cancelled()) {
        // The deadline fired mid-fit; whatever came back is a partial
        // ensemble's opinion, so the caller records a timeout instead.
        return None;
    }
    predictions.and_then(|p| evaluate_day(ctx, &spec, &p, config.random_repeats, seed))
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attempt_seeds_are_deterministic_and_distinct() {
        assert_eq!(attempt_seed(7, 0), 7);
        assert_eq!(attempt_seed(7, 1), 7);
        let retry = attempt_seed(7, 2);
        assert_ne!(retry, 7);
        assert_eq!(retry, attempt_seed(7, 2));
        assert_ne!(retry, attempt_seed(7, 3));
    }

    #[test]
    fn executor_rejects_mismatched_plan() {
        use crate::sweep::{ResiliencePolicy, SweepPlan};
        let mk = |seed| SweepConfig {
            models: vec![ModelSpec::Average],
            ts: vec![20],
            hs: vec![1],
            ws: vec![3],
            n_trees: 4,
            train_days: 2,
            random_repeats: 5,
            seed,
            n_threads: Some(1),
            resilience: ResiliencePolicy::default(),
            split: hotspot_trees::SplitStrategy::default(),
        };
        // A context is expensive; the fingerprint check fires before
        // any cell runs, so a minimal one suffices.
        let catalog = hotspot_core::kpi::KpiCatalog::standard();
        let kpis = hotspot_core::tensor::Tensor3::from_fn(
            4,
            hotspot_core::HOURS_PER_WEEK * 2,
            21,
            |_, _, k| catalog.defs()[k].nominal,
        );
        let scored = hotspot_core::pipeline::ScorePipeline::standard().run(&kpis).unwrap();
        let ctx =
            ForecastContext::build(&kpis, &scored, crate::context::Target::BeHotSpot).unwrap();
        let plan = SweepPlan::new(&mk(1));
        let other = mk(2);
        let exec = InProcessExecutor {
            ctx: &ctx,
            config: &other,
            shard: ShardSpec::FULL,
            checkpoint: None,
            plane_cache: None,
        };
        let err = exec.execute(&plan).unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig(_)), "{err:?}");
    }
}
