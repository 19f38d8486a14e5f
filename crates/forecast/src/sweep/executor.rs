//! The executor layer: running cells of a [`SweepPlan`].
//!
//! [`InProcessExecutor`] is the one sweep runner — a scoped thread pool
//! pulling cells off an atomic work queue, with per-cell
//! [`catch_unwind`] panic isolation, bounded deterministic retry,
//! cooperative soft deadlines, and an optional append-only checkpoint
//! journal. It derives its plan from its own config and executes any
//! [`ShardSpec`] of it, so one type serves the in-memory
//! [`run_sweep`](super::run_sweep), a `--checkpoint` run of the
//! unsharded whole ([`ShardSpec::FULL`]) and a `--shard i/n` worker
//! process alike.
//!
//! A multi-process sweep is N processes, each running an
//! [`InProcessExecutor`] over its own shard (`--shards N --shard I`
//! on any sweep binary); [`merge_shards`](super::collector::merge_shards)
//! combines their shard files afterwards (`--shards N --merge`).

use super::plan::{CellKey, ShardSpec, SweepPlan};
use super::{CellOutcome, SweepCell, SweepConfig, SweepHealth, SweepResult};
use crate::cache::SweepCache;
use crate::checkpoint::{load_checkpoint_sharded, CheckpointWriter};
use crate::classifier::fit_and_forecast;
use crate::context::ForecastContext;
use crate::evaluate::{evaluate_day, EvalRecord};
use crate::models::ModelSpec;
use hotspot_core::error::{CoreError, Result as CoreResult};
use hotspot_features::windows::WindowSpec;
use hotspot_obs as obs;
use hotspot_trees::CancelToken;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Thread-pool executor for one shard (or the unsharded whole) of its
/// config's plan.
pub struct InProcessExecutor<'a> {
    /// Forecasting context the cells evaluate against.
    pub ctx: &'a ForecastContext,
    /// The sweep configuration; its [`SweepPlan`] is the grid to run.
    pub config: &'a SweepConfig,
    /// Which slice of the plan to run.
    pub shard: ShardSpec,
    /// Optional append-only checkpoint journal; existing cells are
    /// adopted instead of recomputed.
    pub checkpoint: Option<PathBuf>,
    /// Externally supplied sweep cache (feature planes and quantised
    /// columns). `None` (the normal case) builds one per `execute()`
    /// with the default budgets; tests inject a cache here to observe
    /// its per-instance statistics.
    pub cache: Option<Arc<SweepCache>>,
}

impl InProcessExecutor<'_> {
    /// Run the cells of this executor's shard of the config's plan.
    /// Journaled cells are adopted instead of recomputed, so a re-run
    /// after an interruption finishes only the remainder — and,
    /// because cells are deterministic under the config seed, yields
    /// the records an uninterrupted run would.
    ///
    /// # Errors
    ///
    /// Infrastructure failures only — an invalid shard, or checkpoint
    /// I/O and validation (a header failing
    /// [`CheckpointHeader::check`](crate::checkpoint::CheckpointHeader::check),
    /// corrupt non-final lines). Cell-level panics, timeouts, and
    /// retries degrade to structured [`CellOutcome`]s instead of
    /// erroring.
    pub fn execute(&self) -> CoreResult<SweepResult> {
        let _span = obs::span!("sweep");
        let config = self.config;
        self.shard.validate()?;
        let plan = SweepPlan::new(config);
        let combos = plan.shard_cells(self.shard);
        // One cache per execution, shared by every worker thread (and
        // both sides of every classifier fit).
        let cache = self.cache.clone().unwrap_or_default();

        let mut done: HashMap<CellKey, SweepCell> = HashMap::new();
        let writer = match &self.checkpoint {
            Some(path) => {
                for entry in load_checkpoint_sharded(path, &plan, self.shard)? {
                    done.insert(entry.key(), entry.into_cell());
                }
                Some(CheckpointWriter::open_sharded(path, &plan, self.shard)?)
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
                        &cache,
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
        Ok(SweepResult::from_cells(results.into_inner().unwrap_or_else(PoisonError::into_inner)))
    }
}

/// Per-cell metric accounting: the `sweep.cells.*` counters tally the
/// cell through [`SweepHealth::tally`], the rule the health report
/// uses, so the final counter totals equal the report. Recomputed
/// cells also feed the `sweep.cell_ms` duration histogram (adopted
/// cells' timings belong to the original run).
fn record_cell_metrics(cell: &SweepCell) {
    let mut health = SweepHealth::default();
    health.tally(cell);
    for (name, n) in health.counters() {
        if n > 0 {
            obs::counter(name).add(n as u64);
        }
    }
    if !cell.resumed {
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
        rand::splitmix64(seed ^ (attempt as u64) << 32)
    }
}

#[allow(clippy::too_many_arguments)] // a cell is its full coordinate tuple
fn run_cell_resilient(
    ctx: &ForecastContext,
    config: &SweepConfig,
    cache: &Arc<SweepCache>,
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
            run_cell_once(ctx, config, cache, model, t, h, w, attempts, cancel.as_ref())
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
    cache: &Arc<SweepCache>,
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
        cc.cache = Some(Arc::clone(cache));
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
        assert_eq!(retry, 8599263559809057095, "retry seeds are pinned");
    }
}
