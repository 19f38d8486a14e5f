//! Shared experiment logic for the Figs. 9–14 family: building the
//! forecast context, running the sweep, and printing lift / Δ tables.

use crate::options::RunOptions;
use crate::prepare::Prepared;
use crate::report::{print_header, print_row, print_section, Cell};
use hotspot_eval::lift::delta_percent;
use hotspot_forecast::context::{ForecastContext, Target};
use hotspot_forecast::models::ModelSpec;
use hotspot_forecast::sweep::{
    merge_shards, run_sweep_resumable, InProcessExecutor, ResiliencePolicy, ShardFiles,
    ShardSpec, SweepConfig, SweepExecutor, SweepPlan, SweepResult, TableIIIGrid,
};
use hotspot_obs as obs;

/// Build a forecast context for a prepared dataset and target.
///
/// # Panics
/// Panics on internal dimension mismatches (prepared data is always
/// consistent).
pub fn context(prep: &Prepared, target: Target) -> ForecastContext {
    ForecastContext::build(&prep.kpis, &prep.scored, target).expect("consistent prepared data")
}

/// The resilience policy implied by the run options.
pub fn resilience(opts: &RunOptions) -> ResiliencePolicy {
    ResiliencePolicy { cell_deadline_ms: opts.cell_deadline_ms, ..ResiliencePolicy::default() }
}

/// Run a sweep honouring the `--checkpoint` / `--resume` /
/// `--shards` / `--shard` / `--merge` options.
///
/// Without `--checkpoint` this is a plain in-memory sweep. With one,
/// finished cells are journaled as they complete; an existing file is
/// continued only under `--resume` (otherwise the run aborts rather
/// than silently mixing checkpoints). Non-clean sweep health is always
/// surfaced on stderr so partial results never pass unnoticed.
///
/// Sharded modes (the checkpoint path becomes the shard-file base,
/// per [`ShardFiles::for_base`]):
///
/// * `--shard I` (worker): compute only shard `I` of `--shards`,
///   journaling to the shard-derived checkpoint; the returned
///   `SweepResult` covers only that shard's cells.
/// * `--merge` (collector): compute nothing — validate and merge the
///   `--shards` existing shard files and return the full merged
///   result, refusing (with the `manifest_check --compare` style
///   diagnostic) if the shards disagree.
pub fn run_sweep_with_options(
    ctx: &ForecastContext,
    config: &SweepConfig,
    opts: &RunOptions,
) -> SweepResult {
    let finish = |result: SweepResult| -> SweepResult {
        obs::set_annotation("sweep_health", &result.health.summary());
        if !result.health.is_clean() || result.health.resumed > 0 {
            obs::warn!("sweep health: {}", result.health.summary());
        } else {
            obs::debug!("sweep health: {}", result.health.summary());
        }
        result
    };

    if opts.merge {
        let base = opts.checkpoint.as_deref().expect("parse() enforces --checkpoint");
        let plan = SweepPlan::new(config);
        let files: Vec<ShardFiles> = (0..opts.shards)
            .map(|i| ShardFiles::for_base(base, ShardSpec { index: i, count: opts.shards }))
            .collect();
        let merged = merge_shards(&plan, &files).unwrap_or_else(|e| {
            obs::error!("{e}");
            std::process::exit(2);
        });
        obs::info!(
            "merged {} shards of {} ({} cells, fingerprint {:016x})",
            opts.shards,
            base.display(),
            merged.result.cells.len(),
            merged.fingerprint
        );
        return finish(merged.result);
    }

    if let Some(index) = opts.shard {
        let base = opts.checkpoint.as_deref().expect("parse() enforces --checkpoint");
        let shard = ShardSpec { index, count: opts.shards };
        let files = ShardFiles::for_base(base, shard);
        if files.checkpoint.exists() && !opts.resume {
            obs::error!(
                "shard checkpoint {} already exists; pass --resume to continue it or delete it first",
                files.checkpoint.display()
            );
            std::process::exit(2);
        }
        let plan = SweepPlan::new(config);
        let executor = InProcessExecutor {
            ctx,
            config,
            shard,
            checkpoint: Some(files.checkpoint),
            plane_cache: None,
        };
        let cells = executor.execute(&plan).unwrap_or_else(|e| {
            obs::error!("sweep shard {shard} error: {e}");
            std::process::exit(2);
        });
        obs::info!("shard {shard}: {} of {} plan cells done", cells.len(), plan.n_cells());
        return finish(SweepResult::from_cells(cells));
    }

    if let Some(path) = &opts.checkpoint {
        if path.exists() && !opts.resume {
            obs::error!(
                "checkpoint {} already exists; pass --resume to continue it or delete it first",
                path.display()
            );
            std::process::exit(2);
        }
    }
    let result = run_sweep_resumable(ctx, config, opts.checkpoint.as_deref())
        .unwrap_or_else(|e| {
            obs::error!("sweep checkpoint error: {e}");
            std::process::exit(2);
        });
    finish(result)
}

/// Run the `(model, t, h)` sweep at a fixed window `w`.
pub fn horizon_sweep(
    ctx: &ForecastContext,
    opts: &RunOptions,
    models: &[ModelSpec],
    w: usize,
) -> SweepResult {
    let hs = TableIIIGrid::hs();
    let max_h = *hs.iter().max().expect("non-empty");
    let config = SweepConfig {
        models: models.to_vec(),
        ts: opts.ts(ctx.n_days(), max_h),
        hs,
        ws: vec![w],
        n_trees: opts.trees,
        train_days: opts.train_days,
        random_repeats: 15,
        seed: opts.seed,
        n_threads: None,
        resilience: resilience(opts),
        split: opts.split_strategy(),
    };
    run_sweep_with_options(ctx, &config, opts)
}

/// Run the `(model, t, w)` sweep over the Table III window grid at
/// the Fig. 13/14 horizon subset.
pub fn window_sweep(
    ctx: &ForecastContext,
    opts: &RunOptions,
    models: &[ModelSpec],
    hs: &[usize],
) -> SweepResult {
    let max_h = *hs.iter().max().expect("non-empty");
    let config = SweepConfig {
        models: models.to_vec(),
        ts: opts.ts(ctx.n_days(), max_h),
        hs: hs.to_vec(),
        ws: TableIIIGrid::ws(),
        n_trees: opts.trees,
        train_days: opts.train_days,
        random_repeats: 15,
        seed: opts.seed,
        n_threads: None,
        resilience: resilience(opts),
        split: opts.split_strategy(),
    };
    run_sweep_with_options(ctx, &config, opts)
}

/// Print the Fig. 9/11 table: mean lift Λ (±95% CI) per model per `h`.
pub fn print_lift_by_h(result: &SweepResult, models: &[ModelSpec], w: usize) {
    let mut header = vec!["h".to_string()];
    for m in models {
        header.push(format!("{m}_lift"));
        header.push(format!("{m}_ci"));
    }
    print_header(&header.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    for &h in &TableIIIGrid::hs() {
        let mut row: Vec<Cell> = vec![Cell::from(h)];
        for &m in models {
            let (mean, ci) = result.mean_lift(m, h, w);
            row.push(Cell::from(mean));
            row.push(Cell::from(ci));
        }
        print_row(&row);
    }
}

/// Print the Fig. 10/12 table: Δ vs the Average baseline per `h`, and
/// a trailing per-model average row.
pub fn print_delta_by_h(result: &SweepResult, classifiers: &[ModelSpec], w: usize) {
    let mut header = vec!["h".to_string()];
    for m in classifiers {
        header.push(format!("{m}_delta_pct"));
    }
    print_header(&header.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    let mut sums = vec![0.0; classifiers.len()];
    let mut counts = vec![0usize; classifiers.len()];
    for &h in &TableIIIGrid::hs() {
        let (avg_lift, _) = result.mean_lift(ModelSpec::Average, h, w);
        let mut row: Vec<Cell> = vec![Cell::from(h)];
        for (idx, &m) in classifiers.iter().enumerate() {
            let (m_lift, _) = result.mean_lift(m, h, w);
            let d = delta_percent(avg_lift, m_lift);
            if d.is_finite() {
                sums[idx] += d;
                counts[idx] += 1;
            }
            row.push(Cell::from(d));
        }
        print_row(&row);
    }
    let mut row: Vec<Cell> = vec![Cell::from("mean")];
    for (s, c) in sums.iter().zip(&counts) {
        row.push(Cell::from(if *c > 0 { s / *c as f64 } else { f64::NAN }));
    }
    print_row(&row);
}

/// Print the Fig. 13/14 table: mean lift per `w` for each horizon.
pub fn print_lift_by_w(result: &SweepResult, model: ModelSpec, hs: &[usize]) {
    let mut header = vec!["w".to_string()];
    for &h in hs {
        header.push(format!("h{h}_lift"));
        header.push(format!("h{h}_ci"));
    }
    print_header(&header.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    for &w in &TableIIIGrid::ws() {
        let mut row: Vec<Cell> = vec![Cell::from(w)];
        for &h in hs {
            let (mean, ci) = result.mean_lift(model, h, w);
            row.push(Cell::from(mean));
            row.push(Cell::from(ci));
        }
        print_row(&row);
    }
}

/// Print the standard run preamble (configuration provenance).
pub fn print_preamble(name: &str, opts: &RunOptions, prep: &Prepared) {
    print_section(name);
    println!(
        "# sectors={} (kept {} / filtered {} / quarantined {}), weeks={}, seed={}, trees={}, train_days={}, t_step={}, imputed_cells={}",
        opts.sectors,
        prep.kept.len(),
        prep.n_filtered,
        prep.n_quarantined,
        opts.weeks,
        opts.seed,
        opts.trees,
        opts.train_days,
        opts.t_step,
        prep.n_imputed
    );
}
