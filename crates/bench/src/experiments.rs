//! Shared experiment logic: the start call of the binaries, building
//! the forecast context, running the sweep, and printing the lift / Δ
//! and importance tables.

use crate::harness::Experiment;
use crate::options::{RunOptions, SweepFlags};
use crate::prepare::{prepare, Prepared};
use crate::report::{print_header, print_row, print_section, Cell};
use hotspot_core::matrix::Matrix;
use hotspot_eval::lift::delta_percent;
use hotspot_features::tensor_x::feature_name;
use hotspot_features::windows::WindowSpec;
use hotspot_forecast::classifier::fit_and_forecast;
use hotspot_forecast::context::{ForecastContext, Target};
use hotspot_forecast::models::ModelSpec;
use hotspot_forecast::sweep::{
    canonical_tsv, deterministic_projection, merge_shards, InProcessExecutor, MergedSweep,
    ResiliencePolicy, ShardFiles, ShardSpec, SweepConfig, SweepPlan, SweepResult, TableIIIGrid,
};
use hotspot_obs as obs;
use std::path::{Path, PathBuf};

/// The one start call of an experiment binary that works on the
/// prepared dataset: lay the CLI over the binary's `defaults` and start
/// the run ([`Experiment::from_cli`]), prepare the dataset, and print
/// the provenance preamble. The banner is `name`, followed by `(title)`
/// unless `title` is empty.
pub fn start(
    name: &str,
    title: &str,
    defaults: RunOptions,
    sweep: SweepFlags,
) -> (Experiment, RunOptions, Prepared) {
    let (run, opts) = Experiment::from_cli(name, defaults, sweep);
    let prep = prepare(&opts);
    print_section(&if title.is_empty() { name.to_string() } else { format!("{name} ({title})") });
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
    (run, opts, prep)
}

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

/// The sweep over an explicit `(hs, ws)` grid at the run options' `t`
/// axis, forest size, training span, seed, resilience and split engine.
pub fn sweep_config(
    ctx: &ForecastContext,
    opts: &RunOptions,
    models: &[ModelSpec],
    hs: &[usize],
    ws: &[usize],
) -> SweepConfig {
    let max_h = *hs.iter().max().expect("non-empty");
    SweepConfig {
        models: models.to_vec(),
        ts: opts.ts(ctx.n_days(), max_h),
        hs: hs.to_vec(),
        ws: ws.to_vec(),
        n_trees: opts.trees,
        train_days: opts.train_days,
        random_repeats: 15,
        seed: opts.seed,
        n_threads: None,
        resilience: resilience(opts),
        split: opts.split_strategy(),
    }
}

/// Run a sweep honouring the `--checkpoint` / `--resume` /
/// `--shards` / `--shard` / `--merge` options.
///
/// Without `--checkpoint` this is a plain in-memory sweep. With one,
/// finished cells are journaled as they complete; an existing journal
/// is continued only under `--resume` (otherwise the run aborts rather
/// than silently mixing checkpoints). Non-clean sweep health is always
/// surfaced on stderr so partial results never pass unnoticed.
///
/// The checkpoint path is the shard-file base, per
/// [`ShardFiles::for_base`], which maps the unsharded whole to the
/// base itself:
///
/// * `--shard I` (worker): compute only shard `I` of `--shards`,
///   journaling to the shard-derived checkpoint; the returned
///   `SweepResult` covers only that shard's cells, so a `partial:`
///   line on stdout marks the tables that follow as incomplete. The
///   one shard of `--shards 1` is the whole plan and prints none.
/// * `--merge` (collector): compute nothing — validate and merge the
///   `--shards` existing shard files and return the full merged
///   result, refusing (with the `manifest_check --compare` style
///   diagnostic) if the shards disagree. It also writes the
///   deterministic artifacts `<base>.merged.tsv` and
///   `<base>.merged.metrics.json` next to the base path.
pub fn run_sweep_with_options(
    ctx: &ForecastContext,
    config: &SweepConfig,
    opts: &RunOptions,
) -> SweepResult {
    let result = if opts.merge {
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
        write_merged_artifacts(base, &plan, &merged);
        merged.result
    } else {
        let shard =
            opts.shard.map_or(ShardSpec::FULL, |index| ShardSpec { index, count: opts.shards });
        let checkpoint =
            opts.checkpoint.as_deref().map(|base| ShardFiles::for_base(base, shard).checkpoint);
        if let Some(path) = checkpoint.as_deref().filter(|p| p.exists() && !opts.resume) {
            obs::error!(
                "checkpoint {} already exists; pass --resume to continue it or delete it first",
                path.display()
            );
            std::process::exit(2);
        }
        let executor = InProcessExecutor { ctx, config, shard, checkpoint, cache: None };
        let result = executor.execute().unwrap_or_else(|e| {
            obs::error!("sweep checkpoint error: {e}");
            std::process::exit(2);
        });
        if !shard.is_full() {
            print_section(&format!(
                "partial: shard {shard} ran {} of {} plan cells; combine the shards with --merge",
                result.cells.len(),
                SweepPlan::new(config).n_cells()
            ));
        }
        result
    };
    obs::set_annotation("sweep_health", &result.health.summary());
    if !result.health.is_clean() || result.health.resumed > 0 {
        obs::warn!("sweep health: {}", result.health.summary());
    } else {
        obs::debug!("sweep health: {}", result.health.summary());
    }
    result
}

/// Write the collector's deterministic artifacts next to `base`:
/// `<base>.merged.tsv` ([`canonical_tsv`]) and, when every shard left
/// a manifest, `<base>.merged.metrics.json` (the
/// [`deterministic_projection`] of the merged shard metrics). Both are
/// byte-identical for any shard count of one configuration.
fn write_merged_artifacts(base: &Path, plan: &SweepPlan, merged: &MergedSweep) {
    let write = |path: PathBuf, contents: String| {
        if let Err(e) = std::fs::write(&path, contents) {
            obs::error!("cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
        obs::info!("wrote {}", path.display());
    };
    let tsv = canonical_tsv(plan, &merged.result).expect("a merged sweep covers its plan");
    write(base.with_extension("merged.tsv"), tsv);
    if let Some(metrics) = &merged.metrics {
        let json = deterministic_projection(metrics).to_json().render();
        write(base.with_extension("merged.metrics.json"), format!("{json}\n"));
    }
}

/// Run the `(model, t, h)` sweep at a fixed window `w`.
pub fn horizon_sweep(
    ctx: &ForecastContext,
    opts: &RunOptions,
    models: &[ModelSpec],
    w: usize,
) -> SweepResult {
    let config = sweep_config(ctx, opts, models, &TableIIIGrid::hs(), &[w]);
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
    let config = sweep_config(ctx, opts, models, hs, &TableIIIGrid::ws());
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

/// Accumulate the RF-R importance grid of the Figs. 15/16 forecast
/// (`h = 5`, `w = 7`) over the run's `t` axis, normalise it to unit
/// mass, and print it cumulatively along the hour axis, as the paper
/// plots it. Fits without a positive training label carry no
/// importance and are skipped. Returns the normalised grid for the
/// binary's own tail table, or `None` (printing nothing) when no fit
/// produced importances.
pub fn print_importance_grid(
    ctx: &ForecastContext,
    opts: &RunOptions,
    hours_column: &str,
) -> Option<Matrix> {
    let (h, w) = (5usize, 7usize);
    let mut grid: Option<Matrix> = None;
    let mut used = 0usize;
    for t in opts.ts(ctx.n_days(), h) {
        let spec = WindowSpec::new(t, h, w);
        if !spec.fits(ctx.n_days()) {
            continue;
        }
        let mut config = ModelSpec::RfR
            .classifier_config(opts.trees, opts.train_days, opts.seed, opts.split_strategy())
            .expect("classifier");
        config.forest_threads = Some(1);
        let Some(fitted) = fit_and_forecast(ctx, &spec, &config) else { continue };
        if fitted.n_train_pos == 0 {
            continue;
        }
        let Some(g) = fitted.importance_grid() else { continue };
        used += 1;
        match &mut grid {
            None => grid = Some(g),
            Some(acc) => {
                for (a, b) in acc.as_mut_slice().iter_mut().zip(g.as_slice()) {
                    *a += b;
                }
            }
        }
    }
    let mut grid = grid?;
    let total: f64 = grid.as_slice().iter().sum();
    if total > 0.0 {
        grid.map_inplace(|v| v / total);
    }

    print_section(&format!("importance grid (30 features x {} hours, {used} fits)", 24 * w));
    print_header(&["feature_k", "name", "total", hours_column]);
    for k in 0..grid.rows() {
        let row_total: f64 = grid.row(k).iter().sum();
        let mut cells: Vec<Cell> =
            vec![Cell::from(k), Cell::from(feature_name(k)), Cell::from(row_total)];
        let mut acc = 0.0;
        for &v in grid.row(k) {
            acc += v;
            cells.push(Cell::from(acc));
        }
        print_row(&cells);
    }
    Some(grid)
}
