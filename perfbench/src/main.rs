//! End-to-end and per-layer benchmark of two experiment binaries'
//! pipelines: `prepare` (simulate → filter → impute → score) →
//! `context` → sweep.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig09_horizon --seed 1 --seconds 45 --trace 0
//! ```
//!
//! One *experiment* is what `exp_fig09_lift_vs_horizon` or
//! `exp_fig14_become_lift_vs_window` does before printing its tables,
//! made of the same calls from `hotspot_bench`: `prepare`, `context`,
//! then `horizon_sweep` or `window_sweep` on `RunOptions::default()`.
//! The departures are a smaller network and, for Fig. 9, two
//! evaluation days instead of three (see [`Workload`]), so that
//! several experiments fit in one run.
//!
//! The benchmark repeats experiments until `--seconds` have passed,
//! at least [`MIN_EXPERIMENTS`] times, and reports medians.
//! Experiments cycle through a few networks derived from `--seed`.
//! Set-up time depends on the network, so each experiment first sets
//! up [`SETUP_REPEATS`]` - 1` more networks, each used only for that;
//! every set-up is a `setup_s` sample.
//!
//! Every experiment is checked: every set-up must leave no gap in the
//! KPIs, the sweep must cover its grid, every model must evaluate the
//! same cells, and every record must be a consistent evaluation. The
//! first sweep's outcomes must equal, bit for bit,
//! one cell per model recomputed on its own through the per-model
//! forecast path; a repeated network must reproduce its first results
//! bit for bit; and on the "be a hot spot" target the informed models,
//! pooled over the run, must rank better than random.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` turns on the
//! program's span recording and prints the per-layer split instead:
//! wall time of each call the benchmark makes, time of the spans the
//! program records inside them, and the program's work counters, each
//! the median over experiments, plus the peak resident set.
//!
//! The last line of stdout is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

use hotspot_bench::experiments::{context, horizon_sweep, window_sweep};
use hotspot_bench::{prepare, RunOptions};
use hotspot_features::windows::WindowSpec;
use hotspot_forecast::context::{ForecastContext, Target};
use hotspot_forecast::evaluate::evaluate_day;
use hotspot_forecast::models::ModelSpec;
use hotspot_forecast::sweep::{SweepResult, TableIIIGrid};
use hotspot_obs as obs;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// Networks one run cycles through; fewer than [`MIN_EXPERIMENTS`], so
/// the first recurs in every run.
const DATASETS: u64 = 2;

/// Experiments per run, however long they take.
const MIN_EXPERIMENTS: usize = 3;

/// Set-ups per experiment, each one a `setup_s` sample.
const SETUP_REPEATS: usize = 5;

/// Random-ranking repeats per evaluated cell, as
/// `experiments::{horizon_sweep, window_sweep}` configure them.
const RANDOM_REPEATS: usize = 15;

/// The sweep an experiment binary runs.
enum Grid {
    /// `horizon_sweep`: every Table III horizon at one window.
    Horizons { w: usize },
    /// `window_sweep`: every Table III window at these horizons.
    Windows { hs: Vec<usize> },
}

/// One benchmark workload: an experiment binary's target, models and
/// sweep, scaled down by `sectors` and `t_step`. Every other option is
/// `RunOptions::default()`: 18 weeks, 25 trees and 10 training days.
struct Workload {
    target: Target,
    models: Vec<ModelSpec>,
    grid: Grid,
    /// Failures per tower per week (`None` = simulator default).
    failure_rate: Option<f64>,
    /// Simulated sectors, in place of the binaries' default 200. Below
    /// about 80, how many sectors are hot, and so how deep the trees
    /// grow, varies from one network to the next.
    sectors: usize,
    /// Step over the Table III `t` axis: the default 12 evaluates
    /// `t ∈ {52, 64, 76}`, 24 evaluates `t ∈ {52, 76}`.
    t_step: usize,
}

impl Workload {
    /// The workloads, by name:
    ///
    /// * `fig09_horizon` — `exp_fig09_lift_vs_horizon`: "be a hot
    ///   spot", all eight paper models over the 15 Table III horizons
    ///   at `w = 7`. Tree and forest fits dominate, and feature planes
    ///   recur across models and horizons.
    /// * `fig14_window` — `exp_fig14_become_lift_vs_window`: "become a
    ///   hot spot" at the binary's failure rate of 0.08, RF-F1 over all
    ///   eight Table III windows at its six horizons. Planes of every
    ///   width are built and fewer recur, so featurisation is a large
    ///   share.
    fn named(name: &str) -> Option<Workload> {
        match name {
            "fig09_horizon" => Some(Workload {
                target: Target::BeHotSpot,
                models: ModelSpec::PAPER.to_vec(),
                grid: Grid::Horizons { w: 7 },
                failure_rate: None,
                sectors: 80,
                t_step: 24,
            }),
            "fig14_window" => Some(Workload {
                target: Target::BecomeHotSpot,
                models: vec![ModelSpec::RfF1],
                grid: Grid::Windows {
                    hs: vec![1, 2, 4, 8, 16, 26],
                },
                failure_rate: Some(0.08),
                sectors: 80,
                t_step: 12,
            }),
            _ => None,
        }
    }

    fn options(&self, seed: u64) -> RunOptions {
        RunOptions {
            sectors: self.sectors,
            t_step: self.t_step,
            seed,
            failure_rate: self.failure_rate,
            ..RunOptions::default()
        }
    }

    /// The `(h, w)` values the sweep covers.
    fn hs_ws(&self) -> (Vec<usize>, Vec<usize>) {
        match &self.grid {
            Grid::Horizons { w } => (TableIIIGrid::hs(), vec![*w]),
            Grid::Windows { hs } => (hs.clone(), TableIIIGrid::ws()),
        }
    }

    fn sweep(&self, ctx: &ForecastContext, opts: &RunOptions) -> SweepResult {
        match &self.grid {
            Grid::Horizons { w } => horizon_sweep(ctx, opts, &self.models, *w),
            Grid::Windows { hs } => window_sweep(ctx, opts, &self.models, hs),
        }
    }
}

/// Per-layer metric names of the calls the benchmark times.
const LAYERS: [&str; 3] = ["prepare_s", "context_s", "sweep_s"];

/// What one experiment produced and how long its layers took.
struct Experiment {
    layers: [f64; LAYERS.len()],
    /// Wall time of every set-up (prepare + context).
    setups_s: Vec<f64>,
    /// Wall time of the last set-up and the sweep after it.
    total_s: f64,
    /// Mean wall time of the reference kernel just before and after.
    reference_s: f64,
    cells: usize,
    /// Cells that failed or timed out.
    failed: usize,
    /// `(sum, count)` of lifts of Random and of the informed models.
    lifts: Result<[(f64, usize); 2], String>,
    /// Every cell's coordinates and record bits, in a fixed order.
    digest: Vec<CellBits>,
    /// Program metrics just before the last set-up and after the sweep.
    snapshots: [obs::MetricsSnapshot; 2],
}

/// A cell's model, `t`, `h`, `w`, and the bits of its AP and lift.
type CellBits = (&'static str, usize, usize, usize, Option<(u64, u64)>);

/// Wall time (s) of a fixed kernel that shares no code with the
/// program: random gathers over, then a sort of, 8 MiB of
/// pseudo-random words. On a shared host, machine speed drifts by 10%
/// or more over minutes; the kernel's time, measured around each
/// experiment, tells such drift apart from a change in the program.
fn reference_kernel_s() -> f64 {
    const N: usize = 1 << 20;
    let start = Instant::now();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut words: Vec<u64> = (0..N)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        })
        .collect();
    let mut acc = 0u64;
    for i in 0..2 * N as u64 {
        acc = acc.wrapping_add(words[(acc ^ i) as usize % N]);
    }
    words.sort_unstable();
    std::hint::black_box((acc, words));
    start.elapsed().as_secs_f64()
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot = start.elapsed().as_secs_f64();
    out
}

/// Runs one experiment on the network of `seed`, after set-ups of the
/// networks of `setup_seeds` that are timed and then dropped.
fn run_experiment(
    workload: &Workload,
    seed: u64,
    setup_seeds: impl Iterator<Item = u64>,
    verify: bool,
) -> Result<Experiment, String> {
    let reference_before = reference_kernel_s();
    let mut setups_s = Vec::with_capacity(SETUP_REPEATS);
    for setup_seed in setup_seeds {
        let start = Instant::now();
        let prep = prepare(&workload.options(setup_seed));
        std::hint::black_box(context(&prep, workload.target));
        setups_s.push(start.elapsed().as_secs_f64());
        if prep.kpis.count_nan() > 0 {
            return Err(format!(
                "network {setup_seed}: set-up left gaps in the KPIs"
            ));
        }
    }

    let opts = workload.options(seed);
    let mut layers = [0.0; LAYERS.len()];
    let before = obs::global().snapshot();
    let start = Instant::now();
    let prep = timed(&mut layers[0], || prepare(&opts));
    let ctx = timed(&mut layers[1], || context(&prep, workload.target));
    setups_s.push(start.elapsed().as_secs_f64());
    let result = timed(&mut layers[2], || workload.sweep(&ctx, &opts));
    let total_s = start.elapsed().as_secs_f64();
    let after = obs::global().snapshot();
    let reference_s = (reference_before + reference_kernel_s()) / 2.0;
    if prep.kpis.count_nan() > 0 {
        return Err(format!("network {seed}: set-up left gaps in the KPIs"));
    }

    let (hs, ws) = workload.hs_ws();
    let ts = opts.ts(ctx.n_days(), *hs.iter().max().expect("grids have horizons"));
    if ts.len() < 2 {
        return Err(format!(
            "{} days leave {} evaluation days",
            ctx.n_days(),
            ts.len()
        ));
    }
    let cells = workload.models.len() * ts.len() * hs.len() * ws.len();
    let mut lifts = check_result(workload, &result, cells);
    if verify && lifts.is_ok() {
        if let Err(e) = verify_against_direct(&ctx, &opts, &workload.models, &result) {
            lifts = Err(e);
        }
    }
    let mut digest: Vec<_> = result
        .cells
        .iter()
        .map(|c| {
            let bits = c.record().map(|r| (r.ap.to_bits(), r.lift.to_bits()));
            (c.model.name(), c.t, c.h, c.w, bits)
        })
        .collect();
    digest.sort_unstable();
    let failed = result.health.errored + result.health.timed_out;
    eprintln!(
        "# network {seed}: {} of {cells} cells evaluated, set-up {:.3} s, experiment {total_s:.3} s, reference {reference_s:.4} s",
        result.n_evaluated(),
        median(setups_s.clone()),
    );
    Ok(Experiment {
        layers,
        setups_s,
        total_s,
        reference_s,
        cells,
        failed,
        lifts,
        digest,
        snapshots: [before, after],
    })
}

/// Checks that hold for every network: the grid is covered, every
/// model evaluates the same number of cells, and every record is a
/// consistent evaluation.
/// Returns the lift sums the run-level comparison with random pools.
fn check_result(
    workload: &Workload,
    result: &SweepResult,
    cells: usize,
) -> Result<[(f64, usize); 2], String> {
    if result.cells.len() != cells {
        return Err(format!(
            "sweep returned {} cells, grid has {cells}",
            result.cells.len()
        ));
    }
    // Positives and evaluated sectors depend only on the target day's
    // labels, so all models must agree on them at one (t, h, w).
    let mut days: BTreeMap<(usize, usize, usize), (usize, usize)> = BTreeMap::new();
    // Persist is not pooled with the informed models: repeating today's
    // label is legitimately no better than chance at long horizons.
    let mut lifts = [(0.0, 0); 2];
    for cell in &result.cells {
        let Some(r) = cell.record() else { continue };
        let sane = (0.0..=1.0).contains(&r.ap)
            && r.ap_random > 0.0
            && (r.lift - r.ap / r.ap_random).abs() <= 1e-9 * r.lift.abs().max(1.0)
            && r.positives > 0
            && r.positives <= r.evaluated;
        let day = *days
            .entry((cell.t, cell.h, cell.w))
            .or_insert((r.positives, r.evaluated));
        if !sane || day != (r.positives, r.evaluated) {
            let (m, t, h, w) = (cell.model, cell.t, cell.h, cell.w);
            return Err(format!("{m} t={t} h={h} w={w}: inconsistent record {r:?}"));
        }
        let pool = match cell.model {
            ModelSpec::Random => 0,
            ModelSpec::Persist => continue,
            _ => 1,
        };
        lifts[pool].0 += r.lift;
        lifts[pool].1 += 1;
    }
    // A cell is empty only when its window does not fit or its target
    // day has no positives, neither of which depends on the model.
    let evaluated = |m: ModelSpec| {
        result
            .cells
            .iter()
            .filter(|c| c.model == m && c.record().is_some())
            .count()
    };
    let first = evaluated(workload.models[0]);
    for &m in &workload.models {
        if evaluated(m) != first {
            return Err(format!(
                "{m} evaluated {} cells, {} evaluated {first}",
                evaluated(m),
                workload.models[0]
            ));
        }
    }
    Ok(lifts)
}

/// Recompute each model's first evaluated cell (or first cell, if none
/// evaluated) on its own, through the per-model forecast path, and
/// require the sweep's outcome bit for bit.
fn verify_against_direct(
    ctx: &ForecastContext,
    opts: &RunOptions,
    models: &[ModelSpec],
    result: &SweepResult,
) -> Result<(), String> {
    for &m in models {
        let cell = result
            .cells
            .iter()
            .filter(|c| c.model == m)
            .min_by_key(|c| (c.record().is_none(), c.t, c.h, c.w))
            .ok_or(format!("{m} has no cell"))?;
        let spec = WindowSpec::new(cell.t, cell.h, cell.w);
        let direct = m
            .forecast(
                ctx,
                &spec,
                opts.trees,
                opts.train_days,
                opts.seed,
                opts.split_strategy(),
            )
            .and_then(|p| evaluate_day(ctx, &spec, &p, RANDOM_REPEATS, opts.seed));
        if direct.as_ref() != cell.record() {
            let (t, h, w) = (cell.t, cell.h, cell.w);
            return Err(format!(
                "{m} t={t} h={h} w={w}: sweep gave {:?}, direct forecast {direct:?}",
                cell.record()
            ));
        }
    }
    Ok(())
}

/// Total and self time (s) per span name, between two snapshots. Self
/// time is a path's total minus its direct children's totals; both are
/// summed over every path that ends in the name.
fn span_times(
    before: &obs::MetricsSnapshot,
    after: &obs::MetricsSnapshot,
) -> BTreeMap<String, (f64, f64)> {
    let total: BTreeMap<&str, u64> = after
        .spans
        .iter()
        .map(|(path, stat)| {
            let prior = before.spans.get(path).map_or(0, |s| s.total_ns);
            (path.as_str(), stat.total_ns.saturating_sub(prior))
        })
        .collect();
    let mut out: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for (&path, &ns) in &total {
        let children: u64 = total
            .iter()
            .filter(|(p, _)| {
                p.strip_prefix(path)
                    .and_then(|rest| rest.strip_prefix('/'))
                    .is_some_and(|rest| !rest.contains('/'))
            })
            .map(|(_, &c)| c)
            .sum();
        let leaf = path.rsplit('/').next().unwrap_or(path).to_string();
        let entry = out.entry(leaf).or_default();
        entry.0 += ns as f64 / 1e9;
        entry.1 += ns.saturating_sub(children) as f64 / 1e9;
    }
    out
}

/// The per-layer metrics of one traced experiment.
fn layer_metrics(exp: &Experiment) -> Vec<(&'static str, &'static str, f64)> {
    let [before, after] = &exp.snapshots;
    let spans = span_times(before, after);
    let span = |name: &str| spans.get(name).copied().unwrap_or((0.0, 0.0));
    let count = |name: &str| {
        let at = |s: &obs::MetricsSnapshot| s.counters.get(name).copied().unwrap_or(0);
        at(after).saturating_sub(at(before)) as f64
    };
    let (cell_s, cell_self_s) = span("sweep.cell");
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let hits = count("features.cache.hit");
    let lookups = hits + count("features.cache.miss");
    let mut out = vec![("traced_experiment_s", "s", exp.total_s)];
    out.extend(
        LAYERS
            .iter()
            .zip(exp.layers)
            .map(|(&name, secs)| (name, "s", secs)),
    );
    out.extend([
        ("simulate_s", "s", span("simnet.generate").0),
        ("impute_s", "s", span("impute").0),
        ("score_s", "s", span("pipeline").0),
        ("cell_s", "s", cell_s),
        ("cell_self_s", "s", cell_self_s),
        ("forest_fit_s", "s", span("forest.fit").1),
        ("plane_build_s", "s", span("features.plane_build").1),
        (
            "thread_busy_share",
            "ratio",
            cell_s / (exp.layers[2] * threads),
        ),
        ("cells_evaluated", "count", count("sweep.cells.evaluated")),
        ("trees_fit", "count", count("trees.trees_fit")),
        (
            "split_evaluations",
            "count",
            count("trees.split_evaluations"),
        ),
        ("plane_lookups", "count", lookups),
        (
            "plane_hit_share",
            "ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
        ),
        ("plane_builds", "count", count("features.cache.build")),
        ("plane_evictions", "count", count("features.cache.evict")),
        (
            "plane_mb_built",
            "MB",
            count("features.cache.bytes") / (1024.0 * 1024.0),
        ),
        ("reference_s", "s", exp.reference_s),
    ]);
    out
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("missing value for {flag}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad number '{value}' for {flag}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<String, String> {
    let workload = Workload::named(&args.workload).ok_or(format!(
        "unknown workload '{}' (fig09_horizon|fig14_window)",
        args.workload
    ))?;
    obs::set_spans_enabled(args.trace);
    let network_seed = |k: u64| args.seed.wrapping_mul(1_000_003).wrapping_add(k);
    // Experiment `i` sweeps network `i % DATASETS`, after set-ups of
    // networks used nowhere else.
    let extra_setups = SETUP_REPEATS as u64 - 1;
    let setup_seeds =
        |i: u64| (0..extra_setups).map(move |j| network_seed(DATASETS + i * extra_setups + j));

    let mut problems = Vec::new();
    let mut reference = BTreeMap::new();
    let mut experiments = Vec::new();
    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut pooled = [(0.0, 0); 2];
    let start = Instant::now();
    let mut i = 0u64;
    while experiments.len() < MIN_EXPERIMENTS || start.elapsed().as_secs() < args.seconds {
        let exp = run_experiment(
            &workload,
            network_seed(i % DATASETS),
            setup_seeds(i),
            i == 0,
        )?;
        match &exp.lifts {
            Ok(lifts) => {
                for (pool, &(sum, n)) in pooled.iter_mut().zip(lifts) {
                    pool.0 += sum;
                    pool.1 += n;
                }
            }
            Err(e) => problems.push(e.clone()),
        }
        let first = reference
            .entry(i % DATASETS)
            .or_insert_with(|| exp.digest.clone());
        if *first != exp.digest {
            problems.push(format!(
                "experiment {i} differs from an earlier run on the same network"
            ));
        }
        attempted += exp.cells;
        failed += exp.failed;
        i += 1;
        experiments.push(exp);
    }
    eprintln!(
        "# {}: {} experiments of {} cells in {:.1} s",
        args.workload,
        experiments.len(),
        experiments[0].cells,
        start.elapsed().as_secs_f64()
    );
    if pooled.iter().all(|&(_, n)| n == 0) {
        problems.push("no cell was evaluated in the whole run".to_string());
    }
    if workload.target == Target::BeHotSpot {
        let [random, informed] = pooled.map(|(sum, n)| sum / n.max(1) as f64);
        if informed <= random {
            problems.push(format!(
                "informed lift {informed} does not beat random lift {random}"
            ));
        }
    }

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        let traces: Vec<_> = experiments.iter().map(layer_metrics).collect();
        for (k, &(name, unit, _)) in traces[0].iter().enumerate() {
            metrics.push((name, unit, median(traces.iter().map(|t| t[k].2).collect())));
        }
        metrics.push(("peak_rss_mb", "MB", peak_rss_mb()?));
    } else {
        let pick = |f: fn(&Experiment) -> f64| median(experiments.iter().map(f).collect());
        metrics.push(("experiment_s", "s", pick(|e| e.total_s)));
        let setups = experiments.iter().flat_map(|e| e.setups_s.iter().copied());
        metrics.push(("setup_s", "s", median(setups.collect())));
    }
    for problem in &problems {
        eprintln!("perfbench: incorrect output: {problem}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        problems.is_empty(),
        body.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
