//! Per-stage performance baseline for the pipeline's hot stages
//! (ROADMAP: "per-stage performance baselines").
//!
//! Four stages, each pinning one deterministic counter next to its
//! wall-clock measurement:
//!
//! * `forest_fit_exact` / `forest_fit_hist` — fit the same forest with
//!   exact and histogram split finding at the sweep's working shape
//!   (5000 rows × 63 features); pins `trees.split_evaluations`.
//! * `sweep_cell` — run a reduced in-process sweep and report its
//!   `sweep.cell` span aggregate (total milliseconds across all
//!   cells); pins `trees.split_evaluations` summed over the grid.
//! * `imputer_fit` — train the autoencoder imputer on a gapped
//!   synthetic tensor and report the `imputer.fit` span aggregate;
//!   pins `imputer.cells_imputed`.
//!
//!   perf_baseline --record [--path BENCH_trees.json]
//!   perf_baseline --check  [--path BENCH_trees.json]
//!
//! `--record` pins the current numbers to the baseline file. `--check`
//! (the CI mode, see scripts/perf_baseline.sh) re-measures and
//!   * asserts each stage's pinned counter matches the baseline exactly —
//!     they are deterministic properties of the algorithms, so any drift
//!     is a behaviour change, not noise;
//!   * asserts histogram predictions are identical across thread counts
//!     and repeated runs (determinism gate);
//!   * flags wall-clock regressions beyond a generous tolerance band
//!     (machines vary; the counter assertion is the hard gate).

use hotspot_core::kpi::KpiCatalog;
use hotspot_core::pipeline::ScorePipeline;
use hotspot_core::tensor::Tensor3;
use hotspot_core::HOURS_PER_WEEK;
use hotspot_forecast::context::{ForecastContext, Target};
use hotspot_forecast::models::ModelSpec;
use hotspot_forecast::sweep::{run_sweep, ResiliencePolicy, SweepConfig};
use hotspot_nn::imputer::{AutoencoderImputer, Imputer, ImputerConfig};
use hotspot_obs as obs;
use hotspot_trees::{Dataset, RandomForest, RandomForestParams, SplitStrategy};
use std::time::Instant;

const N_ROWS: usize = 5000;
const N_FEATURES: usize = 63;
const N_TREES: usize = 10;
const SEED_MIX: u64 = 0x2545_F491_4F6C_DD1D;
/// Wall-clock tolerance: flag when a stage is slower than baseline by
/// more than this factor.
const TIME_TOLERANCE: f64 = 1.5;

/// Deterministic continuous-valued dataset at the sweep's shape (xorshift).
fn dataset() -> Dataset {
    let mut features = Vec::with_capacity(N_ROWS * N_FEATURES);
    let mut labels = Vec::new();
    let mut state = SEED_MIX;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for _ in 0..N_ROWS {
        let mut hot = 0.0;
        for k in 0..N_FEATURES {
            let v = next();
            if k % 9 == 0 {
                hot += v;
            }
            features.push(v);
        }
        labels.push(hot > (N_FEATURES / 9) as f64 * 0.55);
    }
    let mut data = Dataset::new(features, N_FEATURES, labels).unwrap();
    data.balance_weights();
    data
}

/// One measured stage: wall clock plus a pinned deterministic counter.
struct Stage {
    name: &'static str,
    millis: f64,
    /// The metric the hard gate pins (a counter or span-count name).
    pinned_metric: &'static str,
    pinned: u64,
}

/// Fit once with `split`, returning timing, evaluation-counter delta,
/// and the fitted forest's predictions on the training rows.
fn fit_stage(
    name: &'static str,
    data: &Dataset,
    split: SplitStrategy,
    n_threads: Option<usize>,
) -> (Stage, Vec<f64>) {
    let params = RandomForestParams { n_trees: N_TREES, n_threads, ..RandomForestParams::paper() }
        .with_split(split);
    let before = obs::counter("trees.split_evaluations").get();
    let started = Instant::now();
    let forest = RandomForest::fit(data, &params);
    let millis = started.elapsed().as_secs_f64() * 1e3;
    let pinned = obs::counter("trees.split_evaluations").get() - before;
    let stage = Stage { name, millis, pinned_metric: "trees.split_evaluations", pinned };
    (stage, forest.predict_proba_all(data))
}

/// Best-of-`repeats` over `measure_once`; asserts the pinned counter is
/// identical on every repetition.
fn best_of(repeats: usize, mut measure_once: impl FnMut() -> Stage) -> Stage {
    let mut best = measure_once();
    for _ in 1..repeats {
        let again = measure_once();
        assert_eq!(
            best.pinned, again.pinned,
            "{}: {} must be deterministic across runs",
            best.name, best.pinned_metric
        );
        best.millis = best.millis.min(again.millis);
    }
    best
}

/// Delta of the `sweep.cell`-style span aggregate's total milliseconds
/// between two registry snapshots.
fn span_delta_ms(name: &str, before: &obs::MetricsSnapshot, after: &obs::MetricsSnapshot) -> f64 {
    let b = before.spans.get(name).map(|s| s.total_ms()).unwrap_or(0.0);
    let a = after.spans.get(name).map(|s| s.total_ms()).unwrap_or(0.0);
    a - b
}

/// A 10-sector synthetic context with a weekday-business-hours hot
/// cluster — the same shape the integration tests sweep.
fn sweep_context() -> ForecastContext {
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
    let scored = ScorePipeline::standard().run(&kpis).expect("synthetic tensor scores");
    ForecastContext::build(&kpis, &scored, Target::BeHotSpot).expect("consistent dimensions")
}

/// The sweep stage's configuration. Overlapping horizons at a common
/// window and shallow forests keep featurisation a visible share of
/// each cell.
fn sweep_config() -> SweepConfig {
    SweepConfig {
        models: vec![ModelSpec::RfF1],
        ts: vec![24, 26, 28, 30],
        hs: vec![1, 2, 3],
        ws: vec![7],
        n_trees: 2,
        train_days: 6,
        random_repeats: 10,
        seed: 3,
        n_threads: Some(2),
        resilience: ResiliencePolicy::default(),
        split: SplitStrategy::default(),
    }
}

/// Counter delta between two registry snapshots.
fn counter_delta(name: &str, before: &obs::MetricsSnapshot, after: &obs::MetricsSnapshot) -> u64 {
    after.counters.get(name).copied().unwrap_or(0)
        - before.counters.get(name).copied().unwrap_or(0)
}

/// Run one reduced sweep, returning the `sweep.cell` span aggregate as
/// the stage time and pinning `trees.split_evaluations` over the grid.
fn sweep_stage(ctx: &ForecastContext) -> Stage {
    let before = obs::global().snapshot();
    let result = run_sweep(ctx, &sweep_config());
    let after = obs::global().snapshot();
    assert!(result.health.is_clean(), "sweep stage must be clean: {}", result.health.summary());
    Stage {
        name: "sweep_cell",
        millis: span_delta_ms("sweep.cell", &before, &after),
        pinned_metric: "trees.split_evaluations",
        pinned: counter_delta("trees.split_evaluations", &before, &after),
    }
}

/// Train the autoencoder imputer on a gapped synthetic tensor and
/// report the `imputer.fit` span aggregate, pinning the imputed-cell
/// count.
fn imputer_stage() -> Stage {
    // 4 sectors × 4 day-slices × 21 KPIs with a deterministic sparse
    // gap pattern (~2% of cells).
    let mut kpis = Tensor3::from_fn(4, 96, 21, |i, j, k| {
        ((j as f64) * 0.26 + (i * 3 + k) as f64 * 0.7).sin() * 2.0 + 5.0 + k as f64
    });
    let (n, m, l) = kpis.shape();
    for i in 0..n {
        for j in 0..m {
            for k in 0..l {
                if (i * 31 + j * 7 + k * 13) % 47 == 0 {
                    kpis.set(i, j, k, f64::NAN);
                }
            }
        }
    }
    let before = obs::global().snapshot();
    let mut imputer = AutoencoderImputer::new(ImputerConfig::fast());
    let mut filled_tensor = kpis.clone();
    let filled = imputer.impute(&mut filled_tensor);
    let after = obs::global().snapshot();
    assert!(filled > 0, "gap pattern must leave something to impute");
    assert_eq!(filled_tensor.count_nan(), 0, "imputer must fill every gap");
    Stage {
        name: "imputer_fit",
        millis: span_delta_ms("imputer.fit", &before, &after),
        pinned_metric: "imputer.cells_imputed",
        pinned: filled as u64,
    }
}

/// Measure every stage; also returns the exact/histogram fit-time
/// ratio the baseline file records next to them.
fn measure() -> (Vec<Stage>, f64) {
    // Span recording is off by default; the two span-aggregate stages
    // need it.
    obs::set_spans_enabled(true);
    let data = dataset();

    const FIT_REPEATS: usize = 5;
    let mut exact_preds: Option<Vec<f64>> = None;
    let exact = best_of(FIT_REPEATS, || {
        let (stage, preds) = fit_stage("forest_fit_exact", &data, SplitStrategy::Exact, Some(1));
        if let Some(prev) = &exact_preds {
            assert_eq!(prev, &preds, "exact predictions must be deterministic across runs");
        }
        exact_preds = Some(preds);
        stage
    });
    let mut hist_preds: Option<Vec<f64>> = None;
    let hist = best_of(FIT_REPEATS, || {
        let (stage, preds) = fit_stage("forest_fit_hist", &data, SplitStrategy::default(), Some(1));
        if let Some(prev) = &hist_preds {
            assert_eq!(prev, &preds, "histogram predictions must be deterministic across runs");
        }
        hist_preds = Some(preds);
        stage
    });

    // Determinism gate: same counts and bit-identical predictions when
    // refit under a different thread count.
    let (hist_4t, preds_4t) = fit_stage("forest_fit_hist", &data, SplitStrategy::default(), Some(4));
    assert_eq!(
        hist.pinned, hist_4t.pinned,
        "split_evaluations must not depend on thread count"
    );
    assert_eq!(
        hist_preds.as_ref().expect("measured above"),
        &preds_4t,
        "histogram predictions must not depend on thread count"
    );

    let ctx = sweep_context();
    let sweep = best_of(3, || sweep_stage(&ctx));
    let imputer = best_of(3, imputer_stage);

    let exact_over_hist = exact.millis / hist.millis;
    (vec![exact, hist, sweep, imputer], exact_over_hist)
}

fn to_json(stages: &[Stage], exact_over_hist: f64) -> obs::Json {
    let entries: Vec<obs::Json> = stages
        .iter()
        .map(|s| {
            obs::Json::obj(vec![
                ("name", obs::Json::Str(s.name.into())),
                ("millis", obs::Json::Num(s.millis)),
                ("pinned_metric", obs::Json::Str(s.pinned_metric.into())),
                ("pinned", obs::Json::Num(s.pinned as f64)),
            ])
        })
        .collect();
    obs::Json::obj(vec![
        ("bench", obs::Json::Str(format!("forest{N_TREES}_fit_{N_ROWS}x{N_FEATURES}"))),
        ("recorded_unix_ms", obs::Json::Num(obs::unix_ms() as f64)),
        ("speedup_exact_over_hist", obs::Json::Num(exact_over_hist)),
        ("stages", obs::Json::Arr(entries)),
    ])
}

fn check(path: &std::path::Path, stages: &[Stage], exact_over_hist: f64) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read baseline {}: {e} (run --record first)", path.display());
            return 2;
        }
    };
    let baseline = obs::Json::parse(&text).expect("baseline file must be valid JSON");
    let recorded = baseline.get("stages").and_then(|s| s.as_arr()).expect("stages array");
    let mut failures = 0;
    for stage in stages {
        let Some(rec) = recorded
            .iter()
            .find(|r| r.get("name").and_then(|n| n.as_str()) == Some(stage.name))
        else {
            eprintln!("FAIL {}: not in baseline (re-record?)", stage.name);
            failures += 1;
            continue;
        };
        let rec_pinned = rec.get("pinned").and_then(|v| v.as_f64()).unwrap_or(-1.0);
        if rec_pinned as u64 != stage.pinned {
            eprintln!(
                "FAIL {}: {} {} != baseline {} (behaviour changed — re-record deliberately)",
                stage.name, stage.pinned_metric, stage.pinned, rec_pinned as u64
            );
            failures += 1;
        }
        let rec_ms = rec.get("millis").and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
        if stage.millis > rec_ms * TIME_TOLERANCE {
            // Flagged, not fatal: wall clock varies across machines.
            eprintln!(
                "WARN {}: {:.1} ms vs baseline {:.1} ms (>{TIME_TOLERANCE}x band)",
                stage.name, stage.millis, rec_ms
            );
        } else {
            println!(
                "ok   {}: {:.1} ms (baseline {:.1} ms), {} = {}",
                stage.name, stage.millis, rec_ms, stage.pinned_metric, stage.pinned
            );
        }
    }
    print_speedup(exact_over_hist);
    if failures > 0 {
        eprintln!("perf baseline check FAILED ({failures} hard failures)");
        1
    } else {
        println!("perf baseline check passed.");
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut record = false;
    let mut check_mode = false;
    let mut path = std::path::PathBuf::from("BENCH_trees.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--record" => record = true,
            "--check" => check_mode = true,
            "--path" => path = it.next().expect("missing value for --path").into(),
            other => {
                eprintln!("unknown flag '{other}' (usage: perf_baseline --record|--check [--path FILE])");
                std::process::exit(2);
            }
        }
    }
    if record == check_mode {
        eprintln!("pass exactly one of --record or --check");
        std::process::exit(2);
    }

    let (stages, exact_over_hist) = measure();
    if record {
        let json = to_json(&stages, exact_over_hist);
        std::fs::write(&path, json.render() + "\n").expect("write baseline");
        for s in &stages {
            println!("{}: {:.1} ms, {} = {}", s.name, s.millis, s.pinned_metric, s.pinned);
        }
        print_speedup(exact_over_hist);
        println!("baseline recorded to {}", path.display());
    } else {
        std::process::exit(check(&path, &stages, exact_over_hist));
    }
}

fn print_speedup(exact_over_hist: f64) {
    println!("speedup exact/hist: {exact_over_hist:.2}x");
    if exact_over_hist < 1.0 {
        eprintln!("WARN histogram slower than exact on this machine ({exact_over_hist:.2}x)");
    }
}
