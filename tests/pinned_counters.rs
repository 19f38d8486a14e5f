//! Pinned work counters and determinism gates for the pipeline's hot
//! stages.
//!
//! Each fixture below pins one deterministic counter. The counters
//! are properties of the algorithms, not of the machine or the build
//! profile, so any drift is a behaviour change, never noise:
//!
//! * `forest_fit_exact` / `forest_fit_hist`: fit the same 10-tree
//!   forest with exact and histogram split finding at the sweep's
//!   working shape (5000 rows × 63 features); pins
//!   `trees.split_evaluations`.
//! * `gbdt_fit`: a few histogram boosting rounds on the same data; pins
//!   `trees.split_evaluations`, which every round's tree adds to since
//!   boosting grows through the CART builder.
//! * `sweep_cell`: one reduced in-process RF-F1 sweep; pins
//!   `trees.split_evaluations` summed over the grid,
//!   `features.day_table.blocks`, the (sector, day, column) blocks its
//!   plane cache's day table summarised (each exactly once), and
//!   `bins.columns_quantised`, the training columns its column store
//!   quantised (each distinct column exactly once).
//! * `imputer_fit`: train the autoencoder imputer on a gapped
//!   synthetic tensor; pins `imputer.cells_imputed`.
//! * `bin_build`: quantise the Raw w=7 training set of the sweep's
//!   first cell with `BinnedDataset::build`; pins `trees.bins_built`.
//!
//! Re-pinning a counter after a deliberate behaviour change means
//! editing its constant here and saying why in CHANGES.md. Timing is
//! the experiment-scale benchmark's job (`perfbench/`), not this
//! test's.

use hotspot::core::kpi::KpiCatalog;
use hotspot::core::pipeline::ScorePipeline;
use hotspot::core::tensor::Tensor3;
use hotspot::core::HOURS_PER_WEEK;
use hotspot::features::plane::PlaneCache;
use hotspot::features::windows::WindowSpec;
use hotspot::forecast::classifier::assemble_training;
use hotspot::forecast::context::{ForecastContext, Target};
use hotspot::forecast::models::ModelSpec;
use hotspot::forecast::sweep::{run_sweep, ResiliencePolicy, SweepConfig};
use hotspot::nn::imputer::{AutoencoderImputer, Imputer, ImputerConfig};
use hotspot::obs;
use hotspot::trees::{
    BinnedDataset, Dataset, GradientBoosting, GradientBoostingParams, RandomForest,
    RandomForestParams, SplitStrategy,
};

const FOREST_FIT_EXACT_SPLIT_EVALUATIONS: u64 = 37544;
const FOREST_FIT_HIST_SPLIT_EVALUATIONS: u64 = 37816;
const GBDT_FIT_SPLIT_EVALUATIONS: u64 = 1785;
const SWEEP_CELL_SPLIT_EVALUATIONS: u64 = 528;
const SWEEP_CELL_DAY_TABLE_BLOCKS: u64 = 12600;
const SWEEP_CELL_COLUMNS_QUANTISED: u64 = 8400;
const IMPUTER_FIT_CELLS_IMPUTED: u64 = 171;
const BIN_BUILD_BINS_BUILT: u64 = 9688;

const N_ROWS: usize = 5000;
const N_FEATURES: usize = 63;
const N_TREES: usize = 10;
const N_ROUNDS: usize = 5;
const SEED_MIX: u64 = 0x2545_F491_4F6C_DD1D;

/// How much `counter` grows while `work` runs.
fn counted<T>(counter: &str, work: impl FnOnce() -> T) -> (u64, T) {
    let before = obs::counter(counter).get();
    let out = work();
    (obs::counter(counter).get() - before, out)
}

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

/// Fit once, returning the split evaluations it made and its
/// predictions on the training rows.
fn fit(data: &Dataset, split: SplitStrategy, n_threads: usize) -> (u64, Vec<f64>) {
    let params = RandomForestParams {
        n_trees: N_TREES,
        n_threads: Some(n_threads),
        ..RandomForestParams::paper()
    }
    .with_split(split);
    counted("trees.split_evaluations", || RandomForest::fit(data, &params).predict_proba_all(data))
}

/// Fit twice, asserting equal counts and bit-identical predictions.
fn fit_twice(name: &str, data: &Dataset, split: SplitStrategy) -> (u64, Vec<f64>) {
    let (count, preds) = fit(data, split, 1);
    let (again, preds_again) = fit(data, split, 1);
    assert_eq!(count, again, "{name}: split evaluations must be deterministic across runs");
    assert!(bits_equal(&preds, &preds_again), "{name}: predictions must be deterministic");
    (count, preds)
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
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

/// Overlapping horizons at a common window and shallow forests keep
/// featurisation a visible share of each cell.
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

/// The Raw w=7 training set of the sweep's first cell (the set its
/// Tree and RF-R fits quantise).
fn first_cell_raw_training_set(ctx: &ForecastContext) -> (Dataset, u16) {
    let cfg = sweep_config();
    let classifier = ModelSpec::RfR
        .classifier_config(cfg.n_trees, cfg.train_days, cfg.seed, cfg.split)
        .expect("RF-R is a classifier");
    let spec = WindowSpec::new(cfg.ts[0], cfg.hs[0], cfg.ws[0]);
    let data = assemble_training(ctx, &spec, &classifier, &PlaneCache::new(0))
        .expect("the first sweep cell has a training set");
    let SplitStrategy::Histogram { max_bins } = cfg.split else {
        panic!("the sweep bins its features");
    };
    (data, max_bins)
}

/// 4 sectors × 4 day-slices × 21 KPIs with a deterministic sparse gap
/// pattern (~2% of cells).
fn gapped_kpis() -> Tensor3 {
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
    kpis
}

// One test function on purpose: every counter lives in the
// process-global registry, and cargo runs test functions on parallel
// threads within one process.
#[test]
fn pinned_counters_and_determinism_gates() {
    let data = dataset();

    let (exact, _) = fit_twice("forest_fit_exact", &data, SplitStrategy::Exact);
    assert_eq!(
        exact, FOREST_FIT_EXACT_SPLIT_EVALUATIONS,
        "forest_fit_exact: trees.split_evaluations"
    );

    let (hist, hist_preds) = fit_twice("forest_fit_hist", &data, SplitStrategy::default());
    assert_eq!(hist, FOREST_FIT_HIST_SPLIT_EVALUATIONS, "forest_fit_hist: trees.split_evaluations");
    let (hist_4t, preds_4t) = fit(&data, SplitStrategy::default(), 4);
    assert_eq!(hist_4t, hist, "split evaluations must not depend on the thread count");
    assert!(
        bits_equal(&preds_4t, &hist_preds),
        "histogram predictions must not depend on the thread count"
    );

    let gbdt_params = GradientBoostingParams { n_rounds: N_ROUNDS, ..Default::default() };
    let (gbdt, booster) =
        counted("trees.split_evaluations", || GradientBoosting::fit(&data, &gbdt_params));
    assert_eq!(booster.n_rounds(), N_ROUNDS, "gbdt_fit: every round must be fitted");
    assert_eq!(gbdt, GBDT_FIT_SPLIT_EVALUATIONS, "gbdt_fit: trees.split_evaluations");

    let ctx = sweep_context();
    let (quantised, (blocks, (sweep, result))) = counted("bins.columns_quantised", || {
        counted("features.day_table.blocks", || {
            counted("trees.split_evaluations", || run_sweep(&ctx, &sweep_config()))
        })
    });
    assert!(result.health.is_clean(), "sweep must be clean: {}", result.health.summary());
    assert_eq!(sweep, SWEEP_CELL_SPLIT_EVALUATIONS, "sweep_cell: trees.split_evaluations");
    assert_eq!(blocks, SWEEP_CELL_DAY_TABLE_BLOCKS, "sweep_cell: features.day_table.blocks");
    assert_eq!(quantised, SWEEP_CELL_COLUMNS_QUANTISED, "sweep_cell: bins.columns_quantised");

    let mut kpis = gapped_kpis();
    let (imputed, filled) = counted("imputer.cells_imputed", || {
        AutoencoderImputer::new(ImputerConfig::fast()).impute(&mut kpis)
    });
    assert_eq!(kpis.count_nan(), 0, "the imputer must fill every gap");
    assert_eq!(filled as u64, imputed, "impute's return value must match its counter");
    assert_eq!(imputed, IMPUTER_FIT_CELLS_IMPUTED, "imputer_fit: imputer.cells_imputed");

    let (raw, max_bins) = first_cell_raw_training_set(&ctx);
    let (bins, binned) = counted("trees.bins_built", || BinnedDataset::build(&raw, max_bins));
    assert_eq!(binned.n_rows(), raw.n_samples(), "binning must keep every row");
    assert_eq!(bins, BIN_BUILD_BINS_BUILT, "bin_build: trees.bins_built");
}
