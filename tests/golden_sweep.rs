//! Pinned science: the canonical TSVs of two small simulated-network
//! sweeps must match their golden files byte for byte —
//! `tests/golden/sweep_small.tsv` (Tree, RF-R and RF-F1 on the be
//! target at `w = 1`) and `tests/golden/window_sweep_small.tsv` (RF-F1
//! and RF-F2 on the become target at `w ∈ {1, 3, 7}`, so windowed
//! percentile planes of several widths are pinned too).
//!
//! The cross-topology identity tests (sharding, cache, resume) only
//! prove that two runs of the *same* code agree; this one catches a
//! change in the numbers themselves. A deliberate science change
//! re-records the file: on a mismatch the test writes the new output
//! to the system temp directory and prints its path, to be reviewed
//! and copied over the golden file.
//!
//! The grid is sized so that every classifier fits on more than 255
//! training rows, which makes the histogram binning group distinct
//! values into quantile bins instead of giving each its own bin.

use hotspot::core::missing::sector_filter_mask;
use hotspot::core::ScorePipeline;
use hotspot::forecast::context::{ForecastContext, Target};
use hotspot::forecast::models::ModelSpec;
use hotspot::forecast::sweep::{canonical_tsv, run_sweep, SweepConfig, SweepPlan};
use hotspot::nn::imputer::{ForwardFillImputer, Imputer, MeanImputer};
use hotspot::simnet::{NetworkConfig, SyntheticNetwork};

const GOLDEN: &str = include_str!("golden/sweep_small.tsv");
const WINDOW_GOLDEN: &str = include_str!("golden/window_sweep_small.tsv");

fn context(target: Target, failures_per_tower_week: Option<f64>) -> ForecastContext {
    let mut config = NetworkConfig::small().with_sectors(40).with_weeks(6);
    if let Some(rate) = failures_per_tower_week {
        config.events.failures_per_tower_week = rate;
    }
    let network = SyntheticNetwork::generate(&config, 5);
    let mask = sector_filter_mask(network.kpis(), 0.5).unwrap();
    let mut kpis = network.kpis().retain_sectors(&mask).unwrap();
    ForwardFillImputer.impute(&mut kpis);
    MeanImputer.impute(&mut kpis);
    let scored = ScorePipeline::standard().run(&kpis).unwrap();
    ForecastContext::build(&kpis, &scored, target).unwrap()
}

fn config() -> SweepConfig {
    SweepConfig {
        models: vec![ModelSpec::Tree, ModelSpec::RfR, ModelSpec::RfF1],
        ts: vec![28, 35],
        hs: vec![1, 3],
        ws: vec![1],
        n_trees: 3,
        train_days: 8,
        random_repeats: 5,
        seed: 7,
        n_threads: Some(2),
        resilience: Default::default(),
        split: Default::default(),
    }
}

/// Run `cfg` on `ctx` and compare its canonical TSV with `golden`
/// (`tests/golden/<stem>.tsv`).
fn assert_matches_golden(ctx: &ForecastContext, cfg: &SweepConfig, stem: &str, golden: &str) {
    assert!(
        ctx.n_sectors() * cfg.train_days > 255,
        "training sets must exceed 255 rows so quantile grouping runs"
    );
    let result = run_sweep(ctx, cfg);
    assert!(result.health.is_clean(), "{}", result.health.summary());
    let tsv = canonical_tsv(&SweepPlan::new(cfg), &result).unwrap();
    if tsv != golden {
        let path = std::env::temp_dir().join(format!("{stem}.actual.tsv"));
        std::fs::write(&path, &tsv).unwrap();
        panic!(
            "sweep output differs from tests/golden/{stem}.tsv; the new output is in {} \
             — copy it over the golden file only for a deliberate science change",
            path.display()
        );
    }
}

#[test]
fn small_sweep_matches_the_pinned_golden_tsv() {
    assert_matches_golden(&context(Target::BeHotSpot, None), &config(), "sweep_small", GOLDEN);
}

#[test]
fn window_sweep_matches_the_pinned_golden_tsv() {
    // The become target at the become-binaries' failure rate; the
    // `t`s put most target days on one of the rare emergences, so
    // most cells have positives to evaluate.
    let ctx = context(Target::BecomeHotSpot, Some(0.08));
    let cfg = SweepConfig {
        models: vec![ModelSpec::RfF1, ModelSpec::RfF2],
        ts: vec![17, 20, 28],
        hs: vec![1, 3],
        ws: vec![1, 3, 7],
        ..config()
    };
    assert_matches_golden(&ctx, &cfg, "window_sweep_small", WINDOW_GOLDEN);
}
