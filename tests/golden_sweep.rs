//! Pinned science: the canonical TSV of a small simulated-network
//! sweep over the Tree, RF-R and RF-F1 classifiers must match
//! `tests/golden/sweep_small.tsv` byte for byte.
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

fn context() -> ForecastContext {
    let config = NetworkConfig::small().with_sectors(40).with_weeks(6);
    let network = SyntheticNetwork::generate(&config, 5);
    let mask = sector_filter_mask(network.kpis(), 0.5).unwrap();
    let mut kpis = network.kpis().retain_sectors(&mask).unwrap();
    ForwardFillImputer.impute(&mut kpis);
    MeanImputer.impute(&mut kpis);
    let scored = ScorePipeline::standard().run(&kpis).unwrap();
    ForecastContext::build(&kpis, &scored, Target::BeHotSpot).unwrap()
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

#[test]
fn small_sweep_matches_the_pinned_golden_tsv() {
    let ctx = context();
    assert!(
        ctx.n_sectors() * 8 > 255,
        "training sets must exceed 255 rows so quantile grouping runs"
    );
    let cfg = config();
    let result = run_sweep(&ctx, &cfg);
    assert!(result.health.is_clean(), "{}", result.health.summary());
    let tsv = canonical_tsv(&SweepPlan::new(&cfg), &result).unwrap();
    if tsv != GOLDEN {
        let path = std::env::temp_dir().join("sweep_small.actual.tsv");
        std::fs::write(&path, &tsv).unwrap();
        panic!(
            "sweep output differs from tests/golden/sweep_small.tsv; the new output is in {} \
             — copy it over the golden file only for a deliberate science change",
            path.display()
        );
    }
}
