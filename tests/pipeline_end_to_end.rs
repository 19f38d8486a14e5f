//! End-to-end integration: simulate → filter → impute → score →
//! build features → forecast → evaluate, across crates.

use hotspot::core::missing::sector_filter_mask;
use hotspot::core::{prevalence, ScorePipeline};
use hotspot::forecast::context::{ForecastContext, Target};
use hotspot::forecast::models::ModelSpec;
use hotspot::forecast::sweep::{run_sweep, SweepConfig};
use hotspot::nn::imputer::{ForwardFillImputer, Imputer, MeanImputer};
use hotspot::features::windows::WindowSpec;
use hotspot::simnet::{NetworkConfig, SyntheticNetwork};

/// Shared fixture: a small but paper-shaped network, fully prepared.
fn prepared(seed: u64) -> (hotspot::core::Tensor3, hotspot::core::ScoredNetwork) {
    prepared_sized(seed, 80, 8)
}

fn prepared_sized(
    seed: u64,
    sectors: usize,
    weeks: usize,
) -> (hotspot::core::Tensor3, hotspot::core::ScoredNetwork) {
    let config = NetworkConfig::small().with_sectors(sectors).with_weeks(weeks);
    let network = SyntheticNetwork::generate(&config, seed);
    let mask = sector_filter_mask(network.kpis(), 0.5).unwrap();
    let mut kpis = network.kpis().retain_sectors(&mask).unwrap();
    ForwardFillImputer.impute(&mut kpis);
    MeanImputer.impute(&mut kpis);
    assert_eq!(kpis.count_nan(), 0, "all gaps filled");
    let scored = ScorePipeline::standard().run(&kpis).unwrap();
    (kpis, scored)
}

#[test]
fn full_pipeline_produces_plausible_hot_spot_population() {
    let (_, scored) = prepared(5);
    let prev = prevalence(&scored.y_daily);
    assert!(prev > 0.005 && prev < 0.30, "daily prevalence {prev}");
    // Hourly labels trip more often than whole days (a few hot hours
    // do not make a hot day), but stay a minority of all hours.
    let hourly = prevalence(&scored.y_hourly);
    assert!(hourly > prev * 0.5, "hourly {hourly} vs daily {prev}");
    assert!(hourly < 0.5, "hourly prevalence {hourly}");
    // Scores live in [0, 1].
    for &v in scored.s_weekly.as_slice() {
        assert!((0.0..=1.0).contains(&v), "weekly score {v}");
    }
}

#[test]
fn informed_models_beat_random_in_a_mini_sweep() {
    let (kpis, scored) = prepared_sized(6, 180, 10);
    let ctx = ForecastContext::build(&kpis, &scored, Target::BeHotSpot).unwrap();

    let sweep = SweepConfig {
        models: vec![ModelSpec::Random, ModelSpec::Average, ModelSpec::RfF1],
        ts: vec![30, 36, 42, 48, 54, 60],
        hs: vec![1, 5],
        ws: vec![7],
        n_trees: 15,
        train_days: 5,
        random_repeats: 15,
        seed: 1,
        n_threads: Some(1),
        resilience: Default::default(),
        split: Default::default(),
    };
    let result = run_sweep(&ctx, &sweep);
    assert!(result.n_evaluated() > 0);
    for h in [1usize, 5] {
        let (random, _) = result.mean_lift(ModelSpec::Random, h, 7);
        let (average, _) = result.mean_lift(ModelSpec::Average, h, 7);
        let (rf, _) = result.mean_lift(ModelSpec::RfF1, h, 7);
        assert!(average > random, "h={h}: Average {average} vs Random {random}");
        assert!(rf > random, "h={h}: RF-F1 {rf} vs Random {random}");
        // With only a handful of positives per day, a single random
        // ranking's AP is heavy-tailed, so the Random model's mean
        // lift over a few days is noisy — bound it loosely (the paper,
        // with thousands of positives, sees it concentrate at 1).
        assert!(random > 0.2 && random < 4.0, "h={h}: random lift {random}");
    }
}

#[test]
fn become_target_has_rare_positives_and_is_forecastable_in_principle() {
    let (_, scored) = prepared(7);
    let become_prev = prevalence(&scored.y_become);
    let be_prev = prevalence(&scored.y_daily);
    assert!(become_prev < be_prev, "emergences rarer than hot days");
    assert!(become_prev < 0.05, "become prevalence {become_prev}");
}

#[test]
fn whole_stack_is_deterministic_per_seed() {
    let (_, a) = prepared(8);
    let (_, b) = prepared(8);
    assert!(a.s_daily.bit_eq(&b.s_daily));
    assert!(a.y_become.bit_eq(&b.y_become));
}

#[test]
fn forecast_window_spec_round_trip_with_context() {
    let (kpis, scored) = prepared(9);
    let ctx = ForecastContext::build(&kpis, &scored, Target::BeHotSpot).unwrap();
    // Every fitting (t, h, w) yields one prediction per sector.
    let spec = WindowSpec::new(30, 3, 7);
    assert!(spec.fits(ctx.n_days()));
    let preds = ModelSpec::Average.forecast(&ctx, &spec, 5, 3, 0, Default::default()).unwrap();
    assert_eq!(preds.len(), ctx.n_sectors());
}
