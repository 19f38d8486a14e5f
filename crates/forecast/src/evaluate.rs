//! Per-day ranking evaluation: average precision against the target
//! day's labels, a stabilised random reference, and the lift Λ.

use crate::context::ForecastContext;
use hotspot_eval::ap::average_precision;
use hotspot_eval::lift::lift;
use hotspot_features::windows::WindowSpec;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Evaluation of one `(model, t, h, w)` cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalRecord {
    /// Average precision `ψ` of the model's ranking.
    pub ap: f64,
    /// Reference `ψ(F⁰)` — the mean AP of random rankings.
    pub ap_random: f64,
    /// Lift `Λ = ψ / ψ(F⁰)`.
    pub lift: f64,
    /// Positive labels at the target day.
    pub positives: usize,
    /// Sectors evaluated (finite labels).
    pub evaluated: usize,
}

/// Whether the target day `t + h` holds a positive label (`≥ 0.5`;
/// `NaN` labels never count) — the rule [`evaluate_day`] scores by. A
/// cell whose target day holds none cannot be scored, so the sweep
/// checks this before it fits anything.
pub fn target_day_has_positive(ctx: &ForecastContext, spec: &WindowSpec) -> bool {
    let day = spec.target_day();
    (0..ctx.n_sectors()).any(|i| ctx.target.get(i, day) >= 0.5)
}

/// Evaluate predictions for the target day `t + h`.
///
/// Sectors whose label at the target day is `NaN` are excluded.
/// Returns `None` when the day holds no positive labels (AP and lift
/// are undefined; the sweep skips such days, as any ranking metric
/// must).
///
/// The random reference averages `random_repeats` independent random
/// rankings of the same day — a low-variance estimate of `ψ(F⁰)` that
/// keeps the lift's denominator stable.
pub fn evaluate_day(
    ctx: &ForecastContext,
    spec: &WindowSpec,
    predictions: &[f64],
    random_repeats: usize,
    seed: u64,
) -> Option<EvalRecord> {
    assert_eq!(predictions.len(), ctx.n_sectors(), "one prediction per sector");
    let day = spec.target_day();
    assert!(day < ctx.target.cols(), "target day out of range");
    if !target_day_has_positive(ctx, spec) {
        return None;
    }

    let mut labels = Vec::with_capacity(ctx.n_sectors());
    let mut scores = Vec::with_capacity(ctx.n_sectors());
    for (i, &p) in predictions.iter().enumerate().take(ctx.n_sectors()) {
        let y = ctx.target.get(i, day);
        if y.is_nan() {
            continue;
        }
        labels.push(y >= 0.5);
        scores.push(p);
    }
    let positives = labels.iter().filter(|&&b| b).count();
    let ap = average_precision(&labels, &scores);

    let mut rng = StdRng::seed_from_u64(seed ^ RANDOM_REFERENCE_SALT);
    let mut total = 0.0;
    let repeats = random_repeats.max(1);
    let mut random_scores = vec![0.0; labels.len()];
    for _ in 0..repeats {
        for s in &mut random_scores {
            *s = rng.random();
        }
        total += average_precision(&labels, &random_scores);
    }
    let ap_random = total / repeats as f64;

    Some(EvalRecord {
        ap,
        ap_random,
        lift: lift(ap, ap_random),
        positives,
        evaluated: labels.len(),
    })
}

/// Salt decorrelating the random-reference stream from model seeds.
const RANDOM_REFERENCE_SALT: u64 = 0x5EED_CAFE;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Target;
    use hotspot_core::pipeline::ScorePipeline;
    use hotspot_core::tensor::Tensor3;
    use hotspot_core::HOURS_PER_WEEK;

    fn ctx() -> ForecastContext {
        let catalog = hotspot_core::kpi::KpiCatalog::standard();
        // Sectors 0..3 hot always, 4..16 never.
        let kpis = Tensor3::from_fn(16, HOURS_PER_WEEK * 3, 21, |i, _, k| {
            let def = &catalog.defs()[k];
            if i < 3 {
                def.degraded
            } else {
                def.nominal
            }
        });
        let scored = ScorePipeline::standard().run(&kpis).unwrap();
        ForecastContext::build(&kpis, &scored, Target::BeHotSpot).unwrap()
    }

    #[test]
    fn perfect_predictions_give_high_lift() {
        let c = ctx();
        let spec = WindowSpec::new(10, 2, 7);
        // Predict exactly the truth at day 12.
        let preds: Vec<f64> = (0..16).map(|i| if i < 3 { 1.0 } else { 0.0 }).collect();
        let rec = evaluate_day(&c, &spec, &preds, 200, 1).unwrap();
        assert!((rec.ap - 1.0).abs() < 1e-12);
        assert_eq!(rec.positives, 3);
        assert_eq!(rec.evaluated, 16);
        // For 3 positives among 16 sectors the expected AP of a random
        // ranking is ≈ 0.316 (well above the 3/16 prevalence — small-
        // sample AP is biased upward). 200 repeats give SE ≈ 0.011.
        assert!((rec.ap_random - 0.316).abs() < 0.06, "{}", rec.ap_random);
        assert!(rec.lift > 2.5);
    }

    #[test]
    fn random_predictions_give_lift_near_one() {
        let c = ctx();
        let spec = WindowSpec::new(10, 2, 7);
        // Average lift of random predictions over several seeds.
        let mut lifts = Vec::new();
        for s in 0..30u64 {
            let preds = crate::baselines::random_forecast(&c, &spec, s);
            let rec = evaluate_day(&c, &spec, &preds, 30, s).unwrap();
            lifts.push(rec.lift);
        }
        let mean: f64 = lifts.iter().sum::<f64>() / lifts.len() as f64;
        assert!((mean - 1.0).abs() < 0.35, "mean random lift {mean}");
    }

    #[test]
    fn day_without_positives_is_skipped() {
        let catalog = hotspot_core::kpi::KpiCatalog::standard();
        let kpis = Tensor3::from_fn(4, HOURS_PER_WEEK * 3, 21, |_, _, k| catalog.defs()[k].nominal);
        let scored = ScorePipeline::standard().run(&kpis).unwrap();
        let c = ForecastContext::build(&kpis, &scored, Target::BeHotSpot).unwrap();
        let spec = WindowSpec::new(10, 2, 7);
        assert!(evaluate_day(&c, &spec, &[0.5; 4], 5, 1).is_none());
    }

    #[test]
    fn evaluation_is_deterministic() {
        let c = ctx();
        let spec = WindowSpec::new(10, 2, 7);
        let preds: Vec<f64> = (0..16).map(|i| i as f64 / 16.0).collect();
        let a = evaluate_day(&c, &spec, &preds, 10, 9).unwrap();
        let b = evaluate_day(&c, &spec, &preds, 10, 9).unwrap();
        assert_eq!(a, b);
    }
}
