//! Model inspection: read the fitted trees the way the paper does
//! (Sec. V-B inspects first splits; Sec. V-D feature importances) and
//! check how calibrated the forest's probabilities are.
//!
//! ```sh
//! cargo run --release --example model_inspection
//! ```

use hotspot::analysis::hourly::busiest_hour_window;
use hotspot::core::ScorePipeline;
use hotspot::eval::calibration::{brier_score, reliability_curve};
use hotspot::features::builders::{DailyPercentiles, FeatureBuilder};
use hotspot::features::tensor_x::feature_name;
use hotspot::features::windows::WindowSpec;
use hotspot::forecast::classifier::{fit_and_forecast, ClassifierConfig, ClassifierKind, Representation};
use hotspot::forecast::context::{ForecastContext, Target};
use hotspot::forecast::SweepCache;
use hotspot::nn::imputer::{ForwardFillImputer, Imputer};
use hotspot::simnet::{NetworkConfig, SyntheticNetwork};
use hotspot::trees::{Dataset, DecisionTree, TreeParams};
use std::sync::Arc;

fn main() {
    let config = NetworkConfig::small().with_sectors(150).with_weeks(12);
    let mut network = SyntheticNetwork::generate(&config, 31);
    ForwardFillImputer.impute(network.kpis_mut());
    let scored = ScorePipeline::standard().run(network.kpis()).expect("scoring");
    let ctx =
        ForecastContext::build(network.kpis(), &scored, Target::BeHotSpot).expect("context");

    // Where does hotness concentrate in the day? (Sec. V-D's
    // 15:00-18:00 window observation.)
    let (start, end) = busiest_hour_window(&scored.y_hourly, 4);
    println!("busiest 4-hour window of the day: {start:02}:00-{end:02}:00\n");

    // One sweep cache serves this tree and the forests below.
    let cache = Arc::new(SweepCache::default());

    // --- Inspect a single tree, paper-style: which feature does the
    // first split use?
    let spec = WindowSpec::new(50, 5, 7);
    let builder = DailyPercentiles;
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for d in 0..10usize {
        let t = spec.t - d;
        let plane = cache.planes.get_or_build(&builder, &ctx.x, t - spec.h, spec.w);
        for i in 0..ctx.n_sectors() {
            let y = ctx.target.get(i, t);
            if y.is_nan() {
                continue;
            }
            rows.extend_from_slice(plane.row(i));
            labels.push(y >= 0.5);
        }
    }
    let dim = builder.dim(ctx.x.n_features(), spec.w);
    let mut data = Dataset::new(rows, dim, labels).expect("finite features");
    data.balance_weights();
    let tree = DecisionTree::fit(&data, &TreeParams::paper_tree());
    println!("single tree: {} nodes, depth {}", tree.n_nodes(), tree.depth());
    println!("top splits (breadth-first):");
    for s in tree.describe_splits(5) {
        let (col, within) = builder.source_column(s.feature, ctx.x.n_features(), spec.w);
        println!(
            "  depth {}: {} (percentile slot {}) <= {:.4}",
            s.depth,
            feature_name(col),
            within,
            s.threshold,
        );
    }
    println!("\ntree rendered to depth 2:");
    let name_of = |k: usize| {
        let (col, _) = builder.source_column(k, 30, spec.w);
        feature_name(col)
    };
    print!("{}", tree.render(2, &name_of));

    // --- Forest calibration across several forecast days.
    let cfg = ClassifierConfig {
        kind: ClassifierKind::Forest,
        representation: Representation::Percentiles,
        n_trees: 40,
        train_days: 10,
        seed: 3,
        forest_threads: None,
        cancel: None,
        split: Default::default(),
        cache: Some(Arc::clone(&cache)),
    };
    let mut all_labels = Vec::new();
    let mut all_probs = Vec::new();
    for t in [40usize, 47, 54, 61, 68] {
        let spec = WindowSpec::new(t, 1, 7);
        if !spec.fits(ctx.n_days()) {
            continue;
        }
        let fitted = fit_and_forecast(&ctx, &spec, &cfg).expect("window fits");
        let day = spec.target_day();
        for (i, &p) in fitted.predictions.iter().enumerate() {
            let y = ctx.target.get(i, day);
            if !y.is_nan() {
                all_labels.push(y >= 0.5);
                all_probs.push(p);
            }
        }
    }
    println!("\nforest calibration over {} forecasts:", all_probs.len());
    println!("  Brier score: {:.4}", brier_score(&all_labels, &all_probs));
    println!("  reliability curve (predicted -> observed):");
    for bin in reliability_curve(&all_labels, &all_probs, 5) {
        println!(
            "    p≈{:.2} -> {:.2} observed  ({} forecasts)",
            bin.mean_predicted, bin.observed, bin.count,
        );
    }
}
