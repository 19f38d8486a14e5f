//! Ablation — partition stop: the paper's shallow standalone Tree
//! (2% weight stop) vs a deep forest-member tree (0.02%) vs the full
//! forest, all on RF-F1 features (DESIGN.md ablation 2).

use hotspot_bench::experiments::{context, sweep_config};
use hotspot_bench::report::{print_header, print_row, print_section, Cell};
use hotspot_bench::{start, RunOptions, SweepFlags};
use hotspot_eval::stats::mean_ci95;
use hotspot_features::builders::DailyPercentiles;
use hotspot_features::windows::WindowSpec;
use hotspot_forecast::classifier::training_set;
use hotspot_forecast::context::Target;
use hotspot_forecast::evaluate::evaluate_day;
use hotspot_forecast::models::ModelSpec;
use hotspot_forecast::SweepCache;
use hotspot_trees::{DecisionTree, MaxFeatures, TreeParams};

fn main() {
    let (_run, opts, prep) =
        start("ablation_depth", "", RunOptions::default(), SweepFlags::Refused);

    let ctx = context(&prep, Target::BeHotSpot);
    let (h, w) = (5usize, 7usize);
    // The forest reference's own training sets: the same label days
    // and rows the sweep below fits RF-F1 on.
    let forest = ModelSpec::RfF1
        .classifier_config(opts.trees, opts.train_days, opts.seed, opts.split_strategy())
        .expect("RF-F1 is a classifier");
    // One cache for every variant, so each window is featurised once
    // and each training column quantised once.
    let cache = SweepCache::default();

    let variants: Vec<(&str, TreeParams)> = vec![
        ("tree_2pct_stop", TreeParams { split: opts.split_strategy(), ..TreeParams::paper_tree() }),
        (
            "tree_0.02pct_stop",
            TreeParams { split: opts.split_strategy(), ..TreeParams::paper_forest_member() },
        ),
        (
            "tree_depth_3",
            TreeParams {
                max_features: MaxFeatures::Fraction(0.8),
                min_weight_fraction: 0.0,
                max_depth: Some(3),
                seed: 0,
                split: opts.split_strategy(),
            },
        ),
    ];

    print_section("single-tree depth ablation (h=5, w=7, RF-F1 features)");
    print_header(&["variant", "mean_lift", "ci95", "mean_nodes"]);
    for (name, params) in &variants {
        let mut lifts = Vec::new();
        let mut nodes = Vec::new();
        for &t in &opts.ts(ctx.n_days(), h) {
            let spec = WindowSpec::new(t, h, w);
            if !spec.fits(ctx.n_days()) {
                continue;
            }
            let Some(set) = training_set(&ctx, &spec, &forest, &cache) else {
                continue;
            };
            let params = TreeParams { seed: opts.seed, ..params.clone() };
            let tree = DecisionTree::fit_binned(&set.data, set.binned.as_ref(), &params);
            nodes.push(tree.n_nodes() as f64);
            let forecast = cache.planes.get_or_build(&DailyPercentiles, &ctx.x, t, w);
            let preds: Vec<f64> =
                (0..ctx.n_sectors()).map(|i| tree.predict_proba(forecast.row(i))).collect();
            if let Some(rec) = evaluate_day(&ctx, &spec, &preds, 15, opts.seed) {
                if rec.lift.is_finite() {
                    lifts.push(rec.lift);
                }
            }
        }
        let (mean, ci) = mean_ci95(&lifts);
        let (mean_nodes, _) = mean_ci95(&nodes);
        print_row(&[Cell::from(*name), Cell::from(mean), Cell::from(ci), Cell::from(mean_nodes)]);
    }

    // Reference: the full forest at the same spot.
    let config = sweep_config(&ctx, &opts, &[ModelSpec::RfF1], &[h], &[w]);
    let result = hotspot_forecast::sweep::run_sweep(&ctx, &config);
    let (mean, ci) = result.mean_lift(ModelSpec::RfF1, h, w);
    print_row(&[Cell::from("forest"), Cell::from(mean), Cell::from(ci), Cell::F(f64::NAN)]);
}
