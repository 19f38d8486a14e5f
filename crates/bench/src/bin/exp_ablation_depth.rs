//! Ablation — partition stop: the paper's shallow standalone Tree
//! (2% weight stop) vs a deep forest-member tree (0.02%) vs the full
//! forest, all on RF-F1 features (DESIGN.md ablation 2).

use hotspot_bench::experiments::{context, print_preamble};
use hotspot_bench::report::{print_header, print_row, print_section, Cell};
use hotspot_bench::{prepare, RunOptions};
use hotspot_eval::stats::mean_ci95;
use hotspot_features::builders::{DailyPercentiles, FeatureBuilder};
use hotspot_features::windows::{train_window_days, WindowSpec};
use hotspot_forecast::context::Target;
use hotspot_forecast::evaluate::evaluate_day;
use hotspot_forecast::models::ModelSpec;
use hotspot_trees::{Dataset, DecisionTree, MaxFeatures, TreeParams};

fn main() {
    let opts = RunOptions::from_env();
    let _run = hotspot_bench::Experiment::start("ablation_depth", &opts);
    let prep = prepare(&opts);
    print_preamble("ablation_depth", &opts, &prep);

    let ctx = context(&prep, Target::BeHotSpot);
    let (h, w) = (5usize, 7usize);
    let builder = DailyPercentiles;

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
            // Assemble training data over train_days label days.
            let mut rows = Vec::new();
            let mut labels = Vec::new();
            for d in 0..opts.train_days {
                if t < d {
                    break;
                }
                let sub = WindowSpec::new(t - d, h, w);
                let Some((_, end)) = train_window_days(&sub) else { break };
                for i in 0..ctx.n_sectors() {
                    let y = ctx.target.get(i, t - d);
                    if y.is_nan() {
                        continue;
                    }
                    rows.extend(builder.build(&ctx.x, i, end, w));
                    labels.push(y >= 0.5);
                }
            }
            if labels.is_empty() {
                continue;
            }
            let dim = builder.dim(ctx.x.n_features(), w);
            let mut data = Dataset::new(rows, dim, labels).expect("finite features");
            data.balance_weights();
            let tree = DecisionTree::fit(&data, &TreeParams { seed: opts.seed, ..params.clone() });
            nodes.push(tree.n_nodes() as f64);
            let preds: Vec<f64> = (0..ctx.n_sectors())
                .map(|i| tree.predict_proba(&builder.build(&ctx.x, i, t, w)))
                .collect();
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
    let config = hotspot_forecast::sweep::SweepConfig {
        models: vec![ModelSpec::RfF1],
        ts: opts.ts(ctx.n_days(), h),
        hs: vec![h],
        ws: vec![w],
        n_trees: opts.trees,
        train_days: opts.train_days,
        random_repeats: 15,
        seed: opts.seed,
        n_threads: None,
        resilience: Default::default(),
        split: opts.split_strategy(),
    };
    let result = hotspot_forecast::sweep::run_sweep(&ctx, &config);
    let (mean, ci) = result.mean_lift(ModelSpec::RfF1, h, w);
    print_row(&[Cell::from("forest"), Cell::from(mean), Cell::from(ci), Cell::F(f64::NAN)]);
}
