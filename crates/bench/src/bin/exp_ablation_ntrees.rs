//! Ablation — forest size: RF-F1 lift as a function of the number of
//! trees (h = 5, w = 7), DESIGN.md ablation 4.

use hotspot_bench::experiments::{context, print_preamble};
use hotspot_bench::report::{print_header, print_row, print_section, Cell};
use hotspot_bench::{prepare, RunOptions};
use hotspot_forecast::context::Target;
use hotspot_forecast::models::ModelSpec;
use hotspot_forecast::sweep::{run_sweep, SweepConfig};

fn main() {
    let opts = RunOptions::from_env();
    let _run = hotspot_bench::Experiment::start("ablation_ntrees", &opts);
    let prep = prepare(&opts);
    print_preamble("ablation_ntrees", &opts, &prep);

    let ctx = context(&prep, Target::BeHotSpot);
    print_section("RF-F1 mean lift vs n_trees (h=5, w=7)");
    print_header(&["n_trees", "lift", "ci95"]);
    for n_trees in [1usize, 3, 8, 15, 30, 60] {
        let config = SweepConfig {
            models: vec![ModelSpec::RfF1],
            ts: opts.ts(ctx.n_days(), 5),
            hs: vec![5],
            ws: vec![7],
            n_trees,
            train_days: opts.train_days,
            random_repeats: 15,
            seed: opts.seed,
            n_threads: None,
            resilience: Default::default(),
            split: opts.split_strategy(),
        };
        let result = run_sweep(&ctx, &config);
        let (mean, ci) = result.mean_lift(ModelSpec::RfF1, 5, 7);
        print_row(&[Cell::from(n_trees), Cell::from(mean), Cell::from(ci)]);
    }
}
