//! Ablation — training-set span: lift of RF-F1 as a function of how
//! many trailing label days are stacked into the training set. The
//! paper trains on a single day over tens of thousands of sectors;
//! this quantifies the deviation our reduced sector counts require
//! (DESIGN.md, substitution notes).

use hotspot_bench::experiments::{context, print_preamble};
use hotspot_bench::report::{print_header, print_row, print_section, Cell};
use hotspot_bench::{prepare, RunOptions};
use hotspot_forecast::context::Target;
use hotspot_forecast::models::ModelSpec;
use hotspot_forecast::sweep::{run_sweep, SweepConfig};

fn main() {
    let opts = RunOptions::from_env();
    let _run = hotspot_bench::Experiment::start("ablation_train_days", &opts);
    let prep = prepare(&opts);
    print_preamble("ablation_train_days", &opts, &prep);

    let ctx = context(&prep, Target::BeHotSpot);
    print_section("RF-F1 mean lift vs train_days (h=5, w=7)");
    print_header(&["train_days", "lift", "ci95"]);
    for train_days in [1usize, 2, 3, 5, 7, 10] {
        let config = SweepConfig {
            models: vec![ModelSpec::RfF1],
            ts: opts.ts(ctx.n_days(), 5),
            hs: vec![5],
            ws: vec![7],
            n_trees: opts.trees,
            train_days,
            random_repeats: 15,
            seed: opts.seed,
            n_threads: None,
            resilience: Default::default(),
            split: opts.split_strategy(),
        };
        let result = run_sweep(&ctx, &config);
        let (mean, ci) = result.mean_lift(ModelSpec::RfF1, 5, 7);
        print_row(&[Cell::from(train_days), Cell::from(mean), Cell::from(ci)]);
    }
}
