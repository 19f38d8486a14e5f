//! Ablation — forest size: RF-F1 lift as a function of the number of
//! trees (h = 5, w = 7), DESIGN.md ablation 4.

use hotspot_bench::experiments::{context, sweep_config};
use hotspot_bench::report::{print_header, print_row, print_section, Cell};
use hotspot_bench::{start, RunOptions, SweepFlags};
use hotspot_forecast::context::Target;
use hotspot_forecast::models::ModelSpec;
use hotspot_forecast::sweep::{run_sweep, SweepConfig};

fn main() {
    let (_run, opts, prep) =
        start("ablation_ntrees", "", RunOptions::default(), SweepFlags::Refused);

    let ctx = context(&prep, Target::BeHotSpot);
    print_section("RF-F1 mean lift vs n_trees (h=5, w=7)");
    print_header(&["n_trees", "lift", "ci95"]);
    for n_trees in [1usize, 3, 8, 15, 30, 60] {
        let config =
            SweepConfig { n_trees, ..sweep_config(&ctx, &opts, &[ModelSpec::RfF1], &[5], &[7]) };
        let result = run_sweep(&ctx, &config);
        let (mean, ci) = result.mean_lift(ModelSpec::RfF1, 5, 7);
        print_row(&[Cell::from(n_trees), Cell::from(mean), Cell::from(ci)]);
    }
}
