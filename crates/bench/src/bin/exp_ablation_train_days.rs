//! Ablation — training-set span: lift of RF-F1 as a function of how
//! many trailing label days are stacked into the training set. The
//! paper trains on a single day over tens of thousands of sectors;
//! this quantifies the deviation our reduced sector counts require
//! (DESIGN.md, substitution notes).

use hotspot_bench::experiments::{context, sweep_config};
use hotspot_bench::report::{print_header, print_row, print_section, Cell};
use hotspot_bench::{start, RunOptions, SweepFlags};
use hotspot_forecast::context::Target;
use hotspot_forecast::models::ModelSpec;
use hotspot_forecast::sweep::{run_sweep, SweepConfig};

fn main() {
    let (_run, opts, prep) =
        start("ablation_train_days", "", RunOptions::default(), SweepFlags::Refused);

    let ctx = context(&prep, Target::BeHotSpot);
    print_section("RF-F1 mean lift vs train_days (h=5, w=7)");
    print_header(&["train_days", "lift", "ci95"]);
    for train_days in [1usize, 2, 3, 5, 7, 10] {
        let config =
            SweepConfig { train_days, ..sweep_config(&ctx, &opts, &[ModelSpec::RfF1], &[5], &[7]) };
        let result = run_sweep(&ctx, &config);
        let (mean, ci) = result.mean_lift(ModelSpec::RfF1, 5, 7);
        print_row(&[Cell::from(train_days), Cell::from(mean), Cell::from(ci)]);
    }
}
