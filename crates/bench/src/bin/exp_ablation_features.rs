//! Ablation — feature representation: the same forest over RF-R /
//! RF-F1 / RF-F2 features plus the GBDT extension, at h ∈ {1, 5, 14},
//! w = 7 (DESIGN.md ablation 1/5).

use hotspot_bench::experiments::{context, sweep_config};
use hotspot_bench::report::{print_header, print_row, print_section, Cell};
use hotspot_bench::{start, RunOptions, SweepFlags};
use hotspot_forecast::context::Target;
use hotspot_forecast::models::ModelSpec;
use hotspot_forecast::sweep::run_sweep;

fn main() {
    let (_run, opts, prep) =
        start("ablation_features", "", RunOptions::default(), SweepFlags::Refused);

    let ctx = context(&prep, Target::BeHotSpot);
    let models =
        vec![ModelSpec::Average, ModelSpec::RfR, ModelSpec::RfF1, ModelSpec::RfF2, ModelSpec::Gbdt];
    let hs = vec![1usize, 5, 14];
    let result = run_sweep(&ctx, &sweep_config(&ctx, &opts, &models, &hs, &[7]));
    print_section("mean lift by representation");
    print_header(&["model", "h1", "h5", "h14"]);
    for &m in &models {
        let mut row: Vec<Cell> = vec![Cell::from(m.name())];
        for &h in &hs {
            row.push(Cell::from(result.mean_lift(m, h, 7).0));
        }
        print_row(&row);
    }
}
