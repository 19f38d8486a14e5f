//! Fig. 9 — "be a hot spot" forecast: average lift Λ as a function of
//! the horizon `h` for all eight models at `w = 7`, then Fig. 10 from
//! the same sweep: the ratio Δ vs. the Average baseline per `h` for
//! the classifier models. The paper reports Tree ≈ +6% and RF-F1 ≈
//! +14% on average.

use hotspot_bench::experiments::{context, horizon_sweep, print_delta_by_h, print_lift_by_h};
use hotspot_bench::report::print_section;
use hotspot_bench::{start, RunOptions, SweepFlags};
use hotspot_forecast::context::Target;
use hotspot_forecast::models::ModelSpec;

fn main() {
    let (_run, opts, prep) = start(
        "fig09_lift_vs_horizon",
        "be a hot spot, w=7",
        RunOptions::default(),
        SweepFlags::Honoured,
    );
    let ctx = context(&prep, Target::BeHotSpot);
    let models = ModelSpec::PAPER.to_vec();
    let result = horizon_sweep(&ctx, &opts, &models, 7);
    print_section(format!("{} grid cells evaluated", result.n_evaluated()).as_str());
    print_lift_by_h(&result, &models, 7);
    print_section("delta vs Average (the companion ratio figure)");
    let classifiers = vec![ModelSpec::Tree, ModelSpec::RfR, ModelSpec::RfF1, ModelSpec::RfF2];
    print_delta_by_h(&result, &classifiers, 7);
}
