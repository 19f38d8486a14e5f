//! Fig. 11 — "become a hot spot" forecast: average lift Λ vs. `h`
//! for all eight models at `w = 7`, then Fig. 12 from the same sweep:
//! Δ vs. the Average baseline per `h`. The paper reports the worst
//! classifier at +105% and the best at +153% for h ≤ 15, with the
//! advantage vanishing for h ≥ 19.

use hotspot_bench::experiments::{context, horizon_sweep, print_delta_by_h, print_lift_by_h};
use hotspot_bench::report::print_section;
use hotspot_bench::{start, RunOptions, SweepFlags};
use hotspot_forecast::context::Target;
use hotspot_forecast::models::ModelSpec;

fn main() {
    let (_run, opts, prep) = start(
        "fig11_become_lift",
        "become a hot spot, w=7",
        RunOptions::become_target(),
        SweepFlags::Honoured,
    );
    let ctx = context(&prep, Target::BecomeHotSpot);
    let models = ModelSpec::PAPER.to_vec();
    let result = horizon_sweep(&ctx, &opts, &models, 7);
    print_section(format!("{} grid cells evaluated", result.n_evaluated()).as_str());
    print_lift_by_h(&result, &models, 7);
    print_section("delta vs Average (the companion ratio figure)");
    let classifiers = vec![ModelSpec::Tree, ModelSpec::RfR, ModelSpec::RfF1, ModelSpec::RfF2];
    print_delta_by_h(&result, &classifiers, 7);
}
