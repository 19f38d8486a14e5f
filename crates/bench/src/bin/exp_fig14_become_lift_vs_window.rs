//! Fig. 14 — "become a hot spot": average lift of RF-F1 vs. the past
//! window `w` for horizons h ∈ {1, 2, 4, 8, 16, 26}. The paper finds
//! a slight drop after w > 7 and little effect of w at long horizons.

use hotspot_bench::experiments::{context, print_lift_by_w, window_sweep};
use hotspot_bench::report::print_section;
use hotspot_bench::{start, RunOptions, SweepFlags};
use hotspot_forecast::context::Target;
use hotspot_forecast::models::ModelSpec;

fn main() {
    let (_run, opts, prep) = start(
        "fig14_become_lift_vs_window",
        "become a hot spot, RF-F1",
        RunOptions::become_target(),
        SweepFlags::Honoured,
    );
    let ctx = context(&prep, Target::BecomeHotSpot);
    let hs = vec![1, 2, 4, 8, 16, 26];
    let result = window_sweep(&ctx, &opts, &[ModelSpec::RfF1], &hs);
    print_section(format!("{} grid cells evaluated", result.n_evaluated()).as_str());
    print_lift_by_w(&result, ModelSpec::RfF1, &hs);
}
