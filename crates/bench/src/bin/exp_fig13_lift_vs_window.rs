//! Fig. 13 — "be a hot spot": average lift of RF-F1 as a function of
//! the past window `w`, for horizons h ∈ {1, 2, 4, 8, 16, 26}.
//! The paper finds a plateau from w ≈ 7 on.

use hotspot_bench::experiments::{context, print_lift_by_w, window_sweep};
use hotspot_bench::report::print_section;
use hotspot_bench::{start, RunOptions, SweepFlags};
use hotspot_forecast::context::Target;
use hotspot_forecast::models::ModelSpec;

fn main() {
    let (_run, opts, prep) = start(
        "fig13_lift_vs_window",
        "be a hot spot, RF-F1",
        RunOptions::default(),
        SweepFlags::Honoured,
    );
    let ctx = context(&prep, Target::BeHotSpot);
    let hs = vec![1, 2, 4, 8, 16, 26];
    let result = window_sweep(&ctx, &opts, &[ModelSpec::RfF1], &hs);
    print_section(format!("{} grid cells evaluated", result.n_evaluated()).as_str());
    print_lift_by_w(&result, ModelSpec::RfF1, &hs);
}
