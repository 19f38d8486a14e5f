//! Fig. 7 — normalised histograms of consecutive hours (A) and
//! consecutive days (B) as a hot spot (log axes in the paper).

use hotspot_analysis::runs::consecutive_run_histogram;
use hotspot_bench::report::{print_header, print_row, print_section, Cell};
use hotspot_bench::{start, RunOptions, SweepFlags};

fn print_hist(name: &str, unit: &str, counts: &[u64]) {
    print_section(name);
    print_header(&[unit, "count", "relative"]);
    let total: u64 = counts.iter().sum();
    for (idx, &c) in counts.iter().enumerate() {
        let rel = if total > 0 { c as f64 / total as f64 } else { 0.0 };
        print_row(&[Cell::from(idx + 1), Cell::from(c), Cell::from(rel)]);
    }
}

fn main() {
    let (_run, _, prep) =
        start("fig07_consecutive_runs", "", RunOptions::default(), SweepFlags::Refused);

    let scored = &prep.scored;
    // The paper's axes: hours up to 84+, days up to 63.
    print_hist(
        "panel_A_consecutive_hours",
        "hours",
        &consecutive_run_histogram(&scored.y_hourly, 96),
    );
    print_hist(
        "panel_B_consecutive_days",
        "days",
        &consecutive_run_histogram(&scored.y_daily, 63),
    );
}
