//! Fig. 6 — normalised histograms of hours/day as hot spot (A, log
//! axis), days/week as hot spot (B), and weeks as hot spot (C).

use hotspot_analysis::runs::{
    days_per_week_histogram, hours_per_day_histogram, weeks_hot_histogram,
};
use hotspot_bench::report::{print_header, print_row, print_section, Cell};
use hotspot_bench::{start, RunOptions, SweepFlags};

fn relative(counts: &[u64]) -> Vec<f64> {
    let total: u64 = counts.iter().sum();
    counts.iter().map(|&c| if total > 0 { c as f64 / total as f64 } else { 0.0 }).collect()
}

fn print_hist(name: &str, unit: &str, counts: &[u64]) {
    print_section(name);
    print_header(&[unit, "count", "relative"]);
    let rel = relative(counts);
    for (idx, (&c, r)) in counts.iter().zip(&rel).enumerate() {
        print_row(&[Cell::from(idx + 1), Cell::from(c), Cell::from(*r)]);
    }
}

fn main() {
    let (_run, _, prep) =
        start("fig06_duration_histograms", "", RunOptions::default(), SweepFlags::Refused);

    let scored = &prep.scored;
    print_hist("panel_A_hours_per_day", "hours", &hours_per_day_histogram(&scored.y_hourly));
    print_hist("panel_B_days_per_week", "days", &days_per_week_histogram(&scored.y_daily));
    print_hist("panel_C_weeks_as_hotspot", "weeks", &weeks_hot_histogram(&scored.y_daily));
}
