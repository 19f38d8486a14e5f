//! Fig. 16 — cumulative feature importance of the RF-R model for the
//! "become a hot spot" forecast (h = 5, w = 7). The paper finds KPI
//! importance rises for this target, with interference and
//! signalling indicators joining the usage/congestion ones.

use hotspot_bench::experiments::{context, print_importance_grid};
use hotspot_bench::report::{print_header, print_row, print_section, Cell};
use hotspot_bench::{start, RunOptions, SweepFlags};
use hotspot_forecast::context::Target;

fn main() {
    let (_run, opts, prep) = start(
        "fig16_become_importance",
        "become a hot spot, RF-R, h=5, w=7",
        RunOptions::become_target(),
        SweepFlags::Refused,
    );
    let ctx = context(&prep, Target::BecomeHotSpot);
    let Some(grid) = print_importance_grid(&ctx, &opts, "then hourly cumulative values...") else {
        print_section("no emergences in the training spans — raise --sectors or --weeks");
        return;
    };

    print_section("KPI vs score importance split (paper: KPIs gain weight for this target)");
    print_header(&["kpi_mass", "calendar_mass", "score_label_mass"]);
    let kpi: f64 = (0..21).map(|k| grid.row(k).iter().sum::<f64>()).sum();
    let cal: f64 = (21..26).map(|k| grid.row(k).iter().sum::<f64>()).sum();
    let score: f64 = (26..30).map(|k| grid.row(k).iter().sum::<f64>()).sum();
    print_row(&[Cell::from(kpi), Cell::from(cal), Cell::from(score)]);
}
