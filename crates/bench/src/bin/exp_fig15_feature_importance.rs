//! Fig. 15 — cumulative feature importance of the RF-R model for the
//! "be a hot spot" forecast (h = 5, w = 7): a (feature × hour) grid,
//! rows sorted as in Eq. 5, importance accumulated over several
//! evaluation days.

use hotspot_bench::experiments::{context, print_importance_grid};
use hotspot_bench::report::{print_header, print_row, print_section, Cell};
use hotspot_bench::{start, RunOptions, SweepFlags};
use hotspot_features::tensor_x::feature_name;
use hotspot_forecast::context::Target;

fn main() {
    let (_run, opts, prep) = start(
        "fig15_feature_importance",
        "be a hot spot, RF-R, h=5, w=7",
        RunOptions::default(),
        SweepFlags::Refused,
    );
    let ctx = context(&prep, Target::BeHotSpot);
    let Some(grid) = print_importance_grid(&ctx, &opts, "then hourly values...") else {
        print_section("no fits produced importances");
        return;
    };

    print_section("top 10 features by total importance");
    print_header(&["rank", "feature_k", "name", "importance"]);
    let mut totals: Vec<(usize, f64)> =
        (0..grid.rows()).map(|k| (k, grid.row(k).iter().sum())).collect();
    totals.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    for (rank, (k, imp)) in totals.iter().take(10).enumerate() {
        print_row(&[
            Cell::from(rank + 1),
            Cell::from(*k),
            Cell::from(feature_name(*k)),
            Cell::from(*imp),
        ]);
    }
}
