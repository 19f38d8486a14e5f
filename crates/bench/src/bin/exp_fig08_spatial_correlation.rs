//! Fig. 8 — hot-spot sequence correlation vs. physical distance:
//! per-sector average over the nearest neighbours (A), per-sector
//! maximum (B), and the best-anywhere variant (C).

use hotspot_analysis::spatial::{correlation_vs_distance, SpatialConfig, SpatialMode};
use hotspot_bench::report::{print_header, print_row, print_section, Cell};
use hotspot_bench::{start, RunOptions, SweepFlags};

fn main() {
    let (_run, _, prep) =
        start("fig08_spatial_correlation", "", RunOptions::default(), SweepFlags::Refused);

    let scored = &prep.scored;
    // At reduced sector counts "nearest 500" would be everything;
    // scale the neighbourhood with n.
    let n = scored.n_sectors();
    let n_neighbors = (n / 2).clamp(10, 500);
    let n_best = (n / 5).clamp(5, 100);

    for mode in [
        SpatialMode::AverageOfNearest,
        SpatialMode::MaxOfNearest,
        SpatialMode::BestAnywhere,
    ] {
        let config = SpatialConfig {
            n_neighbors,
            n_best,
            ..SpatialConfig::paper(mode)
        };
        let summary = correlation_vs_distance(&scored.y_hourly, &prep.positions, &config);
        print_section(
            format!("panel_{}: per-sector {} correlation", mode.name(), mode.name()).as_str(),
        );
        print_header(&["bucket_lo_km", "bucket_hi_km", "n", "p25", "median", "p75", "p95"]);
        for (edge, bucket) in summary.edges.windows(2).zip(&summary.buckets) {
            print_row(&[
                Cell::from(edge[0]),
                Cell::from(edge[1]),
                Cell::from(bucket.n),
                Cell::from(bucket.p25),
                Cell::from(bucket.p50),
                Cell::from(bucket.p75),
                Cell::from(bucket.p95),
            ]);
        }
    }
}
