//! Table II — the top-20 weekly hot-spot patterns with relative
//! counts (never-hot excluded), plus the weekly-profile temporal
//! consistency statistics quoted in Sec. III.

use hotspot_analysis::patterns::{top_weekly_patterns, weekly_consistency};
use hotspot_bench::report::{print_header, print_row, print_section, Cell};
use hotspot_bench::{start, RunOptions, SweepFlags};
use hotspot_eval::stats::Summary;

fn main() {
    let (_run, _, prep) =
        start("tab02_weekly_patterns", "", RunOptions::default(), SweepFlags::Refused);

    let scored = &prep.scored;
    print_section("top 20 weekly patterns (never-hot excluded)");
    print_header(&["rank", "pattern", "count", "share_percent"]);
    for (rank, p) in top_weekly_patterns(&scored.y_daily, 20).iter().enumerate() {
        print_row(&[
            Cell::from(rank + 2), // rank 1 is the excluded never-hot pattern
            Cell::from(p.pattern.notation()),
            Cell::from(p.count),
            Cell::from(p.share_percent),
        ]);
    }

    print_section("weekly-profile temporal consistency (paper: mean 0.6; p5/p25/p50/p75/p95 = -0.09/0.41/0.68/0.88/1)");
    let consistency = weekly_consistency(&scored.s_daily);
    let s = Summary::of(&consistency);
    print_header(&["n_sectors", "mean", "p5", "p25", "p50", "p75", "p95"]);
    print_row(&[
        Cell::from(s.n),
        Cell::from(s.mean),
        Cell::from(s.p5),
        Cell::from(s.p25),
        Cell::from(s.p50),
        Cell::from(s.p75),
        Cell::from(s.p95),
    ]);
}
