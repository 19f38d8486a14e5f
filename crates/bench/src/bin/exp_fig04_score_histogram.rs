//! Fig. 4 — log histogram of the (re-scaled) weekly hot-spot score
//! `Sʷ`, showing the natural threshold the label `ε` sits at.

use hotspot_bench::report::{print_header, print_row, print_section, Cell};
use hotspot_bench::{start, RunOptions, SweepFlags};
use hotspot_eval::histogram::Histogram;

fn main() {
    let (_run, _, prep) =
        start("fig04_score_histogram", "", RunOptions::default(), SweepFlags::Refused);

    let scored = &prep.scored;
    let mut hist = Histogram::uniform(0.0, 1.0, 50);
    hist.extend(scored.s_weekly.as_slice().iter().copied());

    print_section(format!("weekly score histogram (epsilon = {})", scored.epsilon).as_str());
    print_header(&["bucket_mid", "count", "relative", "log10_relative"]);
    let rel = hist.relative();
    for ((mid, &count), r) in hist.midpoints().iter().zip(hist.counts()).zip(&rel) {
        let log10 = if *r > 0.0 { r.log10() } else { f64::NEG_INFINITY };
        print_row(&[
            Cell::from(*mid),
            Cell::from(count),
            Cell::from(*r),
            Cell::from(if log10.is_finite() { log10 } else { f64::NAN }),
        ]);
    }

    // Mass split around the threshold — the "natural gap" evidence.
    let below = scored
        .s_weekly
        .as_slice()
        .iter()
        .filter(|v| v.is_finite() && **v < scored.epsilon)
        .count();
    let above = scored
        .s_weekly
        .as_slice()
        .iter()
        .filter(|v| v.is_finite() && **v >= scored.epsilon)
        .count();
    print_section("threshold split");
    print_header(&["below_epsilon", "at_or_above", "hot_fraction"]);
    print_row(&[
        Cell::from(below),
        Cell::from(above),
        Cell::from(above as f64 / (above + below).max(1) as f64),
    ]);
}
