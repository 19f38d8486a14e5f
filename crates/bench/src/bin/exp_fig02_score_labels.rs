//! Fig. 2 — one sector's daily score `Sᵈ` (A) and binary hot-spot
//! label `Yᵈ` (B), with weekends/holidays marked (the red shading of
//! the paper's figure).

use hotspot_bench::report::{print_header, print_row, print_section, Cell};
use hotspot_bench::{start, RunOptions, SweepFlags};

fn main() {
    let (_run, _, prep) =
        start("fig02_score_labels", "", RunOptions::default(), SweepFlags::Refused);

    // Pick the sector whose daily label flips the most — visually the
    // most interesting trace, like the paper's hand-picked example.
    let scored = &prep.scored;
    let mut best = 0usize;
    let mut best_flips = 0usize;
    for i in 0..scored.n_sectors() {
        let row = scored.y_daily.row(i);
        let flips = row.windows(2).filter(|w| (w[0] >= 0.5) != (w[1] >= 0.5)).count();
        if flips > best_flips {
            best_flips = flips;
            best = i;
        }
    }

    print_section(format!("sector {best} ({best_flips} label flips), epsilon={}", scored.epsilon).as_str());
    print_header(&["day", "score_daily", "label", "rest_day"]);
    for d in 0..scored.n_days() {
        print_row(&[
            Cell::from(d),
            Cell::from(scored.s_daily.get(best, d)),
            Cell::from(scored.y_daily.get(best, d)),
            Cell::from(usize::from(scored.calendar.is_rest_day(d))),
        ]);
    }
}
