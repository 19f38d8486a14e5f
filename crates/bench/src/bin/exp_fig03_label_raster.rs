//! Fig. 3 — the hot-spot raster: daily labels `Yᵈ` for up to 500
//! randomly selected sectors (black dots = hot). Printed as one
//! compact row per sector (`.` cold, `#` hot) plus per-day totals.

use hotspot_bench::report::{print_header, print_row, print_section, Cell};
use hotspot_bench::{start, RunOptions, SweepFlags};
use rand::seq::SliceRandom;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let (_run, opts, prep) =
        start("fig03_label_raster", "", RunOptions::default(), SweepFlags::Refused);

    let scored = &prep.scored;
    let mut indices: Vec<usize> = (0..scored.n_sectors()).collect();
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0xF163);
    indices.shuffle(&mut rng);
    indices.truncate(500);
    indices.sort_unstable();

    print_section(format!("raster ({} sectors x {} days)", indices.len(), scored.n_days()).as_str());
    for &i in &indices {
        let row: String = scored
            .y_daily
            .row(i)
            .iter()
            .map(|&v| if v >= 0.5 { '#' } else { '.' })
            .collect();
        println!("{i}\t{row}");
    }

    print_section("per-day hot totals");
    print_header(&["day", "hot_sectors", "fraction"]);
    for d in 0..scored.n_days() {
        let hot = indices.iter().filter(|&&i| scored.y_daily.get(i, d) >= 0.5).count();
        print_row(&[Cell::from(d), Cell::from(hot), Cell::from(hot as f64 / indices.len() as f64)]);
    }
}
