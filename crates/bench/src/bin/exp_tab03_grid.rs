//! Table III — the considered values for model, time step `t`,
//! horizon `h`, and past window `w`, plus this run's thinned grid.

use hotspot_bench::report::{print_header, print_row, print_section, Cell};
use hotspot_bench::{Experiment, RunOptions, SweepFlags};
use hotspot_forecast::models::ModelSpec;
use hotspot_forecast::sweep::TableIIIGrid;

fn main() {
    let (_run, opts) =
        Experiment::from_cli("tab03_grid", RunOptions::default(), SweepFlags::Refused);
    print_section("tab03_grid (paper values)");
    print_header(&["variable", "values"]);
    let models: Vec<&str> = ModelSpec::PAPER.iter().map(|m| m.name()).collect();
    print_row(&[Cell::from("model"), Cell::from(models.join(", "))]);
    let fmt = |v: &[usize]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(", ");
    print_row(&[Cell::from("t"), Cell::from(fmt(&TableIIIGrid::ts()))]);
    print_row(&[Cell::from("h"), Cell::from(fmt(&TableIIIGrid::hs()))]);
    print_row(&[Cell::from("w"), Cell::from(fmt(&TableIIIGrid::ws()))]);

    print_section("this run's thinned t axis");
    let n_days = opts.weeks * 7;
    print_row(&[
        Cell::from("t (thinned)"),
        Cell::from(fmt(&opts.ts(n_days, *TableIIIGrid::hs().last().unwrap()))),
    ]);
    print_row(&[Cell::from("trees"), Cell::from(opts.trees)]);
    print_row(&[Cell::from("train_days"), Cell::from(opts.train_days)]);
}
