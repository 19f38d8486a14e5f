//! Ablation — imputation strategy: downstream RF-F1 forecast lift
//! when gaps are filled by forward-fill, per-KPI mean, or the
//! denoising autoencoder (DESIGN.md ablation 3).

use hotspot_bench::experiments::{context, sweep_config};
use hotspot_bench::report::{print_header, print_row, print_section, Cell};
use hotspot_bench::{prepare, start, ImputerChoice, RunOptions, SweepFlags};
use hotspot_forecast::context::Target;
use hotspot_forecast::models::ModelSpec;
use hotspot_forecast::sweep::run_sweep;

fn main() {
    // The AE leg is the bottleneck on one core, hence the smaller
    // default network.
    let small = RunOptions { sectors: 100, weeks: 10, ..RunOptions::default() };
    let (_run, base, _) = start("ablation_imputation", "", small, SweepFlags::Refused);

    print_section("RF-F1 mean lift (h=5, w=7) by imputer");
    print_header(&["imputer", "lift", "ci95", "imputed_cells"]);
    for (name, choice) in [
        ("forward_fill", ImputerChoice::ForwardFill),
        ("mean", ImputerChoice::Mean),
        ("autoencoder", ImputerChoice::Autoencoder),
    ] {
        let opts = RunOptions { imputer: choice, ..base.clone() };
        let prep = prepare(&opts);
        let ctx = context(&prep, Target::BeHotSpot);
        let config = sweep_config(&ctx, &opts, &[ModelSpec::RfF1], &[5], &[7]);
        let result = run_sweep(&ctx, &config);
        let (mean, ci) = result.mean_lift(ModelSpec::RfF1, 5, 7);
        print_row(&[Cell::from(name), Cell::from(mean), Cell::from(ci), Cell::from(prep.n_imputed)]);
    }
}
