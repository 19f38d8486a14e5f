//! Ablation — imputation strategy: downstream RF-F1 forecast lift
//! when gaps are filled by forward-fill, per-KPI mean, or the
//! denoising autoencoder (DESIGN.md ablation 3).

use hotspot_bench::experiments::{context, print_preamble};
use hotspot_bench::report::{print_header, print_row, print_section, Cell};
use hotspot_bench::{prepare, ImputerChoice, RunOptions};
use hotspot_forecast::context::Target;
use hotspot_forecast::models::ModelSpec;
use hotspot_forecast::sweep::{run_sweep, SweepConfig};

fn main() {
    let mut base = RunOptions::from_env();
    let _run = hotspot_bench::Experiment::start("ablation_imputation", &base);
    if base.sectors == RunOptions::default().sectors {
        base.sectors = 100; // the AE leg is the bottleneck on one core
        base.weeks = base.weeks.min(10);
    }
    print_preamble("ablation_imputation", &base, &prepare(&base));

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
        let config = SweepConfig {
            models: vec![ModelSpec::RfF1],
            ts: opts.ts(ctx.n_days(), 5),
            hs: vec![5],
            ws: vec![7],
            n_trees: opts.trees,
            train_days: opts.train_days,
            random_repeats: 15,
            seed: opts.seed,
            n_threads: None,
            resilience: Default::default(),
            split: opts.split_strategy(),
        };
        let result = run_sweep(&ctx, &config);
        let (mean, ci) = result.mean_lift(ModelSpec::RfF1, 5, 7);
        print_row(&[Cell::from(name), Cell::from(mean), Cell::from(ci), Cell::from(prep.n_imputed)]);
    }
}
