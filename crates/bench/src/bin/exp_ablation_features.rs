//! Ablation — feature representation: the same forest over RF-R /
//! RF-F1 / RF-F2 features plus the GBDT extension, at h ∈ {1, 5, 14},
//! w = 7 (DESIGN.md ablation 1/5).

use hotspot_bench::experiments::{context, print_preamble};
use hotspot_bench::report::{print_header, print_row, print_section, Cell};
use hotspot_bench::{prepare, RunOptions};
use hotspot_forecast::context::Target;
use hotspot_forecast::models::ModelSpec;
use hotspot_forecast::sweep::{run_sweep, SweepConfig};

fn main() {
    let opts = RunOptions::from_env();
    let _run = hotspot_bench::Experiment::start("ablation_features", &opts);
    let prep = prepare(&opts);
    print_preamble("ablation_features", &opts, &prep);

    let ctx = context(&prep, Target::BeHotSpot);
    let models =
        vec![ModelSpec::Average, ModelSpec::RfR, ModelSpec::RfF1, ModelSpec::RfF2, ModelSpec::Gbdt];
    let hs = vec![1usize, 5, 14];
    let config = SweepConfig {
        models: models.clone(),
        ts: opts.ts(ctx.n_days(), 14),
        hs: hs.clone(),
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
    print_section("mean lift by representation");
    print_header(&["model", "h1", "h5", "h14"]);
    for &m in &models {
        let mut row: Vec<Cell> = vec![Cell::from(m.name())];
        for &h in &hs {
            row.push(Cell::from(result.mean_lift(m, h, 7).0));
        }
        print_row(&row);
    }
}
