//! Sec. V-A — temporal stability: for every (model, h, w) combination
//! run, split the evaluation days into two halves and compare the
//! average-precision distributions with a two-sample KS test. The
//! paper finds no p < 0.01 and only 1.1% below 0.05.

use hotspot_bench::experiments::{context, print_preamble, resilience, run_sweep_with_options};
use hotspot_bench::report::{print_header, print_row, print_section, Cell};
use hotspot_bench::{prepare, RunOptions};
use hotspot_eval::ks::ks_two_sample;
use hotspot_forecast::context::Target;
use hotspot_forecast::models::ModelSpec;
use hotspot_forecast::sweep::SweepConfig;

fn main() {
    let mut opts = RunOptions::from_env();
    let _run = hotspot_bench::Experiment::start("sec5a_temporal_stability", &opts);
    // The KS test needs several t samples per half: densify t.
    if opts.t_step == RunOptions::default().t_step {
        opts.t_step = 3;
    }
    let prep = prepare(&opts);
    print_preamble("sec5a_temporal_stability", &opts, &prep);

    let ctx = context(&prep, Target::BeHotSpot);
    let models = vec![ModelSpec::Persist, ModelSpec::Average, ModelSpec::Tree, ModelSpec::RfF1];
    let hs = vec![1, 5, 14];
    let ws = vec![3, 7];
    let config = SweepConfig {
        models: models.clone(),
        ts: opts.ts(ctx.n_days(), 14),
        hs: hs.clone(),
        ws: ws.clone(),
        n_trees: opts.trees,
        train_days: opts.train_days,
        random_repeats: 15,
        seed: opts.seed,
        n_threads: None,
        resilience: resilience(&opts),
        split: opts.split_strategy(),
    };
    let result = run_sweep_with_options(&ctx, &config, &opts);

    // Split the t axis at its midpoint (the paper uses [52,69]/[70,87]).
    let ts = &config.ts;
    let mid = ts[ts.len() / 2];
    let first = (ts[0], mid - 1);
    let second = (mid, *ts.last().unwrap());

    print_section(format!(
        "KS test between t in [{},{}] and [{},{}]",
        first.0, first.1, second.0, second.1
    )
    .as_str());
    print_header(&["model", "h", "w", "n1", "n2", "ks_stat", "p_value"]);
    let mut total = 0usize;
    let mut below_05 = 0usize;
    let mut below_01 = 0usize;
    for &m in &models {
        for &h in &hs {
            for &w in &ws {
                let a = result.aps_in_t_range(m, h, w, first);
                let b = result.aps_in_t_range(m, h, w, second);
                let Some(ks) = ks_two_sample(&a, &b) else { continue };
                total += 1;
                if ks.p_value < 0.05 {
                    below_05 += 1;
                }
                if ks.p_value < 0.01 {
                    below_01 += 1;
                }
                print_row(&[
                    Cell::from(m.name()),
                    Cell::from(h),
                    Cell::from(w),
                    Cell::from(ks.sizes.0),
                    Cell::from(ks.sizes.1),
                    Cell::from(ks.statistic),
                    Cell::from(ks.p_value),
                ]);
            }
        }
    }
    print_section("summary (paper: 0% below 0.01, 1.1% below 0.05)");
    print_header(&["combos", "pct_below_0.05", "pct_below_0.01"]);
    print_row(&[
        Cell::from(total),
        Cell::from(100.0 * below_05 as f64 / total.max(1) as f64),
        Cell::from(100.0 * below_01 as f64 / total.max(1) as f64),
    ]);
}
