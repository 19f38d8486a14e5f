//! Fig. 5 — autoencoder reconstructions over missing patches, plus a
//! quantitative comparison (RMSE on the injected gaps' ground truth)
//! of the autoencoder against forward-fill and mean imputation.

use hotspot_bench::report::{print_header, print_row, print_section, Cell};
use hotspot_bench::{start, RunOptions, SweepFlags};
use hotspot_core::missing::sector_filter_mask;
use hotspot_nn::imputer::{
    AutoencoderImputer, ForwardFillImputer, Imputer, ImputerConfig, MeanImputer,
};

fn main() {
    // This experiment evaluates imputers itself; the shared pipeline
    // just supplies the filtered network. AE training is the
    // bottleneck on one core, hence the smaller default network.
    let small = RunOptions { sectors: 80, weeks: 8, ..RunOptions::default() };
    let (_run, _, prep) = start("fig05_imputation", "", small, SweepFlags::Refused);

    // Rebuild the gapped (pre-imputation) tensor and its ground truth.
    let mask = sector_filter_mask(prep.network.kpis(), 0.5).expect("threshold");
    let gapped = prep.network.kpis().retain_sectors(&mask).expect("mask");
    let truth = prep.network.ground_truth().retain_sectors(&mask).expect("mask");

    // Per-KPI scale (std of the truth) so RMSEs are comparable across
    // indicators with different units.
    let l = truth.n_features();
    let mut scales = vec![0.0f64; l];
    {
        let (n, m, _) = truth.shape();
        let mut means = vec![0.0f64; l];
        for i in 0..n {
            for j in 0..m {
                for (k, &v) in truth.frame(i, j).iter().enumerate() {
                    means[k] += v;
                }
            }
        }
        let cells = (n * m) as f64;
        for v in &mut means {
            *v /= cells;
        }
        for i in 0..n {
            for j in 0..m {
                for (k, &v) in truth.frame(i, j).iter().enumerate() {
                    scales[k] += (v - means[k]) * (v - means[k]);
                }
            }
        }
        for v in &mut scales {
            *v = (*v / cells).sqrt().max(1e-9);
        }
    }

    let rmse = |imputed: &hotspot_core::tensor::Tensor3| -> f64 {
        let mut ss = 0.0;
        let mut n = 0usize;
        for (idx, (&a, &b)) in imputed.as_slice().iter().zip(truth.as_slice()).enumerate() {
            if gapped.as_slice()[idx].is_nan() {
                let k = idx % l;
                let d = (a - b) / scales[k];
                ss += d * d;
                n += 1;
            }
        }
        (ss / n.max(1) as f64).sqrt()
    };

    print_section("imputer comparison (normalised RMSE on injected gaps)");
    print_header(&["imputer", "nrmse", "filled_cells"]);

    let mut ff = gapped.clone();
    let filled = ForwardFillImputer.impute(&mut ff) + MeanImputer.impute(&mut ff);
    print_row(&[Cell::from("forward_fill"), Cell::from(rmse(&ff)), Cell::from(filled)]);

    let mut mean = gapped.clone();
    let filled = MeanImputer.impute(&mut mean);
    print_row(&[Cell::from("mean"), Cell::from(rmse(&mean)), Cell::from(filled)]);

    let mut ae_tensor = gapped.clone();
    let mut ae = AutoencoderImputer::new(ImputerConfig::fast());
    let filled = ae.impute(&mut ae_tensor) + MeanImputer.impute(&mut ae_tensor);
    print_row(&[Cell::from("autoencoder"), Cell::from(rmse(&ae_tensor)), Cell::from(filled)]);

    // Example reconstructions over a gappy slice (the Fig. 5 panels).
    print_section("example reconstruction (first sector with a gap in its first slice)");
    let slice_hours = ae.config().slice_hours;
    'outer: for i in 0..gapped.n_sectors() {
        for j0 in (0..gapped.n_time() - slice_hours + 1).step_by(slice_hours) {
            let has_gap =
                (j0..j0 + slice_hours).any(|j| gapped.frame(i, j).iter().any(|v| v.is_nan()));
            if !has_gap {
                continue;
            }
            let recon = ae.reconstruct_slice(&gapped, i, j0);
            print_header(&["hour", "kpi", "truth", "reconstruction", "was_missing"]);
            for j in j0..j0 + slice_hours {
                for k in 0..l {
                    let missing = gapped.get(i, j, k).is_nan();
                    if missing {
                        print_row(&[
                            Cell::from(j),
                            Cell::from(k),
                            Cell::from(truth.get(i, j, k)),
                            Cell::from(recon[(j - j0) * l + k]),
                            Cell::from(1usize),
                        ]);
                    }
                }
            }
            break 'outer;
        }
    }

    print_section("autoencoder loss trace (first/last 5 logged batches)");
    print_header(&["batch", "masked_mse"]);
    let trace = &ae.loss_trace;
    for (idx, &loss) in trace.iter().take(5).enumerate() {
        print_row(&[Cell::from(idx), Cell::from(loss)]);
    }
    for (idx, &loss) in trace.iter().enumerate().skip(trace.len().saturating_sub(5)) {
        print_row(&[Cell::from(idx), Cell::from(loss)]);
    }
}
