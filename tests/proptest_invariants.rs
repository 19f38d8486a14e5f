//! Property-based invariants across the workspace, via proptest.

use hotspot::analysis::runs::consecutive_runs;
use hotspot::core::labels::hot_labels;
use hotspot::core::matrix::Matrix;
use hotspot::core::score::heaviside;
use hotspot::eval::ap::average_precision;
use hotspot::eval::histogram::Histogram;
use hotspot::eval::ks::ks_two_sample;
use hotspot::eval::stats::{pearson, percentile};
use hotspot::trees::{Dataset, DecisionTree, RandomForest, RandomForestParams, TreeParams};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Average precision is always in [0, 1], and a ranking that puts
    /// every positive first achieves exactly 1.
    #[test]
    fn ap_bounds_and_perfect_ranking(labels in prop::collection::vec(any::<bool>(), 1..40)) {
        let n = labels.len();
        // Arbitrary scores.
        let scores: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let ap = average_precision(&labels, &scores);
        prop_assert!((0.0..=1.0).contains(&ap));
        // Perfect scores: positives get 1.0, negatives 0.0.
        let perfect: Vec<f64> = labels.iter().map(|&y| if y { 1.0 } else { 0.0 }).collect();
        let ap_perfect = average_precision(&labels, &perfect);
        if labels.iter().any(|&y| y) {
            prop_assert!((ap_perfect - 1.0).abs() < 1e-12);
        } else {
            prop_assert_eq!(ap_perfect, 0.0);
        }
        prop_assert!(ap <= ap_perfect + 1e-12);
    }

    /// AP is invariant under a common strictly monotone transform of
    /// the scores.
    #[test]
    fn ap_monotone_invariance(
        labels in prop::collection::vec(any::<bool>(), 2..30),
        raw in prop::collection::vec(-100.0f64..100.0, 2..30),
    ) {
        let n = labels.len().min(raw.len());
        let labels = &labels[..n];
        let scores = &raw[..n];
        let transformed: Vec<f64> = scores.iter().map(|&s| 3.0 * s + 7.0).collect();
        let a = average_precision(labels, scores);
        let b = average_precision(labels, &transformed);
        prop_assert!((a - b).abs() < 1e-12);
    }

    /// Hot labels are monotone in epsilon: raising the threshold can
    /// only switch labels off.
    #[test]
    fn labels_monotone_in_epsilon(
        scores in prop::collection::vec(0.0f64..1.0, 1..50),
        eps1 in 0.0f64..1.0,
        delta in 0.0f64..0.5,
    ) {
        let m = Matrix::from_vec(1, scores.len(), scores).unwrap();
        let low = hot_labels(&m, eps1);
        let high = hot_labels(&m, eps1 + delta);
        for (a, b) in low.as_slice().iter().zip(high.as_slice()) {
            prop_assert!(b <= a, "raising eps turned a label on");
        }
    }

    /// Heaviside is idempotent on its own output and respects ordering.
    #[test]
    fn heaviside_properties(x in -100.0f64..100.0) {
        let h = heaviside(x);
        prop_assert!(h == 0.0 || h == 1.0);
        prop_assert_eq!(heaviside(h), 1.0); // h >= 0 always
    }

    /// Histogram conserves mass: in-range + out-of-range = total fed.
    #[test]
    fn histogram_mass_conservation(values in prop::collection::vec(-2.0f64..4.0, 0..200)) {
        let mut h = Histogram::uniform(0.0, 1.0, 7);
        h.extend(values.iter().copied());
        let (under, over) = h.out_of_range();
        let finite = values.iter().filter(|v| !v.is_nan()).count() as u64;
        prop_assert_eq!(h.total() + under + over, finite);
        // Relative counts sum to 1 when non-empty.
        if h.total() > 0 {
            let sum: f64 = h.relative().iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    /// Percentiles are monotone in q and bracketed by min/max.
    #[test]
    fn percentile_monotone(values in prop::collection::vec(-50.0f64..50.0, 1..60)) {
        let p10 = percentile(&values, 10.0);
        let p50 = percentile(&values, 50.0);
        let p90 = percentile(&values, 90.0);
        prop_assert!(p10 <= p50 + 1e-12 && p50 <= p90 + 1e-12);
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(p10 >= min - 1e-12 && p90 <= max + 1e-12);
    }

    /// Pearson correlation is symmetric, bounded, and scale-invariant.
    #[test]
    fn pearson_properties(
        xs in prop::collection::vec(-10.0f64..10.0, 3..30),
        scale in 0.1f64..10.0,
    ) {
        let ys: Vec<f64> = xs.iter().enumerate().map(|(i, &x)| x * 0.5 + (i as f64 * 1.3).cos()).collect();
        let r = pearson(&xs, &ys);
        if r.is_finite() {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
            let r_sym = pearson(&ys, &xs);
            prop_assert!((r - r_sym).abs() < 1e-9);
            let scaled: Vec<f64> = xs.iter().map(|&x| x * scale + 3.0).collect();
            let r_scaled = pearson(&scaled, &ys);
            prop_assert!((r - r_scaled).abs() < 1e-6);
        }
    }

    /// KS statistic is in [0, 1], p in [0, 1], and identical samples
    /// give statistic 0.
    #[test]
    fn ks_bounds(a in prop::collection::vec(-5.0f64..5.0, 1..40)) {
        if let Some(r) = ks_two_sample(&a, &a) {
            prop_assert_eq!(r.statistic, 0.0);
        }
        let b: Vec<f64> = a.iter().map(|&v| v + 0.37).collect();
        if let Some(r) = ks_two_sample(&a, &b) {
            prop_assert!((0.0..=1.0).contains(&r.statistic));
            prop_assert!((0.0..=1.0).contains(&r.p_value));
        }
    }

    /// Consecutive runs: total run length equals the number of hot
    /// samples, and no run exceeds the series length.
    #[test]
    fn runs_conserve_hot_count(bits in prop::collection::vec(any::<bool>(), 0..100)) {
        let series: Vec<f64> = bits.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
        let runs = consecutive_runs(&series);
        let total: usize = runs.iter().sum();
        let hot = bits.iter().filter(|&&b| b).count();
        prop_assert_eq!(total, hot);
        if let Some(&max) = runs.iter().max() {
            prop_assert!(max <= series.len());
        }
    }

    /// Trees always emit probabilities in [0, 1], and training
    /// accuracy on separable data is perfect with unconstrained depth.
    #[test]
    fn tree_probability_bounds(seed in 0u64..1000) {
        let n = 40;
        let mut features = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let x = (i as f64) + (seed % 7) as f64 * 0.01;
            features.push(x);
            labels.push(i >= n / 2);
        }
        let mut data = Dataset::new(features, 1, labels).unwrap();
        data.balance_weights();
        let tree = DecisionTree::fit(
            &data,
            &TreeParams { min_weight_fraction: 0.0, seed, ..TreeParams::paper_tree() },
        );
        for i in 0..data.n_samples() {
            let p = tree.predict_proba(data.row(i));
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert_eq!(p >= 0.5, data.label(i), "separable data must fit exactly");
        }
    }

    /// Forest probabilities are averages of tree probabilities, hence
    /// also bounded; importances are a probability vector.
    #[test]
    fn forest_invariants(seed in 0u64..200) {
        let n = 30;
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            features.push((i % 10) as f64);
            features.push(((i * 7) % 5) as f64);
            labels.push(i % 3 == 0);
        }
        let data = Dataset::new(features, 2, labels).unwrap();
        let forest = RandomForest::fit(
            &data,
            &RandomForestParams { n_trees: 5, n_threads: Some(1), ..RandomForestParams::paper() }
                .with_seed(seed),
        );
        for i in 0..data.n_samples() {
            let p = forest.predict_proba(data.row(i));
            prop_assert!((0.0..=1.0).contains(&p));
        }
        let total: f64 = forest.feature_importances().iter().sum();
        prop_assert!(total == 0.0 || (total - 1.0).abs() < 1e-9);
        prop_assert!(forest.feature_importances().iter().all(|&v| v >= 0.0));
    }
}

// Robustness properties: malformed external input must surface as
// `Err`, never as a panic, and checkpoint loading must tolerate the
// torn final line a crash mid-append leaves behind.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `read_tensor_csv` on a valid file mutated by the corruption
    /// helpers (duplicated rows, truncated tail) returns a `Result` —
    /// it must never panic, and a parse that does succeed must yield a
    /// well-formed tensor.
    #[test]
    fn read_tensor_csv_survives_duplicated_and_truncated_input(
        n_dups in 0usize..6,
        drop_bytes in 0usize..500,
        seed in 0u64..1000,
    ) {
        use hotspot::core::io::{read_tensor_csv, write_tensor_csv};
        use hotspot::core::tensor::Tensor3;
        use hotspot::simnet::corruption::{duplicate_rows, truncate_tail};
        use std::io::BufReader;

        let tensor = Tensor3::from_fn(3, 30, 2, |i, j, k| (i + j + k) as f64 * 0.5);
        let mut buf = Vec::new();
        write_tensor_csv(&tensor, &mut buf).unwrap();
        let clean = String::from_utf8(buf).unwrap();
        let mutated = truncate_tail(&duplicate_rows(&clean, n_dups, seed), drop_bytes);

        if let Ok(parsed) = read_tensor_csv(BufReader::new(mutated.as_bytes())) {
            prop_assert!(parsed.n_sectors() > 0);
            prop_assert_eq!(parsed.n_features(), 2);
        }
        // An Err is equally acceptable; reaching here means no panic.
    }

    /// `read_tensor_csv` on arbitrary bytes returns without panicking.
    #[test]
    fn read_tensor_csv_survives_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        use hotspot::core::io::read_tensor_csv;
        use std::io::BufReader;
        let _ = read_tensor_csv(BufReader::new(bytes.as_slice()));
    }

    /// Chopping any number of bytes off the checkpoint tail never
    /// breaks loading, as long as the header line survives: complete
    /// lines load, the torn one is dropped.
    #[test]
    fn checkpoint_load_tolerates_any_tail_truncation(
        cut in 0usize..200,
        n_cells in 1usize..6,
    ) {
        use hotspot::forecast::checkpoint::{load_checkpoint, CheckpointWriter};
        use hotspot::forecast::models::ModelSpec;
        use hotspot::forecast::sweep::{CellOutcome, ResiliencePolicy, SweepCell, SweepConfig};

        let cfg = SweepConfig {
            models: vec![ModelSpec::Average],
            // Covers every journaled cell: entries outside the plan's
            // grid are refused on load (shard-membership validation).
            ts: vec![20, 21, 22, 23, 24],
            hs: vec![1],
            ws: vec![3],
            n_trees: 4,
            train_days: 2,
            random_repeats: 5,
            seed: 1,
            n_threads: Some(1),
            resilience: ResiliencePolicy::default(),
            split: Default::default(),
        };
        let dir = std::env::temp_dir().join("hotspot-proptest-checkpoint");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{}-torn.tsv", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let writer = CheckpointWriter::open(&path, &cfg).unwrap();
        for t in 0..n_cells {
            writer.append(&SweepCell {
                model: ModelSpec::Average,
                t: 20 + t,
                h: 1,
                w: 3,
                outcome: CellOutcome::Empty,
                elapsed_ms: 1,
                attempts: 1,
                resumed: false,
            }).unwrap();
        }
        drop(writer);

        let full = std::fs::read(&path).unwrap();
        let header_len = full.iter().position(|&b| b == b'\n').unwrap() + 1;
        // Keep the header's newline; cut anywhere in the cell lines.
        let keep = full.len().saturating_sub(cut).max(header_len);
        std::fs::write(&path, &full[..keep]).unwrap();

        let entries = load_checkpoint(&path, &cfg).unwrap();
        prop_assert!(entries.len() <= n_cells);
        for e in &entries {
            prop_assert_eq!(&e.outcome, &CellOutcome::Empty);
        }
        let _ = std::fs::remove_file(&path);
    }
}
