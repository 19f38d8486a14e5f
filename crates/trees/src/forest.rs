//! Random forests: bootstrap-aggregated deep CART trees.
//!
//! Follows Breiman (2001) as the paper does: each tree is fit on a
//! bootstrap resample of the training set, evaluating at most √d
//! features per partition, and predictions average the per-tree class
//! probabilities (the soft-voting variant scikit-learn implements).
//! Trees are fit in parallel on scoped threads.

use crate::binned::{BinnedDataset, SplitStrategy, HIST_MIN_NODE_ROWS};
use crate::cancel::CancelToken;
use crate::dataset::Dataset;
use crate::tree::{DecisionTree, TreeParams};
use hotspot_obs as obs;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Random-forest hyper-parameters.
#[derive(Debug, Clone)]
pub struct RandomForestParams {
    /// Number of trees in the ensemble.
    pub n_trees: usize,
    /// Per-tree parameters (feature subsampling, weight stop, depth).
    pub tree: TreeParams,
    /// Draw bootstrap resamples (true for the classic forest; false
    /// fits every tree on the full set, differing only in feature
    /// subsampling).
    pub bootstrap: bool,
    /// Master seed; tree `t` uses `seed + t` offsets internally.
    pub seed: u64,
    /// Upper bound on fitting threads (`None` = available parallelism).
    pub n_threads: Option<usize>,
    /// Cooperative cancellation, checked between trees. A cancelled
    /// fit returns the trees completed so far (possibly none).
    pub cancel: Option<CancelToken>,
}

impl RandomForestParams {
    /// The paper's forest: 100 deep trees, √d features per split,
    /// 0.02% weight stop, bootstrap on.
    pub fn paper() -> Self {
        RandomForestParams {
            n_trees: 100,
            tree: TreeParams::paper_forest_member(),
            bootstrap: true,
            seed: 0,
            n_threads: None,
            cancel: None,
        }
    }

    /// A smaller forest for quick experiments and tests.
    pub fn fast() -> Self {
        RandomForestParams { n_trees: 25, ..Self::paper() }
    }

    /// Override the seed fluently.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the tree count fluently.
    pub fn with_trees(mut self, n: usize) -> Self {
        self.n_trees = n;
        self
    }

    /// Override the split-search strategy fluently (it lives on the
    /// per-tree params; all trees of a forest share one strategy and,
    /// under histograms, one [`BinnedDataset`]).
    pub fn with_split(mut self, split: SplitStrategy) -> Self {
        self.tree.split = split;
        self
    }
}

impl Default for RandomForestParams {
    fn default() -> Self {
        Self::paper()
    }
}

/// A fitted random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    importances: Vec<f64>,
    n_features: usize,
    n_threads: Option<usize>,
}

impl RandomForest {
    /// Fit the ensemble. Weights on `data` are respected (bootstrap
    /// resampling keeps each drawn sample's weight).
    ///
    /// Under [`SplitStrategy::Histogram`] the features are binned
    /// *once* here and the read-only [`BinnedDataset`] is shared by
    /// every tree — bootstrap resamples are row-index multisets into
    /// the same rows, so no per-tree re-binning is needed.
    ///
    /// # Panics
    /// Panics on an empty dataset or zero trees.
    pub fn fit(data: &Dataset, params: &RandomForestParams) -> Self {
        let _span = obs::span!("forest.fit");
        assert!(params.n_trees > 0, "forest needs at least one tree");
        assert!(data.n_samples() > 0, "cannot fit on an empty dataset");
        let threads = params
            .n_threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
            })
            .clamp(1, params.n_trees);
        let binned = match params.tree.split {
            SplitStrategy::Histogram { max_bins } if data.n_samples() >= HIST_MIN_NODE_ROWS => {
                Some(BinnedDataset::build(data, max_bins))
            }
            _ => None,
        };
        let binned = binned.as_ref();

        let mut trees: Vec<Option<DecisionTree>> = vec![None; params.n_trees];
        let chunk = params.n_trees.div_ceil(threads);
        std::thread::scope(|scope| {
            let mut fitters = Vec::with_capacity(threads);
            for (shard_id, shard) in trees.chunks_mut(chunk).enumerate() {
                fitters.push(scope.spawn(move || {
                    for (off, slot) in shard.iter_mut().enumerate() {
                        if params.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                            break;
                        }
                        let t = shard_id * chunk + off;
                        *slot = Some(Self::fit_one(data, binned, params, t as u64));
                    }
                }));
            }
            for fitter in fitters {
                fitter.join().expect("forest fitting thread panicked");
            }
        });

        // A cancelled fit leaves trailing slots empty; keep whatever
        // completed so the caller gets a usable (if weaker) ensemble.
        let trees: Vec<DecisionTree> = trees.into_iter().flatten().collect();
        obs::counter("trees.trees_fit").add(trees.len() as u64);
        // Average per-tree importances.
        let mut importances = vec![0.0; data.n_features()];
        for t in &trees {
            for (a, b) in importances.iter_mut().zip(t.feature_importances()) {
                *a += b;
            }
        }
        let total: f64 = importances.iter().sum();
        if total > 0.0 {
            for v in &mut importances {
                *v /= total;
            }
        }
        RandomForest {
            trees,
            importances,
            n_features: data.n_features(),
            n_threads: params.n_threads,
        }
    }

    fn fit_one(
        data: &Dataset,
        binned: Option<&BinnedDataset>,
        params: &RandomForestParams,
        t: u64,
    ) -> DecisionTree {
        let tree_params = TreeParams {
            seed: params.seed.wrapping_mul(0x9E37_79B9).wrapping_add(t),
            ..params.tree.clone()
        };
        // Bootstrap resample as a row-index multiset in draw order —
        // no row materialisation, and the shared binned view stays
        // valid for every tree.
        let n = data.n_samples();
        let root: Vec<usize> = if params.bootstrap {
            let mut rng =
                StdRng::seed_from_u64(params.seed ^ (t.wrapping_mul(0xA24B_AED4_963E_E407)));
            (0..n).map(|_| rng.random_range(0..n)).collect()
        } else {
            (0..n).collect()
        };
        DecisionTree::fit_with_shared(data, binned, root, &tree_params)
    }

    /// Mean positive-class probability over the ensemble. A forest
    /// cancelled before any tree completed has no opinion and returns
    /// `0.5`.
    pub fn predict_proba(&self, row: &[f64]) -> f64 {
        if self.trees.is_empty() {
            return 0.5;
        }
        let sum: f64 = self.trees.iter().map(|t| t.predict_proba(row)).sum();
        sum / self.trees.len() as f64
    }

    /// Batch prediction over a dataset's rows, parallelised over row
    /// chunks with the same scoped-thread pattern (and `n_threads`
    /// bound) as fitting. Rows are independent, so the output is
    /// identical at any thread count.
    pub fn predict_proba_all(&self, data: &Dataset) -> Vec<f64> {
        let _span = obs::span!("forest.predict");
        let n = data.n_samples();
        // Below this many rows per thread, spawn overhead dominates.
        const MIN_ROWS_PER_THREAD: usize = 256;
        let threads = self
            .n_threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1)
            })
            .clamp(1, n.div_ceil(MIN_ROWS_PER_THREAD).max(1));
        if threads <= 1 {
            return (0..n).map(|i| self.predict_proba(data.row(i))).collect();
        }
        let mut out = vec![0.0; n];
        let chunk = n.div_ceil(threads);
        std::thread::scope(|scope| {
            let mut predictors = Vec::with_capacity(threads);
            for (c, slot) in out.chunks_mut(chunk).enumerate() {
                predictors.push(scope.spawn(move || {
                    for (off, o) in slot.iter_mut().enumerate() {
                        *o = self.predict_proba(data.row(c * chunk + off));
                    }
                }));
            }
            for predictor in predictors {
                predictor.join().expect("prediction thread panicked");
            }
        });
        out
    }

    /// Averaged, normalised feature importances.
    pub fn feature_importances(&self) -> &[f64] {
        &self.importances
    }

    /// The fitted trees.
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Feature count the forest was trained with.
    pub fn n_features(&self) -> usize {
        self.n_features
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    /// Noisy two-feature blobs: positives around (2, 2), negatives
    /// around (-2, -2); the second feature is pure noise.
    fn blobs(seed: u64, n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let pos = i % 2 == 0;
            let centre = if pos { 2.0 } else { -2.0 };
            features.push(centre + (rng.random::<f64>() - 0.5) * 2.0);
            features.push((rng.random::<f64>() - 0.5) * 2.0); // noise
            labels.push(pos);
        }
        Dataset::new(features, 2, labels).unwrap()
    }

    fn small_params(seed: u64) -> RandomForestParams {
        RandomForestParams { n_trees: 15, n_threads: Some(2), ..RandomForestParams::paper() }
            .with_seed(seed)
    }

    #[test]
    fn learns_separable_blobs() {
        let d = blobs(1, 200);
        let f = RandomForest::fit(&d, &small_params(7));
        assert!(f.predict_proba(&[2.0, 0.0]) > 0.8);
        assert!(f.predict_proba(&[-2.0, 0.0]) < 0.2);
    }

    #[test]
    fn importance_favours_informative_feature() {
        let d = blobs(2, 300);
        let f = RandomForest::fit(&d, &small_params(8));
        let imp = f.feature_importances();
        assert!(imp[0] > 3.0 * imp[1], "importances {imp:?}");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_under_seed_and_thread_count() {
        let d = blobs(3, 120);
        let a = RandomForest::fit(&d, &small_params(9));
        let b = RandomForest::fit(
            &d,
            &RandomForestParams { n_threads: Some(4), ..small_params(9) },
        );
        for i in 0..d.n_samples() {
            assert_eq!(a.predict_proba(d.row(i)), b.predict_proba(d.row(i)));
        }
    }

    #[test]
    fn histogram_matches_exact_on_training_rows() {
        // 120 rows of continuous features: fewer distinct values than
        // 255 bins, so every feature gets one bin per distinct value
        // and the two strategies must grow identical trees. Bootstrap
        // is off so every row is in-bag for every tree — thresholds
        // are only guaranteed to agree on rows the node actually saw
        // (DESIGN.md §9).
        let d = blobs(3, 120);
        let base = RandomForestParams { bootstrap: false, ..small_params(9) };
        let exact = RandomForest::fit(&d, &base.clone().with_split(SplitStrategy::Exact));
        let hist = RandomForest::fit(
            &d,
            &base.with_split(SplitStrategy::Histogram { max_bins: 255 }),
        );
        for i in 0..d.n_samples() {
            assert_eq!(exact.predict_proba(d.row(i)), hist.predict_proba(d.row(i)), "row {i}");
        }
    }

    #[test]
    fn parallel_batch_prediction_matches_serial() {
        let d = blobs(8, 600);
        let f = RandomForest::fit(
            &d,
            &RandomForestParams { n_threads: Some(3), ..small_params(14) },
        );
        let batch = f.predict_proba_all(&d);
        assert_eq!(batch.len(), d.n_samples());
        for (i, p) in batch.iter().enumerate() {
            assert_eq!(*p, f.predict_proba(d.row(i)), "row {i}");
        }
    }

    #[test]
    fn probabilities_bounded() {
        let d = blobs(4, 100);
        let f = RandomForest::fit(&d, &small_params(10));
        for p in f.predict_proba_all(&d) {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn forest_beats_single_member_on_noisy_data() {
        // With heavy label noise a deep single tree overfits; the
        // ensemble's held-out accuracy should be at least as good.
        let mut rng = StdRng::seed_from_u64(5);
        let mut make = |n: usize| {
            let mut features = Vec::new();
            let mut labels = Vec::new();
            for _ in 0..n {
                let x: f64 = (rng.random::<f64>() - 0.5) * 4.0;
                let y: f64 = (rng.random::<f64>() - 0.5) * 4.0;
                let noisy = rng.random::<f64>() < 0.25;
                features.push(x);
                features.push(y);
                labels.push((x > 0.0) ^ noisy);
            }
            Dataset::new(features, 2, labels).unwrap()
        };
        let train = make(400);
        let test = make(400);
        let forest = RandomForest::fit(&train, &small_params(11).with_trees(40));
        let lone = DecisionTree::fit(&train, &TreeParams::paper_forest_member());
        let acc = |pred: &dyn Fn(&[f64]) -> f64| {
            (0..test.n_samples())
                .filter(|&i| (pred(test.row(i)) >= 0.5) == ((test.feature(i, 0)) > 0.0))
                .count() as f64
                / test.n_samples() as f64
        };
        let forest_acc = acc(&|r| forest.predict_proba(r));
        let lone_acc = acc(&|r| lone.predict_proba(r));
        assert!(
            forest_acc + 0.02 >= lone_acc,
            "forest {forest_acc} vs single tree {lone_acc}"
        );
        assert!(forest_acc > 0.8, "forest accuracy {forest_acc}");
    }

    #[test]
    fn pre_cancelled_fit_returns_no_trees() {
        use crate::cancel::CancelToken;
        let d = blobs(7, 80);
        let token = CancelToken::new();
        token.cancel();
        let params = RandomForestParams { cancel: Some(token), ..small_params(13) };
        let f = RandomForest::fit(&d, &params);
        assert!(f.trees().is_empty());
        assert_eq!(f.predict_proba(&[0.0, 0.0]), 0.5);
    }

    #[test]
    fn no_bootstrap_variant_works() {
        let d = blobs(6, 100);
        let params = RandomForestParams { bootstrap: false, ..small_params(12) };
        let f = RandomForest::fit(&d, &params);
        assert!(f.predict_proba(&[2.0, 0.0]) > 0.7);
        assert_eq!(f.trees().len(), params.n_trees);
    }
}
