//! Gradient-boosted trees on the logistic loss.
//!
//! Not used by the paper's headline models, but (a) the paper's
//! related work forecasts data-centre hot spots with GBDTs [34], and
//! (b) boosting is the natural "future work" extension of the RF
//! models — so it is included as an ablation comparator.
//!
//! Each boosting round fits a shallow regression tree to the negative
//! gradient of the log-loss and applies a Newton leaf step
//! (`Σg / Σh`), the standard second-order formulation. The tree grows
//! through the crate's one builder ([`crate::tree`]) under the
//! `Newton` criterion.

use crate::binned::{BinnedDataset, SplitStrategy};
use crate::cancel::CancelToken;
use crate::dataset::Dataset;
use crate::split::Criterion;
use crate::tree::{grow, DecisionTree, MaxFeatures, TreeParams};
use hotspot_obs as obs;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// GBDT hyper-parameters.
#[derive(Debug, Clone)]
pub struct GradientBoostingParams {
    /// Boosting rounds.
    pub n_rounds: usize,
    /// Shrinkage applied to every leaf step.
    pub learning_rate: f64,
    /// Depth of each regression tree.
    pub max_depth: usize,
    /// Minimum samples to split a node.
    pub min_samples_split: usize,
    /// Features evaluated per split as a fraction of `d`.
    pub feature_fraction: f64,
    /// RNG seed for feature subsampling.
    pub seed: u64,
    /// Cooperative cancellation, checked between rounds. A cancelled
    /// fit keeps the rounds completed so far.
    pub cancel: Option<CancelToken>,
    /// Split-search engine. Features never change across boosting
    /// rounds, so one [`BinnedDataset`] built at the start of the fit
    /// serves every round.
    pub split: SplitStrategy,
}

impl Default for GradientBoostingParams {
    fn default() -> Self {
        GradientBoostingParams {
            n_rounds: 100,
            learning_rate: 0.1,
            max_depth: 3,
            min_samples_split: 8,
            feature_fraction: 0.8,
            seed: 0,
            cancel: None,
            split: SplitStrategy::default(),
        }
    }
}

/// The Newton criterion one boosting round grows its regression tree
/// toward: accumulands `(gradient, hessian)`, leaves hold the Newton
/// step `−Σg / Σh`, and a cut scores the XGBoost-style gain (λ = 0).
struct Newton<'a> {
    grad: &'a [f64],
    hess: &'a [f64],
    min_samples_split: usize,
}

impl Criterion for Newton<'_> {
    fn accumulands(&self) -> (&[f64], &[f64]) {
        (self.grad, self.hess)
    }

    fn node(&self, (g, h): (f64, f64)) -> (f64, f64) {
        // Newton leaf value with L2-free denominator guard; splits
        // need no parent score.
        (if h <= 1e-12 { 0.0 } else { -g / h }, 0.0)
    }

    fn stop(&self, rows: usize, _sums: (f64, f64), _score: f64) -> bool {
        rows < self.min_samples_split
    }

    fn keeps_histogram(&self, rows: usize, _grad: f64) -> bool {
        rows >= self.min_samples_split
    }

    fn split_score(&self, _parent: f64, (gl, hl): (f64, f64), (g, h): (f64, f64)) -> Option<f64> {
        let (gr, hr) = (g - gl, h - hl);
        let score = |g: f64, h: f64| if h <= 1e-12 { 0.0 } else { g * g / h };
        let gain = 0.5 * (score(gl, hl) + score(gr, hr) - score(gl + gr, hl + hr));
        // Cuts at empty-side boundaries collapse to zero gain.
        (gain > 1e-12).then_some(gain)
    }
}

/// A fitted gradient-boosting classifier.
#[derive(Debug, Clone)]
pub struct GradientBoosting {
    base_score: f64,
    trees: Vec<DecisionTree>,
    learning_rate: f64,
    n_features: usize,
}

impl GradientBoosting {
    /// Fit the booster on a binary dataset (sample weights scale the
    /// gradients/hessians), binning its features under
    /// [`SplitStrategy::bins_for`] first.
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn fit(data: &Dataset, params: &GradientBoostingParams) -> Self {
        let binned = BinnedDataset::for_fit(data, params.split);
        Self::fit_binned(data, binned.as_ref(), params)
    }

    /// Fit the booster over a prebuilt binned view (`None`: exact
    /// search). Features are fixed across rounds, so one view serves
    /// them all; only the gradients/hessians poured into its bins
    /// change.
    ///
    /// # Panics
    /// Panics on an empty dataset or a `binned` view whose shape does
    /// not match `data`.
    pub fn fit_binned(
        data: &Dataset,
        binned: Option<&BinnedDataset>,
        params: &GradientBoostingParams,
    ) -> Self {
        let _span = obs::span!("gbdt.fit");
        assert!(data.n_samples() > 0, "cannot fit on an empty dataset");
        if let Some(b) = binned {
            assert_eq!(b.n_rows(), data.n_samples(), "binned view row mismatch");
            assert_eq!(b.n_features(), data.n_features(), "binned view feature mismatch");
        }
        let n = data.n_samples();
        // Base score = log-odds of the weighted prevalence.
        let all: Vec<usize> = (0..n).collect();
        let p0 = data.weighted_positive_fraction(&all).clamp(1e-6, 1.0 - 1e-6);
        let base_score = (p0 / (1.0 - p0)).ln();

        let mut raw = vec![base_score; n];
        let mut grad = vec![0.0; n];
        let mut hess = vec![0.0; n];
        let mut trees = Vec::with_capacity(params.n_rounds);
        // Every round grows through the CART builder: a depth-capped
        // tree over all rows, `feature_fraction` of the features per
        // node, and one feature-sampling stream across rounds.
        let tree_params = TreeParams {
            max_features: MaxFeatures::Fraction(params.feature_fraction),
            min_weight_fraction: 0.0,
            max_depth: Some(params.max_depth),
            seed: params.seed,
            split: params.split,
        };
        let mut rng = StdRng::seed_from_u64(params.seed);

        for _round in 0..params.n_rounds {
            if params.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                break;
            }
            for i in 0..n {
                let p = sigmoid(raw[i]);
                let y = if data.label(i) { 1.0 } else { 0.0 };
                let w = data.weight(i);
                grad[i] = w * (p - y);
                hess[i] = w * (p * (1.0 - p)).max(1e-9);
            }
            let newton =
                Newton { grad: &grad, hess: &hess, min_samples_split: params.min_samples_split };
            let tree = grow(data, binned, all.clone(), &tree_params, &newton, &mut rng);
            for (i, r) in raw.iter_mut().enumerate() {
                *r += params.learning_rate * tree.leaf_value(data.row(i));
            }
            trees.push(tree);
        }
        obs::counter("trees.gbdt_rounds").add(trees.len() as u64);
        GradientBoosting {
            base_score,
            trees,
            learning_rate: params.learning_rate,
            n_features: data.n_features(),
        }
    }

    /// Positive-class probability for one row.
    ///
    /// # Panics
    /// Panics on a feature-count mismatch.
    pub fn predict_proba(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len(), self.n_features, "feature count mismatch");
        let mut raw = self.base_score;
        for t in &self.trees {
            raw += self.learning_rate * t.leaf_value(row);
        }
        sigmoid(raw)
    }

    /// Number of boosting rounds fitted.
    pub fn n_rounds(&self) -> usize {
        self.trees.len()
    }
}

#[inline]
fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    fn blobs(seed: u64, n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let pos = i % 2 == 0;
            let centre = if pos { 1.5 } else { -1.5 };
            features.push(centre + (rng.random::<f64>() - 0.5) * 2.0);
            features.push((rng.random::<f64>() - 0.5) * 2.0);
            labels.push(pos);
        }
        Dataset::new(features, 2, labels).unwrap()
    }

    #[test]
    fn learns_blobs() {
        let d = blobs(1, 300);
        let g = GradientBoosting::fit(
            &d,
            &GradientBoostingParams { n_rounds: 40, ..Default::default() },
        );
        assert!(g.predict_proba(&[1.5, 0.0]) > 0.8);
        assert!(g.predict_proba(&[-1.5, 0.0]) < 0.2);
        assert_eq!(g.n_rounds(), 40);
    }

    #[test]
    fn base_score_matches_prevalence_with_zero_rounds() {
        let d = blobs(2, 100);
        let g = GradientBoosting::fit(
            &d,
            &GradientBoostingParams { n_rounds: 0, ..Default::default() },
        );
        assert!((g.predict_proba(&[0.0, 0.0]) - 0.5).abs() < 0.05);
    }

    #[test]
    fn more_rounds_reduce_training_loss() {
        let d = blobs(3, 200);
        let loss = |g: &GradientBoosting| -> f64 {
            (0..d.n_samples())
                .map(|i| {
                    let p = g.predict_proba(d.row(i)).clamp(1e-9, 1.0 - 1e-9);
                    if d.label(i) {
                        -p.ln()
                    } else {
                        -(1.0 - p).ln()
                    }
                })
                .sum::<f64>()
                / d.n_samples() as f64
        };
        let few =
            GradientBoosting::fit(&d, &GradientBoostingParams { n_rounds: 5, ..Default::default() });
        let many = GradientBoosting::fit(
            &d,
            &GradientBoostingParams { n_rounds: 60, ..Default::default() },
        );
        assert!(loss(&many) < loss(&few), "{} vs {}", loss(&many), loss(&few));
    }

    #[test]
    fn probabilities_bounded() {
        let d = blobs(4, 100);
        let g = GradientBoosting::fit(
            &d,
            &GradientBoostingParams { n_rounds: 30, ..Default::default() },
        );
        for i in 0..d.n_samples() {
            let p = g.predict_proba(d.row(i));
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let d = blobs(5, 150);
        let p = GradientBoostingParams { n_rounds: 20, seed: 7, ..Default::default() };
        let a = GradientBoosting::fit(&d, &p);
        let b = GradientBoosting::fit(&d, &p);
        for i in 0..d.n_samples() {
            assert_eq!(a.predict_proba(d.row(i)), b.predict_proba(d.row(i)));
        }
    }

    #[test]
    fn histogram_matches_exact_on_training_rows() {
        // 150 rows of continuous features: every value is distinct, so
        // each bin holds one row and histogram gains are bit-identical
        // to the exact scan.
        let d = blobs(6, 150);
        let exact = GradientBoosting::fit(
            &d,
            &GradientBoostingParams {
                n_rounds: 15,
                split: SplitStrategy::Exact,
                ..Default::default()
            },
        );
        let hist = GradientBoosting::fit(
            &d,
            &GradientBoostingParams {
                n_rounds: 15,
                split: SplitStrategy::Histogram { max_bins: 255 },
                ..Default::default()
            },
        );
        for i in 0..d.n_samples() {
            assert_eq!(exact.predict_proba(d.row(i)), hist.predict_proba(d.row(i)), "row {i}");
        }
    }

    #[test]
    fn sigmoid_sanity() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(10.0) > 0.999);
        assert!(sigmoid(-10.0) < 0.001);
    }
}
