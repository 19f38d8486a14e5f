//! Gradient-boosted trees on the logistic loss.
//!
//! Not used by the paper's headline models, but (a) the paper's
//! related work forecasts data-centre hot spots with GBDTs [34], and
//! (b) boosting is the natural "future work" extension of the RF
//! models — so it is included as an ablation comparator.
//!
//! Each boosting round fits a shallow regression tree to the negative
//! gradient of the log-loss and applies a Newton leaf step
//! (`Σg / Σh`), the standard second-order formulation.

use crate::binned::{BinnedDataset, HistPool, NodeHistogram, SplitStrategy, HIST_MIN_NODE_ROWS};
use crate::cancel::CancelToken;
use crate::dataset::Dataset;
use hotspot_obs as obs;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
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

/// One node of a regression tree (structure-of-arrays style).
#[derive(Debug, Clone)]
enum RegNode {
    Leaf { value: f64 },
    Split { feature: usize, threshold: f64, left: usize, right: usize },
}

#[derive(Debug, Clone)]
struct RegTree {
    nodes: Vec<RegNode>,
}

impl RegTree {
    fn predict(&self, row: &[f64]) -> f64 {
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                RegNode::Leaf { value } => return *value,
                RegNode::Split { feature, threshold, left, right } => {
                    at = if row[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }
}

/// Builder state for one regression tree fit on gradients/hessians.
struct RegTreeBuilder<'a> {
    data: &'a Dataset,
    grad: &'a [f64],
    hess: &'a [f64],
    params: &'a GradientBoostingParams,
    binned: Option<&'a BinnedDataset>,
    pool: &'a mut HistPool,
    nodes: Vec<RegNode>,
}

impl<'a> RegTreeBuilder<'a> {
    /// Newton leaf value with L2-free denominator guard.
    fn leaf_value(&self, indices: &[usize]) -> f64 {
        let g: f64 = indices.iter().map(|&i| self.grad[i]).sum();
        let h: f64 = indices.iter().map(|&i| self.hess[i]).sum();
        if h <= 1e-12 {
            0.0
        } else {
            -g / h
        }
    }

    /// Gain of splitting with child gradient/hessian sums, per the
    /// standard XGBoost-style formula (λ = 0).
    fn gain(gl: f64, hl: f64, gr: f64, hr: f64) -> f64 {
        let score = |g: f64, h: f64| if h <= 1e-12 { 0.0 } else { g * g / h };
        0.5 * (score(gl, hl) + score(gr, hr) - score(gl + gr, hl + hr))
    }

    fn build(
        &mut self,
        indices: Vec<usize>,
        depth: usize,
        rng: &mut StdRng,
        hist: Option<NodeHistogram>,
    ) -> usize {
        if depth >= self.params.max_depth || indices.len() < self.params.min_samples_split {
            if let Some(h) = hist {
                self.pool.release(h);
            }
            let v = self.leaf_value(&indices);
            self.nodes.push(RegNode::Leaf { value: v });
            return self.nodes.len() - 1;
        }
        let d = self.data.n_features();
        let k = ((d as f64 * self.params.feature_fraction).ceil() as usize).clamp(1, d);
        let mut feature_pool: Vec<usize> = (0..d).collect();
        feature_pool.shuffle(rng);

        let use_hist = self.binned.is_some() && indices.len() >= HIST_MIN_NODE_ROWS;
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)
        let mut node_hist: Option<NodeHistogram> = None;
        if use_hist {
            // Histogram search over (gradient, hessian) bins — gains
            // at empty-side boundaries collapse to zero and are
            // skipped by the `gain > 1e-12` guard below.
            let binned = self.binned.expect("use_hist implies binned");
            let h = match hist {
                Some(h) => h,
                None => {
                    let mut h = self.pool.acquire(binned);
                    h.accumulate(binned, &indices, self.grad, self.hess);
                    h
                }
            };
            for &f in feature_pool.iter().take(k) {
                let bins = h.feature(binned, f);
                if bins.len() < 2 {
                    continue;
                }
                let mut total_g = 0.0;
                let mut total_h = 0.0;
                for &(g, hs) in bins {
                    total_g += g;
                    total_h += hs;
                }
                let mut gl = 0.0;
                let mut hl = 0.0;
                for (b, &(g, hs)) in bins.iter().enumerate().take(bins.len() - 1) {
                    gl += g;
                    hl += hs;
                    let gain = Self::gain(gl, hl, total_g - gl, total_h - hl);
                    if best.is_none_or(|(_, _, bg)| gain > bg) && gain > 1e-12 {
                        best = Some((f, binned.cut(f, b), gain));
                    }
                }
            }
            node_hist = Some(h);
        } else {
            if let Some(h) = hist {
                self.pool.release(h);
            }
            let mut order: Vec<(f64, f64, f64)> = Vec::with_capacity(indices.len());
            for &f in feature_pool.iter().take(k) {
                order.clear();
                for &i in &indices {
                    order.push((self.data.feature(i, f), self.grad[i], self.hess[i]));
                }
                order.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("finite features"));
                let total_g: f64 = order.iter().map(|t| t.1).sum();
                let total_h: f64 = order.iter().map(|t| t.2).sum();
                let mut gl = 0.0;
                let mut hl = 0.0;
                for idx in 0..order.len().saturating_sub(1) {
                    gl += order[idx].1;
                    hl += order[idx].2;
                    if order[idx + 1].0 <= order[idx].0 {
                        continue;
                    }
                    let gain = Self::gain(gl, hl, total_g - gl, total_h - hl);
                    if best.is_none_or(|(_, _, g)| gain > g) && gain > 1e-12 {
                        best = Some((f, 0.5 * (order[idx].0 + order[idx + 1].0), gain));
                    }
                }
            }
        }
        let Some((feature, threshold, _)) = best else {
            if let Some(h) = node_hist {
                self.pool.release(h);
            }
            let v = self.leaf_value(&indices);
            self.nodes.push(RegNode::Leaf { value: v });
            return self.nodes.len() - 1;
        };
        let (li, ri): (Vec<usize>, Vec<usize>) =
            indices.into_iter().partition(|&i| self.data.feature(i, feature) <= threshold);

        // Subtraction trick: scan the smaller child, derive the larger
        // as parent − smaller (boosting trees are shallow, so at most
        // `max_depth` sibling tables are ever alive).
        let mut left_hist: Option<NodeHistogram> = None;
        let mut right_hist: Option<NodeHistogram> = None;
        if let Some(mut parent) = node_hist {
            let eligible = |child: &[usize]| {
                depth + 1 < self.params.max_depth
                    && child.len() >= self.params.min_samples_split
                    && child.len() >= HIST_MIN_NODE_ROWS
            };
            let left_small = li.len() <= ri.len();
            let (small, large) = if left_small { (&li, &ri) } else { (&ri, &li) };
            if eligible(large) {
                let binned = self.binned.expect("hist implies binned");
                let mut small_hist = self.pool.acquire(binned);
                small_hist.accumulate(binned, small, self.grad, self.hess);
                parent.subtract(&small_hist);
                let small_hist = if eligible(small) {
                    Some(small_hist)
                } else {
                    self.pool.release(small_hist);
                    None
                };
                if left_small {
                    left_hist = small_hist;
                    right_hist = Some(parent);
                } else {
                    left_hist = Some(parent);
                    right_hist = small_hist;
                }
            } else {
                self.pool.release(parent);
            }
        }

        let node = self.nodes.len();
        self.nodes.push(RegNode::Leaf { value: 0.0 }); // placeholder
        let left = self.build(li, depth + 1, rng, left_hist);
        let right = self.build(ri, depth + 1, rng, right_hist);
        self.nodes[node] = RegNode::Split { feature, threshold, left, right };
        node
    }
}

/// A fitted gradient-boosting classifier.
#[derive(Debug, Clone)]
pub struct GradientBoosting {
    base_score: f64,
    trees: Vec<RegTree>,
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
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut pool = HistPool::new();

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
            let mut builder = RegTreeBuilder {
                data,
                grad: &grad,
                hess: &hess,
                params,
                binned,
                pool: &mut pool,
                nodes: Vec::new(),
            };
            builder.build(all.clone(), 0, &mut rng, None);
            let tree = RegTree { nodes: builder.nodes };
            for (i, r) in raw.iter_mut().enumerate() {
                *r += params.learning_rate * tree.predict(data.row(i));
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
            raw += self.learning_rate * t.predict(row);
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
