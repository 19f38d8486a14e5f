//! Split search for one node, generic over the `Criterion` a tree
//! grows toward: the exact sorted scan and the histogram bin scans
//! (see [`crate::binned`]).

use crate::binned::{BinnedDataset, NodeHistogram};
use crate::dataset::Dataset;

/// Binary Gini impurity for a weighted positive fraction `p`:
/// `2 p (1 - p)` — 0 for pure nodes, maximal (0.5) at `p = 0.5`.
#[inline]
pub fn gini(p: f64) -> f64 {
    2.0 * p * (1.0 - p)
}

/// What one tree grows toward. The builder in [`crate::tree`] is
/// monomorphised over it: CART classification uses [`Gini`], each
/// gradient-boosting round a Newton criterion (`crate::gbdt`).
///
/// Every node statistic is a pair of sums of two per-row
/// accumulands, `(Σa, Σb)` — the pair a [`NodeHistogram`] holds per
/// bin.
pub(crate) trait Criterion {
    /// The per-row accumulands `(a, b)`, indexed by row.
    fn accumulands(&self) -> (&[f64], &[f64]);
    /// A node's leaf value and the score its splits are measured
    /// against, from its sums.
    fn node(&self, sums: (f64, f64)) -> (f64, f64);
    /// Whether a node of `rows` rows with these sums and score is a
    /// leaf (the depth cap aside).
    fn stop(&self, rows: usize, sums: (f64, f64), score: f64) -> bool;
    /// Whether a child of `rows` rows whose cut routed it a first sum
    /// of `a` may split further, and so is worth a histogram.
    fn keeps_histogram(&self, rows: usize, a: f64) -> bool;
    /// The score of the cut that routes `left` of the feature's
    /// `total` to the left; `None` when the cut is inadmissible.
    fn split_score(&self, parent: f64, left: (f64, f64), total: (f64, f64)) -> Option<f64>;
}

/// The CART classification criterion (Sec. IV-D): accumulands
/// `(weight, weight · label)`, leaves hold the weighted positive
/// fraction, and a cut scores its weight-scaled Gini decrease
/// `w · (imp_parent − (wₗ/w)·impₗ − (wᵣ/w)·impᵣ)` — comparable across
/// nodes for importance accounting.
pub(crate) struct Gini<'a> {
    weights: &'a [f64],
    pos_weights: Vec<f64>,
    /// Nodes lighter than this are leaves.
    min_weight: f64,
}

impl<'a> Gini<'a> {
    /// The criterion for fitting `data` with a `min_weight` stop.
    pub fn new(data: &'a Dataset, min_weight: f64) -> Self {
        let pos_weights = (0..data.n_samples())
            .map(|i| if data.label(i) { data.weight(i) } else { 0.0 })
            .collect();
        Gini { weights: data.weights(), pos_weights, min_weight }
    }
}

impl Criterion for Gini<'_> {
    fn accumulands(&self) -> (&[f64], &[f64]) {
        (self.weights, &self.pos_weights)
    }

    fn node(&self, (total, pos): (f64, f64)) -> (f64, f64) {
        let proba = if total <= 0.0 { 0.5 } else { pos / total };
        (proba, gini(proba))
    }

    fn stop(&self, rows: usize, (weight, _): (f64, f64), impurity: f64) -> bool {
        weight < self.min_weight || impurity <= 0.0 || rows < 2
    }

    fn keeps_histogram(&self, _rows: usize, weight: f64) -> bool {
        weight >= self.min_weight
    }

    fn split_score(
        &self,
        impurity: f64,
        (left_w, left_pos): (f64, f64),
        (total_w, total_pos): (f64, f64),
    ) -> Option<f64> {
        // Empty sides are skipped; this also absorbs the tiny negative
        // weights a parent-minus-sibling subtraction can leave in bins
        // the node never touched. Zero-gain cuts stay admissible:
        // greedy CART must still partition XOR-like nodes where every
        // single split has zero immediate gain (the builder guards on
        // node purity, and every split strictly shrinks both sides, so
        // recursion terminates).
        let right_w = total_w - left_w;
        if left_w <= 0.0 || right_w <= 0.0 {
            return None;
        }
        let imp_left = gini(left_pos / left_w);
        let imp_right = gini((total_pos - left_pos) / right_w);
        Some(total_w * (impurity - (left_w / total_w) * imp_left - (right_w / total_w) * imp_right))
    }
}

/// The outcome of a split search on one feature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitCandidate {
    /// Feature column.
    pub feature: usize,
    /// Decision threshold: samples with `value <= threshold` go left.
    pub threshold: f64,
    /// The criterion's score of the cut (for Gini, the weighted
    /// impurity decrease achieved).
    pub decrease: f64,
    /// Total weight (first accumuland) routed left.
    pub left_weight: f64,
    /// Total weight (first accumuland) routed right.
    pub right_weight: f64,
}

/// Scratch buffers reused across split searches, so fitting a deep
/// tree does not allocate per node.
#[derive(Debug, Default)]
pub(crate) struct SplitScratch {
    order: Vec<(f64, f64, f64)>, // (value, a, b)
    bins: Vec<(f64, f64)>,       // per-feature histogram scratch
    /// Split searches performed through this scratch. The tree builder
    /// flushes the tally to the `trees.split_evaluations` counter once
    /// per fit, keeping atomics out of the hot loop.
    pub n_evaluations: u64,
}

/// Keep the best-scoring cut: the first of equal scores wins.
pub(crate) fn consider(best: &mut Option<SplitCandidate>, candidate: SplitCandidate) {
    if best.is_none_or(|b| candidate.decrease > b.decrease) {
        *best = Some(candidate);
    }
}

/// Find the best threshold on `feature` over the node's rows by
/// sorting them. `None` when the feature is constant over the node or
/// no cut is admissible. Thresholds are midpoints between adjacent
/// distinct values, as CART implementations do.
pub(crate) fn best_split_on_feature<C: Criterion>(
    criterion: &C,
    data: &Dataset,
    indices: &[usize],
    feature: usize,
    parent: f64,
    scratch: &mut SplitScratch,
) -> Option<SplitCandidate> {
    scratch.n_evaluations += 1;
    let (a, b) = criterion.accumulands();
    let order = &mut scratch.order;
    order.clear();
    order.extend(indices.iter().map(|&i| (data.feature(i, feature), a[i], b[i])));
    // Features are guaranteed finite by Dataset, so a total order exists.
    order.sort_unstable_by(|x, y| x.0.partial_cmp(&y.0).expect("finite features"));

    let total: (f64, f64) = (order.iter().map(|t| t.1).sum(), order.iter().map(|t| t.2).sum());
    let mut best = None;
    let mut left = (0.0, 0.0);
    for pair in order.windows(2) {
        let (value, wa, wb) = pair[0];
        let next_value = pair[1].0;
        left.0 += wa;
        left.1 += wb;
        if next_value <= value {
            // No threshold can separate equal values.
            continue;
        }
        if let Some(score) = criterion.split_score(parent, left, total) {
            let threshold = 0.5 * (value + next_value);
            consider(&mut best, candidate(feature, threshold, score, left, total));
        }
    }
    best
}

/// Histogram counterpart of [`best_split_on_feature`]: walk the
/// feature's accumulated bins in the node's [`NodeHistogram`] instead
/// of sorting the node's rows — `O(bins)` after the `O(n · d)`
/// accumulation the caller already paid.
pub(crate) fn best_split_on_feature_hist<C: Criterion>(
    criterion: &C,
    binned: &BinnedDataset,
    hist: &NodeHistogram,
    feature: usize,
    parent: f64,
    scratch: &mut SplitScratch,
) -> Option<SplitCandidate> {
    scratch.n_evaluations += 1;
    scan_bins(criterion, binned, feature, hist.feature(binned, feature), parent)
}

/// Histogram search without a prebuilt [`NodeHistogram`]: accumulate
/// `feature`'s bins over the node's rows into scratch, then scan them.
/// This is the narrow-sampling path — when a node evaluates `k ≪ d`
/// features, one `O(n)` pass per evaluated feature beats building the
/// full `d`-feature table that the subtraction trick needs.
///
/// `a` and `b` are node-aligned (`a[j]` pairs with `indices[j]`),
/// gathered once per node by the caller.
#[allow(clippy::too_many_arguments)] // a criterion, a node, and a feature
pub(crate) fn best_split_on_feature_hist_direct<C: Criterion>(
    criterion: &C,
    binned: &BinnedDataset,
    indices: &[usize],
    a: &[f64],
    b: &[f64],
    feature: usize,
    parent: f64,
    scratch: &mut SplitScratch,
) -> Option<SplitCandidate> {
    scratch.n_evaluations += 1;
    let n_bins = binned.n_bins(feature);
    if n_bins < 2 {
        return None;
    }
    scratch.bins.clear();
    scratch.bins.resize(n_bins, (0.0, 0.0));
    binned.accumulate_feature(feature, indices, a, b, &mut scratch.bins);
    scan_bins(criterion, binned, feature, &scratch.bins, parent)
}

/// Walk one feature's accumulated bins for the best cut — shared by
/// the table-backed and direct histogram searches, so both produce
/// bit-identical candidates from identical bin contents. Candidate
/// cuts sit between adjacent bins; the threshold is the binned
/// dataset's raw-value cut there, so training rows route exactly as
/// `value <= threshold` demands.
fn scan_bins<C: Criterion>(
    criterion: &C,
    binned: &BinnedDataset,
    feature: usize,
    bins: &[(f64, f64)],
    parent: f64,
) -> Option<SplitCandidate> {
    if bins.len() < 2 {
        return None;
    }
    let mut total = (0.0, 0.0);
    for &(a, b) in bins {
        total.0 += a;
        total.1 += b;
    }
    let mut best = None;
    let mut left = (0.0, 0.0);
    for (bin, &(a, b)) in bins.iter().enumerate().take(bins.len() - 1) {
        left.0 += a;
        left.1 += b;
        if let Some(score) = criterion.split_score(parent, left, total) {
            let threshold = binned.cut(feature, bin);
            consider(&mut best, candidate(feature, threshold, score, left, total));
        }
    }
    best
}

fn candidate(
    feature: usize,
    threshold: f64,
    decrease: f64,
    left: (f64, f64),
    total: (f64, f64),
) -> SplitCandidate {
    SplitCandidate {
        feature,
        threshold,
        decrease,
        left_weight: left.0,
        right_weight: total.0 - left.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gini_extremes() {
        assert_eq!(gini(0.0), 0.0);
        assert_eq!(gini(1.0), 0.0);
        assert_eq!(gini(0.5), 0.5);
        assert!(gini(0.25) < gini(0.5));
    }

    fn separable() -> Dataset {
        // Feature 0 separates perfectly at 2.5; feature 1 is constant.
        Dataset::new(
            vec![1.0, 7.0, 2.0, 7.0, 3.0, 7.0, 4.0, 7.0],
            2,
            vec![true, true, false, false],
        )
        .unwrap()
    }

    #[test]
    fn finds_perfect_split() {
        let d = separable();
        let idx: Vec<usize> = (0..4).collect();
        let imp = gini(d.weighted_positive_fraction(&idx));
        let c = Gini::new(&d, 0.0);
        let mut scratch = SplitScratch::default();
        let s = best_split_on_feature(&c, &d, &idx, 0, imp, &mut scratch).unwrap();
        assert_eq!(s.feature, 0);
        assert!((s.threshold - 2.5).abs() < 1e-12);
        // Perfect split: decrease = total_w × parent impurity.
        assert!((s.decrease - 4.0 * 0.5).abs() < 1e-9);
        assert_eq!(s.left_weight, 2.0);
        assert_eq!(s.right_weight, 2.0);
    }

    #[test]
    fn constant_feature_yields_none() {
        let d = separable();
        let idx: Vec<usize> = (0..4).collect();
        let c = Gini::new(&d, 0.0);
        let mut scratch = SplitScratch::default();
        assert!(best_split_on_feature(&c, &d, &idx, 1, 0.5, &mut scratch).is_none());
    }

    #[test]
    fn pure_node_split_has_zero_gain() {
        // Callers (the tree builder) never search pure nodes; if one
        // does, the best candidate carries zero decrease.
        let d = Dataset::new(vec![1.0, 2.0, 3.0], 1, vec![true, true, true]).unwrap();
        let idx = vec![0, 1, 2];
        let c = Gini::new(&d, 0.0);
        let mut scratch = SplitScratch::default();
        let s = best_split_on_feature(&c, &d, &idx, 0, gini(1.0), &mut scratch).unwrap();
        assert!(s.decrease.abs() < 1e-12);
    }

    #[test]
    fn respects_sample_weights() {
        // Two positives at x<2.5 with tiny weight, two negatives heavy;
        // plus one positive at x=10 with huge weight: the best split
        // should isolate the heavy positive, not the tiny ones.
        let mut d = Dataset::new(
            vec![1.0, 2.0, 3.0, 4.0, 10.0],
            1,
            vec![true, true, false, false, true],
        )
        .unwrap();
        d.set_weights(vec![0.01, 0.01, 1.0, 1.0, 5.0]);
        let idx: Vec<usize> = (0..5).collect();
        let imp = gini(d.weighted_positive_fraction(&idx));
        let c = Gini::new(&d, 0.0);
        let mut scratch = SplitScratch::default();
        let s = best_split_on_feature(&c, &d, &idx, 0, imp, &mut scratch).unwrap();
        assert!(s.threshold > 4.0 && s.threshold < 10.0, "threshold {}", s.threshold);
    }

    /// Accumulate a node histogram over `indices` with the Gini
    /// accumulands, mirroring what the tree builder does.
    fn node_hist(d: &Dataset, b: &BinnedDataset, indices: &[usize]) -> NodeHistogram {
        let criterion = Gini::new(d, 0.0);
        let (w, pos) = criterion.accumulands();
        let mut h = NodeHistogram::zeroed(b);
        h.accumulate(b, indices, w, pos);
        h
    }

    #[test]
    fn histogram_scan_matches_exact_when_bins_are_distinct_values() {
        let d = separable();
        let b = BinnedDataset::build(&d, 255);
        let idx: Vec<usize> = (0..4).collect();
        let imp = gini(d.weighted_positive_fraction(&idx));
        let h = node_hist(&d, &b, &idx);
        let c = Gini::new(&d, 0.0);
        let mut scratch = SplitScratch::default();
        let exact = best_split_on_feature(&c, &d, &idx, 0, imp, &mut scratch).unwrap();
        let hist = best_split_on_feature_hist(&c, &b, &h, 0, imp, &mut scratch).unwrap();
        assert_eq!(hist.feature, exact.feature);
        assert_eq!(hist.threshold, exact.threshold);
        assert_eq!(hist.decrease, exact.decrease);
        assert_eq!(hist.left_weight, exact.left_weight);
        assert_eq!(hist.right_weight, exact.right_weight);
        // Constant feature: no candidate in either mode.
        assert!(best_split_on_feature_hist(&c, &b, &h, 1, imp, &mut scratch).is_none());
        assert_eq!(scratch.n_evaluations, 3, "hist searches count as evaluations too");
    }

    #[test]
    fn direct_histogram_scan_matches_table_backed_scan() {
        let d = separable();
        let b = BinnedDataset::build(&d, 255);
        let idx: Vec<usize> = (0..4).collect();
        let imp = gini(d.weighted_positive_fraction(&idx));
        let h = node_hist(&d, &b, &idx);
        let c = Gini::new(&d, 0.0);
        let (w, pos) = c.accumulands();
        let mut scratch = SplitScratch::default();
        let table = best_split_on_feature_hist(&c, &b, &h, 0, imp, &mut scratch).unwrap();
        let direct =
            best_split_on_feature_hist_direct(&c, &b, &idx, w, pos, 0, imp, &mut scratch).unwrap();
        assert_eq!(direct, table);
        assert_eq!(scratch.n_evaluations, 2);
    }

    #[test]
    fn histogram_scan_on_node_subset_skips_empty_bins() {
        // Bin the full dataset but search a node holding a subset: the
        // untouched bins are empty and must not produce degenerate
        // (empty-side) candidates.
        let d = Dataset::new(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            1,
            vec![true, true, true, false, false, false],
        )
        .unwrap();
        let b = BinnedDataset::build(&d, 255);
        let idx = vec![1, 4]; // values 2.0 (pos) and 5.0 (neg)
        let imp = gini(d.weighted_positive_fraction(&idx));
        let h = node_hist(&d, &b, &idx);
        let c = Gini::new(&d, 0.0);
        let mut scratch = SplitScratch::default();
        let s = best_split_on_feature_hist(&c, &b, &h, 0, imp, &mut scratch).unwrap();
        assert!(s.left_weight > 0.0 && s.right_weight > 0.0);
        // The first boundary achieving the perfect partition wins.
        assert_eq!(s.threshold, 2.5);
        assert!((s.decrease - 2.0 * 0.5).abs() < 1e-12);
    }

    #[test]
    fn split_never_produces_empty_side() {
        let d = Dataset::new(vec![1.0, 1.0, 1.0, 2.0], 1, vec![true, true, false, false]).unwrap();
        let idx: Vec<usize> = (0..4).collect();
        let imp = gini(0.5);
        let c = Gini::new(&d, 0.0);
        let mut scratch = SplitScratch::default();
        if let Some(s) = best_split_on_feature(&c, &d, &idx, 0, imp, &mut scratch) {
            assert!(s.left_weight > 0.0 && s.right_weight > 0.0);
            assert!((1.0..2.0).contains(&s.threshold));
        }
    }
}
