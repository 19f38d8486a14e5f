//! The CART decision-tree classifier.
//!
//! Matches the paper's configuration knobs (Sec. IV-D): Gini split
//! metric, a random subset of features evaluated at every partition,
//! balanced sample weights, and a *minimum weight fraction* stopping
//! rule (2% of total weight for the standalone Tree model, 0.02%
//! for forest members).

use crate::binned::{BinnedDataset, HistPool, NodeHistogram, SplitStrategy, HIST_MIN_NODE_ROWS};
use crate::dataset::Dataset;
use crate::split::{
    best_split_on_feature, best_split_on_feature_hist, best_split_on_feature_hist_direct, consider,
    Criterion, Gini, SplitCandidate, SplitScratch,
};
use hotspot_obs as obs;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Upper bound on histograms held alive across recursion (the
/// subtraction trick keeps the unvisited sibling's table until its
/// subtree is entered). Beyond the cap the sibling simply rebuilds by
/// scanning, trading a little time for bounded memory on pathological
/// splinter-shaped trees.
const MAX_PENDING_HISTS: usize = 32;

/// How many features to evaluate at each partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MaxFeatures {
    /// All features.
    All,
    /// `⌈√d⌉` features (the forest default, Breiman 2001).
    Sqrt,
    /// A fixed fraction of `d` (the paper's standalone Tree uses 0.8).
    Fraction(f64),
    /// An explicit count (clamped to `d`).
    Count(usize),
}

impl MaxFeatures {
    /// Resolve to a concrete count for `d` features (at least 1).
    pub fn resolve(self, d: usize) -> usize {
        let k = match self {
            MaxFeatures::All => d,
            MaxFeatures::Sqrt => (d as f64).sqrt().ceil() as usize,
            MaxFeatures::Fraction(f) => (d as f64 * f).ceil() as usize,
            MaxFeatures::Count(c) => c,
        };
        k.clamp(1, d.max(1))
    }
}

/// Decision-tree hyper-parameters.
#[derive(Debug, Clone)]
pub struct TreeParams {
    /// Features evaluated per partition.
    pub max_features: MaxFeatures,
    /// Stop partitioning a node holding less than this fraction of the
    /// total sample weight.
    pub min_weight_fraction: f64,
    /// Optional hard depth cap.
    pub max_depth: Option<usize>,
    /// RNG seed for feature subsampling.
    pub seed: u64,
    /// Split-search engine: histogram by default, exact as the
    /// reference CART scan. Tiny nodes always fall back to exact.
    pub split: SplitStrategy,
}

impl TreeParams {
    /// The paper's standalone Tree model: 80% of features per split,
    /// 2% weight stop.
    pub fn paper_tree() -> Self {
        TreeParams {
            max_features: MaxFeatures::Fraction(0.8),
            min_weight_fraction: 0.02,
            max_depth: None,
            seed: 0,
            split: SplitStrategy::default(),
        }
    }

    /// The paper's forest member: √d features per split, 0.02% weight
    /// stop ("much deeper trees").
    pub fn paper_forest_member() -> Self {
        TreeParams {
            max_features: MaxFeatures::Sqrt,
            min_weight_fraction: 0.0002,
            max_depth: None,
            seed: 0,
            split: SplitStrategy::default(),
        }
    }
}

impl Default for TreeParams {
    fn default() -> Self {
        Self::paper_tree()
    }
}

/// A fitted tree node. A leaf holds the criterion's leaf value: the
/// positive-class probability for CART, a Newton step for a boosting
/// round.
#[derive(Debug, Clone)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted CART classifier.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    importances: Vec<f64>,
    n_features: usize,
    params: TreeParams,
}

impl DecisionTree {
    /// Fit a tree on the dataset (weights are used as-is; call
    /// [`Dataset::balance_weights`] first for the paper's setup),
    /// binning its features under [`SplitStrategy::bins_for`] first.
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn fit(data: &Dataset, params: &TreeParams) -> Self {
        let binned = BinnedDataset::for_fit(data, params.split);
        Self::fit_binned(data, binned.as_ref(), params)
    }

    /// Fit a tree on every row of `data` over a prebuilt binned view
    /// (`None`: exact search), e.g. one put together from shared
    /// columns. Histogram search is used exactly when `binned` is
    /// provided.
    ///
    /// # Panics
    /// Panics on an empty dataset or a `binned` view whose shape does
    /// not match `data`.
    pub fn fit_binned(data: &Dataset, binned: Option<&BinnedDataset>, params: &TreeParams) -> Self {
        let _span = obs::span!("tree.fit");
        assert!(data.n_samples() > 0, "cannot fit on an empty dataset");
        let root: Vec<usize> = (0..data.n_samples()).collect();
        Self::fit_with_shared(data, binned, root, params)
    }

    /// Fit a tree on a row-index multiset of `data` (e.g. a bootstrap
    /// resample: indices in draw order, duplicates allowed), reusing a
    /// pre-built [`BinnedDataset`] when histogram search is wanted.
    /// Histogram search is used exactly when `binned` is provided; the
    /// caller decides per its [`SplitStrategy`].
    ///
    /// The minimum-weight stop is taken relative to the multiset's
    /// total weight, matching a materialised resample.
    ///
    /// # Panics
    /// Panics on an empty root multiset or a `binned` view whose shape
    /// does not match `data`.
    pub fn fit_with_shared(
        data: &Dataset,
        binned: Option<&BinnedDataset>,
        root: Vec<usize>,
        params: &TreeParams,
    ) -> Self {
        let min_weight = params.min_weight_fraction * data.subset_weight(&root);
        let criterion = Gini::new(data, min_weight);
        let mut rng = StdRng::seed_from_u64(params.seed);
        grow(data, binned, root, params, &criterion, &mut rng)
    }

    /// Follow `row` to its leaf and return the leaf's value.
    pub(crate) fn leaf_value(&self, row: &[f64]) -> f64 {
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Leaf { value } => return *value,
                Node::Split { feature, threshold, left, right } => {
                    at = if row[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Predict the positive-class probability for one feature row.
    ///
    /// # Panics
    /// Panics if the row length differs from the training feature count.
    pub fn predict_proba(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len(), self.n_features, "feature count mismatch");
        self.leaf_value(row)
    }

    /// Normalised impurity-decrease feature importances (sum to 1 when
    /// the tree has at least one split, all zeros otherwise).
    pub fn feature_importances(&self) -> &[f64] {
        &self.importances
    }

    /// Number of nodes (splits + leaves).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, Node::Leaf { .. })).count()
    }

    /// Maximum depth of the fitted tree (a single leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[Node], at: usize) -> usize {
            match &nodes[at] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + rec(nodes, *left).max(rec(nodes, *right)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            rec(&self.nodes, 0)
        }
    }

    /// The `(feature, threshold)` of the root split, if the tree has
    /// one — the paper inspects first splits in Sec. V-B.
    pub fn root_split(&self) -> Option<(usize, f64)> {
        self.split_at(0).map(|(f, t, _, _)| (f, t))
    }

    /// The split at node index `node`, as `(feature, threshold, left,
    /// right)`; `None` for leaves or out-of-range indices.
    pub fn split_at(&self, node: usize) -> Option<(usize, f64, usize, usize)> {
        match self.nodes.get(node) {
            Some(Node::Split { feature, threshold, left, right }) => {
                Some((*feature, *threshold, *left, *right))
            }
            _ => None,
        }
    }

    /// The probability stored at a leaf node (0.5 for out-of-range or
    /// split nodes; use [`DecisionTree::split_at`] to distinguish).
    pub fn leaf_proba_at(&self, node: usize) -> f64 {
        match self.nodes.get(node) {
            Some(Node::Leaf { value }) => *value,
            _ => 0.5,
        }
    }

    /// Feature count the tree was trained with.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The hyper-parameters the tree was fitted with.
    pub fn params(&self) -> &TreeParams {
        &self.params
    }
}

/// Grow one tree on the row multiset `root` toward `criterion`:
/// the crate's one tree grower, shared by CART (through
/// [`DecisionTree::fit_with_shared`]) and every gradient-boosting
/// round. `params` supplies the per-node feature sample and the depth
/// cap; feature subsampling draws from `rng`.
///
/// # Panics
/// Panics on an empty root multiset or a `binned` view whose shape
/// does not match `data`.
pub(crate) fn grow<C: Criterion>(
    data: &Dataset,
    binned: Option<&BinnedDataset>,
    root: Vec<usize>,
    params: &TreeParams,
    criterion: &C,
    rng: &mut StdRng,
) -> DecisionTree {
    assert!(!root.is_empty(), "cannot fit on an empty root multiset");
    if let Some(b) = binned {
        assert_eq!(b.n_rows(), data.n_samples(), "binned view row mismatch");
        assert_eq!(b.n_features(), data.n_features(), "binned view feature mismatch");
    }
    // Full-table accumulation (the prerequisite for the
    // parent-minus-sibling subtraction trick) pays off only when most
    // features get scanned anyway. Under narrow per-node sampling
    // (k ≪ d, e.g. the forest's √d) the per-feature direct path does
    // strictly less work: k·n accumulation instead of d·n plus
    // table-sized zeroing and subtraction.
    let k = params.max_features.resolve(data.n_features());
    let mut builder = TreeBuilder {
        data,
        binned,
        criterion,
        max_depth: params.max_depth,
        k,
        use_subtraction: 2 * k >= data.n_features(),
        rng,
        scratch: SplitScratch::default(),
        feature_pool: (0..data.n_features()).collect(),
        node_a: Vec::new(),
        node_b: Vec::new(),
        pool: HistPool::new(),
        pending: 0,
        nodes: Vec::new(),
        importances: vec![0.0; data.n_features()],
    };
    builder.build_node(root, 0, None);
    obs::counter("trees.split_evaluations").add(builder.scratch.n_evaluations);
    let mut importances = builder.importances;
    // Normalise importances to sum to 1 (when any split happened).
    let total: f64 = importances.iter().sum();
    if total > 0.0 {
        for v in &mut importances {
            *v /= total;
        }
    }
    DecisionTree {
        nodes: builder.nodes,
        importances,
        n_features: data.n_features(),
        params: params.clone(),
    }
}

/// Recursive fitting state: the dataset views, criterion, RNG,
/// scratch buffers, histogram pool, and the accumulating
/// node/importance arrays.
struct TreeBuilder<'a, C> {
    data: &'a Dataset,
    binned: Option<&'a BinnedDataset>,
    criterion: &'a C,
    max_depth: Option<usize>,
    /// Features evaluated per node.
    k: usize,
    /// Build full-feature tables and derive sibling histograms by
    /// subtraction (wide sampling); false = per-feature direct
    /// accumulation (narrow sampling).
    use_subtraction: bool,
    rng: &'a mut StdRng,
    scratch: SplitScratch,
    /// One feature pool per tree, shuffled in place at every node
    /// that searches for a split.
    feature_pool: Vec<usize>,
    /// Node-aligned gathers of the criterion's accumulands, refilled
    /// per node: their sums are the node's statistics, and the direct
    /// histogram path's `k` per-feature passes read them sequentially.
    node_a: Vec<f64>,
    node_b: Vec<f64>,
    pool: HistPool,
    /// Histograms currently held for unvisited siblings.
    pending: usize,
    nodes: Vec<Node>,
    importances: Vec<f64>,
}

impl<C: Criterion> TreeBuilder<'_, C> {
    /// Construct the subtree over `indices`; returns its root index.
    /// `hist` optionally carries this node's pre-computed histogram
    /// (from the parent's subtraction); it is consumed either way.
    fn build_node(
        &mut self,
        indices: Vec<usize>,
        depth: usize,
        hist: Option<NodeHistogram>,
    ) -> usize {
        // Node sums in row order: for Gini the same index order and
        // association as `weighted_positive_fraction`/`subset_weight`
        // (adding a negative row's 0.0 pos-weight is a bit-exact no-op
        // for non-negative weights).
        let criterion = self.criterion;
        let (a, b) = criterion.accumulands();
        self.node_a.clear();
        self.node_a.extend(indices.iter().map(|&i| a[i]));
        self.node_b.clear();
        self.node_b.extend(indices.iter().map(|&i| b[i]));
        let sums = (self.node_a.iter().sum(), self.node_b.iter().sum());
        let (value, parent) = criterion.node(sums);

        let depth_ok = self.max_depth.is_none_or(|d| depth < d);
        if !depth_ok || criterion.stop(indices.len(), sums, parent) {
            if let Some(h) = hist {
                self.pool.release(h);
            }
            return self.push(Node::Leaf { value });
        }

        // Random feature subset for this partition. The shuffle runs on
        // every non-stopped node in both modes, so exact and histogram
        // fits consume the RNG identically — the backbone of the
        // parity guarantee (DESIGN.md §9).
        self.feature_pool.shuffle(self.rng);

        // Tiny nodes (and exact mode) sort: that is cheaper than
        // touching a bins × features table. Wide sampling searches the
        // node's full table (handed down, or accumulated here); narrow
        // sampling accumulates each evaluated feature's bins directly
        // — identical bin contents, so identical candidates — and
        // holds no table for the children.
        let binned = self.binned.filter(|_| indices.len() >= HIST_MIN_NODE_ROWS);
        let node_hist = match (binned, hist) {
            (Some(bd), hist) if self.use_subtraction => Some(hist.unwrap_or_else(|| {
                let mut h = self.pool.acquire(bd);
                h.accumulate(bd, &indices, a, b);
                h
            })),
            (_, hist) => {
                if let Some(h) = hist {
                    self.pool.release(h);
                }
                None
            }
        };
        let mut best: Option<SplitCandidate> = None;
        for &f in self.feature_pool.iter().take(self.k) {
            let scratch = &mut self.scratch;
            let found = match (binned, &node_hist) {
                (Some(bd), Some(h)) => {
                    best_split_on_feature_hist(criterion, bd, h, f, parent, scratch)
                }
                (Some(bd), None) => best_split_on_feature_hist_direct(
                    criterion,
                    bd,
                    &indices,
                    &self.node_a,
                    &self.node_b,
                    f,
                    parent,
                    scratch,
                ),
                (None, _) => {
                    best_split_on_feature(criterion, self.data, &indices, f, parent, scratch)
                }
            };
            if let Some(c) = found {
                consider(&mut best, c);
            }
        }

        let Some(split) = best else {
            if let Some(h) = node_hist {
                self.pool.release(h);
            }
            return self.push(Node::Leaf { value });
        };

        // A child falling below the weight floor would immediately
        // become a leaf anyway; keep the split (scikit-learn's
        // min_weight_fraction_leaf differs slightly — it constrains
        // leaves — but the practical effect on depth is the same).
        self.importances[split.feature] += split.decrease;

        // Histogram thresholds are bin cuts, so in-bag rows can route
        // on their narrow bin codes instead of strided f64 feature
        // reads; exact(-fallback) midpoint thresholds use the features.
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = match binned {
            Some(bd) => {
                let bin = bd.cut_index(split.feature, split.threshold);
                debug_assert_eq!(bd.cut(split.feature, bin), split.threshold);
                bd.partition_leq(split.feature, bin, indices)
            }
            None => indices
                .into_iter()
                .partition(|&i| self.data.feature(i, split.feature) <= split.threshold),
        };
        debug_assert!(!left_idx.is_empty() && !right_idx.is_empty());

        // Subtraction trick: scan only the smaller child; the larger
        // child's histogram is parent − smaller, reusing the parent's
        // buffer. Children that would stop immediately (too few rows,
        // at the depth cap, or ruled out by the criterion) get no
        // histogram.
        let mut left_hist: Option<NodeHistogram> = None;
        let mut right_hist: Option<NodeHistogram> = None;
        if let Some(mut parent_hist) = node_hist {
            let child_depth_ok = self.max_depth.is_none_or(|d| depth + 1 < d);
            let eligible = |rows: usize, weight: f64| {
                child_depth_ok
                    && rows >= HIST_MIN_NODE_ROWS
                    && criterion.keeps_histogram(rows, weight)
            };
            let left_small = left_idx.len() <= right_idx.len();
            let (small, small_w, large, large_w) = if left_small {
                (&left_idx, split.left_weight, &right_idx, split.right_weight)
            } else {
                (&right_idx, split.right_weight, &left_idx, split.left_weight)
            };
            if eligible(large.len(), large_w) && self.pending < MAX_PENDING_HISTS {
                let bd = self.binned.expect("hist implies binned");
                let mut small_hist = self.pool.acquire(bd);
                small_hist.accumulate(bd, small, a, b);
                parent_hist.subtract(&small_hist); // now the large child's table
                let small_hist = if eligible(small.len(), small_w) {
                    Some(small_hist)
                } else {
                    self.pool.release(small_hist);
                    None
                };
                if left_small {
                    left_hist = small_hist;
                    right_hist = Some(parent_hist);
                } else {
                    left_hist = Some(parent_hist);
                    right_hist = small_hist;
                }
            } else {
                self.pool.release(parent_hist);
            }
        }

        let node = self.push(Node::Leaf { value }); // placeholder, patched below
        let holding = right_hist.is_some();
        if holding {
            self.pending += 1;
        }
        let left = self.build_node(left_idx, depth + 1, left_hist);
        if holding {
            self.pending -= 1;
        }
        let right = self.build_node(right_idx, depth + 1, right_hist);
        self.nodes[node] =
            Node::Split { feature: split.feature, threshold: split.threshold, left, right };
        node
    }

    fn push(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_like() -> Dataset {
        // Two informative features, noise-free diagonal blocks.
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for a in 0..10 {
            for b in 0..10 {
                features.push(a as f64);
                features.push(b as f64);
                labels.push((a < 5) ^ (b < 5));
            }
        }
        Dataset::new(features, 2, labels).unwrap()
    }

    #[test]
    fn fits_xor_with_depth_two_plus() {
        let d = xor_like();
        let params = TreeParams {
            max_features: MaxFeatures::All,
            min_weight_fraction: 0.0,
            max_depth: None,
            seed: 1,
            split: SplitStrategy::default(),
        };
        let t = DecisionTree::fit(&d, &params);
        // Perfect training accuracy on a noiseless problem.
        for i in 0..d.n_samples() {
            let p = t.predict_proba(d.row(i));
            assert_eq!(p >= 0.5, d.label(i), "sample {i} p={p}");
        }
        assert!(t.depth() >= 2);
        // Both features matter for XOR.
        let imp = t.feature_importances();
        assert!(imp[0] > 0.1 && imp[1] > 0.1, "{imp:?}");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_class_gives_stump() {
        let d = Dataset::new(vec![1.0, 2.0, 3.0], 1, vec![true, true, true]).unwrap();
        let t = DecisionTree::fit(&d, &TreeParams::default());
        assert_eq!(t.n_nodes(), 1);
        assert_eq!(t.depth(), 0);
        assert_eq!(t.predict_proba(&[9.0]), 1.0);
        assert!(t.root_split().is_none());
    }

    #[test]
    fn min_weight_fraction_limits_growth() {
        let d = xor_like();
        let shallow = DecisionTree::fit(
            &d,
            &TreeParams {
                max_features: MaxFeatures::All,
                min_weight_fraction: 0.6,
                max_depth: None,
                seed: 1,
                split: SplitStrategy::default(),
            },
        );
        let deep = DecisionTree::fit(
            &d,
            &TreeParams {
                max_features: MaxFeatures::All,
                min_weight_fraction: 0.0,
                max_depth: None,
                seed: 1,
                split: SplitStrategy::default(),
            },
        );
        assert!(shallow.n_nodes() < deep.n_nodes());
    }

    #[test]
    fn max_depth_is_respected() {
        let d = xor_like();
        let t = DecisionTree::fit(
            &d,
            &TreeParams {
                max_features: MaxFeatures::All,
                min_weight_fraction: 0.0,
                max_depth: Some(1),
                seed: 3,
                split: SplitStrategy::default(),
            },
        );
        assert!(t.depth() <= 1);
    }

    #[test]
    fn deterministic_under_seed() {
        let d = xor_like();
        let p = TreeParams { seed: 42, ..TreeParams::paper_forest_member() };
        let a = DecisionTree::fit(&d, &p);
        let b = DecisionTree::fit(&d, &p);
        assert_eq!(a.n_nodes(), b.n_nodes());
        for i in 0..d.n_samples() {
            assert_eq!(a.predict_proba(d.row(i)), b.predict_proba(d.row(i)));
        }
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let d = xor_like();
        let t = DecisionTree::fit(&d, &TreeParams::paper_tree());
        for i in 0..d.n_samples() {
            let p = t.predict_proba(d.row(i));
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn max_features_resolution() {
        assert_eq!(MaxFeatures::All.resolve(10), 10);
        assert_eq!(MaxFeatures::Sqrt.resolve(100), 10);
        assert_eq!(MaxFeatures::Sqrt.resolve(10), 4); // ceil(3.16)
        assert_eq!(MaxFeatures::Fraction(0.8).resolve(10), 8);
        assert_eq!(MaxFeatures::Count(3).resolve(10), 3);
        assert_eq!(MaxFeatures::Count(99).resolve(10), 10);
        assert_eq!(MaxFeatures::Fraction(0.0).resolve(10), 1);
    }

    #[test]
    fn balanced_weights_recover_minority() {
        // 95 negatives at x<0, 5 positives at x>0: with balanced
        // weights the positive side must predict > 0.5.
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..95 {
            features.push(-1.0 - i as f64 * 0.01);
            labels.push(false);
        }
        for i in 0..5 {
            features.push(1.0 + i as f64 * 0.01);
            labels.push(true);
        }
        let mut d = Dataset::new(features, 1, labels).unwrap();
        d.balance_weights();
        let t = DecisionTree::fit(&d, &TreeParams::paper_tree());
        assert!(t.predict_proba(&[2.0]) > 0.5);
        assert!(t.predict_proba(&[-2.0]) < 0.5);
    }
}
