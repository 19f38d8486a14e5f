//! Histogram split-finding substrate: pre-binned features and
//! per-node bin histograms (LightGBM-style).
//!
//! Exact split search re-sorts a node's rows for every candidate
//! feature — `O(n log n · k)` per node. Binning replaces the sort with
//! an `O(n · d)` histogram accumulation over precomputed bin codes:
//!
//! * a [`BinnedDataset`] is the view one fit searches (shared
//!   read-only by every tree of a forest): per-feature quantile bin
//!   edges plus `u8`/`u16` bin codes, one [`BinnedColumn`] per feature
//!   so the per-feature accumulation loop scans contiguous memory.
//!   Columns are quantised by a sort-once kernel
//!   ([`BinnedColumn::quantise`]: tiled transpose, one packed-`u64`
//!   sort per column, then cuts and codes from linear walks of the
//!   sorted column), which often costs more than growing the forest.
//!   A column depends only on its values in row order, so views share
//!   columns through `Arc`s: a fit may be handed a view put together
//!   from columns quantised for other fits' training sets (as the
//!   sweep's column store does) and quantise only the rest;
//! * a [`NodeHistogram`] accumulates a `(bin × {a, b})` pair table for
//!   one node — `(weight, positive_weight)` for classification trees,
//!   `(gradient, hessian)` for GBDT — and split search walks bins
//!   instead of rows;
//! * the parent-minus-sibling subtraction trick derives the larger
//!   child's histogram as `parent − smaller`, so only the smaller
//!   child ever scans its rows.
//!
//! When every feature has fewer distinct values than `max_bins` each
//! distinct value gets its own bin and the histogram search considers
//! exactly the candidate cuts exact search does, with the same Gini
//! arithmetic — the basis of the exact-vs-histogram parity guarantees
//! (see DESIGN.md §9).

use crate::dataset::Dataset;
use hotspot_obs as obs;
use std::sync::Arc;

/// How a tree searches for split points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SplitStrategy {
    /// Sort the node's rows per candidate feature (the original CART
    /// formulation; reference semantics).
    Exact,
    /// Pre-bin features once per fit and accumulate per-node
    /// histograms; `max_bins` caps the bins per feature.
    Histogram {
        /// Upper bound on bins per feature (≥ 2).
        max_bins: u16,
    },
}

impl SplitStrategy {
    /// The default histogram resolution.
    pub const DEFAULT_MAX_BINS: u16 = 255;

    /// The default strategy: histograms at 255 bins.
    pub fn histogram() -> Self {
        SplitStrategy::Histogram { max_bins: Self::DEFAULT_MAX_BINS }
    }

    /// The one "bin for this fit?" rule: the bin cap a fit on `n_rows`
    /// rows quantises its features with, or `None` when it searches
    /// exactly — under [`SplitStrategy::Exact`], and when even the root
    /// is too small for a histogram ([`HIST_MIN_NODE_ROWS`]).
    pub fn bins_for(self, n_rows: usize) -> Option<u16> {
        match self {
            SplitStrategy::Histogram { max_bins } if n_rows >= HIST_MIN_NODE_ROWS => Some(max_bins),
            _ => None,
        }
    }
}

impl Default for SplitStrategy {
    fn default() -> Self {
        Self::histogram()
    }
}

/// Nodes smaller than this fall back to exact search: sorting a
/// handful of rows is cheaper than touching a `d × max_bins` table,
/// and the fallback also bounds how many histograms a deep recursion
/// can hold alive.
pub const HIST_MIN_NODE_ROWS: usize = 32;

/// One column's bin codes: `u8` when the column has at most 256 bins
/// (the default `max_bins = 255` always does), `u16` otherwise.
#[derive(Debug, Clone)]
enum Codes {
    U8(Vec<u8>),
    U16(Vec<u16>),
}

/// One quantised feature column: the cuts between its bins and every
/// row's bin code.
///
/// A column is a function of its values in row order and `max_bins`
/// alone, so one column serves every dataset that holds those values
/// in that order; [`BinnedDataset`]s share columns through `Arc`s.
#[derive(Debug, Clone)]
pub struct BinnedColumn {
    /// The raw-value cut between bin `j` and `j + 1` (length
    /// `n_bins - 1`). Cuts are midpoints between adjacent represented
    /// values, so `value <= cuts[j]` ⇔ `code <= j`.
    cuts: Vec<f64>,
    codes: Codes,
}

impl BinnedColumn {
    /// Bins in this column.
    pub fn n_bins(&self) -> usize {
        self.cuts.len() + 1
    }

    /// Rows the codes cover.
    pub fn n_rows(&self) -> usize {
        match &self.codes {
            Codes::U8(v) => v.len(),
            Codes::U16(v) => v.len(),
        }
    }

    /// Heap bytes held by the cuts and codes.
    pub fn bytes(&self) -> usize {
        let codes = match &self.codes {
            Codes::U8(v) => v.len(),
            Codes::U16(v) => 2 * v.len(),
        };
        codes + std::mem::size_of_val(self.cuts.as_slice())
    }

    /// Quantise the listed `features` of `data` into at most `max_bins`
    /// quantile bins each (`max_bins` is clamped to ≥ 2), one column
    /// per listed feature, in list order.
    ///
    /// This is the sort-once kernel. Cost: one `O(n · k)` tiled
    /// transpose of the `k` listed features, then per feature one
    /// primitive `u64` sort of packed `(value key, row)` words
    /// (`O(n log n)`), and two linear passes over the sorted column —
    /// one for the cuts, one assigning every row its code. The output
    /// is a function of each column's values only, so it is the same
    /// whatever order equal values sort in (DESIGN.md §9). Adds the
    /// columns it quantised to the `bins.columns_quantised` counter.
    pub fn quantise(data: &Dataset, max_bins: u16, features: &[usize]) -> Vec<Arc<Self>> {
        let n = data.n_samples();
        let max_bins = usize::from(max_bins.max(2));
        // Low bits of a packed sort word hold the row index.
        let row_bits = usize::BITS - n.saturating_sub(1).leading_zeros();
        let row_mask = (1u64 << row_bits) - 1;
        let mut columns = Vec::with_capacity(features.len());
        let mut tile: Vec<u64> = Vec::with_capacity(n * TILE_FEATURES.min(features.len()));
        let mut order: Vec<u64> = Vec::with_capacity(n);
        let mut sorted: Vec<f64> = Vec::with_capacity(n);
        for block in features.chunks(TILE_FEATURES) {
            // Transpose a block of features into contiguous key columns.
            tile.clear();
            tile.resize(n * block.len(), 0);
            for i in 0..n {
                let row = data.row(i);
                for (b, &f) in block.iter().enumerate() {
                    tile[b * n + i] = order_key(row[f]);
                }
            }
            for b in 0..block.len() {
                let keys = &tile[b * n..(b + 1) * n];
                sort_rows(keys, row_mask, &mut order);
                sorted.clear();
                sorted.extend(order.iter().map(|&row| from_order_key(keys[row as usize])));
                let cuts = feature_cuts(&sorted, max_bins);
                let codes = if cuts.len() <= usize::from(u8::MAX) {
                    Codes::U8(assign_codes(&order, &sorted, &cuts, |c| c as u8))
                } else {
                    Codes::U16(assign_codes(&order, &sorted, &cuts, |c| c as u16))
                };
                columns.push(Arc::new(BinnedColumn { cuts, codes }));
            }
        }
        obs::counter("bins.columns_quantised").add(features.len() as u64);
        columns
    }

    #[inline]
    fn code(&self, row: usize) -> usize {
        match &self.codes {
            Codes::U8(v) => usize::from(v[row]),
            Codes::U16(v) => usize::from(v[row]),
        }
    }
}

/// Quantile-binned view of a [`Dataset`]'s features, shared read-only
/// across all trees of a forest (and all rounds of a booster).
///
/// Labels and weights stay on the `Dataset`; the binned view carries
/// only feature structure, so one instance serves every bootstrap
/// resample (resamples are row-index multisets into the same rows).
/// Its columns are shared [`BinnedColumn`]s, so a view can be put
/// together from columns quantised for other datasets.
#[derive(Debug, Clone)]
pub struct BinnedDataset {
    n_rows: usize,
    /// `offsets[f]..offsets[f + 1]` is feature `f`'s bin range in any
    /// histogram laid out against this dataset.
    offsets: Vec<usize>,
    columns: Vec<Arc<BinnedColumn>>,
}

impl BinnedDataset {
    /// The view a fit with `split` on `data` searches with: every
    /// feature quantised under [`SplitStrategy::bins_for`], or `None`
    /// when the fit searches exactly.
    pub fn for_fit(data: &Dataset, split: SplitStrategy) -> Option<Self> {
        split.bins_for(data.n_samples()).map(|max_bins| Self::build(data, max_bins))
    }

    /// Bin every feature of `data` into at most `max_bins` quantile
    /// bins (`max_bins` is clamped to ≥ 2) with the
    /// [`BinnedColumn::quantise`] kernel.
    pub fn build(data: &Dataset, max_bins: u16) -> Self {
        let _span = obs::span!("trees.bin");
        let all: Vec<usize> = (0..data.n_features()).collect();
        Self::from_columns(data.n_samples(), BinnedColumn::quantise(data, max_bins, &all))
    }

    /// A view over already-quantised columns, feature `f` being
    /// `columns[f]`. Adds the view's bins to the `trees.bins_built`
    /// counter, which therefore counts the bins of every view a fit
    /// searches, however its columns were obtained.
    ///
    /// # Panics
    /// Panics when a column does not cover exactly `n_rows` rows.
    pub fn from_columns(n_rows: usize, columns: Vec<Arc<BinnedColumn>>) -> Self {
        let mut offsets = Vec::with_capacity(columns.len() + 1);
        offsets.push(0);
        for column in &columns {
            assert_eq!(column.n_rows(), n_rows, "binned column row mismatch");
            offsets.push(offsets[offsets.len() - 1] + column.n_bins());
        }
        let binned = BinnedDataset { n_rows, offsets, columns };
        obs::counter("trees.bins_built").add(binned.total_bins() as u64);
        binned
    }

    /// Number of rows the codes cover.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of binned features.
    pub fn n_features(&self) -> usize {
        self.columns.len()
    }

    /// Bins allocated to feature `f`.
    pub fn n_bins(&self, f: usize) -> usize {
        self.offsets[f + 1] - self.offsets[f]
    }

    /// Total bins across all features — the histogram table length.
    pub fn total_bins(&self) -> usize {
        *self.offsets.last().expect("offsets non-empty")
    }

    /// The raw-value cut separating feature `f`'s bin `j` from `j + 1`.
    pub fn cut(&self, f: usize, j: usize) -> f64 {
        self.columns[f].cuts[j]
    }

    /// Bin code of `(row, feature)`.
    #[inline]
    pub fn code(&self, row: usize, f: usize) -> usize {
        self.columns[f].code(row)
    }

    /// The index `j` such that `cut(f, j) == threshold`, for a
    /// threshold produced by a histogram split on this view.
    pub fn cut_index(&self, f: usize, threshold: f64) -> usize {
        self.columns[f].cuts.partition_point(|&c| c < threshold)
    }

    /// Partition a node's rows on `code(·, f) <= bin` — equivalent to
    /// `value <= cut(f, bin)` by construction, but reading one narrow
    /// code per row instead of a strided `f64` from the feature matrix.
    pub fn partition_leq(
        &self,
        f: usize,
        bin: usize,
        indices: Vec<usize>,
    ) -> (Vec<usize>, Vec<usize>) {
        match &self.columns[f].codes {
            Codes::U8(col) => indices.into_iter().partition(|&i| usize::from(col[i]) <= bin),
            Codes::U16(col) => indices.into_iter().partition(|&i| usize::from(col[i]) <= bin),
        }
    }

    /// Accumulate one feature's bins over a node's rows into `bins`
    /// (length `n_bins(f)`): the narrow-sampling counterpart of
    /// [`NodeHistogram::accumulate`] — when a node evaluates only
    /// `k ≪ d` features, filling a per-feature scratch is far cheaper
    /// than building (and later subtracting) the full `d`-feature
    /// table.
    ///
    /// `a` and `b` are *node-aligned*: `a[j]` pairs with `indices[j]`
    /// (the caller gathers them once per node, so the `k` per-feature
    /// passes read weights sequentially instead of re-scattering).
    pub fn accumulate_feature(
        &self,
        f: usize,
        indices: &[usize],
        a: &[f64],
        b: &[f64],
        bins: &mut [(f64, f64)],
    ) {
        debug_assert_eq!(indices.len(), a.len());
        debug_assert_eq!(indices.len(), b.len());
        match &self.columns[f].codes {
            Codes::U8(col) => {
                for (j, &i) in indices.iter().enumerate() {
                    let cell = &mut bins[col[i] as usize];
                    cell.0 += a[j];
                    cell.1 += b[j];
                }
            }
            Codes::U16(col) => {
                for (j, &i) in indices.iter().enumerate() {
                    let cell = &mut bins[col[i] as usize];
                    cell.0 += a[j];
                    cell.1 += b[j];
                }
            }
        }
    }
}

/// Features per transpose tile: each row read is a run of 64
/// contiguous `f64`s (whole cache lines), and the tile's key columns
/// are sorted soon after they are written, while still cached.
const TILE_FEATURES: usize = 64;

/// An order-preserving `u64` image of a finite `f64`: `a < b` ⇔
/// `order_key(a) < order_key(b)`, except that `-0.0` sorts just below
/// `0.0`. Negative values flip every bit; the rest set the sign bit.
#[inline]
fn order_key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Inverse of [`order_key`].
#[inline]
fn from_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 { key & !(1 << 63) } else { !key })
}

/// Fill `order` with one column's row indices in ascending value
/// order. One primitive sort orders packed words `(key & !row_mask) |
/// row`; rows whose keys agree above `row_mask` are then re-sorted by
/// their full key, so the order is exact and the worst case stays
/// `O(n log n)`.
fn sort_rows(keys: &[u64], row_mask: u64, order: &mut Vec<u64>) {
    order.clear();
    order.extend(keys.iter().zip(0u64..).map(|(&k, row)| (k & !row_mask) | row));
    order.sort_unstable();
    let full_key = |p: &u64| keys[(p & row_mask) as usize];
    for run in order.chunk_by_mut(|a, b| (a ^ b) & !row_mask == 0) {
        if run.len() > 1 && !run.is_sorted_by_key(full_key) {
            run.sort_unstable_by_key(full_key);
        }
    }
    for p in order.iter_mut() {
        *p &= row_mask;
    }
}

/// Every row's bin code, from one walk of the sorted column: the code
/// is the number of cuts below the value, i.e.
/// `cuts.partition_point(|&c| c < v)` (the cuts ascend, so the count
/// only grows along the walk).
fn assign_codes<C: Copy + Default>(
    rows: &[u64],
    sorted: &[f64],
    cuts: &[f64],
    code: impl Fn(usize) -> C,
) -> Vec<C> {
    let mut out = vec![C::default(); rows.len()];
    let mut bin = 0;
    for (&row, &v) in rows.iter().zip(sorted) {
        while bin < cuts.len() && cuts[bin] < v {
            bin += 1;
        }
        out[row as usize] = code(bin);
    }
    out
}

/// Cut points for one sorted feature column: one bin per distinct
/// value when they fit in `max_bins`, greedy equal-count quantile
/// grouping otherwise. Cuts are midpoints between adjacent
/// *represented* values, so assigning rows by `partition_point` over
/// the cuts reproduces exact search's `value <= threshold` routing.
fn feature_cuts(sorted: &[f64], max_bins: usize) -> Vec<f64> {
    let distinct = 1 + sorted.windows(2).filter(|w| w[0] != w[1]).count();
    if distinct <= 1 {
        return Vec::new();
    }
    // Greedy quantile grouping when the distinct values do not fit:
    // close a bin whenever the count of values below the boundary
    // reaches the next equal-count mark. At most one cut per distinct
    // value keeps every bin non-empty.
    let grouped = distinct > max_bins;
    let per_bin = sorted.len() as f64 / max_bins as f64;
    let mut cuts = Vec::with_capacity(distinct.min(max_bins) - 1);
    for (j, w) in sorted.windows(2).enumerate() {
        if w[0] == w[1] {
            continue;
        }
        if cuts.len() + 1 >= max_bins {
            break;
        }
        if !grouped || (j + 1) as f64 >= per_bin * (cuts.len() + 1) as f64 {
            cuts.push(0.5 * (w[0] + w[1]));
        }
    }
    cuts
}

/// A `(bin × pair)` accumulation table for one node, laid out against
/// a [`BinnedDataset`]'s offsets. The pair is `(weight,
/// positive_weight)` for classification and `(gradient, hessian)` for
/// GBDT — the container is agnostic.
#[derive(Debug, Clone)]
pub struct NodeHistogram {
    bins: Vec<(f64, f64)>,
}

impl NodeHistogram {
    /// A zeroed table sized for `binned`.
    pub fn zeroed(binned: &BinnedDataset) -> Self {
        NodeHistogram { bins: vec![(0.0, 0.0); binned.total_bins()] }
    }

    /// Reset to zero (for pooled reuse).
    pub fn reset(&mut self, binned: &BinnedDataset) {
        self.bins.clear();
        self.bins.resize(binned.total_bins(), (0.0, 0.0));
    }

    /// Accumulate the node's rows: for every feature, add `(a[i],
    /// b[i])` into the row's bin. `O(indices.len() · d)`, no sorting.
    pub fn accumulate(&mut self, binned: &BinnedDataset, indices: &[usize], a: &[f64], b: &[f64]) {
        for (f, column) in binned.columns.iter().enumerate() {
            let bins = &mut self.bins[binned.offsets[f]..binned.offsets[f + 1]];
            match &column.codes {
                Codes::U8(col) => {
                    for &i in indices {
                        let cell = &mut bins[col[i] as usize];
                        cell.0 += a[i];
                        cell.1 += b[i];
                    }
                }
                Codes::U16(col) => {
                    for &i in indices {
                        let cell = &mut bins[col[i] as usize];
                        cell.0 += a[i];
                        cell.1 += b[i];
                    }
                }
            }
        }
    }

    /// Parent-minus-sibling subtraction: after this call `self`, which
    /// held the parent's table, holds the *other* child's.
    pub fn subtract(&mut self, sibling: &NodeHistogram) {
        debug_assert_eq!(self.bins.len(), sibling.bins.len());
        for (p, s) in self.bins.iter_mut().zip(&sibling.bins) {
            p.0 -= s.0;
            p.1 -= s.1;
        }
    }

    /// Feature `f`'s bin slice.
    #[inline]
    pub fn feature(&self, binned: &BinnedDataset, f: usize) -> &[(f64, f64)] {
        &self.bins[binned.offsets[f]..binned.offsets[f + 1]]
    }
}

/// A free-list of histogram tables so deep fits reuse buffers instead
/// of allocating one per node.
#[derive(Debug, Default)]
pub struct HistPool {
    free: Vec<NodeHistogram>,
}

impl HistPool {
    /// Fresh, empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// A zeroed histogram, recycled when possible.
    pub fn acquire(&mut self, binned: &BinnedDataset) -> NodeHistogram {
        match self.free.pop() {
            Some(mut h) => {
                h.reset(binned);
                h
            }
            None => NodeHistogram::zeroed(binned),
        }
    }

    /// Return a histogram to the free-list.
    pub fn release(&mut self, hist: NodeHistogram) {
        self.free.push(hist);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The oracle: the two-pass build the sort-once kernel replaced —
    /// a `partial_cmp` sort per strided column, a distinct-value list,
    /// then a binary search over the cuts per value.
    fn two_pass_build(data: &Dataset, max_bins: u16) -> BinnedDataset {
        let n = data.n_samples();
        let max_bins = max_bins.max(2) as usize;
        let mut columns = Vec::with_capacity(data.n_features());
        let mut column: Vec<f64> = Vec::with_capacity(n);
        for f in 0..data.n_features() {
            column.clear();
            column.extend((0..n).map(|i| data.feature(i, f)));
            column.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite features"));
            let cuts = two_pass_cuts(&column, max_bins);
            let code = |i: usize| cuts.partition_point(|&c| c < data.feature(i, f));
            let codes = if cuts.len() < 256 {
                Codes::U8((0..n).map(|i| code(i) as u8).collect())
            } else {
                Codes::U16((0..n).map(|i| code(i) as u16).collect())
            };
            columns.push(Arc::new(BinnedColumn { cuts, codes }));
        }
        BinnedDataset::from_columns(n, columns)
    }

    fn two_pass_cuts(sorted: &[f64], max_bins: usize) -> Vec<f64> {
        let mut distinct: Vec<(f64, usize)> = Vec::new();
        for &v in sorted {
            match distinct.last_mut() {
                Some((last, count)) if *last == v => *count += 1,
                _ => distinct.push((v, 1)),
            }
        }
        let m = distinct.len();
        if m <= 1 {
            return Vec::new();
        }
        if m <= max_bins {
            return distinct.windows(2).map(|w| 0.5 * (w[0].0 + w[1].0)).collect();
        }
        let per_bin = sorted.len() as f64 / max_bins as f64;
        let mut cuts = Vec::with_capacity(max_bins - 1);
        let mut cum = 0usize;
        for w in distinct.windows(2) {
            cum += w[0].1;
            if cuts.len() + 1 >= max_bins {
                break;
            }
            if cum as f64 >= per_bin * (cuts.len() + 1) as f64 {
                cuts.push(0.5 * (w[0].0 + w[1].0));
            }
        }
        cuts
    }

    /// One column of each adversarial kind, `n` rows, from `seed`.
    fn adversarial(n: usize, seed: u64) -> Dataset {
        const KINDS: usize = 7;
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let signed = [-0.0, 0.0, -1.5, -2.0, 1.0, -1e-300, 5e-324, -5e-324];
        let mut features = Vec::with_capacity(n * KINDS);
        for i in 0..n {
            let r = next();
            // A permutation of 0..n, so ULP-adjacent values arrive shuffled.
            let shuffled = (i as u64 * 7919 + seed % 13) % n as u64;
            features.extend([
                ((r >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 2e3,
                (r % 5) as f64 * 0.5 - 1.0,
                3.25,
                signed[(r % signed.len() as u64) as usize],
                f64::from_bits(1.0f64.to_bits() + shuffled),
                f64::from_bits((-3.0f64).to_bits() + (r % 64)),
                (r % 1000) as f64,
            ]);
        }
        Dataset::new(features, KINDS, vec![true; n]).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// The sort-once kernel reproduces the two-pass build bit for
        /// bit: offsets, cuts (`to_bits`), each column's code width and
        /// every code.
        #[test]
        fn kernel_matches_two_pass_oracle(seed in any::<u64>()) {
            for n in [1usize, 2, 255, 256, 257, 4097] {
                let data = adversarial(n, seed);
                for max_bins in [2u16, 16, 255, 256, 600] {
                    let got = BinnedDataset::build(&data, max_bins);
                    let want = two_pass_build(&data, max_bins);
                    prop_assert_eq!(&got.offsets, &want.offsets, "n={} max_bins={}", n, max_bins);
                    for f in 0..data.n_features() {
                        let bits = |b: &BinnedDataset| -> Vec<u64> {
                            b.columns[f].cuts.iter().map(|c| c.to_bits()).collect()
                        };
                        let at = format!("f={f} n={n} max_bins={max_bins}");
                        prop_assert_eq!(bits(&got), bits(&want), "cuts {}", at);
                        let codes = |b: &BinnedDataset| -> Vec<usize> {
                            (0..n).map(|i| b.code(i, f)).collect()
                        };
                        prop_assert_eq!(codes(&got), codes(&want), "codes {}", at);
                        let same_width = matches!(
                            (&got.columns[f].codes, &want.columns[f].codes),
                            (Codes::U8(_), Codes::U8(_)) | (Codes::U16(_), Codes::U16(_))
                        );
                        prop_assert!(same_width, "code width {}", at);
                    }
                }
            }
        }
    }

    #[test]
    fn order_key_preserves_order_and_round_trips() {
        let values = [f64::MIN, -2.5, -1e-300, -5e-324, -0.0, 0.0, 5e-324, 1e-300, 1.0, f64::MAX];
        for w in values.windows(2) {
            assert!(order_key(w[0]) < order_key(w[1]), "{} vs {}", w[0], w[1]);
        }
        for v in values {
            assert_eq!(from_order_key(order_key(v)).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn empty_dataset_bins_every_feature_once() {
        let b = BinnedDataset::build(&Dataset::new(Vec::new(), 3, Vec::new()).unwrap(), 255);
        assert_eq!(b.total_bins(), 3);
    }

    fn data(features: Vec<f64>, d: usize) -> Dataset {
        let n = features.len() / d;
        Dataset::new(features, d, vec![true; n]).unwrap()
    }

    #[test]
    fn default_strategy_is_histogram_255() {
        assert_eq!(SplitStrategy::default(), SplitStrategy::Histogram { max_bins: 255 });
    }

    #[test]
    fn distinct_values_get_one_bin_each() {
        let d = data(vec![3.0, 1.0, 2.0, 1.0, 3.0, 2.0], 1);
        let b = BinnedDataset::build(&d, 255);
        assert_eq!(b.n_bins(0), 3);
        assert_eq!(b.total_bins(), 3);
        // Cuts are midpoints between adjacent distinct values.
        assert_eq!(b.cut(0, 0), 1.5);
        assert_eq!(b.cut(0, 1), 2.5);
        // Codes follow sorted order of the values.
        let codes: Vec<usize> = (0..6).map(|i| b.code(i, 0)).collect();
        assert_eq!(codes, vec![2, 0, 1, 0, 2, 1]);
    }

    #[test]
    fn constant_feature_has_single_bin() {
        let d = data(vec![5.0; 4], 1);
        let b = BinnedDataset::build(&d, 255);
        assert_eq!(b.n_bins(0), 1);
        assert_eq!(b.code(3, 0), 0);
    }

    #[test]
    fn quantile_binning_caps_bin_count_and_keeps_order() {
        // 1000 distinct values into at most 16 bins.
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let d = data(values, 1);
        let b = BinnedDataset::build(&d, 16);
        assert!(b.n_bins(0) <= 16, "bins {}", b.n_bins(0));
        assert!(b.n_bins(0) >= 14, "bins {}", b.n_bins(0));
        // Codes are monotone in the raw value.
        for i in 1..1000 {
            assert!(b.code(i, 0) >= b.code(i - 1, 0));
        }
        // Roughly equal-count bins.
        let mut counts = vec![0usize; b.n_bins(0)];
        for i in 0..1000 {
            counts[b.code(i, 0)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        assert!(*counts.iter().max().unwrap() <= 3 * 1000 / b.n_bins(0), "{counts:?}");
    }

    #[test]
    fn skewed_duplicates_never_make_empty_bins() {
        // One value dominating: the greedy cut may overshoot several
        // boundaries at once but must not emit empty bins.
        let mut values = vec![0.0; 900];
        values.extend((1..=100).map(|i| i as f64));
        let d = data(values, 1);
        let b = BinnedDataset::build(&d, 8);
        let mut counts = vec![0usize; b.n_bins(0)];
        for i in 0..d.n_samples() {
            counts[b.code(i, 0)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }

    #[test]
    fn wide_bins_switch_to_u16_codes() {
        let values: Vec<f64> = (0..600).map(|i| i as f64).collect();
        let d = data(values, 1);
        let b = BinnedDataset::build(&d, 600);
        assert_eq!(b.n_bins(0), 600);
        assert_eq!(b.code(599, 0), 599); // needs u16
    }

    #[test]
    fn code_width_is_chosen_per_column() {
        let values: Vec<f64> = (0..600).flat_map(|i| [i as f64, (i % 3) as f64]).collect();
        let b = BinnedDataset::build(&data(values, 2), 600);
        assert!(matches!(b.columns[0].codes, Codes::U16(_)));
        assert!(matches!(b.columns[1].codes, Codes::U8(_)), "3 bins fit u8");
    }

    #[test]
    fn quantising_a_subset_gives_the_full_build_columns() {
        let d = adversarial(300, 11);
        let full = BinnedDataset::build(&d, 16);
        let picked = [5, 0, 3];
        let subset = BinnedColumn::quantise(&d, 16, &picked);
        for (column, &f) in subset.iter().zip(&picked) {
            let bits = |c: &BinnedColumn| c.cuts.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(column), bits(&full.columns[f]), "cuts of feature {f}");
            let codes = (0..300).map(|i| column.code(i)).collect::<Vec<_>>();
            assert_eq!(codes, (0..300).map(|i| full.code(i, f)).collect::<Vec<_>>());
        }
        // A view put together from shared columns is the same view.
        let view = BinnedDataset::from_columns(300, full.columns.clone());
        assert_eq!(view.offsets, full.offsets);
        assert!(view.columns.iter().zip(&full.columns).all(|(a, b)| Arc::ptr_eq(a, b)));
    }

    #[test]
    fn accumulate_and_subtract_round_trip() {
        let d = data(vec![1.0, 2.0, 1.0, 3.0, 2.0, 1.0], 2);
        let b = BinnedDataset::build(&d, 255);
        let a = vec![1.0, 2.0, 4.0];
        let pos = vec![1.0, 0.0, 4.0];
        let mut pool = HistPool::new();
        let mut parent = pool.acquire(&b);
        parent.accumulate(&b, &[0, 1, 2], &a, &pos);
        // Feature 0 values: rows 0,1,2 -> 1.0, 1.0, 2.0 (bins 0,0,1).
        assert_eq!(parent.feature(&b, 0), &[(3.0, 1.0), (4.0, 4.0)]);
        let mut small = pool.acquire(&b);
        small.accumulate(&b, &[1], &a, &pos);
        parent.subtract(&small);
        let mut direct = pool.acquire(&b);
        direct.accumulate(&b, &[0, 2], &a, &pos);
        assert_eq!(parent.feature(&b, 0), direct.feature(&b, 0));
        assert_eq!(parent.feature(&b, 1), direct.feature(&b, 1));
    }

    #[test]
    fn pool_recycles_buffers() {
        let d = data(vec![1.0, 2.0], 1);
        let b = BinnedDataset::build(&d, 255);
        let mut pool = HistPool::new();
        let mut h = pool.acquire(&b);
        h.accumulate(&b, &[0], &[5.0], &[5.0]);
        pool.release(h);
        let h2 = pool.acquire(&b);
        assert_eq!(h2.feature(&b, 0), &[(0.0, 0.0), (0.0, 0.0)], "reset on reuse");
    }
}
