//! The per-sweep cache every classifier fit shares: feature planes
//! ([`PlaneCache`]) and the quantised training columns built from them
//! ([`ColumnStore`]).
//!
//! **Why a quantised column can be shared.** A day-block builder's row
//! (RF-F1, [`FeatureBuilder::day_blocks`]) is `groups` runs of one
//! `per_day`-value block per window day. Training column `(g, d, p)`
//! of a fit at horizon `h` and window `w` therefore holds, for each
//! label day `L` in order and each sector with a label on `L`, value
//! `p` of group `g`'s block for day `L − h − λ`, where `λ = w − d` is
//! the column's *lag*. Fits that share the builder, `max_bins`, `h`
//! and the ordered label days that contributed rows hold the same
//! column at every lag they share, whatever their `w`; and a
//! quantised column (cuts and codes) is a function of its values in
//! row order and `max_bins` alone. The store keys each lag's
//! `groups · per_day` columns on exactly that, so a view put together
//! from stored columns is bit-identical to binning the fit's own
//! training set.
//!
//! Which sectors carry a label on `L` is a property of the context,
//! so a `SweepCache`, like the planes in it, is bound to the one
//! context its sweep runs over.
//!
//! [`FeatureBuilder::day_blocks`]: hotspot_features::builders::FeatureBuilder::day_blocks

use hotspot_core::memo::Memo;
use hotspot_features::plane::{self, PlaneCache};
use hotspot_obs as obs;
use hotspot_trees::{BinnedColumn, BinnedDataset, Dataset};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Resident byte budget of the quantised columns a sweep keeps
/// (64 MiB). One `(t, h)` group of the Fig. 14 window grid holds about
/// 9 MB of columns at 80 sectors and 13 MB at 200.
pub const COLUMN_BUDGET_BYTES: usize = 64 << 20;

/// Everything a sweep's fits share, behind the one handle
/// [`ClassifierConfig::cache`](crate::classifier::ClassifierConfig::cache)
/// carries. Neither part ever changes a result: eviction only costs a
/// rebuild.
#[derive(Debug)]
pub struct SweepCache {
    /// Feature planes.
    pub planes: PlaneCache,
    /// Quantised training columns of the day-block representations.
    pub columns: ColumnStore,
}

impl SweepCache {
    /// A cache with explicit plane and column byte budgets.
    pub fn with_budgets(plane_bytes: usize, column_bytes: usize) -> Self {
        SweepCache { planes: PlaneCache::new(plane_bytes), columns: ColumnStore::new(column_bytes) }
    }
}

impl Default for SweepCache {
    /// The budgets a sweep runs with ([`plane::BUDGET_BYTES`],
    /// [`COLUMN_BUDGET_BYTES`]).
    fn default() -> Self {
        Self::with_budgets(plane::BUDGET_BYTES, COLUMN_BUDGET_BYTES)
    }
}

/// Where a day-block training set's columns come from: everything
/// that, with the context, determines them (see the module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct DayBlockColumns<'a> {
    /// [`FeatureBuilder::name`](hotspot_features::builders::FeatureBuilder::name).
    pub builder: &'static str,
    /// The builder's `(groups, per_day)` row layout.
    pub blocks: (usize, usize),
    /// Forecast horizon.
    pub h: usize,
    /// Window length; feature `g·per_day·w + d·per_day + p` is column
    /// `(g, d, p)`.
    pub w: usize,
    /// The label days that contributed rows, in assembly order.
    pub label_days: &'a [usize],
}

/// One lag's columns, `g · per_day + p` at index `(g, p)`, and their
/// heap bytes (summed once, since every build re-weighs the store).
struct LagColumns {
    columns: Vec<Arc<BinnedColumn>>,
    bytes: usize,
}

impl LagColumns {
    fn new(columns: Vec<Arc<BinnedColumn>>) -> Self {
        let bytes = columns.iter().map(|c| c.bytes()).sum();
        LagColumns { columns, bytes }
    }

    fn bytes(&self) -> usize {
        self.bytes
    }
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct LagKey {
    builder: &'static str,
    max_bins: u16,
    h: usize,
    label_days: Vec<usize>,
    lag: usize,
}

/// Per-instance store statistics (the global obs counters are shared
/// by every store in the process).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ColumnStats {
    /// Columns quantised into the store (each key's once while it is
    /// resident).
    pub columns_quantised: u64,
    /// Columns handed to a view without quantising them.
    pub columns_reused: u64,
    /// Lags evicted by the byte budget.
    pub evictions: u64,
}

/// Build-once, byte-bounded store of quantised training columns, keyed
/// per lag (see the module docs).
pub struct ColumnStore {
    lags: Memo<LagKey, LagColumns>,
    columns_quantised: AtomicU64,
    columns_reused: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for ColumnStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnStore")
            .field("budget_bytes", &self.lags.budget_bytes())
            .field("stats", &self.stats())
            .finish()
    }
}

impl ColumnStore {
    /// A store evicting least-recently-used lags down to
    /// `budget_bytes` (the lag just built always stays).
    pub fn new(budget_bytes: usize) -> Self {
        ColumnStore {
            lags: Memo::new(budget_bytes, LagColumns::bytes),
            columns_quantised: AtomicU64::new(0),
            columns_reused: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The binned view of `data`, a training set laid out as `source`
    /// says, at `max_bins`: stored columns where present, the rest
    /// quantised from `data` (one kernel call per missing lag) and
    /// stored. Bit-identical to `BinnedDataset::build(data, max_bins)`.
    pub(crate) fn view(
        &self,
        data: &Dataset,
        source: &DayBlockColumns,
        max_bins: u16,
    ) -> BinnedDataset {
        let _span = obs::span!("trees.bin");
        let (groups, per_day) = source.blocks;
        let w = source.w;
        assert_eq!(data.n_features(), groups * per_day * w, "training set is not day blocks");
        let mut key = LagKey {
            builder: source.builder,
            max_bins,
            h: source.h,
            label_days: source.label_days.to_vec(),
            lag: 0,
        };
        // Oldest day (widest lag) first: a concurrent fit of a
        // narrower window of the same group starts at the other end.
        let days: Vec<Arc<LagColumns>> = (0..w)
            .map(|d| {
                key.lag = w - d;
                let lookup = self.lags.get_or_build(&key, || {
                    let features: Vec<usize> = (0..groups)
                        .flat_map(|g| (0..per_day).map(move |p| (g * w + d) * per_day + p))
                        .collect();
                    LagColumns::new(BinnedColumn::quantise(data, max_bins, &features))
                });
                let n = lookup.value.columns.len() as u64;
                if lookup.built {
                    self.columns_quantised.fetch_add(n, Ordering::Relaxed);
                } else {
                    self.columns_reused.fetch_add(n, Ordering::Relaxed);
                    obs::counter("bins.columns_reused").add(n);
                }
                if lookup.evicted > 0 {
                    self.evictions.fetch_add(lookup.evicted, Ordering::Relaxed);
                    obs::counter("bins.lags_evicted").add(lookup.evicted);
                }
                lookup.value
            })
            .collect();
        let mut columns = Vec::with_capacity(data.n_features());
        for g in 0..groups {
            for day in &days {
                columns.extend_from_slice(&day.columns[g * per_day..(g + 1) * per_day]);
            }
        }
        BinnedDataset::from_columns(data.n_samples(), columns)
    }

    /// Current counters.
    pub fn stats(&self) -> ColumnStats {
        ColumnStats {
            columns_quantised: self.columns_quantised.load(Ordering::Relaxed),
            columns_reused: self.columns_reused.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::{training_set, ClassifierConfig};
    use crate::context::{ForecastContext, Target};
    use crate::models::ModelSpec;
    use hotspot_core::pipeline::ScorePipeline;
    use hotspot_core::tensor::Tensor3;
    use hotspot_core::HOURS_PER_WEEK;
    use hotspot_features::windows::WindowSpec;
    use hotspot_trees::SplitStrategy;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    const SECTORS: usize = 12;

    /// 12 sectors, 5 weeks of noisy KPIs (so percentile columns have
    /// many distinct values), weekday-daytime overload on even sectors.
    fn context(which: Target) -> ForecastContext {
        let catalog = hotspot_core::kpi::KpiCatalog::standard();
        let kpis = Tensor3::from_fn(SECTORS, HOURS_PER_WEEK * 5, 21, |i, j, k| {
            let def = &catalog.defs()[k];
            let busy = i % 2 == 0 && (6..22).contains(&(j % 24)) && (j / 24) % 7 < 5;
            let base = if busy { def.degraded } else { def.nominal };
            base * (1.0 + 0.05 * ((i * 131 + j * 17 + k * 7) as f64).sin())
        });
        let scored = ScorePipeline::standard().run(&kpis).unwrap();
        ForecastContext::build(&kpis, &scored, which).unwrap()
    }

    fn shared_context(become_target: bool) -> &'static ForecastContext {
        static BE: OnceLock<ForecastContext> = OnceLock::new();
        static BECOME: OnceLock<ForecastContext> = OnceLock::new();
        if become_target {
            BECOME.get_or_init(|| context(Target::BecomeHotSpot))
        } else {
            BE.get_or_init(|| context(Target::BeHotSpot))
        }
    }

    fn rf_f1(train_days: usize, max_bins: u16) -> ClassifierConfig {
        ModelSpec::RfF1
            .classifier_config(4, train_days, 1, SplitStrategy::Histogram { max_bins })
            .unwrap()
    }

    /// Offsets (via `n_bins`), cuts (`to_bits`) and every code agree.
    fn assert_same_view(got: &BinnedDataset, want: &BinnedDataset, at: &str) {
        assert_eq!(got.n_features(), want.n_features(), "{at}");
        assert_eq!(got.n_rows(), want.n_rows(), "{at}");
        for f in 0..want.n_features() {
            assert_eq!(got.n_bins(f), want.n_bins(f), "bins of feature {f} {at}");
            for j in 0..want.n_bins(f) - 1 {
                assert_eq!(got.cut(f, j).to_bits(), want.cut(f, j).to_bits(), "cut {f}/{j} {at}");
            }
            for i in 0..want.n_rows() {
                assert_eq!(got.code(i, f), want.code(i, f), "code {i}/{f} {at}");
            }
        }
    }

    /// Request `ws` at `(t, h)` in order from one store and check every
    /// view against a fresh build of the same assembled training set.
    fn check_views(
        ctx: &ForecastContext,
        config: &ClassifierConfig,
        t: usize,
        h: usize,
        ws: &[usize],
        cache: &SweepCache,
    ) {
        for &w in ws {
            let spec = WindowSpec::new(t, h, w);
            if !spec.fits(ctx.n_days()) {
                continue;
            }
            let Some(set) = training_set(ctx, &spec, config, cache) else { continue };
            let max_bins = config.split.bins_for(set.data.n_samples());
            assert_eq!(set.binned.is_some(), max_bins.is_some(), "one bin rule");
            if let (Some(got), Some(max_bins)) = (&set.binned, max_bins) {
                let want = BinnedDataset::build(&set.data, max_bins);
                assert_same_view(got, &want, &format!("t={t} h={h} w={w}"));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A view put together from stored columns equals binning the
        /// fit's own training set, for either request order, horizons
        /// whose label days depend on `w` (small `t`, large `h + w`),
        /// both targets, and extra NaN-labelled sectors. Horizons `h`
        /// and `h + 7` share their same-weekday label day, so one store
        /// serving both also checks that the key tells them apart.
        #[test]
        fn stored_views_equal_fresh_builds(
            t in 8usize..27,
            h in 1usize..8,
            train_days in 1usize..6,
            bins_pick in 0usize..3,
            become_target in any::<bool>(),
            wide_first in any::<bool>(),
            nan_mask in any::<u64>(),
        ) {
            let mut ctx = shared_context(become_target).clone();
            for day in 0..ctx.n_days() {
                let i = (nan_mask >> (day % 64)) as usize % (2 * SECTORS);
                if i < SECTORS {
                    ctx.target.set(i, day, f64::NAN);
                }
            }
            let mut ws = vec![1, 2, 3, 5, 7];
            if wide_first {
                ws.reverse();
            }
            let max_bins = [2u16, 16, 255][bins_pick];
            let cache = SweepCache::default();
            for h in [h, h + 7] {
                check_views(&ctx, &rf_f1(train_days, max_bins), t, h, &ws, &cache);
            }
        }
    }

    #[test]
    fn windows_sharing_label_days_reuse_their_common_lags() {
        // At t = 24, h = 1 and 3 training days, w = 3 and w = 7 train
        // on the same label days {18, 11, 24}; at t = 20 they do not
        // ({14, 7, 20} vs {14, 20, 19}), so nothing is shared.
        let ctx = shared_context(false);
        let config = rf_f1(3, 255);
        let per_lag = 5 * ctx.x.n_features() as u64;
        for (t, reused) in [(24, 3 * per_lag), (20, 0)] {
            for ws in [[3, 7], [7, 3]] {
                let cache = SweepCache::default();
                check_views(ctx, &config, t, 1, &ws, &cache);
                let s = cache.columns.stats();
                assert_eq!(s.columns_reused, reused, "t={t} ws={ws:?}");
                assert_eq!(s.columns_quantised + s.columns_reused, 10 * per_lag, "t={t} ws={ws:?}");
            }
        }
    }

    #[test]
    fn max_bins_is_part_of_the_key() {
        let ctx = shared_context(false);
        let cache = SweepCache::default();
        check_views(ctx, &rf_f1(3, 255), 24, 1, &[3], &cache);
        check_views(ctx, &rf_f1(3, 2), 24, 1, &[3], &cache);
        assert_eq!(cache.columns.stats().columns_reused, 0);
    }

    #[test]
    fn concurrent_overlapping_windows_quantise_each_lag_once() {
        let ctx = shared_context(true);
        let config = rf_f1(3, 255);
        let cache = SweepCache::default();
        let ws = [1, 2, 3, 5, 7, 7, 5, 3];
        let start = std::sync::Barrier::new(ws.len());
        std::thread::scope(|scope| {
            for &w in &ws {
                let (config, cache, start) = (&config, &cache, &start);
                scope.spawn(move || {
                    start.wait();
                    check_views(ctx, config, 24, 1, &[w], cache);
                });
            }
        });
        let s = cache.columns.stats();
        let per_lag = 5 * ctx.x.n_features() as u64;
        assert_eq!(s.columns_quantised, 7 * per_lag, "lags 1..=7 of one key, each quantised once");
        assert_eq!(s.columns_reused, (1 + 2 + 3 + 5 + 7 + 7 + 5 + 3 - 7) * per_lag);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn a_tiny_budget_evicts_and_rebuilds_the_same_columns() {
        let ctx = shared_context(false);
        let cache = SweepCache::with_budgets(1, 1);
        check_views(ctx, &rf_f1(3, 16), 24, 1, &[3, 7, 3], &cache);
        let s = cache.columns.stats();
        assert!(s.evictions > 0);
        assert_eq!(s.columns_reused, 0, "only the lag just built stays resident");
    }
}
