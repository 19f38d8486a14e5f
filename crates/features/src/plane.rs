//! The cross-cell **feature-plane cache**.
//!
//! A sweep evaluates thousands of `(model, t, h, w)` grid cells, and
//! every classifier cell featurises the whole network from the raw
//! tensor — once per stacked training day and once for the forecast
//! window. The inputs to that work are fully determined by
//! `(representation, end_day, w)`: the same *feature plane* (the
//! `n_sectors × dim` matrix of builder outputs) recurs across models,
//! horizons, evaluation days, and overlapping `train_days` stacks.
//!
//! [`PlaneCache`] memoises those planes in a [`Memo`], the build-once,
//! byte-bounded map every sweep cache uses:
//!
//! * **build-once** — each key's plane is built by exactly one thread
//!   (concurrent requesters for the same key block on a per-entry
//!   [`OnceLock`]; distinct keys build in parallel), so within one
//!   cache a plane is computed at most once unless evicted;
//! * **read-only after build** — planes are shared as
//!   `Arc<FeaturePlane>` and never mutated, so a cached row is the
//!   *same bytes* `FeatureBuilder::build` would have produced and
//!   results never depend on what the cache holds;
//! * **memory-bounded** — a byte budget ([`BUDGET_BYTES`] for a
//!   sweep) evicts least-recently-used planes (never the one just
//!   built), so paper-scale sweeps cannot grow the resident set
//!   without limit. Eviction only costs a rebuild; it never changes
//!   results.
//!
//! * **summarise each day once** — a builder whose rows are per-day
//!   blocks ([`FeatureBuilder::day_blocks`], i.e. RF-F1) gets one
//!   *day table* per cache: its whole-series plane (`end_day = w =`
//!   the series' day count), built lazily by the first such request.
//!   Every windowed plane of that builder is then a gather of `5·w`
//!   slices from the table rather than a re-summary of each day. The
//!   table lives outside the byte budget, so eviction never churns it;
//!   windowed planes are keyed, counted and evicted exactly like any
//!   other plane.
//!
//! Observability: the cache increments the
//! `features.cache.{hit,miss,build,evict,bytes}` counters (all
//! monotone counters — deliberately *not* gauges, which the sweep's
//! deterministic metrics projection would retain and thereby make it
//! depend on the eviction history) and wraps each build in a
//! `features.plane_build` span. A day-table build is a nested
//! `features.day_table` span and adds the (sector, day, column) blocks
//! it summarised to `features.day_table.blocks`.

use crate::builders::{window_hours, FeatureBuilder};
use hotspot_core::memo::Memo;
use hotspot_core::tensor::Tensor3;
use hotspot_core::HOURS_PER_DAY;
use hotspot_obs as obs;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Resident-plane byte budget of the cache a sweep shares across its
/// cells (256 MiB).
pub const BUDGET_BYTES: usize = 256 << 20;

/// What uniquely determines a feature plane's contents (for one input
/// tensor): the builder, the exclusive end day, and the window length.
/// The builder is identified by its stable [`FeatureBuilder::name`] so
/// the cache does not depend on any enum living in a higher crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlaneKey {
    /// [`FeatureBuilder::name`] of the representation.
    pub builder: &'static str,
    /// Window end day (exclusive).
    pub end_day: usize,
    /// Window length in days.
    pub w: usize,
}

/// One immutable `(n_sectors × dim)` feature matrix: row `i` is
/// exactly `builder.build(x, i, end_day, w)`.
#[derive(Debug)]
pub struct FeaturePlane {
    data: Vec<f64>,
    dim: usize,
}

impl FeaturePlane {
    /// Featurise every sector of `x` for the given window.
    pub fn build(builder: &dyn FeatureBuilder, x: &Tensor3, end_day: usize, w: usize) -> Self {
        let dim = builder.dim(x.n_features(), w);
        let mut data = Vec::with_capacity(x.n_sectors() * dim);
        for i in 0..x.n_sectors() {
            data.extend(builder.build(x, i, end_day, w));
        }
        FeaturePlane { data, dim }
    }

    /// The `(end_day, w)` plane of a day-separable builder, gathered
    /// from its whole-series plane `table` of `n_days` days: each row
    /// is `groups` runs of `w` blocks of `per_day` values.
    fn gather(
        table: &FeaturePlane,
        (groups, per_day): (usize, usize),
        n_days: usize,
        end_day: usize,
        w: usize,
    ) -> Self {
        let run = per_day * w;
        let dim = groups * run;
        let mut data = Vec::with_capacity(table.n_rows() * dim);
        for i in 0..table.n_rows() {
            let row = table.row(i);
            for g in 0..groups {
                let start = (g * n_days + end_day - w) * per_day;
                data.extend_from_slice(&row[start..start + run]);
            }
        }
        FeaturePlane { data, dim }
    }

    /// Sector `i`'s feature row.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Feature dimensionality per sector.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of sector rows.
    pub fn n_rows(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    /// Payload size used for budget accounting.
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }
}

/// Point-in-time cache statistics (per-instance, unlike the global
/// obs counters, so tests can make exact assertions in parallel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests answered by an already-built plane.
    pub hits: u64,
    /// Requests that found no built plane (each either builds or
    /// blocks on the thread that is building).
    pub misses: u64,
    /// Planes actually built (`builds ≤ misses`; equality means no
    /// two threads ever raced on one key).
    pub builds: u64,
    /// Planes evicted by the byte budget.
    pub evictions: u64,
    /// Cumulative bytes of built planes (monotone).
    pub bytes_built: u64,
    /// Day tables built: at most one per day-separable builder, since
    /// the budget never evicts them.
    pub day_tables: u64,
}

/// Concurrent, memory-bounded, read-only-after-build memo of feature
/// planes, shared via `Arc` across grid cells and worker threads.
pub struct PlaneCache {
    planes: Memo<PlaneKey, FeaturePlane>,
    /// Whole-series planes of the day-separable builders, by name.
    day_tables: Mutex<HashMap<&'static str, Arc<OnceLock<Arc<FeaturePlane>>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    builds: AtomicU64,
    evictions: AtomicU64,
    bytes_built: AtomicU64,
    day_tables_built: AtomicU64,
}

impl std::fmt::Debug for PlaneCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlaneCache")
            .field("budget_bytes", &self.planes.budget_bytes())
            .field("stats", &self.stats())
            .finish()
    }
}

impl PlaneCache {
    /// A cache evicting down to `budget_bytes` of resident plane data.
    /// The plane just built is never the eviction victim, so a single
    /// oversized plane still caches (alone).
    pub fn new(budget_bytes: usize) -> Self {
        PlaneCache {
            planes: Memo::new(budget_bytes, FeaturePlane::bytes),
            day_tables: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bytes_built: AtomicU64::new(0),
            day_tables_built: AtomicU64::new(0),
        }
    }

    /// The plane for `(builder.name(), end_day, w)`, building it (at
    /// most once per resident key, across all threads) on first use.
    pub fn get_or_build(
        &self,
        builder: &dyn FeatureBuilder,
        x: &Tensor3,
        end_day: usize,
        w: usize,
    ) -> Arc<FeaturePlane> {
        let key = PlaneKey { builder: builder.name(), end_day, w };
        let lookup = self.planes.get_or_build(&key, || {
            let _span = obs::span!("features.plane_build");
            match builder.day_blocks(x.n_features()) {
                Some(blocks) => {
                    // Refuse a bad window as a direct build would,
                    // before any table work.
                    window_hours(x, end_day, w);
                    let n_days = x.n_time() / HOURS_PER_DAY;
                    let table = self.day_table(builder, x, blocks.0, n_days);
                    FeaturePlane::gather(&table, blocks, n_days, end_day, w)
                }
                None => FeaturePlane::build(builder, x, end_day, w),
            }
        });
        let plane = lookup.value;
        if lookup.hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            obs::counter("features.cache.hit").inc();
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            obs::counter("features.cache.miss").inc();
        }
        if lookup.built {
            self.builds.fetch_add(1, Ordering::Relaxed);
            self.bytes_built.fetch_add(plane.bytes() as u64, Ordering::Relaxed);
            obs::counter("features.cache.build").inc();
            obs::counter("features.cache.bytes").add(plane.bytes() as u64);
        }
        if lookup.evicted > 0 {
            self.evictions.fetch_add(lookup.evicted, Ordering::Relaxed);
            obs::counter("features.cache.evict").add(lookup.evicted);
        }
        plane
    }

    /// The whole-series plane of the day-separable `builder` (`groups`
    /// runs per row over `n_days` days), built on first use by exactly
    /// one thread and kept for the cache's lifetime.
    fn day_table(
        &self,
        builder: &dyn FeatureBuilder,
        x: &Tensor3,
        groups: usize,
        n_days: usize,
    ) -> Arc<FeaturePlane> {
        let cell = {
            let mut tables = self.day_tables.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(tables.entry(builder.name()).or_default())
        };
        Arc::clone(cell.get_or_init(|| {
            let _span = obs::span!("features.day_table");
            let table = Arc::new(FeaturePlane::build(builder, x, n_days, n_days));
            self.day_tables_built.fetch_add(1, Ordering::Relaxed);
            obs::counter("features.day_table.blocks").add((x.n_sectors() * n_days * groups) as u64);
            table
        }))
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes_built: self.bytes_built.load(Ordering::Relaxed),
            day_tables: self.day_tables_built.load(Ordering::Relaxed),
        }
    }

    /// Bytes of plane data currently resident under the budget (day
    /// tables excluded).
    pub fn resident_bytes(&self) -> usize {
        self.planes.resident_bytes()
    }

    /// Number of built planes currently resident.
    pub fn resident_planes(&self) -> usize {
        self.planes.resident()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{DailyPercentiles, HandCrafted, RawFlatten};
    use hotspot_core::HOURS_PER_DAY;

    fn x(n_sectors: usize, n_days: usize) -> Tensor3 {
        Tensor3::from_fn(n_sectors, n_days * HOURS_PER_DAY, 3, |i, j, k| {
            (i * 977 + j * 31 + k * 7) as f64 * 0.01
        })
    }

    #[test]
    fn plane_rows_match_direct_builds() {
        let x = x(4, 10);
        let cache = PlaneCache::new(usize::MAX);
        let builders: [&dyn FeatureBuilder; 3] = [&RawFlatten, &DailyPercentiles, &HandCrafted];
        for builder in builders {
            for (end, w) in [(5usize, 3usize), (10, 7), (3, 3), (10, 1), (10, 10)] {
                let plane = cache.get_or_build(builder, &x, end, w);
                assert_eq!(plane.n_rows(), 4);
                assert_eq!(plane.dim(), builder.dim(x.n_features(), w));
                for i in 0..4 {
                    assert_eq!(
                        plane.row(i),
                        builder.build(&x, i, end, w).as_slice(),
                        "{} row {i} at end={end} w={w}",
                        builder.name()
                    );
                }
            }
        }
        let s = cache.stats();
        assert_eq!(s.builds, 15);
        assert_eq!(s.evictions, 0);
        assert_eq!(s.day_tables, 1, "only RF-F1 is day-separable");
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|u| u.to_bits()).collect()
    }

    /// Values that stress the sanitise–sort–interpolate path: NaN,
    /// ±inf, ±0.0 and repeats, so most days are duplicate-heavy.
    const PALETTE: [f64; 10] =
        [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 1.0, 1.0, -2.5, 3.25, 1e300];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// Every percentile plane gathered from the day table equals
        /// the direct build bit for bit, for every window that fits.
        #[test]
        fn gathered_percentile_planes_equal_direct_builds(
            n_sectors in 1usize..4,
            n_days in 1usize..7,
            extra_hours in 0usize..24,
            n_features in 1usize..4,
            cells in proptest::collection::vec(0u8..16, 3 * (6 * 24 + 23) * 3),
        ) {
            let n_time = n_days * HOURS_PER_DAY + extra_hours;
            let x = Tensor3::from_fn(n_sectors, n_time, n_features, |i, j, k| {
                let c = (i * n_time + j) * n_features + k;
                match cells[c] as usize {
                    p if p < PALETTE.len() => PALETTE[p],
                    _ => (c as f64 * 0.37).sin(),
                }
            });
            let cache = PlaneCache::new(usize::MAX);
            for end in 1..=n_days {
                for w in 1..=end {
                    let plane = cache.get_or_build(&DailyPercentiles, &x, end, w);
                    for i in 0..n_sectors {
                        proptest::prop_assert_eq!(
                            bits(plane.row(i)),
                            bits(&DailyPercentiles.build(&x, i, end, w)),
                            "sector {} at end={} w={}", i, end, w
                        );
                    }
                }
            }
            proptest::prop_assert_eq!(cache.stats().day_tables, 1);
        }
    }

    #[test]
    fn concurrent_distinct_percentile_planes_share_one_day_table() {
        let x = x(6, 12);
        let cache = PlaneCache::new(usize::MAX);
        std::thread::scope(|scope| {
            for k in 0..16 {
                let (cache, x) = (&cache, &x);
                scope.spawn(move || {
                    let (end, w) = (12 - k % 4, 1 + k / 4);
                    let plane = cache.get_or_build(&DailyPercentiles, x, end, w);
                    assert_eq!(plane.row(3), DailyPercentiles.build(x, 3, end, w).as_slice());
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.builds, 16, "16 distinct keys");
        assert_eq!(s.day_tables, 1, "16 concurrent planes must share one day table");
    }

    #[test]
    fn call_local_and_evicting_caches_give_the_same_rows() {
        // `new(0)` is `fit_and_forecast`'s call-local cache; `new(1)`
        // evicts every plane but the latest too. Neither budget may
        // touch the day table.
        let x = x(3, 9);
        let (local, tiny) = (PlaneCache::new(0), PlaneCache::new(1));
        let builders: [&dyn FeatureBuilder; 3] = [&RawFlatten, &DailyPercentiles, &HandCrafted];
        for builder in builders {
            for (end, w) in [(9usize, 9usize), (4, 2), (9, 1), (7, 7)] {
                let a = local.get_or_build(builder, &x, end, w);
                let b = tiny.get_or_build(builder, &x, end, w);
                for i in 0..3 {
                    assert_eq!(a.row(i), b.row(i), "{} row {i} at end={end} w={w}", builder.name());
                }
            }
        }
        for cache in [&local, &tiny] {
            let s = cache.stats();
            assert_eq!((s.builds, s.evictions, s.day_tables), (12, 11, 1));
            assert_eq!(cache.resident_planes(), 1);
        }
    }

    #[test]
    fn repeated_requests_hit() {
        let x = x(3, 8);
        let cache = PlaneCache::new(usize::MAX);
        let a = cache.get_or_build(&RawFlatten, &x, 8, 2);
        let b = cache.get_or_build(&RawFlatten, &x, 8, 2);
        assert!(Arc::ptr_eq(&a, &b), "second request must share the plane");
        // Distinct builders at the same (end, w) are distinct keys.
        let c = cache.get_or_build(&DailyPercentiles, &x, 8, 2);
        assert_ne!(c.dim(), 0);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.builds), (1, 2, 2));
        assert_eq!(s.bytes_built as usize, a.bytes() + c.bytes());
    }

    #[test]
    fn concurrent_access_builds_once() {
        let x = x(6, 12);
        let cache = PlaneCache::new(usize::MAX);
        std::thread::scope(|scope| {
            for _ in 0..16 {
                scope.spawn(|| {
                    let plane = cache.get_or_build(&DailyPercentiles, &x, 9, 4);
                    assert_eq!(plane.row(2), DailyPercentiles.build(&x, 2, 9, 4).as_slice());
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.builds, 1, "16 concurrent requesters must share one build");
        assert_eq!(s.hits + s.misses, 16);
        assert_eq!(s.evictions, 0);
        assert_eq!(cache.resident_planes(), 1);
    }

    #[test]
    fn tiny_budget_evicts_lru_and_rebuilds_correctly() {
        let x = x(4, 12);
        let one_plane = FeaturePlane::build(&RawFlatten, &x, 6, 2).bytes();
        // Budget fits exactly one raw w=2 plane.
        let cache = PlaneCache::new(one_plane);
        cache.get_or_build(&RawFlatten, &x, 6, 2);
        cache.get_or_build(&RawFlatten, &x, 8, 2); // evicts (6, 2)
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.resident_planes(), 1);
        assert!(cache.resident_bytes() <= one_plane);
        // The evicted key rebuilds — and still matches the builder.
        let again = cache.get_or_build(&RawFlatten, &x, 6, 2);
        assert_eq!(again.row(1), RawFlatten.build(&x, 1, 6, 2).as_slice());
        let s = cache.stats();
        assert_eq!(s.builds, 3, "re-request after eviction rebuilds");
        assert_eq!(s.evictions, 2);
    }

    #[test]
    fn oversized_plane_still_caches_alone() {
        let x = x(4, 12);
        let cache = PlaneCache::new(1); // nothing fits
        let a = cache.get_or_build(&RawFlatten, &x, 6, 2);
        // The just-built plane is never its own victim.
        assert_eq!(cache.resident_planes(), 1);
        let b = cache.get_or_build(&RawFlatten, &x, 6, 2);
        assert!(Arc::ptr_eq(&a, &b));
        // A different key displaces it.
        cache.get_or_build(&RawFlatten, &x, 8, 2);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.resident_planes(), 1);
    }

    #[test]
    fn lru_prefers_recently_used_planes() {
        let x = x(2, 12);
        let bytes = FeaturePlane::build(&RawFlatten, &x, 4, 2).bytes();
        let cache = PlaneCache::new(2 * bytes);
        cache.get_or_build(&RawFlatten, &x, 4, 2);
        cache.get_or_build(&RawFlatten, &x, 6, 2);
        cache.get_or_build(&RawFlatten, &x, 4, 2); // refresh (4, 2)
        cache.get_or_build(&RawFlatten, &x, 8, 2); // must evict (6, 2)
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(cache.resident_planes(), 2);
        // (4, 2) survived: requesting it again is a hit, not a build.
        let hits_before = cache.stats().hits;
        cache.get_or_build(&RawFlatten, &x, 4, 2);
        assert_eq!(cache.stats().hits, hits_before + 1);
        assert_eq!(cache.stats().builds, s.builds);
    }

    #[test]
    fn obs_counters_are_emitted() {
        // The global registry is shared across parallel tests, so only
        // monotone lower-bound assertions are safe here; exact counts
        // are covered by the per-instance stats above.
        let x = x(2, 8);
        let before = obs::global().snapshot();
        let cache = PlaneCache::new(usize::MAX);
        cache.get_or_build(&RawFlatten, &x, 8, 2);
        cache.get_or_build(&RawFlatten, &x, 8, 2);
        let after = obs::global().snapshot();
        let delta = |name: &str| {
            after.counters.get(name).copied().unwrap_or(0)
                - before.counters.get(name).copied().unwrap_or(0)
        };
        assert!(delta("features.cache.build") >= 1);
        assert!(delta("features.cache.hit") >= 1);
        assert!(delta("features.cache.bytes") >= cache.stats().bytes_built);
    }
}
