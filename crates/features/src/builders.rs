//! The three feature representations of Sec. IV-D.
//!
//! Each builder turns one sector's window of `X` — days
//! `[end_day − w, end_day)`, i.e. a `(24w × F)` hourly slice — into a
//! fixed-length feature vector. All builders sanitise non-finite
//! values to 0 so the tree crate's finite-features contract holds.

use hotspot_core::tensor::Tensor3;
use hotspot_core::HOURS_PER_DAY;

/// A feature representation over a window of `X`.
pub trait FeatureBuilder: Send + Sync {
    /// Output dimensionality for `n_features` input columns and a
    /// `w`-day window.
    fn dim(&self, n_features: usize, w: usize) -> usize;

    /// Build the vector for sector `i`, window ending at `end_day`
    /// (exclusive), length `w` days.
    ///
    /// # Panics
    /// Panics when the window falls outside the tensor.
    fn build(&self, x: &Tensor3, i: usize, end_day: usize, w: usize) -> Vec<f64>;

    /// Short stable name for reports.
    fn name(&self) -> &'static str;

    /// Map an output feature index back to the `X` column it derives
    /// from (used for the Fig. 15/16 importance grids). Returns
    /// `(x_column, within_column_index)`.
    fn source_column(&self, output_index: usize, n_features: usize, w: usize) -> (usize, usize);

    /// `Some((groups, per_day))` when every row is `groups` runs, each
    /// made of one `per_day`-value block per window day (oldest first),
    /// and each block is a function of that day alone. A window's row
    /// is then a gather from the whole-series row, which is how
    /// [`crate::plane::PlaneCache`] builds such planes. `None` (the
    /// default) means the row must be built from the window itself.
    fn day_blocks(&self, _n_features: usize) -> Option<(usize, usize)> {
        None
    }
}

#[inline]
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Assert the window is valid and return its hour range.
pub(crate) fn window_hours(x: &Tensor3, end_day: usize, w: usize) -> (usize, usize) {
    assert!(w >= 1, "window must be >= 1 day");
    assert!(end_day >= w, "window underflows day 0");
    let (h0, h1) = (HOURS_PER_DAY * (end_day - w), HOURS_PER_DAY * end_day);
    assert!(h1 <= x.n_time(), "window exceeds series ({h1} > {})", x.n_time());
    (h0, h1)
}

/// RF-R: the raw hourly slice, flattened hour-major
/// (`24w · F` values; output index = `hour_in_window · F + column`).
#[derive(Debug, Clone, Copy, Default)]
pub struct RawFlatten;

impl FeatureBuilder for RawFlatten {
    fn dim(&self, n_features: usize, w: usize) -> usize {
        HOURS_PER_DAY * w * n_features
    }

    fn build(&self, x: &Tensor3, i: usize, end_day: usize, w: usize) -> Vec<f64> {
        let (h0, h1) = window_hours(x, end_day, w);
        let mut out = Vec::with_capacity((h1 - h0) * x.n_features());
        for j in h0..h1 {
            out.extend(x.frame(i, j).iter().map(|&v| finite(v)));
        }
        out
    }

    fn name(&self) -> &'static str {
        "raw"
    }

    fn source_column(&self, output_index: usize, n_features: usize, _w: usize) -> (usize, usize) {
        (output_index % n_features, output_index / n_features)
    }
}

/// RF-F1: daily 5/25/50/75/95 percentiles — `5w` values per input
/// column, reducing each day's 24 samples to 5 (Sec. IV-D). Output is
/// column-major: all `5w` values of column 0, then column 1, …
#[derive(Debug, Clone, Copy, Default)]
pub struct DailyPercentiles;

/// The percentile levels of RF-F1.
pub const PERCENTILES: [f64; 5] = [5.0, 25.0, 50.0, 75.0, 95.0];

/// Linear-interpolation percentile over a small scratch slice.
fn percentile_of(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = (q / 100.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] * (hi as f64 - pos) + sorted[hi] * (pos - lo as f64)
    }
}

/// The RF-F1 block of one day: the [`PERCENTILES`] of sector `i`'s
/// column `k` over the 24 hours of `day`, non-finite samples read as 0.
/// The only implementation of the percentile arithmetic: direct builds
/// and the plane cache's day table both call it.
fn day_percentiles(x: &Tensor3, i: usize, day: usize, k: usize, out: &mut Vec<f64>) {
    let h0 = day * HOURS_PER_DAY;
    let mut day_vals = [0.0f64; HOURS_PER_DAY];
    for (h, slot) in day_vals.iter_mut().enumerate() {
        *slot = finite(x.get(i, h0 + h, k));
    }
    day_vals.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
    for &q in &PERCENTILES {
        out.push(percentile_of(&day_vals, q));
    }
}

impl FeatureBuilder for DailyPercentiles {
    fn dim(&self, n_features: usize, w: usize) -> usize {
        PERCENTILES.len() * w * n_features
    }

    fn build(&self, x: &Tensor3, i: usize, end_day: usize, w: usize) -> Vec<f64> {
        window_hours(x, end_day, w);
        let f = x.n_features();
        let mut out = Vec::with_capacity(self.dim(f, w));
        for k in 0..f {
            for day in end_day - w..end_day {
                day_percentiles(x, i, day, k, &mut out);
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        "percentiles"
    }

    fn source_column(&self, output_index: usize, _n_features: usize, w: usize) -> (usize, usize) {
        let per_col = PERCENTILES.len() * w;
        (output_index / per_col, output_index % per_col)
    }

    fn day_blocks(&self, n_features: usize) -> Option<(usize, usize)> {
        Some((n_features, PERCENTILES.len()))
    }
}

/// RF-F2: hand-crafted statistics per input column (Sec. IV-D):
/// whole/half-window mean, std, min, max and their half-on-half
/// differences; average day and week profiles with summary contrasts;
/// extreme (min/max) day and week profiles; and the raw final day
/// plus its mean and std. 139 values per column for any `w`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HandCrafted;

/// Per-column output width of [`HandCrafted`].
pub const HANDCRAFTED_PER_COLUMN: usize = 139;

fn stats4(xs: &[f64]) -> [f64; 4] {
    if xs.is_empty() {
        return [0.0; 4];
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    [mean, var.sqrt(), min, max]
}

impl FeatureBuilder for HandCrafted {
    fn dim(&self, n_features: usize, _w: usize) -> usize {
        HANDCRAFTED_PER_COLUMN * n_features
    }

    fn build(&self, x: &Tensor3, i: usize, end_day: usize, w: usize) -> Vec<f64> {
        let (h0, h1) = window_hours(x, end_day, w);
        let f = x.n_features();
        let mut out = Vec::with_capacity(self.dim(f, w));
        let mut series: Vec<f64> = Vec::with_capacity(h1 - h0);
        for k in 0..f {
            series.clear();
            series.extend((h0..h1).map(|j| finite(x.get(i, j, k))));
            let n = series.len();
            let whole = stats4(&series);
            let first = stats4(&series[..n / 2]);
            let second = stats4(&series[n / 2..]);
            out.extend_from_slice(&whole);
            out.extend_from_slice(&first);
            out.extend_from_slice(&second);
            for s in 0..4 {
                out.push(second[s] - first[s]);
            }

            // Average day profile (24) and weekday profile (7; empty
            // bins fall back to the whole-window mean).
            let mut day_profile = [0.0f64; 24];
            let mut day_min = [f64::INFINITY; 24];
            let mut day_max = [f64::NEG_INFINITY; 24];
            for (off, &v) in series.iter().enumerate() {
                let h = off % 24;
                day_profile[h] += v;
                day_min[h] = day_min[h].min(v);
                day_max[h] = day_max[h].max(v);
            }
            let days = (n / 24).max(1) as f64;
            for p in &mut day_profile {
                *p /= days;
            }
            let mut week_profile = [0.0f64; 7];
            let mut week_count = [0usize; 7];
            let mut week_min = [f64::INFINITY; 7];
            let mut week_max = [f64::NEG_INFINITY; 7];
            for d in 0..n / 24 {
                let bucket = d % 7;
                let day_mean =
                    series[d * 24..(d + 1) * 24].iter().sum::<f64>() / 24.0;
                week_profile[bucket] += day_mean;
                week_count[bucket] += 1;
                week_min[bucket] = week_min[bucket].min(day_mean);
                week_max[bucket] = week_max[bucket].max(day_mean);
            }
            for b in 0..7 {
                if week_count[b] > 0 {
                    week_profile[b] /= week_count[b] as f64;
                } else {
                    week_profile[b] = whole[0];
                    week_min[b] = whole[0];
                    week_max[b] = whole[0];
                }
            }
            out.extend_from_slice(&day_profile);
            out.extend_from_slice(&week_profile);

            // Profile contrasts.
            let evening: f64 = day_profile[18..24].iter().sum::<f64>() / 6.0;
            let morning: f64 = day_profile[6..12].iter().sum::<f64>() / 6.0;
            out.push(evening - morning);
            let prof_max = day_profile.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let prof_min = day_profile.iter().cloned().fold(f64::INFINITY, f64::min);
            out.push(prof_max - prof_min);
            let week_hi = week_profile.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let week_lo = week_profile.iter().cloned().fold(f64::INFINITY, f64::min);
            out.push(week_hi - week_lo);
            // Last two window-day buckets vs the rest (a weekend-ish
            // contrast that is calendar-free).
            out.push(
                (week_profile[5] + week_profile[6]) / 2.0
                    - week_profile[..5].iter().sum::<f64>() / 5.0,
            );

            // Extreme profiles.
            for &v in day_min.iter().chain(&day_max).chain(&week_min).chain(&week_max) {
                out.push(if v.is_finite() { v } else { whole[0] });
            }

            // Raw last day + its mean and std.
            let last_day = &series[n - 24..];
            out.extend_from_slice(last_day);
            let ld = stats4(last_day);
            out.push(ld[0]);
            out.push(ld[1]);
        }
        debug_assert_eq!(out.len(), self.dim(f, w));
        out
    }

    fn name(&self) -> &'static str {
        "handcrafted"
    }

    fn source_column(&self, output_index: usize, _n_features: usize, _w: usize) -> (usize, usize) {
        (output_index / HANDCRAFTED_PER_COLUMN, output_index % HANDCRAFTED_PER_COLUMN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1 sector, 14 days, 3 columns with recognisable values:
    /// column 0 = hour index, column 1 = constant 5, column 2 = day index.
    fn x() -> Tensor3 {
        Tensor3::from_fn(1, 14 * 24, 3, |_, j, k| match k {
            0 => j as f64,
            1 => 5.0,
            _ => (j / 24) as f64,
        })
    }

    #[test]
    fn raw_flatten_layout() {
        let x = x();
        let b = RawFlatten;
        let v = b.build(&x, 0, 14, 2);
        assert_eq!(v.len(), b.dim(3, 2));
        // First entry is hour 12·24 of column 0.
        assert_eq!(v[0], (12 * 24) as f64);
        assert_eq!(v[1], 5.0);
        assert_eq!(v[2], 12.0);
        // Source mapping round-trips.
        assert_eq!(b.source_column(0, 3, 2), (0, 0));
        assert_eq!(b.source_column(5, 3, 2), (2, 1));
    }

    #[test]
    fn percentiles_of_constant_column_are_constant() {
        let x = x();
        let b = DailyPercentiles;
        let v = b.build(&x, 0, 14, 2);
        assert_eq!(v.len(), b.dim(3, 2));
        // Column 1 (constant 5): its 5·2 values occupy indices 10..20.
        for &p in &v[10..20] {
            assert_eq!(p, 5.0);
        }
        assert_eq!(b.source_column(10, 3, 2), (1, 0));
    }

    #[test]
    fn percentiles_are_ordered_within_a_day() {
        let x = x();
        let v = DailyPercentiles.build(&x, 0, 14, 1);
        // Column 0, day 0 percentiles: increasing hour values.
        assert!(v[0] < v[1] && v[1] < v[2] && v[2] < v[3] && v[3] < v[4]);
        // Median of hours 312..336 = 323.5.
        assert!((v[2] - 323.5).abs() < 1e-9);
    }

    #[test]
    fn handcrafted_dimensions_fixed_across_w() {
        let x = x();
        let b = HandCrafted;
        for w in [1usize, 2, 7, 14] {
            let v = b.build(&x, 0, 14, w);
            assert_eq!(v.len(), b.dim(3, w));
            assert!(v.iter().all(|u| u.is_finite()));
        }
    }

    #[test]
    fn handcrafted_constant_column_stats() {
        let x = x();
        let v = HandCrafted.build(&x, 0, 14, 7);
        // Column 1 occupies [139, 278): whole-window stats first.
        let base = HANDCRAFTED_PER_COLUMN;
        assert_eq!(v[base], 5.0); // mean
        assert_eq!(v[base + 1], 0.0); // std
        assert_eq!(v[base + 2], 5.0); // min
        assert_eq!(v[base + 3], 5.0); // max
        // Half-diffs are zero.
        assert_eq!(v[base + 12], 0.0);
    }

    #[test]
    fn handcrafted_last_day_is_raw() {
        let x = x();
        let v = HandCrafted.build(&x, 0, 14, 7);
        // Column 0's last-day block sits at [139-26, 139-2).
        let start = HANDCRAFTED_PER_COLUMN - 26;
        for h in 0..24 {
            assert_eq!(v[start + h], (13 * 24 + h) as f64);
        }
    }

    #[test]
    fn builders_sanitise_nan() {
        let mut x = x();
        x.set(0, 100, 0, f64::NAN);
        for b in [&RawFlatten as &dyn FeatureBuilder, &DailyPercentiles, &HandCrafted] {
            let v = b.build(&x, 0, 14, 14);
            assert!(v.iter().all(|u| u.is_finite()), "{} produced non-finite", b.name());
        }
    }

    #[test]
    #[should_panic(expected = "underflows")]
    fn window_underflow_panics() {
        RawFlatten.build(&x(), 0, 1, 2);
    }
}
