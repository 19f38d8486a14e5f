//! The forecasting context: everything a model may read.

use hotspot_core::matrix::Matrix;
use hotspot_core::pipeline::ScoredNetwork;
use hotspot_core::tensor::Tensor3;
use hotspot_features::tensor_x::build_tensor_x;

/// Which label the forecast targets (Sec. IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// `Yᵈ`: "is the sector a hot spot on day t + h".
    BeHotSpot,
    /// The emerging-persistent-hot-spot label.
    BecomeHotSpot,
}

impl Target {
    /// Stable label for reports.
    pub fn name(self) -> &'static str {
        match self {
            Target::BeHotSpot => "be",
            Target::BecomeHotSpot => "become",
        }
    }
}

/// Everything the models read: the input tensor `X`, the daily scores
/// `Sᵈ` (for the Average/Trend baselines), and the target labels.
#[derive(Debug, Clone)]
pub struct ForecastContext {
    /// Combined input tensor `X` (Eq. 5).
    pub x: Tensor3,
    /// Daily score matrix `Sᵈ`.
    pub s_daily: Matrix,
    /// Prefix-sum tables over `Sᵈ` — O(1) trailing-window means for
    /// the Average/Trend baselines (built once per context, reused by
    /// every grid cell).
    pub daily_prefix: DailyPrefix,
    /// The label matrix being forecast (daily resolution).
    pub target: Matrix,
    /// Which target this context carries.
    pub which: Target,
}

/// Per-sector cumulative `(sum, count)` tables over a daily matrix,
/// skipping `NaN` entries exactly like [`hotspot_core::integrate::mu`]:
/// a trailing-window mean becomes two table lookups instead of an
/// O(window) scan. Note the one observable (and deliberate) numeric
/// difference from the sequential scan: the mean is computed as a
/// *difference of prefix sums*, whose low-order rounding can differ
/// from left-to-right summation by ~1 ulp. Every baseline caller uses
/// this path unconditionally, so results remain deterministic and
/// identical across cache budgets, sharded, and resumed runs.
#[derive(Debug, Clone)]
pub struct DailyPrefix {
    n_days: usize,
    /// `sums[i·(n_days+1) + j]` = sum of non-NaN `row(i)[..j]`.
    sums: Vec<f64>,
    /// Matching non-NaN counts.
    counts: Vec<u32>,
}

impl DailyPrefix {
    /// Build the tables from a daily matrix (rows = sectors).
    pub fn from_daily(daily: &Matrix) -> Self {
        let n_days = daily.cols();
        let stride = n_days + 1;
        let mut sums = vec![0.0; daily.rows() * stride];
        let mut counts = vec![0u32; daily.rows() * stride];
        for i in 0..daily.rows() {
            let base = i * stride;
            let mut sum = 0.0;
            let mut count = 0u32;
            for (j, &v) in daily.row(i).iter().enumerate() {
                if !v.is_nan() {
                    sum += v;
                    count += 1;
                }
                sums[base + j + 1] = sum;
                counts[base + j + 1] = count;
            }
        }
        DailyPrefix { n_days, sums, counts }
    }

    /// Mean of the non-NaN entries in sector `i`'s trailing window
    /// `[j+1−window, j+1)` (clamped at day 0) — the O(1) counterpart
    /// of `trailing_mean(row(i), j, window)`. `NaN` when the window
    /// holds no finite value.
    ///
    /// # Panics
    /// Panics when `j` is outside the table's day range.
    pub fn trailing_mean(&self, i: usize, j: usize, window: usize) -> f64 {
        assert!(j < self.n_days, "trailing_mean: index out of range");
        let end = j + 1;
        let start = end.saturating_sub(window.max(1));
        let base = i * (self.n_days + 1);
        let count = self.counts[base + end] - self.counts[base + start];
        if count == 0 {
            f64::NAN
        } else {
            (self.sums[base + end] - self.sums[base + start]) / count as f64
        }
    }

    /// Number of days covered by the tables.
    pub fn n_days(&self) -> usize {
        self.n_days
    }
}

impl ForecastContext {
    /// Assemble a context from an (imputed) KPI tensor and the scored
    /// pipeline products.
    ///
    /// # Errors
    /// Propagates dimension mismatches from tensor-X assembly.
    pub fn build(
        kpis: &Tensor3,
        scored: &ScoredNetwork,
        which: Target,
    ) -> hotspot_core::error::Result<Self> {
        let x = build_tensor_x(kpis, scored)?;
        let target = match which {
            Target::BeHotSpot => scored.y_daily.clone(),
            Target::BecomeHotSpot => scored.y_become.clone(),
        };
        let daily_prefix = DailyPrefix::from_daily(&scored.s_daily);
        Ok(ForecastContext { x, s_daily: scored.s_daily.clone(), daily_prefix, target, which })
    }

    /// Number of sectors.
    pub fn n_sectors(&self) -> usize {
        self.x.n_sectors()
    }

    /// Number of days covered by every signal.
    pub fn n_days(&self) -> usize {
        self.s_daily.cols().min(self.target.cols()).min(self.x.n_time() / 24)
    }

    /// The true labels of the target day as booleans (`None` entries —
    /// `NaN` labels — are mapped to `false` and excluded upstream by
    /// the evaluator's finite mask).
    pub fn labels_at(&self, day: usize) -> Vec<bool> {
        (0..self.n_sectors()).map(|i| self.target.get(i, day) >= 0.5).collect()
    }

    /// Count of positive labels at a day.
    pub fn positives_at(&self, day: usize) -> usize {
        self.labels_at(day).iter().filter(|&&b| b).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_core::pipeline::ScorePipeline;
    use hotspot_core::HOURS_PER_WEEK;

    fn fixture(which: Target) -> ForecastContext {
        let catalog = hotspot_core::kpi::KpiCatalog::standard();
        // Sector 0 degrades permanently from week 2 on; sector 1 is healthy.
        let kpis = Tensor3::from_fn(2, HOURS_PER_WEEK * 4, 21, |i, j, k| {
            let def = &catalog.defs()[k];
            if i == 0 && j >= HOURS_PER_WEEK * 2 {
                def.degraded
            } else {
                def.nominal
            }
        });
        let scored = ScorePipeline::standard().run(&kpis).unwrap();
        ForecastContext::build(&kpis, &scored, which).unwrap()
    }

    #[test]
    fn be_target_uses_daily_labels() {
        let ctx = fixture(Target::BeHotSpot);
        assert_eq!(ctx.which.name(), "be");
        assert_eq!(ctx.n_sectors(), 2);
        assert_eq!(ctx.n_days(), 28);
        // Sector 0 hot in the second half.
        assert!(ctx.labels_at(20)[0]);
        assert!(!ctx.labels_at(20)[1]);
        assert_eq!(ctx.positives_at(20), 1);
        assert_eq!(ctx.positives_at(3), 0);
    }

    #[test]
    fn daily_prefix_matches_sequential_trailing_mean() {
        use hotspot_core::integrate::trailing_mean;
        // Mix of values and NaN runs, including an all-NaN prefix.
        let m = Matrix::from_fn(3, 10, |i, j| match (i, j) {
            (0, _) => (j * j) as f64 * 0.37 - 1.0,
            (1, 0..=3) => f64::NAN,
            (1, _) => j as f64,
            (_, j) if j % 2 == 0 => f64::NAN,
            (_, j) => -(j as f64),
        });
        let prefix = DailyPrefix::from_daily(&m);
        assert_eq!(prefix.n_days(), 10);
        for i in 0..3 {
            for j in 0..10 {
                for window in [1usize, 2, 3, 7, 100] {
                    let fast = prefix.trailing_mean(i, j, window);
                    let slow = trailing_mean(m.row(i), j, window);
                    assert!(
                        fast == slow || (fast.is_nan() && slow.is_nan()) ||
                            (fast - slow).abs() <= 1e-12 * slow.abs().max(1.0),
                        "({i}, {j}, {window}): fast {fast} vs slow {slow}"
                    );
                }
            }
        }
        // Zero-window clamps to 1 like the sequential version.
        assert_eq!(prefix.trailing_mean(0, 4, 0), trailing_mean(m.row(0), 4, 0));
    }

    #[test]
    fn become_target_flags_the_transition() {
        let ctx = fixture(Target::BecomeHotSpot);
        // Exactly one sector transitions, somewhere near day 13/14.
        let total: usize = (0..ctx.n_days()).map(|d| ctx.positives_at(d)).sum();
        assert_eq!(total, 1, "expected exactly one emergence");
        let day = (0..ctx.n_days()).find(|&d| ctx.positives_at(d) > 0).unwrap();
        assert!((12..=14).contains(&day), "transition at day {day}");
    }
}
