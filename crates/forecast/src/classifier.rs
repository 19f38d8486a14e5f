//! The classifier-based forecasters (Sec. IV-D): Tree, RF-R, RF-F1,
//! RF-F2, and the GBDT extension.
//!
//! Per Eq. 7, a model is trained at day `t` on the `h`-delayed windows
//! `X_{i, t−h−w : t−h}` with labels `Y_{i,t}`, then forecasts from the
//! fresh windows `X_{i, t−w : t}` (Eq. 6). The paper, with tens of
//! thousands of sectors, trains on a single label day; at the reduced
//! sector counts of the synthetic substitute a single day may hold
//! just a handful of positives, so `train_days` lets the fit stack
//! several trailing label days (documented deviation — set it to 1
//! for the paper's exact protocol).

use crate::cache::{DayBlockColumns, SweepCache};
use crate::context::ForecastContext;
use hotspot_features::builders::{DailyPercentiles, FeatureBuilder, HandCrafted, RawFlatten};
use hotspot_features::plane::PlaneCache;
use hotspot_features::windows::{train_window_days, WindowSpec};
use hotspot_core::matrix::Matrix;
use hotspot_obs as obs;
use hotspot_trees::{
    BinnedDataset, CancelToken, Dataset, DecisionTree, GradientBoosting, GradientBoostingParams,
    RandomForest, RandomForestParams, SplitStrategy, TreeParams,
};
use std::sync::Arc;

/// Boxed scoring closure mapping a feature row to a probability.
type PredictFn = Box<dyn Fn(&[f64]) -> f64>;

/// Which estimator backs the classifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassifierKind {
    /// The paper's standalone decision tree.
    Tree,
    /// A random forest.
    Forest,
    /// Gradient-boosted trees (extension).
    Gbdt,
}

/// Which feature representation feeds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Representation {
    /// RF-R: the raw flattened slice.
    Raw,
    /// RF-F1: daily percentiles.
    Percentiles,
    /// RF-F2: hand-crafted statistics.
    HandCrafted,
}

impl Representation {
    /// The builder behind this representation. All builders are unit
    /// structs, so this is a free `'static` borrow — call sites share
    /// one instance instead of boxing a fresh one per call.
    pub fn builder(self) -> &'static dyn FeatureBuilder {
        match self {
            Representation::Raw => &RawFlatten,
            Representation::Percentiles => &DailyPercentiles,
            Representation::HandCrafted => &HandCrafted,
        }
    }
}

/// Classifier configuration.
#[derive(Debug, Clone)]
pub struct ClassifierConfig {
    /// Estimator.
    pub kind: ClassifierKind,
    /// Feature representation.
    pub representation: Representation,
    /// Trees in the forest (ignored by `Tree`; GBDT rounds for `Gbdt`).
    pub n_trees: usize,
    /// Trailing label days stacked into the training set (1 = the
    /// paper's protocol).
    pub train_days: usize,
    /// RNG seed.
    pub seed: u64,
    /// Threads for forest fitting (`None` = available parallelism).
    /// Sweep runners set 1 because they already parallelise across
    /// grid cells.
    pub forest_threads: Option<usize>,
    /// Cooperative cancellation for ensemble fitting. The sweep runner
    /// installs a deadline token here; callers that do not need one
    /// leave it `None`.
    pub cancel: Option<CancelToken>,
    /// Split-search strategy for every tree-based estimator
    /// (histogram by default; exact for reference runs).
    pub split: SplitStrategy,
    /// Shared per-sweep cache. Training assembly and forecasting
    /// always gather rows from its `(representation, end_day, w)`
    /// planes (a plane row *is* the builder's output), and day-block
    /// fits put their binned view together from its stored columns.
    /// Sweep executors install one cache per process so cells share
    /// both; standalone callers leave it `None` and each fit uses a
    /// cache local to the call.
    pub cache: Option<Arc<SweepCache>>,
}

impl ClassifierConfig {
    /// RF-F1 with the paper's forest settings.
    pub fn rf_f1() -> Self {
        ClassifierConfig {
            kind: ClassifierKind::Forest,
            representation: Representation::Percentiles,
            n_trees: 100,
            train_days: 1,
            seed: 0,
            forest_threads: None,
            cancel: None,
            split: SplitStrategy::default(),
            cache: None,
        }
    }
}

/// A fitted classifier: its per-sector forecast plus importance data.
pub struct FittedClassifier {
    /// Ranking scores `Ŷ_{:, t+h}` (probability of being hot).
    pub predictions: Vec<f64>,
    /// Flat feature importances (empty for GBDT).
    pub importances: Vec<f64>,
    /// The representation that produced the flat features.
    pub representation: Representation,
    /// Window length used (days).
    pub w: usize,
    /// Number of `X` columns.
    pub n_columns: usize,
    /// Number of training instances actually used.
    pub n_train: usize,
    /// Number of positive training instances.
    pub n_train_pos: usize,
}

impl FittedClassifier {
    /// Reshape the flat importances into the `(X column × position)`
    /// cumulative grid of Figs. 15–16. For RF-R the position axis is
    /// the hour within the window (width `24w`); for the percentile /
    /// hand-crafted representations it is the within-column feature
    /// index. Returns `None` when no importances exist (GBDT).
    pub fn importance_grid(&self) -> Option<Matrix> {
        if self.importances.is_empty() {
            return None;
        }
        let builder = self.representation.builder();
        let per_col = builder.dim(1, self.w);
        let mut grid = Matrix::zeros(self.n_columns, per_col);
        for (idx, &imp) in self.importances.iter().enumerate() {
            let (col, pos) = builder.source_column(idx, self.n_columns, self.w);
            grid.set(col, pos, grid.get(col, pos) + imp);
        }
        Some(grid)
    }

    /// Total importance attributed to each `X` column.
    pub fn column_importances(&self) -> Vec<f64> {
        let builder = self.representation.builder();
        let mut out = vec![0.0; self.n_columns];
        for (idx, &imp) in self.importances.iter().enumerate() {
            let (col, _) = builder.source_column(idx, self.n_columns, self.w);
            out[col] += imp;
        }
        out
    }
}

/// The label days a fit at `(t, h)` trains on.
///
/// The paper trains on the single day `t`; stacking several past
/// label days compensates for our reduced sector counts. Because the
/// forecast target day `t + h` generally falls on a different weekday
/// than `t`, stacked days are chosen on the *target's* weekday phase
/// — `t + h − 7k ≤ t` — so the learned (window → label) relationship
/// carries the same day-of-week shift it will be applied with. When
/// that phase yields no usable day, trailing days starting at `t`
/// fill in.
fn training_label_days(t: usize, h: usize, w: usize, train_days: usize) -> Vec<usize> {
    let want = train_days.max(1);
    let mut days = Vec::with_capacity(want);
    // Up to half the budget: recent same-phase days (t + h - 7k), so
    // the weekday shift the model is applied with is represented
    // without making the whole training set stale.
    let mut k = h.div_ceil(7);
    while days.len() < want.div_ceil(2) {
        let offset = 7 * k;
        if offset > t + h {
            break;
        }
        let day = t + h - offset;
        k += 1;
        if day > t {
            continue;
        }
        if day < h + w {
            break; // training window would underflow
        }
        days.push(day);
    }
    // Remainder: the freshest trailing days.
    let mut d = 0usize;
    while days.len() < want && d <= t {
        let day = t - d;
        if day >= h + w && !days.contains(&day) {
            days.push(day);
        }
        if day == 0 {
            break;
        }
        d += 1;
    }
    days
}

/// Assemble the training dataset for `(t, h, w)` over all sectors and
/// `train_days` label days (see [`training_label_days`]), gathering
/// rows from `cache`'s planes. Returns `None` when no valid training
/// instance exists.
pub fn assemble_training(
    ctx: &ForecastContext,
    spec: &WindowSpec,
    config: &ClassifierConfig,
    cache: &PlaneCache,
) -> Option<Dataset> {
    assemble(ctx, spec, config, cache).map(|(data, _)| data)
}

/// [`assemble_training`], plus the label days that contributed rows,
/// in row order.
fn assemble(
    ctx: &ForecastContext,
    spec: &WindowSpec,
    config: &ClassifierConfig,
    cache: &PlaneCache,
) -> Option<(Dataset, Vec<usize>)> {
    let _span = obs::span!("classifier.assemble");
    let builder = config.representation.builder();
    let f = ctx.x.n_features();
    let dim = builder.dim(f, spec.w);
    let label_days = training_label_days(spec.t, spec.h, spec.w, config.train_days);
    // Sized for every sector on every label day, so a wide (Raw) set is
    // never regrown by doubling.
    let capacity = label_days.len() * ctx.n_sectors();
    let mut rows: Vec<f64> = Vec::with_capacity(capacity * dim);
    let mut labels: Vec<bool> = Vec::with_capacity(capacity);
    let mut contributed = Vec::with_capacity(label_days.len());
    for label_day in label_days {
        let sub = WindowSpec { t: label_day, h: spec.h, w: spec.w };
        let Some((start, end)) = train_window_days(&sub) else {
            continue;
        };
        debug_assert_eq!(end - start, spec.w);
        // One whole-network plane per (representation, end, w); cells
        // across the grid share it. NaN-labelled sectors are skipped
        // below, but the full plane is what every other cell needs
        // anyway.
        let plane = cache.get_or_build(builder, &ctx.x, end, spec.w);
        let before = labels.len();
        for i in 0..ctx.n_sectors() {
            let y = ctx.target.get(i, label_day);
            if y.is_nan() {
                continue;
            }
            rows.extend_from_slice(plane.row(i));
            labels.push(y >= 0.5);
        }
        if labels.len() > before {
            contributed.push(label_day);
        }
    }
    if labels.is_empty() {
        return None;
    }
    let mut data = Dataset::new(rows, dim, labels).ok()?;
    data.balance_weights();
    Some((data, contributed))
}

/// A fit's training inputs: the assembled dataset and, when the split
/// strategy bins it ([`SplitStrategy::bins_for`]), its binned view.
pub struct TrainingSet {
    /// The assembled rows, labels and balanced weights.
    pub data: Dataset,
    /// The view histogram search runs on (`None`: exact search).
    pub binned: Option<BinnedDataset>,
}

/// Assemble the training set for `(t, h, w)` from `cache`'s planes and
/// bin it. A day-block representation (RF-F1) takes its binned view
/// from `cache`'s column store, quantising only the columns no earlier
/// fit stored; the others bin their own set. Either way the view is
/// bit-identical to `BinnedDataset::build` on the assembled set.
/// Returns `None` when no valid training instance exists.
pub fn training_set(
    ctx: &ForecastContext,
    spec: &WindowSpec,
    config: &ClassifierConfig,
    cache: &SweepCache,
) -> Option<TrainingSet> {
    let (data, label_days) = assemble(ctx, spec, config, &cache.planes)?;
    let builder = config.representation.builder();
    let binned = config.split.bins_for(data.n_samples()).map(|max_bins| {
        match builder.day_blocks(ctx.x.n_features()) {
            Some(blocks) => {
                let source = DayBlockColumns {
                    builder: builder.name(),
                    blocks,
                    h: spec.h,
                    w: spec.w,
                    label_days: &label_days,
                };
                cache.columns.view(&data, &source, max_bins)
            }
            None => BinnedDataset::build(&data, max_bins),
        }
    });
    Some(TrainingSet { data, binned })
}

/// Fit a classifier at `(t, h, w)` and forecast day `t + h`.
///
/// Returns `None` when no valid training window exists. When the
/// training labels are single-class the model still fits (predicting
/// the constant class probability), as scikit-learn would.
pub fn fit_and_forecast(
    ctx: &ForecastContext,
    spec: &WindowSpec,
    config: &ClassifierConfig,
) -> Option<FittedClassifier> {
    // Without a shared cache, one local to this call keeps a single
    // featurisation and binning path. A call never requests the same
    // plane or lag twice (every training day and the forecast window
    // end on distinct days), so it need keep nothing past its use:
    // zero budgets hold only the latest entry.
    let local;
    let cache = match &config.cache {
        Some(shared) => shared.as_ref(),
        None => {
            local = SweepCache::with_budgets(0, 0);
            &local
        }
    };
    let TrainingSet { data, binned } = training_set(ctx, spec, config, cache)?;
    let binned = binned.as_ref();
    let builder = config.representation.builder();
    let n_train = data.n_samples();
    let n_train_pos = (0..n_train).filter(|&i| data.label(i)).count();

    let predict: PredictFn;
    let importances: Vec<f64>;
    match config.kind {
        ClassifierKind::Tree => {
            let tree = DecisionTree::fit_binned(
                &data,
                binned,
                &TreeParams {
                    seed: config.seed,
                    split: config.split,
                    ..TreeParams::paper_tree()
                },
            );
            importances = tree.feature_importances().to_vec();
            predict = Box::new(move |row| tree.predict_proba(row));
        }
        ClassifierKind::Forest => {
            // The paper's 0.02% weight stop implies leaves of several
            // samples at operator scale (n in the tens of thousands);
            // at reduced sector counts the same fraction is below one
            // sample and the forest memorises unpredictable positives.
            // Keep the *absolute* leaf size instead: at least ~3
            // samples' worth of weight per retained node.
            let min_frac = (10.0 / n_train as f64).max(0.0002);
            let mut params = RandomForestParams::paper()
                .with_seed(config.seed)
                .with_trees(config.n_trees.max(1));
            params.n_threads = config.forest_threads;
            params.cancel = config.cancel.clone();
            params.tree.min_weight_fraction = min_frac;
            params.tree.split = config.split;
            let forest = RandomForest::fit_binned(&data, binned, &params);
            importances = forest.feature_importances().to_vec();
            predict = Box::new(move |row| forest.predict_proba(row));
        }
        ClassifierKind::Gbdt => {
            let gbdt = GradientBoosting::fit_binned(
                &data,
                binned,
                &GradientBoostingParams {
                    n_rounds: config.n_trees.max(1),
                    seed: config.seed,
                    cancel: config.cancel.clone(),
                    split: config.split,
                    ..Default::default()
                },
            );
            importances = Vec::new();
            predict = Box::new(move |row| gbdt.predict_proba(row));
        }
    }

    // Forecast side: the fresh window ending at `t` is itself a
    // shareable plane (same key for every h at a given (t, w)).
    let forecast_plane = cache.planes.get_or_build(builder, &ctx.x, spec.t, spec.w);
    let mut predictions: Vec<f64> =
        (0..ctx.n_sectors()).map(|i| predict(forecast_plane.row(i))).collect();
    // Deterministic informative tie-break: at reduced scale many
    // sectors share the exact same ensemble probability (granularity
    // is 1/n_trees), and ordering those ties by sector index would be
    // arbitrary. Order them by the Average baseline's score instead —
    // the perturbation (≤ 1e-9) is far below the probability
    // granularity, so it never overrides a real ensemble preference.
    let tie = crate::baselines::average_forecast(ctx, spec);
    let tie_max = tie.iter().cloned().fold(0.0_f64, f64::max).max(1e-12);
    for (p, t) in predictions.iter_mut().zip(&tie) {
        // Convex blend keeps the result inside [0, 1].
        *p = *p * (1.0 - 1e-9) + 1e-9 * (t / tie_max).clamp(0.0, 1.0);
    }
    Some(FittedClassifier {
        predictions,
        importances,
        representation: config.representation,
        w: spec.w,
        n_columns: ctx.x.n_features(),
        n_train,
        n_train_pos,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Target;
    use hotspot_core::pipeline::ScorePipeline;
    use hotspot_core::tensor::Tensor3;
    use hotspot_core::HOURS_PER_WEEK;

    /// 12 sectors, 4 weeks: even sectors are periodically hot
    /// (weekday-daytime overload), odd sectors healthy.
    fn ctx() -> ForecastContext {
        let catalog = hotspot_core::kpi::KpiCatalog::standard();
        let kpis = Tensor3::from_fn(12, HOURS_PER_WEEK * 4, 21, |i, j, k| {
            let def = &catalog.defs()[k];
            let hod = j % 24;
            let dow = (j / 24) % 7;
            let busy = i % 2 == 0 && (6..22).contains(&hod) && dow < 5;
            if busy {
                def.degraded
            } else {
                def.nominal
            }
        });
        let scored = ScorePipeline::standard().run(&kpis).unwrap();
        ForecastContext::build(&kpis, &scored, Target::BeHotSpot).unwrap()
    }

    fn small_config(kind: ClassifierKind, repr: Representation) -> ClassifierConfig {
        ClassifierConfig {
            kind,
            representation: repr,
            n_trees: 10,
            train_days: 3,
            seed: 5,
            forest_threads: Some(2),
            cancel: None,
            split: SplitStrategy::default(),
            cache: None,
        }
    }

    #[test]
    fn forest_separates_hot_from_cold_sectors() {
        let c = ctx();
        let spec = WindowSpec::new(16, 2, 7); // target day 18 (a weekday)
        let fitted = fit_and_forecast(
            &c,
            &spec,
            &small_config(ClassifierKind::Forest, Representation::Percentiles),
        )
        .unwrap();
        assert_eq!(fitted.predictions.len(), 12);
        assert!(fitted.n_train > 0);
        assert!(fitted.n_train_pos > 0);
        // Every hot sector should outrank every cold sector.
        let min_hot = (0..12)
            .step_by(2)
            .map(|i| fitted.predictions[i])
            .fold(f64::INFINITY, f64::min);
        let max_cold = (1..12)
            .step_by(2)
            .map(|i| fitted.predictions[i])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(min_hot > max_cold, "hot ≥ {min_hot}, cold ≤ {max_cold}");
    }

    #[test]
    fn all_kinds_and_representations_run() {
        let c = ctx();
        let spec = WindowSpec::new(16, 2, 7);
        for kind in [ClassifierKind::Tree, ClassifierKind::Forest, ClassifierKind::Gbdt] {
            for repr in
                [Representation::Raw, Representation::Percentiles, Representation::HandCrafted]
            {
                let fitted = fit_and_forecast(&c, &spec, &small_config(kind, repr))
                    .unwrap_or_else(|| panic!("{kind:?}/{repr:?} failed"));
                assert!(fitted.predictions.iter().all(|p| (0.0..=1.0).contains(p)));
            }
        }
    }

    #[test]
    fn underflowing_window_returns_none() {
        let c = ctx();
        let spec = WindowSpec::new(5, 2, 7); // needs day -4
        assert!(fit_and_forecast(
            &c,
            &spec,
            &small_config(ClassifierKind::Tree, Representation::Percentiles)
        )
        .is_none());
    }

    #[test]
    fn importance_grid_shapes() {
        let c = ctx();
        let spec = WindowSpec::new(16, 2, 7);
        let fitted = fit_and_forecast(
            &c,
            &spec,
            &small_config(ClassifierKind::Forest, Representation::Raw),
        )
        .unwrap();
        let grid = fitted.importance_grid().unwrap();
        assert_eq!(grid.shape(), (30, 24 * 7));
        // Total mass ≈ 1 (normalised importances).
        let total: f64 = grid.as_slice().iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
        // Column importances match the grid's row sums.
        let cols = fitted.column_importances();
        assert_eq!(cols.len(), 30);
        let row0: f64 = grid.row(0).iter().sum();
        assert!((cols[0] - row0).abs() < 1e-9);
    }

    #[test]
    fn score_columns_dominate_importance() {
        // The paper finds past scores are the strongest predictors.
        let c = ctx();
        let spec = WindowSpec::new(16, 2, 7);
        let fitted = fit_and_forecast(
            &c,
            &spec,
            &ClassifierConfig {
                n_trees: 20,
                ..small_config(ClassifierKind::Forest, Representation::Raw)
            },
        )
        .unwrap();
        let cols = fitted.column_importances();
        let score_mass: f64 = cols[26..30].iter().sum();
        assert!(score_mass > 0.2, "score columns carry {score_mass}");
    }

    #[test]
    fn cached_fit_matches_uncached_bitwise() {
        // The call-local cache (`cache: None`) against one shared
        // cache that stays warm across every fit below.
        let c = ctx();
        let spec = WindowSpec::new(16, 2, 7);
        let shared = Arc::new(SweepCache::with_budgets(usize::MAX, usize::MAX));
        for kind in [ClassifierKind::Tree, ClassifierKind::Forest, ClassifierKind::Gbdt] {
            for repr in
                [Representation::Raw, Representation::Percentiles, Representation::HandCrafted]
            {
                let local_config = small_config(kind, repr);
                let shared_config = ClassifierConfig {
                    cache: Some(Arc::clone(&shared)),
                    ..local_config.clone()
                };
                let local = fit_and_forecast(&c, &spec, &local_config).unwrap();
                let cached = fit_and_forecast(&c, &spec, &shared_config).unwrap();
                assert_eq!(
                    format!("{:?}", local.predictions),
                    format!("{:?}", cached.predictions),
                    "{kind:?}/{repr:?} shared-cache fit diverged"
                );
            }
        }
        // Each representation's planes were built by its first fit and
        // served warm to the other two kinds; so were RF-F1's columns.
        let stats = shared.planes.stats();
        assert!(stats.builds > 0);
        assert_eq!(stats.hits, 2 * stats.builds);
        let columns = shared.columns.stats();
        assert_eq!(columns.columns_quantised, 5 * 7 * 30, "one fit's 5w·F columns");
        assert_eq!(columns.columns_reused, 2 * columns.columns_quantised);
    }

    #[test]
    fn gbdt_has_no_importances() {
        let c = ctx();
        let spec = WindowSpec::new(16, 2, 7);
        let fitted = fit_and_forecast(
            &c,
            &spec,
            &small_config(ClassifierKind::Gbdt, Representation::Percentiles),
        )
        .unwrap();
        assert!(fitted.importance_grid().is_none());
    }
}
