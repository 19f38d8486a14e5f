//! Unified model dispatch: the eight models of Table III plus the
//! GBDT extension, addressable by a single enum so the sweep runner
//! and the experiment binaries can iterate over them uniformly.

use crate::baselines::{average_forecast, persist_forecast, random_forecast, trend_forecast};
use crate::classifier::{fit_and_forecast, ClassifierConfig, ClassifierKind, Representation};
use crate::context::ForecastContext;
use hotspot_features::windows::WindowSpec;
use hotspot_trees::SplitStrategy;

/// One of the paper's models (Table III), plus the GBDT extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelSpec {
    /// `F⁰`, uniform random scores.
    Random,
    /// Repeat the current label.
    Persist,
    /// Trailing mean of the daily score.
    Average,
    /// Average plus a trend projection.
    Trend,
    /// Single CART on raw features.
    Tree,
    /// Random forest on the raw slice.
    RfR,
    /// Random forest on daily percentiles.
    RfF1,
    /// Random forest on hand-crafted features.
    RfF2,
    /// Gradient boosting on daily percentiles (extension).
    Gbdt,
}

impl ModelSpec {
    /// The paper's eight models, in Table III order.
    pub const PAPER: [ModelSpec; 8] = [
        ModelSpec::Random,
        ModelSpec::Persist,
        ModelSpec::Average,
        ModelSpec::Trend,
        ModelSpec::Tree,
        ModelSpec::RfR,
        ModelSpec::RfF1,
        ModelSpec::RfF2,
    ];

    /// Stable display name (matches the paper's labels).
    pub fn name(self) -> &'static str {
        match self {
            ModelSpec::Random => "Random",
            ModelSpec::Persist => "Persist",
            ModelSpec::Average => "Average",
            ModelSpec::Trend => "Trend",
            ModelSpec::Tree => "Tree",
            ModelSpec::RfR => "RF-R",
            ModelSpec::RfF1 => "RF-F1",
            ModelSpec::RfF2 => "RF-F2",
            ModelSpec::Gbdt => "GBDT",
        }
    }

    /// Inverse of [`name`](Self::name), for checkpoint round-trips.
    pub fn parse(name: &str) -> Option<ModelSpec> {
        let all = [
            ModelSpec::Random,
            ModelSpec::Persist,
            ModelSpec::Average,
            ModelSpec::Trend,
            ModelSpec::Tree,
            ModelSpec::RfR,
            ModelSpec::RfF1,
            ModelSpec::RfF2,
            ModelSpec::Gbdt,
        ];
        all.into_iter().find(|m| m.name() == name)
    }

    /// Whether this is one of the classifier-based models (solid lines
    /// in Figs. 9 and 11).
    pub fn is_classifier(self) -> bool {
        matches!(
            self,
            ModelSpec::Tree | ModelSpec::RfR | ModelSpec::RfF1 | ModelSpec::RfF2 | ModelSpec::Gbdt
        )
    }

    /// The classifier configuration, for classifier models.
    pub fn classifier_config(
        self,
        n_trees: usize,
        train_days: usize,
        seed: u64,
        split: SplitStrategy,
    ) -> Option<ClassifierConfig> {
        let (kind, representation) = match self {
            ModelSpec::Tree => (ClassifierKind::Tree, Representation::Raw),
            ModelSpec::RfR => (ClassifierKind::Forest, Representation::Raw),
            ModelSpec::RfF1 => (ClassifierKind::Forest, Representation::Percentiles),
            ModelSpec::RfF2 => (ClassifierKind::Forest, Representation::HandCrafted),
            ModelSpec::Gbdt => (ClassifierKind::Gbdt, Representation::Percentiles),
            _ => return None,
        };
        Some(ClassifierConfig {
            kind,
            representation,
            n_trees,
            train_days,
            seed,
            forest_threads: None,
            cancel: None,
            split,
            cache: None,
        })
    }

    /// Run the model at `(t, h, w)` and return per-sector ranking
    /// scores for day `t + h`. Returns `None` when the model's input
    /// window cannot be formed.
    /// `split` selects the tree split-search engine; baselines ignore
    /// it.
    pub fn forecast(
        self,
        ctx: &ForecastContext,
        spec: &WindowSpec,
        n_trees: usize,
        train_days: usize,
        seed: u64,
        split: SplitStrategy,
    ) -> Option<Vec<f64>> {
        match self {
            ModelSpec::Random => Some(random_forecast(ctx, spec, seed)),
            ModelSpec::Persist => Some(persist_forecast(ctx, spec)),
            ModelSpec::Average => Some(average_forecast(ctx, spec)),
            ModelSpec::Trend => Some(trend_forecast(ctx, spec)),
            _ => {
                let config = self
                    .classifier_config(n_trees, train_days, seed, split)
                    .expect("classifier model");
                fit_and_forecast(ctx, spec, &config).map(|f| f.predictions)
            }
        }
    }
}

impl std::fmt::Display for ModelSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Target;
    use hotspot_core::pipeline::ScorePipeline;
    use hotspot_core::tensor::Tensor3;
    use hotspot_core::HOURS_PER_WEEK;

    fn ctx() -> ForecastContext {
        let catalog = hotspot_core::kpi::KpiCatalog::standard();
        let kpis = Tensor3::from_fn(6, HOURS_PER_WEEK * 4, 21, |i, j, k| {
            let def = &catalog.defs()[k];
            if i < 2 && (6..22).contains(&(j % 24)) {
                def.degraded
            } else {
                def.nominal
            }
        });
        let scored = ScorePipeline::standard().run(&kpis).unwrap();
        ForecastContext::build(&kpis, &scored, Target::BeHotSpot).unwrap()
    }

    #[test]
    fn paper_list_matches_table_iii() {
        let names: Vec<&str> = ModelSpec::PAPER.iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec!["Random", "Persist", "Average", "Trend", "Tree", "RF-R", "RF-F1", "RF-F2"]
        );
    }

    #[test]
    fn classifier_flags() {
        assert!(!ModelSpec::Average.is_classifier());
        assert!(ModelSpec::RfF1.is_classifier());
        assert!(ModelSpec::Average
            .classifier_config(10, 1, 0, SplitStrategy::default())
            .is_none());
        assert!(ModelSpec::Tree.classifier_config(10, 1, 0, SplitStrategy::default()).is_some());
    }

    #[test]
    fn every_model_produces_scores() {
        let c = ctx();
        let spec = WindowSpec::new(16, 2, 7);
        for m in ModelSpec::PAPER.iter().chain([&ModelSpec::Gbdt]) {
            let scores = m
                .forecast(&c, &spec, 8, 3, 1, SplitStrategy::default())
                .unwrap_or_else(|| panic!("{m} failed"));
            assert_eq!(scores.len(), 6, "{m}");
            assert!(scores.iter().all(|s| s.is_finite()), "{m}");
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(format!("{}", ModelSpec::RfF2), "RF-F2");
    }

    #[test]
    fn parse_round_trips_every_model() {
        for m in ModelSpec::PAPER.iter().chain([&ModelSpec::Gbdt]) {
            assert_eq!(ModelSpec::parse(m.name()), Some(*m));
        }
        assert_eq!(ModelSpec::parse("nope"), None);
    }
}
