//! # hotspot-trees
//!
//! Tree-based classifiers implemented from scratch: CART decision
//! trees with weighted Gini splitting, bagged random forests with
//! per-split feature subsampling, and gradient-boosted trees as an
//! extension. This crate replaces the scikit-learn 0.17 estimators the
//! paper used (Sec. IV-D) with the same hyper-parameter semantics:
//!
//! * **Tree** — Gini split metric, a random 80% of features evaluated
//!   at every partition, balanced sample weights, and partitioning
//!   stopped when a node holds less than 2% of the total weight.
//! * **Random forest** — deep trees (0.02% weight stop), at most √d
//!   features per split, bootstrap aggregation of class probabilities,
//!   impurity-derived feature importances.
//! * **GBDT** — logistic-loss gradient boosting over shallow
//!   regression trees (the paper's related work [34] and an ablation
//!   here).
//!
//! The crate is self-contained (no dependency on the rest of the
//! workspace) so it can be reused as a generic small-ML library.

pub mod binned;
pub mod cancel;
pub mod dataset;
pub mod describe;
pub mod forest;
pub mod gbdt;
pub mod split;
pub mod tree;

pub use binned::{BinnedColumn, BinnedDataset, SplitStrategy};
pub use cancel::CancelToken;
pub use dataset::Dataset;
pub use describe::SplitDescription;
pub use forest::{RandomForest, RandomForestParams};
pub use gbdt::{GradientBoosting, GradientBoostingParams};
pub use split::{gini, SplitCandidate};
pub use tree::{DecisionTree, MaxFeatures, TreeParams};
