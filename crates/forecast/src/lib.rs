//! # hotspot-forecast
//!
//! The forecasting methodology of Sec. IV: four baselines (Random,
//! Persist, Average, Trend), four tree-based models (Tree, RF-R,
//! RF-F1, RF-F2) plus a GBDT extension, the two forecast targets
//! ("be a hot spot", "become a hot spot"), per-day ranking evaluation
//! (average precision → lift over random), and a plan → executor →
//! collector sweep engine over the `(model, t, h, w)` grid of
//! Table III, with in-process thread-pool and sharded multi-process
//! execution plus a deterministic merge.

pub mod baselines;
pub mod checkpoint;
pub mod classifier;
pub mod context;
pub mod evaluate;
pub mod models;
pub mod sweep;

pub use baselines::{average_forecast, persist_forecast, random_forecast, trend_forecast};
pub use classifier::{ClassifierConfig, ClassifierKind, FittedClassifier};
pub use context::{ForecastContext, Target};
pub use evaluate::{evaluate_day, EvalRecord};
pub use models::ModelSpec;
pub use checkpoint::{
    config_fingerprint, load_checkpoint, load_checkpoint_raw, load_checkpoint_sharded,
    CheckpointHeader, CheckpointWriter,
};
pub use sweep::{
    canonical_tsv, deterministic_projection, merge_shards, run_sweep, run_sweep_resumable,
    CellKey, CellOutcome, FaultPlan, InProcessExecutor, MergedSweep, MultiProcessExecutor,
    ResiliencePolicy, ShardFiles, ShardSpec, SweepCell, SweepConfig, SweepExecutor, SweepHealth,
    SweepPlan, SweepResult, TableIIIGrid, WorkerSpec,
};
