//! # hotspot-core
//!
//! Core data model for the hot-spot forecasting system: the KPI tensor
//! `K`, the hot-spot score pipeline (Eqs. 1–4 of the paper), temporal
//! integration to hourly/daily/weekly resolution, hot-spot label
//! derivation (including the *become-a-hot-spot* target), calendar
//! features, and missing-value bookkeeping.
//!
//! The paper is *“Hot or Not? Forecasting Cellular Network Hot Spots
//! Using Sector Performance Indicators”* (Serrà et al., ICDE 2017).
//!
//! ## Conventions
//!
//! * All time indices are **0-based**. Hour `j` of day `d` is
//!   `24 * d + j`; day `d` of week `w` is `7 * w + d`.
//! * Missing values are represented as [`f64::NAN`] inside
//!   [`Tensor3`] / [`Matrix`]. Helper predicates live in [`missing`].
//! * The temporal averaging function `μ(x, y, z)` (Eq. 3) is the mean
//!   of the `y` samples *preceding and excluding* index `x`, i.e. the
//!   half-open window `[x - y, x)`. The paper's notation sums `y + 1`
//!   points but divides by `y`; we use the standard half-open form so
//!   the daily/weekly integrals tile the timeline exactly.

pub mod calendar;
pub mod error;
pub mod integrate;
pub mod io;
pub mod kpi;
pub mod labels;
pub mod matrix;
pub mod memo;
pub mod missing;
pub mod pipeline;
pub mod score;
pub mod tensor;
pub mod validate;

pub use calendar::{Calendar, CalendarConfig, Date};
pub use error::{CoreError, Result};
pub use integrate::{integrate, mu, Resolution};
pub use kpi::{KpiClass, KpiDef, KpiCatalog};
pub use labels::{become_hot_labels, hot_labels, prevalence, BecomeConfig};
pub use matrix::Matrix;
pub use missing::{fraction_missing, sector_filter_mask, MissingStats};
pub use pipeline::{ScorePipeline, ScoredNetwork};
pub use score::{raw_scores, ScoreConfig};
pub use tensor::Tensor3;
pub use validate::{screen, FirewallConfig, FirewallReport};

/// Hours per day (`δᵈ` in the paper).
pub const HOURS_PER_DAY: usize = 24;
/// Hours per week (`δʷ` in the paper).
pub const HOURS_PER_WEEK: usize = 168;
/// Days per week.
pub const DAYS_PER_WEEK: usize = 7;
