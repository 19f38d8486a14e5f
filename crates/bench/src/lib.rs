//! # hotspot-bench
//!
//! The experiment harness: one binary per paper table/figure (under
//! `src/bin/exp_*`) and this shared library — the one start call
//! ([`start`]), CLI options, the standard dataset preparation
//! pipeline (simulate → filter → impute → score), and TSV report
//! printing. `results/RUNS.tsv` records the flags behind each
//! committed result.
//!
//! Every experiment binary prints a self-describing TSV block to
//! stdout so `EXPERIMENTS.md` can quote results verbatim. All
//! binaries accept `--sectors`, `--weeks`, `--seed`, `--trees`,
//! `--train-days`, `--t-step` and `--imputer {ffill|mean|ae}` (the
//! paper-scale grid is `--t-step 1 --trees 100`; expect hours of
//! runtime on a laptop), laid over the binary's own defaults so an
//! explicit flag always wins. Only the sweep binaries ([`SweepFlags::Honoured`]) take the
//! sweep flags `--checkpoint`, `--resume`, `--shards`, `--shard` and
//! `--merge`; the others refuse them.
//! Observability flags ride along on every binary too: `--log-level`
//! tunes the stderr logger, `--metrics-out` streams JSONL log/metric
//! events, and `--manifest` writes the per-run JSON manifest (see
//! [`harness::Experiment`]).

pub mod experiments;
pub mod harness;
pub mod options;
pub mod prepare;
pub mod report;

pub use experiments::start;
pub use harness::Experiment;
pub use options::{ImputerChoice, RunOptions, SweepFlags};
pub use prepare::{prepare, Prepared};
pub use report::{print_header, print_row, print_section};
