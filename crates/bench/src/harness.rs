//! Run-scoped observability for experiment binaries.
//!
//! [`Experiment::from_cli`] starts every `exp_*` binary (most through
//! [`experiments::start`](crate::experiments::start)): it lays the
//! command line over the binary's defaults, configures the logger from
//! `HOTSPOT_LOG` and `--log-level`, attaches
//! the `--metrics-out` JSONL sink, enables span recording when any
//! artifact sink was requested, and fingerprints the science-relevant
//! configuration. Dropping the returned guard (normally or during a
//! panic unwind) emits a final metrics-snapshot event and writes the
//! `--manifest` JSON, so even a run that dies mid-sweep leaves a
//! truthful record with `outcome: "panicked"`.

use crate::options::{RunOptions, SweepFlags};
use hotspot_obs as obs;
use std::time::Instant;

/// RAII guard for one experiment run.
#[must_use = "dropping the guard immediately would record an empty run"]
pub struct Experiment {
    name: String,
    args: Vec<String>,
    manifest: Option<std::path::PathBuf>,
    seed: u64,
    fingerprint: String,
    shard: Option<obs::ShardIdentity>,
    started_unix_ms: u64,
    started: Instant,
}

impl Experiment {
    /// Lay the process's flags over this binary's `defaults`, then
    /// initialise observability for the run and return the guard that
    /// finalises it with the options the run uses. Call once, before
    /// any pipeline work. The fingerprint hashes the options after the
    /// flags are applied, so a default and an explicit flag that
    /// repeats it share one identity.
    pub fn from_cli(
        name: &str,
        defaults: RunOptions,
        sweep: SweepFlags,
    ) -> (Experiment, RunOptions) {
        let opts = defaults.with_flags(sweep, std::env::args().skip(1));
        obs::init_from_env();
        if let Some(level) = opts.log_level {
            obs::set_level(level);
        }
        if let Some(path) = &opts.metrics_out {
            if let Err(e) = obs::set_log_sink(path) {
                obs::error!("cannot open --metrics-out {}: {e}", path.display());
                std::process::exit(2);
            }
        }
        if let Some(path) = &opts.trace_out {
            if let Err(e) = obs::set_trace_sink(path) {
                obs::error!("cannot open --trace-out {}: {e}", path.display());
                std::process::exit(2);
            }
        }
        // Span recording costs a clock read per scope; pay it only
        // when the run is producing an artifact that reports timings.
        obs::set_spans_enabled(
            opts.manifest.is_some() || opts.metrics_out.is_some() || opts.trace_out.is_some(),
        );

        let fingerprint = format!("{:016x}", obs::fnv1a(identity(name, &opts).as_bytes()));
        let shard =
            opts.shard.map(|index| obs::ShardIdentity { index, count: opts.shards });
        obs::set_annotation("experiment", name);
        obs::set_annotation("config_fingerprint", &fingerprint);
        match shard {
            Some(s) => obs::info!(
                "{name}: starting shard {s} (seed {}, config {fingerprint})",
                opts.seed
            ),
            None => obs::info!("{name}: starting (seed {}, config {fingerprint})", opts.seed),
        }
        let run = Experiment {
            name: name.to_string(),
            args: std::env::args().skip(1).collect(),
            manifest: opts.manifest.clone(),
            seed: opts.seed,
            fingerprint,
            shard,
            started_unix_ms: obs::unix_ms(),
            started: Instant::now(),
        };
        (run, opts)
    }

    /// The hex configuration fingerprint of this run.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }
}

/// The configuration identity the fingerprint hashes: every option
/// that can change the numbers, and none that merely redirect output
/// (`--checkpoint`, `--manifest`, `--metrics-out`, `--log-level`) or
/// repartition execution (`--shards`, `--shard`, `--merge`) — a
/// re-run into different files is still the same experiment, and every
/// shard of one sweep must carry the same fingerprint so
/// `merge_shards` accepts the set.
fn identity(name: &str, opts: &RunOptions) -> String {
    format!(
        "{name}|{}|{}|{}|{}|{}|{}|{:?}|{:?}|{}|{:?}|{:?}",
        opts.sectors,
        opts.weeks,
        opts.seed,
        opts.trees,
        opts.train_days,
        opts.t_step,
        opts.imputer,
        opts.failure_rate,
        opts.firewall,
        opts.cell_deadline_ms,
        opts.split_strategy(),
    )
}

impl Drop for Experiment {
    fn drop(&mut self) {
        obs::clear_trace_sink();
        let outcome = if std::thread::panicking() { "panicked" } else { "ok" };
        let duration_ms = self.started.elapsed().as_millis() as u64;
        let metrics = obs::global().snapshot();
        obs::emit_json_event(&obs::Json::obj(vec![
            ("event", obs::Json::Str("metrics_snapshot".into())),
            ("ts_ms", obs::Json::Num(obs::unix_ms() as f64)),
            ("experiment", obs::Json::Str(self.name.clone())),
            ("outcome", obs::Json::Str(outcome.into())),
            ("duration_ms", obs::Json::Num(duration_ms as f64)),
            ("metrics", metrics.to_json()),
        ]));
        if let Some(path) = &self.manifest {
            let manifest = obs::RunManifest {
                experiment: self.name.clone(),
                config_fingerprint: self.fingerprint.clone(),
                seed: self.seed,
                args: self.args.clone(),
                git_describe: obs::git_describe(),
                started_unix_ms: self.started_unix_ms,
                finished_unix_ms: obs::unix_ms(),
                duration_ms,
                outcome: outcome.to_string(),
                shard: self.shard,
                metrics,
            };
            match manifest.write(path) {
                Ok(()) => obs::info!(
                    "{}: {outcome} in {duration_ms} ms, manifest at {}",
                    self.name,
                    path.display()
                ),
                Err(e) => {
                    obs::error!("{}: cannot write manifest {}: {e}", self.name, path.display())
                }
            }
        } else {
            obs::info!("{}: {outcome} in {duration_ms} ms", self.name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_obs::fnv1a;

    fn fp(name: &str, opts: &RunOptions) -> u64 {
        fnv1a(identity(name, opts).as_bytes())
    }

    #[test]
    fn fingerprint_tracks_science_not_plumbing() {
        let base = RunOptions::default();
        assert_eq!(fp("fig09", &base), fp("fig09", &base), "deterministic");
        assert_ne!(fp("fig09", &base), fp("fig11", &base), "name matters");

        let reseeded = RunOptions { seed: base.seed + 1, ..base.clone() };
        assert_ne!(fp("fig09", &base), fp("fig09", &reseeded), "seed matters");

        let exact = RunOptions { exact_splits: true, ..base.clone() };
        assert_ne!(fp("fig09", &base), fp("fig09", &exact), "split strategy matters");
        let coarse = RunOptions { max_bins: 16, ..base.clone() };
        assert_ne!(fp("fig09", &base), fp("fig09", &coarse), "bin budget matters");
        // --max-bins is plumbing when the strategy is exact.
        let exact_coarse = RunOptions { max_bins: 16, ..exact.clone() };
        assert_eq!(fp("fig09", &exact), fp("fig09", &exact_coarse), "bins ignored under exact");

        let redirected = RunOptions {
            manifest: Some("/tmp/elsewhere.json".into()),
            metrics_out: Some("/tmp/elsewhere.jsonl".into()),
            checkpoint: Some("/tmp/elsewhere.tsv".into()),
            log_level: Some(hotspot_obs::Level::Debug),
            ..base.clone()
        };
        assert_eq!(fp("fig09", &base), fp("fig09", &redirected), "output paths don't");

        // Sharding is plumbing too: every worker of a partitioned
        // sweep must fingerprint identically or merges would refuse.
        let sharded = RunOptions { shards: 3, shard: Some(1), ..base.clone() };
        let merging = RunOptions { shards: 3, merge: true, ..base.clone() };
        assert_eq!(fp("fig09", &base), fp("fig09", &sharded), "shard workers match");
        assert_eq!(fp("fig09", &base), fp("fig09", &merging), "merge mode matches");

        // The trace sink is pure output; it may not move the fingerprint.
        let traced = RunOptions { trace_out: Some("/tmp/run.trace.json".into()), ..base.clone() };
        assert_eq!(fp("fig09", &base), fp("fig09", &traced), "trace sink is plumbing");
    }

    #[test]
    fn default_and_explicit_equivalent_runs_share_a_fingerprint() {
        let run = |defaults: &RunOptions, args: &[&str]| {
            let flags = args.iter().map(|s| s.to_string());
            fp("x", &defaults.clone().with_flags(SweepFlags::Honoured, flags))
        };
        let become_target = RunOptions::become_target();
        assert_eq!(run(&become_target, &[]), run(&become_target, &["--failure-rate", "0.08"]));
        assert_ne!(run(&become_target, &[]), run(&RunOptions::default(), &[]));
        let dense = RunOptions { t_step: 3, ..RunOptions::default() };
        assert_eq!(run(&dense, &[]), run(&dense, &["--t-step", "3"]));
        assert_ne!(run(&dense, &[]), run(&dense, &["--t-step", "12"]));
        let small = RunOptions { sectors: 80, weeks: 8, ..RunOptions::default() };
        assert_eq!(run(&small, &[]), run(&small, &["--sectors", "80", "--weeks", "8"]));
    }
}
