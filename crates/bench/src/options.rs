//! Minimal CLI option parsing for the experiment binaries (no
//! external argument-parsing dependency needed for `--key value`
//! flags).

use hotspot_forecast::sweep::{ShardFiles, ShardSpec};

/// Which imputer fills the injected gaps before scoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImputerChoice {
    /// Forward fill (fast default for experiments).
    ForwardFill,
    /// Per-KPI mean.
    Mean,
    /// The paper's denoising autoencoder.
    Autoencoder,
}

/// Whether an experiment binary runs its sweep through
/// [`run_sweep_with_options`](crate::experiments::run_sweep_with_options)
/// and so honours the resume and shard flags. Each binary declares
/// this once, at its start call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepFlags {
    /// `--checkpoint`, `--resume`, `--shards`, `--shard` and `--merge`
    /// drive the sweep.
    Honoured,
    /// The binary would ignore those flags, so they exit 2 before any
    /// work instead of running the whole grid under a false claim.
    Refused,
}

/// The flags only a [`SweepFlags::Honoured`] binary takes.
const SWEEP_ONLY_FLAGS: [&str; 5] = ["--checkpoint", "--resume", "--shards", "--shard", "--merge"];

/// Options shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Number of simulated sectors.
    pub sectors: usize,
    /// Observation weeks.
    pub weeks: usize,
    /// Master seed.
    pub seed: u64,
    /// Trees per forest / GBDT rounds.
    pub trees: usize,
    /// Trailing label days stacked into classifier training sets.
    pub train_days: usize,
    /// Step over the Table III `t` axis (1 = every day, 6 = thinned).
    pub t_step: usize,
    /// Imputer choice.
    pub imputer: ImputerChoice,
    /// Hardware failures per tower per week (None = simulator
    /// default; the become-target experiments default to a higher,
    /// emergence-rich rate so evaluation days have positives).
    pub failure_rate: Option<f64>,
    /// Sweep checkpoint file: finished cells are journaled here, and
    /// with `--resume` a prior partial run is continued.
    pub checkpoint: Option<std::path::PathBuf>,
    /// Continue an existing checkpoint instead of refusing to reuse it.
    pub resume: bool,
    /// Screen raw KPIs through the data-quality firewall and drop
    /// quarantined sectors before the Sec. II-C filter.
    pub firewall: bool,
    /// Cooperative per-cell soft deadline for sweep cells, in ms.
    pub cell_deadline_ms: Option<u64>,
    /// Stderr log level (`--log-level`); overrides the `HOTSPOT_LOG`
    /// environment variable when set.
    pub log_level: Option<hotspot_obs::Level>,
    /// Stream machine-readable JSONL log/metric events to this file.
    pub metrics_out: Option<std::path::PathBuf>,
    /// Write a JSON run manifest (config fingerprint, seed, timings,
    /// final metrics snapshot) to this file when the run finishes.
    pub manifest: Option<std::path::PathBuf>,
    /// Force exact (sorted-scan) split finding instead of the default
    /// histogram engine.
    pub exact_splits: bool,
    /// Histogram bin budget per feature (`--max-bins`); ignored when
    /// `--split-strategy exact` is set.
    pub max_bins: u16,
    /// Total shard count for partitioned sweeps (`--shards N`); 1
    /// (the default) means unsharded. Sharding is execution topology,
    /// not science: it never enters config fingerprints.
    pub shards: u64,
    /// Worker mode: run only shard `I` of `--shards` (`--shard I`),
    /// journaling to the shard-derived checkpoint path. Without
    /// `--manifest`, the manifest goes to the shard-derived sidecar.
    pub shard: Option<u64>,
    /// Merge mode: adopt existing shard checkpoints/manifests instead
    /// of computing, and continue with the merged result.
    pub merge: bool,
    /// Stream chrome-tracing span events (begin/end pairs) to this
    /// file (`--trace-out PATH`); load it in `about://tracing` or
    /// Perfetto for a flamegraph-style timeline.
    pub trace_out: Option<std::path::PathBuf>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            sectors: 200,
            weeks: 18,
            seed: 7,
            trees: 25,
            train_days: 10,
            t_step: 12,
            imputer: ImputerChoice::ForwardFill,
            failure_rate: None,
            checkpoint: None,
            resume: false,
            firewall: false,
            cell_deadline_ms: None,
            log_level: None,
            metrics_out: None,
            manifest: None,
            exact_splits: false,
            max_bins: hotspot_trees::SplitStrategy::DEFAULT_MAX_BINS,
            shards: 1,
            shard: None,
            merge: false,
            trace_out: None,
        }
    }
}

impl RunOptions {
    /// Defaults of the "become a hot spot" experiments. Emergences are
    /// rare events; at reduced sector counts the paper's failure
    /// frequency leaves most evaluation days without a single positive,
    /// so these default to an emergence-rich rate (override with
    /// `--failure-rate`).
    pub fn become_target() -> RunOptions {
        RunOptions { failure_rate: Some(0.08), ..RunOptions::default() }
    }

    /// Lay command-line flags (excluding `argv[0]`) over these options,
    /// a binary's defaults: an explicit flag always wins.
    ///
    /// Unknown flags abort with a usage message, so typos never run a
    /// multi-minute experiment with silently-default parameters; so do
    /// the resume and shard flags under [`SweepFlags::Refused`].
    pub fn with_flags(self, sweep: SweepFlags, args: impl Iterator<Item = String>) -> Self {
        let mut opts = self;
        let mut args = args.peekable();
        let take = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                std::process::exit(2);
            })
        };
        while let Some(arg) = args.next() {
            if sweep == SweepFlags::Refused && SWEEP_ONLY_FLAGS.contains(&arg.as_str()) {
                eprintln!(
                    "{arg} is refused: this binary runs no resumable sweep, so it would \
                     ignore {}",
                    SWEEP_ONLY_FLAGS.join("/")
                );
                std::process::exit(2);
            }
            match arg.as_str() {
                "--sectors" => opts.sectors = parse_num(&take(&mut args, "--sectors"), "--sectors"),
                "--weeks" => opts.weeks = parse_num(&take(&mut args, "--weeks"), "--weeks"),
                "--seed" => opts.seed = parse_num(&take(&mut args, "--seed"), "--seed") as u64,
                "--trees" => opts.trees = parse_num(&take(&mut args, "--trees"), "--trees"),
                "--train-days" => {
                    opts.train_days = parse_num(&take(&mut args, "--train-days"), "--train-days")
                }
                "--t-step" => opts.t_step = parse_num(&take(&mut args, "--t-step"), "--t-step"),
                "--imputer" => {
                    opts.imputer = match take(&mut args, "--imputer").as_str() {
                        "ffill" => ImputerChoice::ForwardFill,
                        "mean" => ImputerChoice::Mean,
                        "ae" => ImputerChoice::Autoencoder,
                        other => {
                            eprintln!("unknown imputer '{other}' (ffill|mean|ae)");
                            std::process::exit(2);
                        }
                    }
                }
                "--failure-rate" => {
                    let v = take(&mut args, "--failure-rate");
                    opts.failure_rate = Some(v.parse().unwrap_or_else(|_| {
                        eprintln!("invalid number '{v}' for --failure-rate");
                        std::process::exit(2);
                    }));
                }
                "--checkpoint" => {
                    opts.checkpoint = Some(take(&mut args, "--checkpoint").into())
                }
                "--resume" => opts.resume = true,
                "--firewall" => opts.firewall = true,
                "--cell-deadline-ms" => {
                    opts.cell_deadline_ms = Some(parse_num(
                        &take(&mut args, "--cell-deadline-ms"),
                        "--cell-deadline-ms",
                    ) as u64)
                }
                "--log-level" => {
                    let v = take(&mut args, "--log-level");
                    opts.log_level = Some(hotspot_obs::Level::parse(&v).unwrap_or_else(|| {
                        eprintln!("unknown log level '{v}' (error|warn|info|debug)");
                        std::process::exit(2);
                    }));
                }
                "--metrics-out" => {
                    opts.metrics_out = Some(take(&mut args, "--metrics-out").into())
                }
                "--manifest" => opts.manifest = Some(take(&mut args, "--manifest").into()),
                "--split-strategy" => {
                    opts.exact_splits = match take(&mut args, "--split-strategy").as_str() {
                        "exact" => true,
                        "histogram" | "hist" => false,
                        other => {
                            eprintln!("unknown split strategy '{other}' (exact|histogram)");
                            std::process::exit(2);
                        }
                    }
                }
                "--shards" => {
                    let v = parse_num(&take(&mut args, "--shards"), "--shards");
                    if v == 0 {
                        eprintln!("--shards must be ≥ 1");
                        std::process::exit(2);
                    }
                    opts.shards = v as u64;
                }
                "--shard" => {
                    opts.shard = Some(parse_num(&take(&mut args, "--shard"), "--shard") as u64)
                }
                "--merge" => opts.merge = true,
                "--trace-out" => opts.trace_out = Some(take(&mut args, "--trace-out").into()),
                "--max-bins" => {
                    let v = parse_num(&take(&mut args, "--max-bins"), "--max-bins");
                    if v > u16::MAX as usize {
                        eprintln!("--max-bins must be in 2..=65535, got {v}");
                        std::process::exit(2);
                    }
                    opts.max_bins = v as u16;
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --sectors N --weeks N --seed N --trees N --train-days N \
                         --t-step N --imputer (ffill|mean|ae) --failure-rate F \
                         --checkpoint PATH --resume --firewall --cell-deadline-ms N \
                         --log-level (error|warn|info|debug) --metrics-out PATH \
                         --manifest PATH --split-strategy (exact|histogram) --max-bins N \
                         --shards N --shard I --merge --trace-out PATH"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown flag '{other}' (try --help)");
                    std::process::exit(2);
                }
            }
        }
        if let Some(refusal) = opts.out_of_range() {
            eprintln!("{refusal}");
            std::process::exit(2);
        }
        if opts.shard.is_some() && opts.merge {
            eprintln!("--shard (worker mode) and --merge (collector mode) are mutually exclusive");
            std::process::exit(2);
        }
        if let Some(i) = opts.shard {
            if i >= opts.shards {
                eprintln!("--shard {i} is out of range for --shards {}", opts.shards);
                std::process::exit(2);
            }
        }
        if opts.shards > 1 && opts.shard.is_none() && !opts.merge {
            eprintln!(
                "--shards {} needs --shard I (run one shard) or --merge (combine the shards); \
                 launch one --shard I worker per shard, then --merge",
                opts.shards
            );
            std::process::exit(2);
        }
        if (opts.shard.is_some() || opts.merge || opts.shards > 1) && opts.checkpoint.is_none() {
            eprintln!("--shards/--shard/--merge need --checkpoint PATH as the shard file base");
            std::process::exit(2);
        }
        // A worker's manifest is the sidecar `--merge` cross-checks, so
        // it defaults to the shard-derived path.
        if let (Some(index), Some(base), None) = (opts.shard, &opts.checkpoint, &opts.manifest) {
            let shard = ShardSpec { index, count: opts.shards };
            opts.manifest = Some(ShardFiles::for_base(base, shard).manifest);
        }
        opts
    }

    /// The first value, naming its flag, that the pipeline would
    /// silently clamp or that means nothing: a zero count, a bin
    /// budget below 2, or a negative or non-finite failure rate.
    fn out_of_range(&self) -> Option<String> {
        let counts = [
            ("--sectors", self.sectors),
            ("--weeks", self.weeks),
            ("--trees", self.trees),
            ("--train-days", self.train_days),
            ("--t-step", self.t_step),
        ];
        if let Some((flag, _)) = counts.iter().find(|(_, v)| *v == 0) {
            return Some(format!("{flag} must be ≥ 1, got 0"));
        }
        if self.max_bins < 2 {
            return Some(format!("--max-bins must be in 2..=65535, got {}", self.max_bins));
        }
        match self.failure_rate {
            Some(r) if !(r.is_finite() && r >= 0.0) => {
                Some(format!("--failure-rate must be finite and ≥ 0, got {r}"))
            }
            _ => None,
        }
    }

    /// The tree split-finding strategy these options select. Combines
    /// `--split-strategy` and `--max-bins` after parsing so flag order
    /// never matters.
    pub fn split_strategy(&self) -> hotspot_trees::SplitStrategy {
        if self.exact_splits {
            hotspot_trees::SplitStrategy::Exact
        } else {
            hotspot_trees::SplitStrategy::Histogram { max_bins: self.max_bins }
        }
    }

    /// The Table III `t` values this run evaluates (thinned by
    /// `t_step`), clipped so `t + max(h)` stays inside the series.
    ///
    /// Exits 2, naming `--weeks` and the smallest week count that
    /// works, when the series leaves room for no `t`: an empty grid
    /// would print all-`nan` tables as if it were a result.
    pub fn ts(&self, n_days: usize, max_h: usize) -> Vec<usize> {
        const FIRST_T: usize = 52;
        let ts: Vec<usize> = (FIRST_T..=87)
            .step_by(self.t_step.max(1))
            .filter(|t| t + max_h < n_days)
            .collect();
        if ts.is_empty() {
            let min_weeks = (FIRST_T + max_h + 1).div_ceil(7);
            eprintln!(
                "--weeks {} gives {n_days} days, too few for any Table III t (t >= {FIRST_T} \
                 plus horizons up to {max_h}); use --weeks {min_weeks} or more",
                self.weeks
            );
            std::process::exit(2);
        }
        ts
    }
}

fn parse_num(s: &str, flag: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        eprintln!("invalid number '{s}' for {flag}");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_over(defaults: RunOptions, args: &[&str]) -> RunOptions {
        defaults.with_flags(SweepFlags::Honoured, args.iter().map(|s| s.to_string()))
    }

    fn parse(args: &[&str]) -> RunOptions {
        parse_over(RunOptions::default(), args)
    }

    #[test]
    fn defaults_without_args() {
        let o = parse(&[]);
        assert_eq!(o.sectors, 200);
        assert_eq!(o.weeks, 18);
        assert_eq!(o.imputer, ImputerChoice::ForwardFill);
    }

    #[test]
    fn parses_all_flags() {
        let o = parse(&[
            "--sectors", "50", "--weeks", "6", "--seed", "9", "--trees", "40", "--train-days",
            "3", "--t-step", "4", "--imputer", "ae",
        ]);
        assert_eq!(o.sectors, 50);
        assert_eq!(o.weeks, 6);
        assert_eq!(o.seed, 9);
        assert_eq!(o.trees, 40);
        assert_eq!(o.train_days, 3);
        assert_eq!(o.t_step, 4);
        assert_eq!(o.imputer, ImputerChoice::Autoencoder);
    }

    #[test]
    fn parses_fault_tolerance_flags() {
        let o = parse(&[
            "--checkpoint", "/tmp/sweep.tsv", "--resume", "--firewall",
            "--cell-deadline-ms", "5000",
        ]);
        assert_eq!(o.checkpoint.as_deref(), Some(std::path::Path::new("/tmp/sweep.tsv")));
        assert!(o.resume);
        assert!(o.firewall);
        assert_eq!(o.cell_deadline_ms, Some(5000));
        let d = parse(&[]);
        assert_eq!(d.checkpoint, None);
        assert!(!d.resume && !d.firewall);
        assert_eq!(d.cell_deadline_ms, None);
    }

    #[test]
    fn parses_observability_flags() {
        let o = parse(&[
            "--log-level", "debug", "--metrics-out", "/tmp/run.jsonl", "--manifest",
            "/tmp/run.manifest.json",
        ]);
        assert_eq!(o.log_level, Some(hotspot_obs::Level::Debug));
        assert_eq!(o.metrics_out.as_deref(), Some(std::path::Path::new("/tmp/run.jsonl")));
        assert_eq!(
            o.manifest.as_deref(),
            Some(std::path::Path::new("/tmp/run.manifest.json"))
        );
        let d = parse(&[]);
        assert_eq!(d.log_level, None);
        assert!(d.metrics_out.is_none() && d.manifest.is_none());
    }

    #[test]
    fn parses_split_strategy_flags() {
        use hotspot_trees::SplitStrategy;
        let d = parse(&[]);
        assert!(!d.exact_splits);
        assert_eq!(
            d.split_strategy(),
            SplitStrategy::Histogram { max_bins: SplitStrategy::DEFAULT_MAX_BINS }
        );
        let e = parse(&["--split-strategy", "exact"]);
        assert_eq!(e.split_strategy(), SplitStrategy::Exact);
        let h = parse(&["--split-strategy", "hist", "--max-bins", "64"]);
        assert_eq!(h.split_strategy(), SplitStrategy::Histogram { max_bins: 64 });
        // Flag order must not matter: --max-bins before --split-strategy.
        let swapped = parse(&["--max-bins", "64", "--split-strategy", "histogram"]);
        assert_eq!(swapped.split_strategy(), SplitStrategy::Histogram { max_bins: 64 });
    }

    #[test]
    fn parses_sharding_flags() {
        let d = parse(&[]);
        assert_eq!(d.shards, 1);
        assert_eq!(d.shard, None);
        assert!(!d.merge);
        let w = parse(&["--checkpoint", "/tmp/sweep.tsv", "--shards", "3", "--shard", "1"]);
        assert_eq!(w.shards, 3);
        assert_eq!(w.shard, Some(1));
        // A worker writes the manifest sidecar `--merge` cross-checks…
        assert_eq!(
            w.manifest.as_deref(),
            Some(std::path::Path::new("/tmp/sweep.shard-1-of-3.manifest.json"))
        );
        // …unless an explicit --manifest says otherwise.
        let e = parse(&[
            "--manifest", "/tmp/own.json", "--checkpoint", "/tmp/sweep.tsv", "--shards", "3",
            "--shard", "1",
        ]);
        assert_eq!(e.manifest.as_deref(), Some(std::path::Path::new("/tmp/own.json")));
        let m = parse(&["--checkpoint", "/tmp/sweep.tsv", "--shards", "3", "--merge"]);
        assert!(m.merge);
        assert!(m.manifest.is_none(), "only workers get a default sidecar");
    }

    #[test]
    fn parses_trace_out_flag() {
        let d = parse(&[]);
        assert!(d.trace_out.is_none());
        let t = parse(&["--trace-out", "/tmp/run.trace.json"]);
        assert_eq!(t.trace_out.as_deref(), Some(std::path::Path::new("/tmp/run.trace.json")));
    }

    #[test]
    fn explicit_flags_win_over_binary_defaults() {
        let dense = RunOptions { t_step: 3, ..RunOptions::default() };
        assert_eq!(parse_over(dense.clone(), &[]).t_step, 3);
        // Even a flag that repeats the global default wins.
        assert_eq!(parse_over(dense, &["--t-step", "12"]).t_step, 12);

        let small = RunOptions { sectors: 80, weeks: 8, ..RunOptions::default() };
        let o = parse_over(small, &["--sectors", "200"]);
        assert_eq!((o.sectors, o.weeks), (200, 8));

        assert_eq!(RunOptions::become_target().failure_rate, Some(0.08));
        let o = parse_over(RunOptions::become_target(), &["--failure-rate", "0.02"]);
        assert_eq!(o.failure_rate, Some(0.02));
    }

    #[test]
    fn clamped_or_meaningless_values_are_refused() {
        let d = RunOptions::default();
        assert_eq!(d.out_of_range(), None);
        let refused = [
            ("--sectors", RunOptions { sectors: 0, ..d.clone() }),
            ("--weeks", RunOptions { weeks: 0, ..d.clone() }),
            ("--trees", RunOptions { trees: 0, ..d.clone() }),
            ("--train-days", RunOptions { train_days: 0, ..d.clone() }),
            ("--t-step", RunOptions { t_step: 0, ..d.clone() }),
            ("--max-bins", RunOptions { max_bins: 1, ..d.clone() }),
            ("--failure-rate", RunOptions { failure_rate: Some(-1.0), ..d.clone() }),
            ("--failure-rate", RunOptions { failure_rate: Some(f64::NAN), ..d.clone() }),
        ];
        for (flag, opts) in refused {
            let refusal = opts.out_of_range().unwrap_or_else(|| panic!("{flag} not refused"));
            assert!(refusal.starts_with(flag), "{refusal}");
        }
        let edge = RunOptions { max_bins: 2, failure_rate: Some(0.0), t_step: 1, ..d };
        assert_eq!(edge.out_of_range(), None);
    }

    #[test]
    fn ts_respects_series_length() {
        let o = parse(&["--t-step", "6"]);
        let ts = o.ts(126, 29);
        assert_eq!(ts, vec![52, 58, 64, 70, 76, 82]);
        // Clipped when the series is short.
        let clipped = o.ts(90, 29);
        assert_eq!(clipped, vec![52, 58]);
    }
}
