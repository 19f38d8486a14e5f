//! Per-run manifests: the JSON record written next to an experiment's
//! TSV output that makes the run reproducible and profilable from its
//! artifacts alone — which configuration (fingerprint + seed + argv)
//! produced it, on which code (git describe), when, how long it took,
//! and the final metrics snapshot (counters, gauges, histograms, span
//! timings, annotations such as the sweep-health summary).

use crate::json::Json;
use crate::metrics::MetricsSnapshot;
use std::path::Path;

/// Schema tag in every manifest.
pub const MANIFEST_SCHEMA: &str = "hotspot-run-manifest";
/// Current schema version. v2 adds the optional shard identity; v1
/// manifests (no `shard` field) still parse.
pub const MANIFEST_VERSION: u64 = 2;

/// Which shard of a partitioned run a manifest describes. A run that
/// was not sharded carries no identity (serialised as an absent
/// `shard` field, which is also how v1 manifests parse).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardIdentity {
    /// Zero-based shard index.
    pub index: u64,
    /// Total shard count of the run.
    pub count: u64,
}

impl std::fmt::Display for ShardIdentity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Everything recorded about one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Experiment name (e.g. `fig09_lift_vs_horizon`).
    pub experiment: String,
    /// Hex FNV-1a fingerprint of the run configuration.
    pub config_fingerprint: String,
    /// Master seed.
    pub seed: u64,
    /// Raw argv (minus the binary path) for exact replay.
    pub args: Vec<String>,
    /// `git describe --always --dirty` of the working tree, or
    /// `"unknown"` outside a repository.
    pub git_describe: String,
    /// Run start, milliseconds since the Unix epoch.
    pub started_unix_ms: u64,
    /// Run end, milliseconds since the Unix epoch.
    pub finished_unix_ms: u64,
    /// Monotonic wall-clock duration (not the difference of the two
    /// timestamps, which wall-clock adjustments could skew).
    pub duration_ms: u64,
    /// `"ok"` or `"panicked"`.
    pub outcome: String,
    /// Shard identity when this manifest describes one worker of a
    /// partitioned sweep; `None` for unsharded runs.
    pub shard: Option<ShardIdentity>,
    /// Final metrics snapshot.
    pub metrics: MetricsSnapshot,
}

impl RunManifest {
    /// Render as a JSON object (includes derived human-readable
    /// timestamps that `from_json` ignores).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema", Json::Str(MANIFEST_SCHEMA.into())),
            ("version", Json::Num(MANIFEST_VERSION as f64)),
            ("experiment", Json::Str(self.experiment.clone())),
            ("config_fingerprint", Json::Str(self.config_fingerprint.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("args", Json::Arr(self.args.iter().map(|a| Json::Str(a.clone())).collect())),
            ("git_describe", Json::Str(self.git_describe.clone())),
            ("started_unix_ms", Json::Num(self.started_unix_ms as f64)),
            ("started_iso", Json::Str(iso_utc(self.started_unix_ms))),
            ("finished_unix_ms", Json::Num(self.finished_unix_ms as f64)),
            ("finished_iso", Json::Str(iso_utc(self.finished_unix_ms))),
            ("duration_ms", Json::Num(self.duration_ms as f64)),
            ("outcome", Json::Str(self.outcome.clone())),
        ];
        if let Some(shard) = self.shard {
            fields.push((
                "shard",
                Json::obj(vec![
                    ("index", Json::Num(shard.index as f64)),
                    ("count", Json::Num(shard.count as f64)),
                ]),
            ));
        }
        fields.push(("metrics", self.metrics.to_json()));
        Json::obj(fields)
    }

    /// Parse a manifest previously rendered by [`Self::to_json`].
    ///
    /// # Errors
    /// A human-readable message naming the first missing or mistyped
    /// field, or a schema mismatch.
    pub fn from_json(json: &Json) -> Result<RunManifest, String> {
        let schema = json.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != MANIFEST_SCHEMA {
            return Err(format!("not a run manifest (schema {schema:?})"));
        }
        let str_field = |key: &str| -> Result<String, String> {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("manifest missing string field {key:?}"))
        };
        let u64_field = |key: &str| -> Result<u64, String> {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("manifest missing integer field {key:?}"))
        };
        let args = json
            .get("args")
            .and_then(Json::as_arr)
            .ok_or("manifest missing array field \"args\"")?
            .iter()
            .map(|a| a.as_str().map(str::to_string).ok_or("non-string arg".to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let metrics = MetricsSnapshot::from_json(
            json.get("metrics").ok_or("manifest missing \"metrics\"")?,
        )?;
        let shard = match json.get("shard") {
            None => None,
            Some(s) => {
                let part = |key: &str| -> Result<u64, String> {
                    s.get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("manifest shard missing integer field {key:?}"))
                };
                Some(ShardIdentity { index: part("index")?, count: part("count")? })
            }
        };
        Ok(RunManifest {
            experiment: str_field("experiment")?,
            config_fingerprint: str_field("config_fingerprint")?,
            seed: u64_field("seed")?,
            args,
            git_describe: str_field("git_describe")?,
            started_unix_ms: u64_field("started_unix_ms")?,
            finished_unix_ms: u64_field("finished_unix_ms")?,
            duration_ms: u64_field("duration_ms")?,
            outcome: str_field("outcome")?,
            shard,
            metrics,
        })
    }

    /// Write the manifest (pretty enough: one line; JSON tooling
    /// reflows). Parent directories must exist.
    ///
    /// # Errors
    /// Propagates file I/O errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().render() + "\n")
    }

    /// Read and parse a manifest file.
    ///
    /// # Errors
    /// I/O errors and parse failures, rendered as strings.
    pub fn read(path: &Path) -> Result<RunManifest, String> {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        Self::from_json(&Json::parse(&text)?)
    }
}

/// The result of lining two run manifests up against each other:
/// whether they describe the same configuration, and where their
/// deterministic metrics diverge. Built by [`compare_manifests`]; used
/// by `manifest_check --compare` and by shard-merge validation (a
/// merge refuses shards whose fingerprints disagree, quoting this
/// report as the diagnostic).
#[derive(Debug, Clone)]
pub struct ManifestComparison {
    /// `(experiment, config_fingerprint, shard)` of side A.
    pub a: (String, String, Option<ShardIdentity>),
    /// Same for side B.
    pub b: (String, String, Option<ShardIdentity>),
    /// Counters whose values differ (or exist on one side only):
    /// `(name, value_a, value_b)`.
    pub counter_deltas: Vec<(String, Option<u64>, Option<u64>)>,
    /// Gauges whose values differ: `(name, value_a, value_b)`.
    pub gauge_deltas: Vec<(String, Option<f64>, Option<f64>)>,
    /// Wall-clock durations of the two runs.
    pub duration_ms: (u64, u64),
}

impl ManifestComparison {
    /// Whether both manifests carry the same config fingerprint — the
    /// precondition for any further "same experiment?" reasoning.
    pub fn fingerprints_match(&self) -> bool {
        self.a.1 == self.b.1
    }

    /// Whether the deterministic metric domains (counters and gauges)
    /// agree exactly.
    pub fn metrics_match(&self) -> bool {
        self.counter_deltas.is_empty() && self.gauge_deltas.is_empty()
    }

    /// Multi-line human-readable report.
    pub fn render(&self) -> String {
        let shard = |s: &Option<ShardIdentity>| match s {
            Some(id) => format!(" shard {id}"),
            None => String::new(),
        };
        let mut out = format!(
            "A: {} fingerprint {}{}\nB: {} fingerprint {}{}\n",
            self.a.0,
            self.a.1,
            shard(&self.a.2),
            self.b.0,
            self.b.1,
            shard(&self.b.2),
        );
        if !self.fingerprints_match() {
            out.push_str("config fingerprints DIFFER — these are different experiments\n");
            return out;
        }
        out.push_str("config fingerprints match\n");
        let fmt_u = |v: &Option<u64>| v.map_or("-".to_string(), |x| x.to_string());
        let fmt_f = |v: &Option<f64>| v.map_or("-".to_string(), |x| format!("{x:?}"));
        for (name, a, b) in &self.counter_deltas {
            out.push_str(&format!("counter {name}: {} vs {}\n", fmt_u(a), fmt_u(b)));
        }
        for (name, a, b) in &self.gauge_deltas {
            out.push_str(&format!("gauge {name}: {} vs {}\n", fmt_f(a), fmt_f(b)));
        }
        if self.metrics_match() {
            out.push_str("deterministic metrics (counters, gauges) identical\n");
        }
        out.push_str(&format!(
            "duration: {} ms vs {} ms\n",
            self.duration_ms.0, self.duration_ms.1
        ));
        out
    }
}

/// Line two manifests up: fingerprint identity plus deltas over the
/// deterministic metric domains (counters and gauges — histograms and
/// spans carry wall-clock and are expected to differ between runs).
pub fn compare_manifests(a: &RunManifest, b: &RunManifest) -> ManifestComparison {
    let mut counter_deltas = Vec::new();
    let names: std::collections::BTreeSet<&String> =
        a.metrics.counters.keys().chain(b.metrics.counters.keys()).collect();
    for name in names {
        let va = a.metrics.counters.get(name).copied();
        let vb = b.metrics.counters.get(name).copied();
        if va != vb {
            counter_deltas.push((name.clone(), va, vb));
        }
    }
    let mut gauge_deltas = Vec::new();
    let names: std::collections::BTreeSet<&String> =
        a.metrics.gauges.keys().chain(b.metrics.gauges.keys()).collect();
    for name in names {
        let va = a.metrics.gauges.get(name).copied();
        let vb = b.metrics.gauges.get(name).copied();
        if va != vb {
            gauge_deltas.push((name.clone(), va, vb));
        }
    }
    ManifestComparison {
        a: (a.experiment.clone(), a.config_fingerprint.clone(), a.shard),
        b: (b.experiment.clone(), b.config_fingerprint.clone(), b.shard),
        counter_deltas,
        gauge_deltas,
        duration_ms: (a.duration_ms, b.duration_ms),
    }
}

/// FNV-1a over arbitrary bytes — the workspace's one cheap stable
/// hash: run and sweep-checkpoint config fingerprints, and the sweep
/// planner's shard keys.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// `git describe --always --dirty`, or `"unknown"` when git or the
/// repository is unavailable.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Render epoch milliseconds as `YYYY-MM-DDTHH:MM:SS.mmmZ` (proleptic
/// Gregorian, UTC) without a date-time dependency.
pub fn iso_utc(unix_ms: u64) -> String {
    let secs = unix_ms / 1000;
    let ms = unix_ms % 1000;
    let days = secs / 86_400;
    let tod = secs % 86_400;
    let (h, min, s) = (tod / 3600, (tod % 3600) / 60, tod % 60);
    // Howard Hinnant's civil_from_days, specialised to days >= 0.
    let z = days as i64 + 719_468;
    let era = z / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}T{h:02}:{min:02}:{s:02}.{ms:03}Z")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Obs;

    fn sample_manifest() -> RunManifest {
        let obs = Obs::new();
        obs.counter("sweep.cells.evaluated").add(42);
        obs.counter("trees.trees_fit").add(1260);
        obs.gauge("imputer.reconstruction_error").set(0.0625);
        obs.histogram("sweep.cell_ms", &[1.0, 10.0, 100.0]).observe(12.0);
        obs.record_span("sweep", 5_000_000);
        obs.record_span("sweep.cell", 111_222);
        obs.set_annotation("sweep_health", "42 evaluated, 0 errored");
        RunManifest {
            experiment: "fig09_lift_vs_horizon".into(),
            config_fingerprint: format!("{:016x}", fnv1a(b"config")),
            seed: 7,
            args: vec!["--sectors".into(), "200".into()],
            git_describe: git_describe(),
            started_unix_ms: 1_754_500_000_000,
            finished_unix_ms: 1_754_500_012_345,
            duration_ms: 12_345,
            outcome: "ok".into(),
            shard: None,
            metrics: obs.snapshot(),
        }
    }

    #[test]
    fn manifest_round_trips_field_for_field() {
        let manifest = sample_manifest();
        let parsed = RunManifest::from_json(&manifest.to_json()).unwrap();
        assert_eq!(parsed, manifest);
    }

    #[test]
    fn manifest_round_trips_through_a_file() {
        let dir = std::env::temp_dir().join("hotspot-obs-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest_round_trip.json");
        let manifest = sample_manifest();
        manifest.write(&path).unwrap();
        assert_eq!(RunManifest::read(&path).unwrap(), manifest);
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let err = RunManifest::from_json(&Json::obj(vec![(
            "schema",
            Json::Str("something-else".into()),
        )]))
        .unwrap_err();
        assert!(err.contains("not a run manifest"), "{err}");
    }

    #[test]
    fn missing_field_is_named() {
        let mut json = sample_manifest().to_json();
        if let Json::Obj(map) = &mut json {
            map.remove("seed");
        }
        let err = RunManifest::from_json(&json).unwrap_err();
        assert!(err.contains("seed"), "{err}");
    }

    #[test]
    fn shard_identity_round_trips_and_absence_means_unsharded() {
        let mut manifest = sample_manifest();
        manifest.shard = Some(ShardIdentity { index: 2, count: 3 });
        let parsed = RunManifest::from_json(&manifest.to_json()).unwrap();
        assert_eq!(parsed, manifest);
        assert_eq!(parsed.shard.unwrap().to_string(), "2/3");
        // A v1-era manifest (no shard field) parses as unsharded.
        let unsharded = sample_manifest();
        assert!(unsharded.to_json().get("shard").is_none());
        assert_eq!(RunManifest::from_json(&unsharded.to_json()).unwrap().shard, None);
    }

    #[test]
    fn comparison_flags_fingerprint_and_metric_divergence() {
        let a = sample_manifest();
        let same = compare_manifests(&a, &a);
        assert!(same.fingerprints_match() && same.metrics_match());
        assert!(same.render().contains("fingerprints match"), "{}", same.render());

        let mut b = a.clone();
        b.config_fingerprint = "deadbeefdeadbeef".into();
        let diff = compare_manifests(&a, &b);
        assert!(!diff.fingerprints_match());
        assert!(diff.render().contains("DIFFER"), "{}", diff.render());

        let mut c = a.clone();
        c.metrics.counters.insert("sweep.cells.evaluated".into(), 41);
        c.metrics.gauges.insert("imputer.reconstruction_error".into(), 0.125);
        let metric_diff = compare_manifests(&a, &c);
        assert!(metric_diff.fingerprints_match());
        assert!(!metric_diff.metrics_match());
        assert_eq!(
            metric_diff.counter_deltas,
            vec![("sweep.cells.evaluated".to_string(), Some(42), Some(41))]
        );
        assert_eq!(metric_diff.gauge_deltas.len(), 1);
        assert!(metric_diff.render().contains("42 vs 41"), "{}", metric_diff.render());
    }

    #[test]
    fn iso_rendering_is_correct() {
        assert_eq!(iso_utc(0), "1970-01-01T00:00:00.000Z");
        // 2026-08-07 00:00:00 UTC.
        assert_eq!(iso_utc(1_786_406_400_000), "2026-08-11T00:00:00.000Z");
        assert_eq!(iso_utc(951_826_154_321), "2000-02-29T12:09:14.321Z"); // leap day
    }

    #[test]
    fn fnv_matches_known_vector() {
        // FNV-1a("a") — published test vector.
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_ne!(fnv1a(b"config-a"), fnv1a(b"config-b"));
    }
}
