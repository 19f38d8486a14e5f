//! The collector layer: validating and merging shard artifacts back
//! into one [`SweepResult`].
//!
//! Merge invariants (enforced here, pinned by
//! `tests/sharded_sweep.rs` and `scripts/sweep_shard_smoke.sh`):
//!
//! 1. **One configuration.** Every shard checkpoint must carry the
//!    plan's config fingerprint, and every shard *manifest* present
//!    must share one bench config fingerprint — validated via
//!    [`compare_manifests`](hotspot_obs::compare_manifests), whose
//!    rendered diff becomes the refusal diagnostic.
//! 2. **Exactly-once coverage.** Each plan cell must appear in
//!    exactly one shard; duplicates and off-plan cells are refused,
//!    and missing cells name the dead shard so the operator can rerun
//!    it (checkpoints are crash-consistent, so a rerun resumes).
//! 3. **Canonical determinism.** Merged cells are reordered into plan
//!    order with `resumed = false`, so the merged health report and
//!    the [`canonical_tsv`] / [`deterministic_projection`] artifacts
//!    are byte-identical to a single-process run of the same config —
//!    regardless of shard count, thread count, or resume history.
//!
//! Every sweep binary's `--shards N --merge` mode calls
//! [`merge_shards`] and writes both artifacts next to its checkpoint
//! base: `<base>.merged.tsv` and, when every shard left a manifest,
//! `<base>.merged.metrics.json`.

use super::plan::{CellKey, ShardSpec, SweepPlan};
use super::{CellOutcome, SweepCell, SweepResult};
use crate::checkpoint::{escape_field, load_checkpoint_raw};
use hotspot_core::error::{CoreError, Result as CoreResult};
use hotspot_obs::{compare_manifests, Json, MetricsSnapshot, RunManifest};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// The on-disk artifacts of one shard, derived from a base path.
#[derive(Debug, Clone)]
pub struct ShardFiles {
    /// Which shard these files describe.
    pub shard: ShardSpec,
    /// Append-only TSV checkpoint (required for merging).
    pub checkpoint: PathBuf,
    /// Run-manifest sidecar (optional; validated when present).
    pub manifest: PathBuf,
}

impl ShardFiles {
    /// Derive shard file paths from a base checkpoint path.
    ///
    /// `out/sweep.tsv` for shard `1/3` becomes
    /// `out/sweep.shard-1-of-3.tsv` with manifest sidecar
    /// `out/sweep.shard-1-of-3.manifest.json`; the full (unsharded)
    /// spec keeps the base path itself.
    pub fn for_base(base: &Path, shard: ShardSpec) -> ShardFiles {
        let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("sweep");
        let ext = base.extension().and_then(|s| s.to_str()).unwrap_or("tsv");
        let dir = base.parent().map(Path::to_path_buf).unwrap_or_default();
        let tag = if shard.is_full() {
            stem.to_string()
        } else {
            format!("{stem}.shard-{}-of-{}", shard.index, shard.count)
        };
        ShardFiles {
            shard,
            checkpoint: dir.join(format!("{tag}.{ext}")),
            manifest: dir.join(format!("{tag}.manifest.json")),
        }
    }
}

/// A merged multi-shard sweep: the combined result plus the merged
/// metrics snapshot (when every shard wrote a manifest sidecar).
#[derive(Debug, Clone)]
pub struct MergedSweep {
    /// All cells in canonical plan order, with a recomputed health
    /// report.
    pub result: SweepResult,
    /// Shard metrics merged per [`MetricsSnapshot::merge`]; `None`
    /// unless every shard had a manifest.
    pub metrics: Option<MetricsSnapshot>,
    /// The config fingerprint all shards were validated against.
    pub fingerprint: u64,
}

fn refuse(why: String) -> CoreError {
    CoreError::InvalidData(format!("merge_shards refused: {why}"))
}

fn read_manifest(path: &Path) -> CoreResult<RunManifest> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| refuse(format!("cannot read shard manifest {}: {e}", path.display())))?;
    let json = Json::parse(&text)
        .map_err(|e| refuse(format!("shard manifest {} is not JSON: {e}", path.display())))?;
    RunManifest::from_json(&json)
        .map_err(|e| refuse(format!("shard manifest {} is invalid: {e}", path.display())))
}

/// Merge shard artifacts into one [`SweepResult`], validating the
/// invariants listed in the module docs.
///
/// # Errors
///
/// [`CoreError::InvalidData`] when any shard disagrees with the plan
/// (fingerprint, grid shape, duplicate or missing cells) or when
/// shard manifests carry different config fingerprints — the latter
/// diagnostic embeds the [`compare_manifests`] report. I/O errors
/// reading shard files surface as [`CoreError::Io`]-like variants.
pub fn merge_shards(plan: &SweepPlan, shards: &[ShardFiles]) -> CoreResult<MergedSweep> {
    if shards.is_empty() {
        return Err(refuse("no shard files given".into()));
    }

    // Invariant 1a: every checkpoint belongs to this plan.
    let mut all_entries = Vec::with_capacity(plan.n_cells());
    for files in shards {
        let (header, entries) = load_checkpoint_raw(&files.checkpoint).map_err(|e| {
            refuse(format!(
                "shard {} checkpoint {}: {e} — did its worker die before writing? \
                 rerun that shard to (re)create it",
                files.shard,
                files.checkpoint.display()
            ))
        })?;
        if header.fingerprint != plan.fingerprint() {
            return Err(refuse(format!(
                "shard {} checkpoint {} has config fingerprint {:016x}, plan has {:016x} — \
                 these shards come from different sweep configurations",
                files.shard,
                files.checkpoint.display(),
                header.fingerprint,
                plan.fingerprint()
            )));
        }
        if header.shard != files.shard {
            return Err(refuse(format!(
                "checkpoint {} says it is shard {}, expected shard {}",
                files.checkpoint.display(),
                header.shard,
                files.shard
            )));
        }
        let expected = plan.shard_cells(header.shard).len();
        if header.cells != expected {
            return Err(refuse(format!(
                "shard {} checkpoint declares {} cells but the plan assigns it {} — \
                 grid shape disagrees with the plan",
                files.shard, header.cells, expected
            )));
        }
        for entry in entries {
            all_entries.push((files.shard, entry));
        }
    }

    // Invariant 1b: manifests present must share one config fingerprint.
    let manifests: Vec<(&ShardFiles, RunManifest)> = shards
        .iter()
        .filter(|f| f.manifest.exists())
        .map(|f| read_manifest(&f.manifest).map(|m| (f, m)))
        .collect::<CoreResult<_>>()?;
    if let Some((first_files, first)) = manifests.first() {
        for (files, manifest) in &manifests[1..] {
            let cmp = compare_manifests(first, manifest);
            if !cmp.fingerprints_match() {
                return Err(refuse(format!(
                    "shard manifests {} and {} disagree:\n{}",
                    first_files.manifest.display(),
                    files.manifest.display(),
                    cmp.render()
                )));
            }
        }
    }

    // Invariant 2: exactly-once coverage of the plan.
    let order = plan.order_index();
    let mut by_key: HashMap<CellKey, (ShardSpec, SweepCell)> = HashMap::new();
    for (shard, entry) in all_entries {
        let key = entry.key();
        if !order.contains_key(&key) {
            return Err(refuse(format!(
                "shard {shard} contains cell {key} which is not in the plan"
            )));
        }
        // Merged cells count as computed, not resumed: the merged
        // health report must match a fresh single-process run.
        let mut cell = entry.into_cell();
        cell.resumed = false;
        if let Some((prev_shard, _)) = by_key.insert(key, (shard, cell)) {
            return Err(refuse(format!(
                "cell {key} appears in both shard {prev_shard} and shard {shard} — \
                 overlapping shard files"
            )));
        }
    }
    if by_key.len() < plan.n_cells() {
        let missing: Vec<String> = plan
            .cells()
            .iter()
            .filter(|k| !by_key.contains_key(k))
            .take(3)
            .map(|k| k.to_string())
            .collect();
        return Err(refuse(format!(
            "{} of {} plan cells missing (e.g. {}) — a worker likely died mid-shard; \
             rerun it to resume from its crash-consistent checkpoint",
            plan.n_cells() - by_key.len(),
            plan.n_cells(),
            missing.join(", ")
        )));
    }

    // Invariant 3: canonical order.
    let mut cells: Vec<(usize, SweepCell)> =
        by_key.into_iter().map(|(k, (_, c))| (order[&k], c)).collect();
    cells.sort_by_key(|(i, _)| *i);
    let cells: Vec<SweepCell> = cells.into_iter().map(|(_, c)| c).collect();

    let metrics = if manifests.len() == shards.len() {
        let mut merged = MetricsSnapshot::default();
        for (files, manifest) in &manifests {
            merged.merge(&manifest.metrics).map_err(|e| {
                refuse(format!("cannot merge metrics from {}: {e}", files.manifest.display()))
            })?;
        }
        Some(merged)
    } else {
        None
    };

    Ok(MergedSweep {
        result: SweepResult::from_cells(cells),
        metrics,
        fingerprint: plan.fingerprint(),
    })
}

/// Render a sweep as the canonical deterministic TSV: cells in plan
/// order, deterministic columns only (no `elapsed_ms` — wall-clock is
/// diagnostic, not science). Floats use `{:?}`, Rust's shortest
/// round-trip rendering, so equal results render to equal bytes.
///
/// This is the artifact the N-shard-vs-single-process byte-identity
/// invariant is stated over.
///
/// # Errors
///
/// [`CoreError::InvalidData`] if `result` does not cover the plan
/// exactly (missing or off-plan cells).
pub fn canonical_tsv(plan: &SweepPlan, result: &SweepResult) -> CoreResult<String> {
    let order = plan.order_index();
    let mut rows: Vec<(usize, &SweepCell)> = Vec::with_capacity(result.cells.len());
    for cell in &result.cells {
        match order.get(&cell.key()) {
            Some(&i) => rows.push((i, cell)),
            None => {
                return Err(CoreError::InvalidData(format!(
                    "canonical_tsv: cell {} is not in the plan",
                    cell.key()
                )))
            }
        }
    }
    if rows.len() != plan.n_cells() {
        return Err(CoreError::InvalidData(format!(
            "canonical_tsv: result has {} cells, plan has {}",
            rows.len(),
            plan.n_cells()
        )));
    }
    rows.sort_by_key(|(i, _)| *i);

    let mut out = String::new();
    out.push_str(&format!(
        "# hotspot-sweep-merged v1 fingerprint={:016x} cells={}\n",
        plan.fingerprint(),
        plan.n_cells()
    ));
    out.push_str("model\tt\th\tw\tstatus\tattempts\tap\tap_random\tlift\tpositives\tevaluated\terror\n");
    for (_, cell) in rows {
        let mut cols = vec![
            cell.model.name().to_string(),
            cell.t.to_string(),
            cell.h.to_string(),
            cell.w.to_string(),
            cell.outcome.status().to_string(),
            cell.attempts.to_string(),
        ];
        match &cell.outcome {
            CellOutcome::Evaluated(r) => {
                cols.push(format!("{:?}", r.ap));
                cols.push(format!("{:?}", r.ap_random));
                cols.push(format!("{:?}", r.lift));
                cols.push(r.positives.to_string());
                cols.push(r.evaluated.to_string());
                cols.push(String::new());
            }
            CellOutcome::Empty | CellOutcome::TimedOut { .. } => {
                cols.extend((0..6).map(|_| String::new()));
            }
            CellOutcome::Failed { error, .. } => {
                cols.extend((0..5).map(|_| String::new()));
                cols.push(escape_field(error));
            }
        }
        out.push_str(&cols.join("\t"));
        out.push('\n');
    }
    Ok(out)
}

/// Project a metrics snapshot down to the subset that is a pure
/// function of the sweep configuration — invariant across shard
/// count, thread count, resume history, and process topology:
///
/// * `sweep.cells.*` outcome counters (except `resumed`/`retried`,
///   which depend on resume history);
/// * `trees.*` work counters (per-cell work, sums exactly across
///   shards);
/// * all gauges (deterministic per seed; every worker computes the
///   same values).
///
/// Timing histograms, spans, per-process prepare counters (each
/// worker prepares its own context, so they'd multiply by shard
/// count), and annotations are dropped. The projection of an N-shard
/// merged snapshot equals the projection of the single-process
/// snapshot — the metrics half of the byte-identity invariant.
pub fn deterministic_projection(snap: &MetricsSnapshot) -> MetricsSnapshot {
    let mut out = MetricsSnapshot::default();
    for (name, &v) in &snap.counters {
        let keep = name.starts_with("trees.")
            || (name.starts_with("sweep.cells.")
                && name != "sweep.cells.resumed"
                && name != "sweep.cells.retried");
        if keep {
            out.counters.insert(name.clone(), v);
        }
    }
    out.gauges = snap.gauges.clone();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::EvalRecord;
    use crate::models::ModelSpec;
    use crate::sweep::{ResiliencePolicy, SweepConfig};

    fn config() -> SweepConfig {
        SweepConfig {
            models: vec![ModelSpec::Average, ModelSpec::RfF1],
            ts: vec![20, 24],
            hs: vec![1, 3],
            ws: vec![3],
            n_trees: 8,
            train_days: 4,
            random_repeats: 10,
            seed: 3,
            n_threads: Some(2),
            resilience: ResiliencePolicy::default(),
            split: hotspot_trees::SplitStrategy::default(),
        }
    }

    fn cell(key: CellKey, ap: f64) -> SweepCell {
        SweepCell {
            model: key.model,
            t: key.t,
            h: key.h,
            w: key.w,
            outcome: CellOutcome::Evaluated(EvalRecord {
                ap,
                ap_random: 0.25,
                lift: ap / 0.25,
                positives: 3,
                evaluated: 10,
            }),
            elapsed_ms: 5,
            attempts: 1,
            resumed: false,
        }
    }

    #[test]
    fn shard_file_naming_is_stable() {
        let base = Path::new("out/sweep.tsv");
        let full = ShardFiles::for_base(base, ShardSpec::FULL);
        assert_eq!(full.checkpoint, Path::new("out/sweep.tsv"));
        assert_eq!(full.manifest, Path::new("out/sweep.manifest.json"));
        let s1 = ShardFiles::for_base(base, ShardSpec { index: 1, count: 3 });
        assert_eq!(s1.checkpoint, Path::new("out/sweep.shard-1-of-3.tsv"));
        assert_eq!(s1.manifest, Path::new("out/sweep.shard-1-of-3.manifest.json"));
    }

    #[test]
    fn canonical_tsv_orders_by_plan_and_drops_wall_clock() {
        let cfg = config();
        let plan = SweepPlan::new(&cfg);
        // Build a result in scrambled order with varying elapsed_ms.
        let mut cells: Vec<SweepCell> = plan
            .cells()
            .iter()
            .enumerate()
            .map(|(i, k)| {
                let mut c = cell(*k, 0.5 + i as f64 * 0.01);
                c.elapsed_ms = 1000 + i as u64;
                c
            })
            .collect();
        cells.reverse();
        let a = canonical_tsv(&plan, &SweepResult::from_cells(cells.clone())).unwrap();
        // Same cells, different wall-clock, different order: same bytes.
        for c in &mut cells {
            c.elapsed_ms = 1;
        }
        cells.rotate_left(3);
        let b = canonical_tsv(&plan, &SweepResult::from_cells(cells)).unwrap();
        assert_eq!(a, b);
        assert!(a.starts_with("# hotspot-sweep-merged v1 fingerprint="));
        let first_row = a.lines().nth(2).unwrap();
        assert!(first_row.starts_with("Average\t20\t1\t3\teval\t1\t0."), "{first_row}");
    }

    #[test]
    fn canonical_tsv_refuses_incomplete_results() {
        let cfg = config();
        let plan = SweepPlan::new(&cfg);
        let cells: Vec<SweepCell> =
            plan.cells().iter().skip(1).map(|k| cell(*k, 0.5)).collect();
        let err = canonical_tsv(&plan, &SweepResult::from_cells(cells)).unwrap_err();
        assert!(matches!(err, CoreError::InvalidData(_)), "{err:?}");
    }

    #[test]
    fn projection_keeps_only_topology_invariant_metrics() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("sweep.cells.evaluated".into(), 10);
        snap.counters.insert("sweep.cells.empty".into(), 2);
        snap.counters.insert("sweep.cells.resumed".into(), 4);
        snap.counters.insert("sweep.cells.retried".into(), 1);
        snap.counters.insert("sweep.checkpoint_appends".into(), 8);
        snap.counters.insert("trees.split_evaluations".into(), 999);
        snap.counters.insert("imputer.cells_imputed".into(), 50);
        // One day table per cache, so per shard process: topology-dependent.
        snap.counters.insert("features.day_table.blocks".into(), 12600);
        // Each shard process keeps its own column store, so how many
        // columns it quantises, reuses or evicts is topology-dependent.
        snap.counters.insert("bins.columns_quantised".into(), 4500);
        snap.counters.insert("bins.columns_reused".into(), 1500);
        snap.counters.insert("bins.lags_evicted".into(), 2);
        snap.gauges.insert("imputer.reconstruction_error".into(), 0.125);
        snap.annotations.insert("sweep_health".into(), "...".into());
        let p = deterministic_projection(&snap);
        assert_eq!(p.counters.len(), 3);
        assert_eq!(p.counters["sweep.cells.evaluated"], 10);
        assert_eq!(p.counters["sweep.cells.empty"], 2);
        assert_eq!(p.counters["trees.split_evaluations"], 999);
        assert_eq!(p.gauges["imputer.reconstruction_error"], 0.125);
        assert!(p.histograms.is_empty());
        assert!(p.spans.is_empty());
        assert!(p.annotations.is_empty());
    }

    #[test]
    fn merge_refuses_empty_and_missing_shards() {
        let cfg = config();
        let plan = SweepPlan::new(&cfg);
        assert!(merge_shards(&plan, &[]).is_err());
        let dir = std::env::temp_dir().join("hotspot-collector-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("never-written.tsv");
        let files: Vec<ShardFiles> = (0..2)
            .map(|i| ShardFiles::for_base(&base, ShardSpec { index: i, count: 2 }))
            .collect();
        for f in &files {
            let _ = std::fs::remove_file(&f.checkpoint);
        }
        let err = merge_shards(&plan, &files).unwrap_err();
        assert!(err.to_string().contains("did its worker die"), "{err}");
    }
}
