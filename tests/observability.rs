//! End-to-end observability: the sweep's live counters must agree
//! with its own [`SweepHealth`] report, span/histogram timings must
//! cover every computed cell (and only computed cells on resume), and
//! a manifest built from the live registry must round-trip through
//! its JSON file byte-exactly.

use hotspot::core::pipeline::ScorePipeline;
use hotspot::core::tensor::Tensor3;
use hotspot::core::HOURS_PER_WEEK;
use hotspot::forecast::context::{ForecastContext, Target};
use hotspot::forecast::models::ModelSpec;
use hotspot::forecast::sweep::{run_sweep_resumable, ResiliencePolicy, SweepConfig};
use hotspot::obs;

fn ctx() -> ForecastContext {
    let catalog = hotspot::core::kpi::KpiCatalog::standard();
    let kpis = Tensor3::from_fn(10, HOURS_PER_WEEK * 6, 21, |i, j, k| {
        let def = &catalog.defs()[k];
        let dow = (j / 24) % 7;
        if i < 3 && (6..22).contains(&(j % 24)) && dow < 5 {
            def.degraded
        } else {
            def.nominal
        }
    });
    let scored = ScorePipeline::standard().run(&kpis).unwrap();
    ForecastContext::build(&kpis, &scored, Target::BeHotSpot).unwrap()
}

fn config() -> SweepConfig {
    SweepConfig {
        models: vec![ModelSpec::Average],
        ts: vec![20, 24, 28],
        hs: vec![1, 3],
        ws: vec![3, 7],
        n_trees: 8,
        train_days: 4,
        random_repeats: 10,
        seed: 3,
        n_threads: Some(2),
        resilience: ResiliencePolicy::default(),
        split: Default::default(),
    }
}

// One test function on purpose: everything here asserts on the
// process-global registry, and cargo runs test functions on parallel
// threads within one process.
#[test]
fn sweep_metrics_agree_with_health_and_manifest_round_trips() {
    let registry = obs::global();
    registry.reset();
    obs::set_spans_enabled(true);

    let dir = std::env::temp_dir().join(format!("hotspot-obs-itest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint = dir.join("sweep.tsv");

    let c = ctx();
    let result = run_sweep_resumable(&c, &config(), Some(&checkpoint)).unwrap();
    assert!(result.health.evaluated > 0, "{}", result.health.summary());

    // Counters mirror SweepHealth field for field.
    let snap = registry.snapshot();
    let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as usize;
    assert_eq!(count("sweep.cells.evaluated"), result.health.evaluated);
    assert_eq!(count("sweep.cells.empty"), result.health.skipped);
    assert_eq!(count("sweep.cells.failed"), result.health.errored);
    assert_eq!(count("sweep.cells.timeout"), result.health.timed_out);
    assert_eq!(count("sweep.cells.retried"), result.health.retried);
    assert_eq!(count("sweep.cells.resumed"), 0);
    assert_eq!(count("sweep.checkpoint_appends"), result.cells.len());

    // Every computed cell left a span and a duration observation.
    assert!(snap.spans.contains_key("sweep"), "outer sweep span");
    let cell_span = snap.spans.get("sweep.cell").expect("per-cell span");
    assert_eq!(cell_span.count as usize, result.cells.len());
    let hist = snap.histograms.get("sweep.cell_ms").expect("cell duration histogram");
    assert_eq!(hist.count as usize, result.cells.len());
    assert_eq!(hist.counts.iter().sum::<u64>(), hist.count);

    // Resuming the finished checkpoint adopts every cell: the resumed
    // counter advances, but no new cell spans or duration samples.
    let again = run_sweep_resumable(&c, &config(), Some(&checkpoint)).unwrap();
    assert_eq!(again.health.resumed, again.cells.len());
    let snap2 = registry.snapshot();
    let count2 = |name: &str| snap2.counters.get(name).copied().unwrap_or(0) as usize;
    assert_eq!(count2("sweep.cells.resumed"), again.cells.len());
    assert_eq!(
        count2("sweep.cells.evaluated"),
        result.health.evaluated + again.health.evaluated
    );
    assert_eq!(snap2.spans["sweep.cell"].count, cell_span.count, "no recompute");
    assert_eq!(snap2.histograms["sweep.cell_ms"].count, hist.count, "no recompute");
    assert_eq!(count2("sweep.checkpoint_appends"), result.cells.len(), "no re-append");

    // A manifest built from the live snapshot survives the file trip.
    let manifest = obs::RunManifest {
        experiment: "observability_itest".into(),
        config_fingerprint: format!("{:016x}", obs::fnv1a(b"observability_itest")),
        seed: 3,
        args: vec!["--weeks".into(), "6".into()],
        git_describe: obs::git_describe(),
        started_unix_ms: obs::unix_ms().saturating_sub(1234),
        finished_unix_ms: obs::unix_ms(),
        duration_ms: 1234,
        outcome: "ok".into(),
        shard: None,
        metrics: snap2.clone(),
    };
    let path = dir.join("run.manifest.json");
    manifest.write(&path).unwrap();
    let back = obs::RunManifest::read(&path).unwrap();
    assert_eq!(back, manifest);
    assert!(!back.metrics.is_empty());
    assert_eq!(back.metrics.spans["sweep.cell"].count as usize, result.cells.len());

    // Classifier cells leave the fitting layers' spans: assembly, the
    // single tree, and the binning inside every tree and forest fit,
    // with `trees.bins_built` counting the bins those builds made.
    let classifiers = SweepConfig {
        models: vec![ModelSpec::Tree, ModelSpec::RfF1],
        ts: vec![24, 28],
        hs: vec![1],
        ws: vec![3],
        n_trees: 2,
        ..config()
    };
    let fitted = run_sweep_resumable(&c, &classifiers, None).unwrap();
    assert!(fitted.health.evaluated > 0, "{}", fitted.health.summary());
    let snap3 = registry.snapshot();
    let calls = |name: &str| -> u64 {
        let suffix = format!("/{name}");
        snap3
            .spans
            .iter()
            .filter(|(path, _)| *path == name || path.ends_with(&suffix))
            .map(|(_, stat)| stat.count)
            .sum()
    };
    for layer in ["classifier.assemble", "tree.fit", "forest.fit", "trees.bin"] {
        assert!(calls(layer) > 0, "no {layer} span");
    }
    assert_eq!(calls("tree.fit") + calls("forest.fit"), calls("trees.bin"), "one build per fit");
    let bins = snap3.counters.get("trees.bins_built").copied().unwrap_or(0);
    assert!(bins >= calls("trees.bin"), "every build bins each feature at least once: {bins}");

    obs::set_spans_enabled(false);
    std::fs::remove_dir_all(&dir).ok();
}
