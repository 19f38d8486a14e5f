//! The experiment registry `results/RUNS.tsv` records, for every
//! committed result, the binary and flags that produce it, and
//! `scripts/run_experiments.sh` replays it. These checks keep the
//! registry, the experiment binaries and the committed results in step:
//! a new binary cannot ship without recorded flags, and a row cannot
//! claim flags its committed file was not produced with.
//!
//! The root package does not depend on `hotspot-bench`, so the test
//! only parses files.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// One registry row: `stem → (binary, flags)`.
type Registry = BTreeMap<String, (String, Vec<String>)>;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn registry() -> Registry {
    let text = fs::read_to_string(root().join("results/RUNS.tsv")).expect("results/RUNS.tsv");
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("stem\tbinary\tflags"), "RUNS.tsv header");
    let mut rows = Registry::new();
    for line in lines {
        let cols: Vec<&str> = line.split('\t').collect();
        assert_eq!(cols.len(), 3, "RUNS.tsv row needs stem, binary, flags: {line:?}");
        let flags = cols[2].split_whitespace().map(str::to_string).collect();
        let previous = rows.insert(cols[0].to_string(), (cols[1].to_string(), flags));
        assert!(previous.is_none(), "stem {} has two rows", cols[0]);
    }
    rows
}

/// File stems in `dir` with the given extension and name prefix.
fn stems(dir: &Path, prefix: &str, ext: &str) -> Vec<String> {
    let mut out: Vec<String> = fs::read_dir(dir)
        .expect("readable directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(ext))
        .filter_map(|p| p.file_stem().and_then(|s| s.to_str()).map(str::to_string))
        .filter(|s| s.starts_with(prefix))
        .collect();
    out.sort();
    out
}

#[test]
fn every_experiment_binary_has_exactly_one_row() {
    let rows = registry();
    for bin in stems(&root().join("crates/bench/src/bin"), "exp_", "rs") {
        let n = rows.values().filter(|(b, _)| *b == bin).count();
        assert_eq!(n, 1, "{bin} appears {n} times in results/RUNS.tsv");
    }
}

#[test]
fn every_row_names_an_existing_binary_and_a_committed_result() {
    let bin_dir = root().join("crates/bench/src/bin");
    for (stem, (bin, _)) in registry() {
        assert!(bin_dir.join(format!("{bin}.rs")).is_file(), "{stem}: no binary {bin}");
        let result = root().join(format!("results/{stem}.tsv"));
        assert!(result.is_file(), "{stem}: no committed results/{stem}.tsv");
    }
}

#[test]
fn every_committed_result_has_a_row() {
    let rows = registry();
    for stem in stems(&root().join("results"), "", "tsv") {
        if stem == "RUNS" {
            continue;
        }
        assert!(rows.contains_key(&stem), "results/{stem}.tsv has no row in results/RUNS.tsv");
    }
}

#[test]
fn recorded_flags_match_each_committed_preamble() {
    for (stem, (_, flags)) in registry() {
        let text = fs::read_to_string(root().join(format!("results/{stem}.tsv"))).unwrap();
        let Some(preamble) = text.lines().nth(1).filter(|l| l.starts_with("# sectors=")) else {
            continue; // no config preamble (tab03)
        };
        for (flag, key) in [("--trees", "trees"), ("--t-step", "t_step")] {
            let Some(at) = flags.iter().position(|f| f == flag) else { continue };
            let value = flags.get(at + 1).unwrap_or_else(|| panic!("{stem}: {flag} lacks a value"));
            let field = format!(" {key}={value},");
            assert!(
                preamble.contains(&field),
                "{stem}: RUNS.tsv sets {flag} {value}, but the committed preamble says {preamble:?}"
            );
        }
    }
}
