//! The one start call of the experiment binaries, driven through real
//! processes: explicit flags win over a binary's defaults, and a binary
//! without a resumable sweep refuses the resume and shard flags before
//! doing any work, and a sweep binary refuses a series too short for
//! any `t` before sweeping.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// The first `n` stdout lines of a run, after which it is killed.
fn first_lines(bin: &str, args: &[&str], n: usize) -> Vec<String> {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn experiment binary");
    let stdout = child.stdout.take().expect("piped stdout");
    let lines: Vec<String> =
        BufReader::new(stdout).lines().take(n).map(|l| l.expect("utf-8 line")).collect();
    let _ = child.kill();
    let _ = child.wait();
    lines
}

#[test]
fn sec5a_honours_an_explicit_t_step() {
    let bin = env!("CARGO_BIN_EXE_exp_sec5a_temporal_stability");
    let small = ["--sectors", "20", "--weeks", "12", "--trees", "1"];
    let preamble = |extra: &[&str]| {
        let args: Vec<&str> = small.iter().chain(extra).copied().collect();
        first_lines(bin, &args, 2).pop().expect("preamble line")
    };
    // Its own default densifies t; an explicit --t-step 12 (the global
    // default) must still win.
    assert!(preamble(&[]).contains(" t_step=3,"), "{}", preamble(&[]));
    let explicit = preamble(&["--t-step", "12"]);
    assert!(explicit.contains(" t_step=12,"), "{explicit}");
}

#[test]
fn binaries_without_a_resumable_sweep_refuse_resume_and_shard_flags() {
    let dir = std::env::temp_dir().join(format!("start-call-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint = dir.join("ck.tsv");
    let checkpoint = checkpoint.to_str().unwrap();
    let bin = env!("CARGO_BIN_EXE_exp_ablation_ntrees");
    for args in [
        vec!["--checkpoint", checkpoint, "--shards", "2", "--shard", "1"],
        vec!["--resume"],
        vec!["--shards", "1"],
        vec!["--merge"],
    ] {
        let out = Command::new(bin).args(&args).output().expect("run binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2; stderr: {stderr}");
        assert!(stderr.contains(&format!("{} is refused", args[0])), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: refused before any output");
    }
    assert!(std::fs::read_dir(&dir).unwrap().next().is_none(), "nothing was written");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_series_too_short_for_any_table_iii_t_is_refused() {
    // fig09's horizons reach 29 and fig14's 26: both need t = 52 plus
    // that inside the series, i.e. at least 12 weeks.
    for (bin, weeks) in [
        (env!("CARGO_BIN_EXE_exp_fig09_lift_vs_horizon"), "1"),
        (env!("CARGO_BIN_EXE_exp_fig14_become_lift_vs_window"), "11"),
    ] {
        let out = Command::new(bin)
            .args(["--sectors", "20", "--weeks", weeks, "--trees", "3"])
            .output()
            .expect("run binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(2), "--weeks {weeks} must exit 2; stderr: {stderr}");
        assert!(stderr.contains(&format!("--weeks {weeks} gives")), "{stderr}");
        assert!(stderr.contains("use --weeks 12 or more"), "{stderr}");
        assert!(!stdout.contains("grid cells evaluated"), "refused before the sweep: {stdout}");
    }
}
