//! The `sptrsv` binary must fail *readably*: malformed input exits nonzero
//! with a diagnostic on stderr, never a panic backtrace. These tests drive
//! the real binary via `CARGO_BIN_EXE_sptrsv`.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn sptrsv(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sptrsv"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// A scratch file under the target-specific temp dir, unique per test.
fn scratch(name: &str, contents: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sptrsv-cli-errors-{}-{name}", std::process::id()));
    fs::write(&p, contents).expect("can write scratch file");
    p
}

/// Asserts the command failed with a human diagnostic, not a panic.
#[track_caller]
fn assert_readable_failure(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "expected nonzero exit, got success; stderr: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "stderr shows a panic instead of a diagnostic: {stderr}"
    );
    assert!(
        !stderr.contains("RUST_BACKTRACE"),
        "stderr shows a backtrace hint: {stderr}"
    );
    assert!(
        stderr.to_lowercase().contains(&needle.to_lowercase()),
        "stderr should mention {needle:?}: {stderr}"
    );
}

const VALID_LOWER_3X3: &str = "%%MatrixMarket matrix coordinate real general\n\
3 3 4\n1 1 2.0\n2 2 2.0\n3 1 1.0\n3 3 2.0\n";

#[test]
fn missing_matrix_file_is_an_error() {
    let out = sptrsv(&["solve", "--matrix", "/nonexistent/definitely-missing.mtx"]);
    assert_readable_failure(&out, "cannot open");
}

#[test]
fn malformed_matrix_market_is_an_error() {
    let p = scratch("garbage.mtx", "this is not a matrix market file\n1 2\n");
    let out = sptrsv(&["solve", "--matrix", p.to_str().unwrap()]);
    assert_readable_failure(&out, "cannot parse");
    let _ = fs::remove_file(p);
}

#[test]
fn truncated_entry_is_an_error() {
    let p = scratch(
        "truncated.mtx",
        "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 2.0\n2\n",
    );
    let out = sptrsv(&["solve", "--matrix", p.to_str().unwrap()]);
    assert_readable_failure(&out, "cannot parse");
    let _ = fs::remove_file(p);
}

#[test]
fn non_square_matrix_is_an_error() {
    let p = scratch(
        "nonsquare.mtx",
        "%%MatrixMarket matrix coordinate real general\n3 4 2\n1 1 2.0\n2 2 2.0\n",
    );
    let out = sptrsv(&["solve", "--matrix", p.to_str().unwrap()]);
    assert_readable_failure(&out, "square");
    let _ = fs::remove_file(p);
}

#[test]
fn rhs_length_mismatch_is_an_error_not_a_panic() {
    let m = scratch("good.mtx", VALID_LOWER_3X3);
    let b = scratch("short-rhs.txt", "1.0 2.0\n");
    let out = sptrsv(&[
        "solve",
        "--matrix",
        m.to_str().unwrap(),
        "--rhs",
        b.to_str().unwrap(),
    ]);
    assert_readable_failure(&out, "matrix needs 3");
    let _ = fs::remove_file(m);
    let _ = fs::remove_file(b);
}

#[test]
fn unparsable_rhs_value_is_an_error() {
    let m = scratch("good2.mtx", VALID_LOWER_3X3);
    let b = scratch("bad-rhs.txt", "1.0 two 3.0\n");
    let out = sptrsv(&[
        "solve",
        "--matrix",
        m.to_str().unwrap(),
        "--rhs",
        b.to_str().unwrap(),
    ]);
    assert_readable_failure(&out, "bad rhs value");
    let _ = fs::remove_file(m);
    let _ = fs::remove_file(b);
}

#[test]
fn bad_batching_flags_are_usage_errors() {
    let m = scratch("good3.mtx", VALID_LOWER_3X3);
    for (flag, bad) in [
        ("--rhs-cols", "0"),
        ("--rhs-cols", "three"),
        ("--session", "0"),
        ("--session", "-2"),
        ("--profile-interval", "0"),
        ("--profile-interval", "often"),
    ] {
        let out = sptrsv(&["solve", "--matrix", m.to_str().unwrap(), flag, bad]);
        assert_readable_failure(&out, "positive integer");
        assert_eq!(out.status.code(), Some(2), "{flag} {bad} is a usage error");
    }
    let _ = fs::remove_file(m);
}

/// Every subcommand rejects a `--` flag it does not read instead of
/// silently falling back to a default: one misspelling per subcommand, plus
/// `--engine-threads`, which `solve` does not read.
#[test]
fn unknown_flags_are_usage_errors() {
    let m = scratch("good-flags.mtx", VALID_LOWER_3X3);
    let m = m.to_str().unwrap();
    let out_path = std::env::temp_dir().join(format!(
        "sptrsv-cli-errors-{}-never-written.mtx",
        std::process::id()
    ));
    let out_path = out_path.to_str().unwrap();
    for args in [
        vec!["solve", "--matrix", m, "--devics", "4"],
        vec!["solve", "--matrix", m, "--engine-threads", "2"],
        vec!["stats", "--matirx", m],
        vec![
            "gen", "--kind", "band", "--n", "64", "--out", out_path, "--seeed", "3",
        ],
        vec!["serve", "--matrix", m, "--client", "2"],
    ] {
        let out = sptrsv(&args);
        assert_readable_failure(&out, &format!("unknown flag {}", args[args.len() - 2]));
        assert_eq!(out.status.code(), Some(2), "{args:?} is a usage error");
    }
    assert!(
        !std::path::Path::new(out_path).exists(),
        "gen must reject the flag before writing anything"
    );
    let _ = fs::remove_file(m);
}

/// An unknown `--algo` stays a readable exit-2 usage error even now that
/// the roster includes the scheduled kernel.
#[test]
fn unknown_algo_is_a_usage_error() {
    let m = scratch("good-algo.mtx", VALID_LOWER_3X3);
    let out = sptrsv(&[
        "solve",
        "--matrix",
        m.to_str().unwrap(),
        "--algo",
        "schedulde",
    ]);
    assert_readable_failure(&out, "unknown algorithm");
    assert_eq!(out.status.code(), Some(2));
    let _ = fs::remove_file(m);
}

/// `--algo scheduled` runs the coarsened-unit kernel end to end.
#[test]
fn scheduled_algo_solves_from_the_cli() {
    let m = scratch("good-sched.mtx", VALID_LOWER_3X3);
    let out = sptrsv(&[
        "solve",
        "--matrix",
        m.to_str().unwrap(),
        "--algo",
        "scheduled",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "expected success, stderr: {stderr}");
    assert!(stderr.contains("Scheduled"), "stderr: {stderr}");
    let _ = fs::remove_file(m);
}

/// `--list-algos` prints one trait row per live algorithm on stdout.
#[test]
fn list_algos_prints_every_live_algorithm() {
    let out = sptrsv(&["--list-algos"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout: {stdout}");
    for needle in [
        "algorithm",
        "Level-Set",
        "SyncFree",
        "cuSPARSE",
        "Capellini",
        "Hybrid",
        "Scheduled",
        "warp per unit",
    ] {
        assert!(stdout.contains(needle), "missing {needle:?}: {stdout}");
    }
}

#[test]
fn bad_serve_flags_are_usage_errors() {
    let m = scratch("good-serve.mtx", VALID_LOWER_3X3);
    for (flag, bad, needle) in [
        ("--clients", "0", "positive integer"),
        ("--clients", "many", "positive integer"),
        ("--requests", "0", "positive integer"),
        ("--max-batch", "0", "positive integer"),
        ("--window", "soon", "milliseconds"),
    ] {
        let out = sptrsv(&["serve", "--matrix", m.to_str().unwrap(), flag, bad]);
        assert_readable_failure(&out, needle);
        assert_eq!(out.status.code(), Some(2), "{flag} {bad} is a usage error");
    }
    let out = sptrsv(&[
        "serve",
        "--matrix",
        m.to_str().unwrap(),
        "--device",
        "kepler",
    ]);
    assert_readable_failure(&out, "unknown device");
    let _ = fs::remove_file(m);
}

#[test]
fn serve_demo_reports_per_tenant_metrics() {
    let m = scratch("good-serve2.mtx", VALID_LOWER_3X3);
    let out = sptrsv(&[
        "serve",
        "--matrix",
        m.to_str().unwrap(),
        "--clients",
        "2",
        "--requests",
        "3",
        "--window",
        "0",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "expected success, stderr: {stderr}");
    assert!(stderr.contains("served 6 solve(s)"), "stderr: {stderr}");
    assert!(stdout.contains("client-0"), "stdout: {stdout}");
    assert!(stdout.contains("client-1"), "stdout: {stdout}");
    let _ = fs::remove_file(m);
}

/// `--cache` arms the finite L1/L2 model and reports hit rates; without it
/// no cache line is printed (the model defaults to off).
#[test]
fn cache_flag_reports_hit_rates() {
    let m = scratch("good-cache.mtx", VALID_LOWER_3X3);
    let out = sptrsv(&["solve", "--matrix", m.to_str().unwrap(), "--cache"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "expected success, stderr: {stderr}");
    assert!(stderr.contains("cache: L1"), "stderr: {stderr}");
    let out = sptrsv(&["solve", "--matrix", m.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "expected success, stderr: {stderr}");
    assert!(!stderr.contains("cache: L1"), "stderr: {stderr}");
    let _ = fs::remove_file(m);
}

/// `--devices 0` and a count beyond the interconnect budget are readable
/// exit-2 usage errors, not panics or silent clamps.
#[test]
fn bad_device_counts_are_usage_errors() {
    let m = scratch("good-devices.mtx", VALID_LOWER_3X3);
    for bad in ["0", "9", "several"] {
        let out = sptrsv(&["solve", "--matrix", m.to_str().unwrap(), "--devices", bad]);
        assert_readable_failure(&out, "between 1 and 8");
        assert_eq!(
            out.status.code(),
            Some(2),
            "--devices {bad} is a usage error"
        );
    }
    let out = sptrsv(&[
        "solve",
        "--matrix",
        m.to_str().unwrap(),
        "--devices",
        "2",
        "--link",
        "carrier-pigeon",
    ]);
    assert_readable_failure(&out, "unknown link");
    assert_eq!(out.status.code(), Some(2));
    let out = sptrsv(&[
        "solve",
        "--matrix",
        m.to_str().unwrap(),
        "--devices",
        "2",
        "--cpu",
    ]);
    assert_readable_failure(&out, "drop --cpu");
    assert_eq!(out.status.code(), Some(2));
    let _ = fs::remove_file(m);
}

/// `--devices 1` runs the sharded path end to end and reports the link
/// summary; the degenerate single shard moves zero boundary messages.
#[test]
fn single_device_shard_solves_from_the_cli() {
    let m = scratch("good-shard.mtx", VALID_LOWER_3X3);
    let out = sptrsv(&["solve", "--matrix", m.to_str().unwrap(), "--devices", "1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "expected success, stderr: {stderr}");
    assert!(stderr.contains("sharded across 1"), "stderr: {stderr}");
    assert!(stderr.contains("0 boundary message(s)"), "stderr: {stderr}");
    let _ = fs::remove_file(m);
}

#[test]
fn valid_input_still_succeeds() {
    let m = scratch("good4.mtx", VALID_LOWER_3X3);
    let out = sptrsv(&[
        "solve",
        "--matrix",
        m.to_str().unwrap(),
        "--rhs-cols",
        "2",
        "--session",
        "3",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "expected success, stderr: {stderr}");
    assert!(stderr.contains("analyzed once"), "stderr: {stderr}");
    let _ = fs::remove_file(m);
}
