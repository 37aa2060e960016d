//! Differential suite for sharded multi-device SpTRSV (DESIGN.md §15):
//! splitting a solve across simulated devices joined by a modeled
//! interconnect must be *numerically invisible* for every CSR-ordered
//! kernel — the sharded solution is bit-for-bit the single-device one under
//! every memory model × spin model combination, because
//! each row still accumulates its partial sums in CSR column order and the
//! link only changes *when* a dependency becomes visible, never *what*.
//! The one exception is the CSC kernel, whose scatter-side atomics commit
//! in link-arrival order rather than column order; there the suite pins a
//! 1e-10 agreement instead.

use capellini_sptrsv::core::{solve_sharded, solve_simulated, Algorithm, ShardConfig};
use capellini_sptrsv::prelude::*;
use capellini_sptrsv::simt::{SimtError, MAX_DEVICES};
use capellini_sptrsv::sparse::{gen, paper_example};

const DEVICE_COUNTS: [usize; 3] = [1, 2, 3];

fn base_cfg() -> DeviceConfig {
    DeviceConfig::pascal_like().scaled_down(4)
}

/// Matrices whose dependency structure crosses any contiguous row cut: a
/// serial chain (every boundary row imports), a random DAG, a banded
/// matrix (bursts of boundary traffic), and the paper's 8×8 example; plus
/// a diagonal matrix, whose cuts import nothing.
fn matrices() -> Vec<(&'static str, LowerTriangularCsr)> {
    vec![
        ("paper8", paper_example()),
        ("chain192", gen::chain(192, 1, 3)),
        ("randomk", gen::random_k(400, 4, 200, 11)),
        ("banded", gen::banded(300, 5, 0.6, 7)),
        ("diagonal200", gen::diagonal(200)),
    ]
}

fn rhs(l: &LowerTriangularCsr) -> Vec<f64> {
    let x_true: Vec<f64> = (0..l.n()).map(|i| (i % 13) as f64 - 6.0).collect();
    linalg::rhs_for_solution(l, &x_true)
}

/// Compares a sharded solve against the single-device oracle for one
/// (algorithm, matrix, config) cell at every device count. CSR-ordered
/// kernels must match bit-for-bit; the CSC kernel to 1e-10. The links
/// carry messages exactly when some shard imports a row.
fn diff_one(algo: Algorithm, mname: &str, l: &LowerTriangularCsr, cfg: &DeviceConfig) {
    let b = rhs(l);
    let oracle = solve_simulated(cfg, l, &b, algo)
        .unwrap_or_else(|e| panic!("{} unsharded on {mname}: {e}", algo.label()));
    for nd in DEVICE_COUNTS {
        let report = solve_sharded(cfg, l, &b, algo, &ShardConfig::pcie(nd))
            .unwrap_or_else(|e| panic!("{} sharded x{nd} on {mname}: {e}", algo.label()));
        assert_eq!(report.partition.devices(), nd);
        let imports = (0..nd).any(|d| !report.partition.imports(d).is_empty());
        assert_eq!(
            report.link_messages > 0,
            imports,
            "{} x{nd} on {mname}: {} link messages, rows imported: {imports}",
            algo.label(),
            report.link_messages
        );
        if algo == Algorithm::SyncFreeCsc {
            linalg::assert_solutions_close(&report.x, &oracle.x, 1e-10);
        } else {
            for (i, (s, o)) in report.x.iter().zip(&oracle.x).enumerate() {
                assert_eq!(
                    s.to_bits(),
                    o.to_bits(),
                    "{} x{nd} on {mname}: x[{i}] diverged ({s} vs {o})",
                    algo.label()
                );
            }
        }
    }
}

fn diff_all(cfg: &DeviceConfig) {
    for (mname, l) in &matrices() {
        for algo in Algorithm::all_live() {
            diff_one(algo, mname, l, cfg);
        }
    }
}

#[test]
fn sharded_bit_exact_sc_replay() {
    diff_all(&base_cfg().with_spin_model(SpinModel::Replay));
}

#[test]
fn sharded_bit_exact_sc_fastforward() {
    diff_all(&base_cfg().with_spin_model(SpinModel::FastForward));
}

#[test]
fn sharded_bit_exact_relaxed_replay() {
    diff_all(
        &base_cfg()
            .with_memory_model(MemoryModel::relaxed(2_000))
            .with_spin_model(SpinModel::Replay),
    );
}

#[test]
fn sharded_bit_exact_relaxed_fastforward() {
    diff_all(
        &base_cfg()
            .with_memory_model(MemoryModel::relaxed(2_000))
            .with_spin_model(SpinModel::FastForward),
    );
}

#[test]
fn sharded_bit_exact_racecheck() {
    diff_all(
        &base_cfg()
            .with_memory_model(MemoryModel::racecheck(2_000))
            .with_spin_model(SpinModel::FastForward),
    );
}

/// A shard holding exactly one row (the warp-aligned tail cut) still
/// solves and matches: n = 2·32 + 1 at three devices puts a single row on
/// the last shard.
#[test]
fn one_row_tail_shard_matches() {
    let cfg = base_cfg();
    let l = gen::random_k(65, 3, 65, 5);
    let b = rhs(&l);
    let report = solve_sharded(
        &cfg,
        &l,
        &b,
        Algorithm::CapelliniWritingFirst,
        &ShardConfig::pcie(3),
    )
    .expect("one-row shard solves");
    let (r0, r1) = report.partition.range(2);
    assert_eq!(r1 - r0, 1, "expected a one-row tail shard, got {r0}..{r1}");
    let oracle = solve_simulated(&cfg, &l, &b, Algorithm::CapelliniWritingFirst).unwrap();
    for (s, o) in report.x.iter().zip(&oracle.x) {
        assert_eq!(s.to_bits(), o.to_bits());
    }
}

/// More devices than rows: the surplus shards own zero rows, launch
/// nothing, and the answer is untouched.
#[test]
fn zero_row_shards_when_n_below_device_count() {
    let cfg = base_cfg();
    let l = gen::chain(3, 1, 9);
    let b = rhs(&l);
    for algo in [Algorithm::CapelliniWritingFirst, Algorithm::Scheduled] {
        let report = solve_sharded(&cfg, &l, &b, algo, &ShardConfig::pcie(MAX_DEVICES))
            .unwrap_or_else(|e| panic!("{}: {e}", algo.label()));
        let empty = (0..MAX_DEVICES)
            .filter(|&d| {
                let (r0, r1) = report.partition.range(d);
                r0 == r1
            })
            .count();
        assert!(empty >= MAX_DEVICES - 3, "expected surplus empty shards");
        let oracle = solve_simulated(&cfg, &l, &b, algo).unwrap();
        for (s, o) in report.x.iter().zip(&oracle.x) {
            assert_eq!(s.to_bits(), o.to_bits());
        }
    }
}

/// A diagonal matrix has no cross-row dependencies at all: every boundary
/// row is diagonal-only, so the links carry nothing.
#[test]
fn diagonal_only_boundaries_move_no_messages() {
    let cfg = base_cfg();
    let l = gen::diagonal(128);
    let b = rhs(&l);
    let report = solve_sharded(
        &cfg,
        &l,
        &b,
        Algorithm::CapelliniWritingFirst,
        &ShardConfig::nvlink(4),
    )
    .expect("diagonal solves");
    assert_eq!(report.link_messages, 0);
    assert_eq!(report.link_bytes, 0);
    let oracle = solve_simulated(&cfg, &l, &b, Algorithm::CapelliniWritingFirst).unwrap();
    for (s, o) in report.x.iter().zip(&oracle.x) {
        assert_eq!(s.to_bits(), o.to_bits());
    }
}

/// One device is the degenerate shard: no links, and every live algorithm
/// reproduces its unsharded bits exactly.
#[test]
fn single_device_shard_is_bit_equal() {
    let cfg = base_cfg();
    let l = gen::random_k(300, 4, 150, 23);
    let b = rhs(&l);
    for algo in Algorithm::all_live() {
        let report = solve_sharded(&cfg, &l, &b, algo, &ShardConfig::pcie(1))
            .unwrap_or_else(|e| panic!("{}: {e}", algo.label()));
        assert_eq!(report.link_messages, 0, "{}", algo.label());
        let oracle = solve_simulated(&cfg, &l, &b, algo).unwrap();
        for (s, o) in report.x.iter().zip(&oracle.x) {
            assert_eq!(s.to_bits(), o.to_bits(), "{}", algo.label());
        }
    }
}

/// A multi-shard failure surfaces as ONE structured deadlock whose waiter
/// graph spans devices: the naive §3.3 straw man starves on the chain's
/// intra-warp dependencies on shard 0, which in turn starves the
/// downstream shards of their boundary imports. Every stuck device
/// contributes device-tagged warp snapshots to the merged error.
#[test]
fn cross_device_stall_merges_into_one_tagged_deadlock() {
    let mut cfg = base_cfg();
    cfg.deadlock_window = 300_000;
    let l = gen::chain(256, 1, 1);
    let b = rhs(&l);
    let err = solve_sharded(&cfg, &l, &b, Algorithm::NaiveThread, &ShardConfig::pcie(3))
        .expect_err("the straw man deadlocks");
    let SimtError::Deadlock {
        live_warps, warps, ..
    } = &err
    else {
        panic!("expected one merged deadlock, got {err:?}");
    };
    assert!(*live_warps > 0);
    let mut seen: Vec<usize> = warps.iter().map(|w| w.device).collect();
    seen.sort_unstable();
    seen.dedup();
    assert!(
        seen.len() >= 2,
        "waiter graph should span devices, saw only {seen:?}"
    );
    let rendered = err.to_string();
    assert!(
        rendered.contains("device 1") || rendered.contains("device 2"),
        "rendered deadlock should tag non-zero devices: {rendered}"
    );
}

/// Sharding rejects non-physical device counts with a structured config
/// error rather than panicking.
#[test]
fn invalid_device_counts_are_config_errors() {
    let cfg = base_cfg();
    let l = gen::diagonal(16);
    let b = rhs(&l);
    for bad in [0, MAX_DEVICES + 1] {
        let err = solve_sharded(
            &cfg,
            &l,
            &b,
            Algorithm::CapelliniWritingFirst,
            &ShardConfig::pcie(bad),
        )
        .expect_err("non-physical device count");
        assert!(matches!(err, SimtError::Config(_)), "got {err:?}");
    }
}
