//! SpTRSM equivalence suite: batched multi-RHS solving must be
//! **bit-identical** to solving the same columns one at a time, for every
//! live algorithm, under both memory models (sequentially consistent and
//! relaxed — with racecheck armed) and both spin models (replay and
//! fast-forward).
//!
//! The evaluation trio (SyncFree, cuSPARSE-like, Writing-First) runs its
//! dedicated batched kernel, whose per-column floating-point schedule —
//! ascending-`j` consume order, reduction-tree shape, `(b - sum)/diag`
//! finalize — matches the single-RHS kernel exactly; every other algorithm
//! loops single solves. Either way the solution block must carry exactly
//! the bits of the column-by-column solves.

use capellini_sptrsv::core::{solve_multi_simulated, solve_simulated, Algorithm};
use capellini_sptrsv::prelude::*;
use capellini_sptrsv::sparse::paper_example;

/// Store-buffer drain delay for the relaxed configurations (matches the
/// `memory_model.rs` audit suite).
const DRAIN_TICKS: u64 = 2_000;

const NRHS: usize = 3;

fn matrices() -> Vec<(&'static str, LowerTriangularCsr)> {
    vec![
        ("paper", paper_example()),
        ("graph", gen::powerlaw(300, 3.0, 61)),
        ("chain", gen::chain(100, 1, 62)),
    ]
}

/// A row-major `n × NRHS` block of distinct right-hand sides, plus its
/// columns.
fn rhs_block(n: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
    let mut bs = vec![0.0; n * NRHS];
    let mut cols = Vec::new();
    for r in 0..NRHS {
        let b: Vec<f64> = (0..n)
            .map(|i| ((i * (2 * r + 3) + 5 * r + 1) % 23) as f64 - 11.0)
            .collect();
        for i in 0..n {
            bs[i * NRHS + r] = b[i];
        }
        cols.push(b);
    }
    (bs, cols)
}

/// The heart of the suite: batched == looped, bitwise, per configuration.
fn check_all_algorithms(cfg: &DeviceConfig, cfg_name: &str) {
    for (mname, l) in matrices() {
        let (bs, cols) = rhs_block(l.n());
        for algo in Algorithm::all_live() {
            let multi = solve_multi_simulated(cfg, &l, &bs, NRHS, algo)
                .unwrap_or_else(|e| panic!("{cfg_name}/{mname}/{}: {e}", algo.label()));
            assert_eq!(multi.x.len(), l.n() * NRHS);
            for (r, b) in cols.iter().enumerate() {
                let single = solve_simulated(cfg, &l, b, algo)
                    .unwrap_or_else(|e| panic!("{cfg_name}/{mname}/{}: {e}", algo.label()));
                for i in 0..l.n() {
                    assert_eq!(
                        multi.x[i * NRHS + r].to_bits(),
                        single.x[i].to_bits(),
                        "{cfg_name}/{mname}/{}: rhs {r}, row {i}: batched {} != looped {}",
                        algo.label(),
                        multi.x[i * NRHS + r],
                        single.x[i]
                    );
                }
            }
        }
    }
}

fn base() -> DeviceConfig {
    DeviceConfig::pascal_like().scaled_down(4)
}

#[test]
fn batched_equals_looped_sc_replay() {
    let cfg = base().with_spin_model(SpinModel::Replay);
    check_all_algorithms(&cfg, "sc/replay");
}

#[test]
fn batched_equals_looped_sc_fastforward() {
    let cfg = base().with_spin_model(SpinModel::FastForward);
    check_all_algorithms(&cfg, "sc/fastforward");
}

#[test]
fn batched_equals_looped_relaxed_replay() {
    let cfg = base()
        .with_memory_model(MemoryModel::relaxed(DRAIN_TICKS))
        .with_spin_model(SpinModel::Replay);
    check_all_algorithms(&cfg, "relaxed/replay");
}

#[test]
fn batched_equals_looped_relaxed_fastforward() {
    let cfg = base()
        .with_memory_model(MemoryModel::relaxed(DRAIN_TICKS))
        .with_spin_model(SpinModel::FastForward);
    check_all_algorithms(&cfg, "relaxed/fastforward");
}

/// Racecheck must stay silent for the batched kernels: their single fence +
/// single flag per row publishes all `k` components race-free.
#[test]
fn batched_kernels_pass_racecheck() {
    let cfg = base()
        .with_memory_model(MemoryModel::racecheck(DRAIN_TICKS))
        .with_spin_model(SpinModel::Replay);
    check_all_algorithms(&cfg, "racecheck/replay");
}

#[test]
fn batched_kernels_pass_racecheck_fastforward() {
    let cfg = base()
        .with_memory_model(MemoryModel::racecheck(DRAIN_TICKS))
        .with_spin_model(SpinModel::FastForward);
    check_all_algorithms(&cfg, "racecheck/fastforward");
}

/// Scheduled has no dedicated SpTRSM kernel, so `solve_multi` takes the
/// looped warm-solve fallback — which must still match the cold batched
/// path bitwise, through the pooled per-unit flag buffers.
#[test]
fn session_scheduled_fallback_matches_cold_batched() {
    use capellini_sptrsv::core::SolverSession;
    let cfg = base();
    for (mname, l) in matrices() {
        let (bs, _) = rhs_block(l.n());
        let cold = solve_multi_simulated(&cfg, &l, &bs, NRHS, Algorithm::Scheduled).unwrap();
        let mut session = SolverSession::with_algorithm(&cfg, l.clone(), Algorithm::Scheduled);
        assert!(!session.batched_kernel_available());
        for round in 0..2 {
            let warm = session.solve_multi(&bs, NRHS).unwrap();
            for (w, c) in warm.x.iter().zip(&cold.x) {
                assert_eq!(
                    w.to_bits(),
                    c.to_bits(),
                    "{mname}: scheduled session round {round} diverged from cold batched"
                );
            }
            assert_eq!(warm.preprocessing_ms, 0.0);
        }
    }
}

/// The session layer's batched path agrees with the cold batched path for
/// the trio (the bit-identity contract carries through pooled buffers).
#[test]
fn session_batched_matches_cold_batched() {
    use capellini_sptrsv::core::SolverSession;
    let cfg = base();
    for (mname, l) in matrices() {
        let (bs, _) = rhs_block(l.n());
        for algo in [
            Algorithm::SyncFree,
            Algorithm::CusparseLike,
            Algorithm::CapelliniWritingFirst,
        ] {
            let cold = solve_multi_simulated(&cfg, &l, &bs, NRHS, algo).unwrap();
            let mut session = SolverSession::with_algorithm(&cfg, l.clone(), algo);
            for round in 0..2 {
                let warm = session.solve_multi(&bs, NRHS).unwrap();
                for (w, c) in warm.x.iter().zip(&cold.x) {
                    assert_eq!(
                        w.to_bits(),
                        c.to_bits(),
                        "{mname}/{}: session round {round} diverged from cold batched",
                        algo.label()
                    );
                }
                assert_eq!(warm.preprocessing_ms, 0.0);
            }
        }
    }
}
