//! The high-level solve API: cold solves of any [`Algorithm`] on a fresh
//! simulated device, and the paper's reporting metrics (GFLOPS, bandwidth,
//! instructions, stalls). A cold solve is a fresh [`SolverSession`]'s first
//! solve, so the session is the one place that dispatches algorithms.

use capellini_simt::{DeviceConfig, LaunchStats, Profile, SimtError};
use capellini_sparse::{LowerTriangularCsr, MatrixStats};

use crate::buffers::{check_rhs_block, check_rhs_len};
use crate::select::{recommend, Algorithm};
use crate::session::{has_batched_kernel, SolverSession};

/// The outcome of one simulated solve, carrying everything the paper's
/// tables report about a (matrix, algorithm, platform) cell.
///
/// Its simulated numbers depend on the L2 state the solve started from.
/// The device keeps its first-touch (and, with the cache model armed, its
/// tag) state across launches, so a cold solve ([`solve_simulated`], a
/// fresh session's first solve, and every `repro` table) pays DRAM on first
/// touch, while a warm [`SolverSession::solve`] or service request on a
/// resident session is L2-warm: 0 DRAM transactions, a `bandwidth_gbs` of
/// 0, and fewer cycles for the same solution bits (DESIGN.md §10).
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// Which algorithm ran.
    pub algorithm: Algorithm,
    /// The solution vector.
    pub x: Vec<f64>,
    /// Raw simulator counters.
    pub stats: LaunchStats,
    /// Host-side preprocessing time (Table 1's first row group).
    pub preprocessing_ms: f64,
    /// Kernel execution time in milliseconds.
    pub exec_ms: f64,
    /// GFLOPS/s at the paper's 2·nnz flop convention.
    pub gflops: f64,
    /// DRAM read+write bandwidth in GB/s (Figure 7).
    pub bandwidth_gbs: f64,
    /// Per-launch profiles, in launch order — empty unless the device
    /// config armed profiling (`DeviceConfig::with_profile`). Multi-launch
    /// algorithms (Level-Set) produce one profile per level launch.
    pub profiles: Vec<Profile>,
}

/// Runs `algorithm` on a fresh simulated device of the given configuration.
///
/// A cold solve is a fresh [`SolverSession`]'s first solve: the session
/// pays the analysis, and the report's `preprocessing_ms` is that
/// session's [`SolverSession::analysis_ms`]. A right-hand side of the
/// wrong length is a recoverable [`SimtError::Launch`], reported before
/// any analysis runs.
pub fn solve_simulated(
    config: &DeviceConfig,
    l: &LowerTriangularCsr,
    b: &[f64],
    algorithm: Algorithm,
) -> Result<SolveReport, SimtError> {
    check_rhs_len(b, l.n())?;
    let mut session = SolverSession::with_algorithm(config, l.clone(), algorithm);
    let mut report = session.solve(b)?;
    report.preprocessing_ms = session.analysis_ms();
    Ok(report)
}

/// The outcome of one batched (SpTRSM) solve over `nrhs` right-hand sides.
#[derive(Debug, Clone)]
pub struct MultiSolveReport {
    /// Which algorithm ran.
    pub algorithm: Algorithm,
    /// Number of right-hand sides solved together.
    pub nrhs: usize,
    /// The solution block, row-major `n × nrhs` (`x[i*nrhs + r]`).
    pub x: Vec<f64>,
    /// Raw simulator counters, accumulated over every launch involved.
    pub stats: LaunchStats,
    /// Host-side preprocessing time. Charged once for a batched kernel,
    /// once per column for the looped fallback, and zero on session solves.
    pub preprocessing_ms: f64,
    /// Kernel execution time in milliseconds.
    pub exec_ms: f64,
    /// GFLOPS/s at `2·nnz·nrhs` useful flops.
    pub gflops: f64,
    /// DRAM read+write bandwidth in GB/s.
    pub bandwidth_gbs: f64,
}

impl MultiSolveReport {
    /// The answer to a zero-column block: a well-formed degenerate solve
    /// with an empty solution, zeroed counters and zero derived metrics —
    /// no analysis, no launch, never an error or a division by zero.
    pub(crate) fn empty(algorithm: Algorithm) -> Self {
        MultiSolveReport {
            algorithm,
            nrhs: 0,
            x: Vec::new(),
            stats: LaunchStats::default(),
            preprocessing_ms: 0.0,
            exec_ms: 0.0,
            gflops: 0.0,
            bandwidth_gbs: 0.0,
        }
    }
}

/// Solves `L X = B` for `nrhs` right-hand sides packed row-major in `bs`
/// (`bs[i*nrhs + r]`) on a fresh simulated device. The evaluation trio
/// (SyncFree, cuSPARSE-like, Writing-First) is a fresh [`SolverSession`]'s
/// first [`SolverSession::solve_multi`]: its dedicated SpTRSM kernel runs
/// in a single launch and the analysis is charged once. Every other
/// algorithm loops `nrhs` cold [`solve_simulated`] calls (each paying its
/// preprocessing) and accumulates the statistics. Both paths return `X`
/// bit-identical to column-by-column solving.
///
/// Shape mismatches are recoverable [`SimtError::Launch`] errors. A
/// zero-column block (`nrhs == 0` with an empty `bs`) is *not* an error:
/// it returns an empty solution with zeroed statistics and derived
/// metrics, skipping the device entirely.
pub fn solve_multi_simulated(
    config: &DeviceConfig,
    l: &LowerTriangularCsr,
    bs: &[f64],
    nrhs: usize,
    algorithm: Algorithm,
) -> Result<MultiSolveReport, SimtError> {
    let n = l.n();
    check_rhs_block(bs, n, nrhs)?;
    if nrhs == 0 {
        return Ok(MultiSolveReport::empty(algorithm));
    }
    if has_batched_kernel(algorithm) {
        let mut session = SolverSession::with_algorithm(config, l.clone(), algorithm);
        let mut report = session.solve_multi(bs, nrhs)?;
        report.preprocessing_ms = session.analysis_ms();
        return Ok(report);
    }
    let mut x = vec![0.0; n * nrhs];
    let mut stats = LaunchStats::default();
    let mut preprocessing_ms = 0.0;
    let mut col = vec![0.0; n];
    for r in 0..nrhs {
        for i in 0..n {
            col[i] = bs[i * nrhs + r];
        }
        let rep = solve_simulated(config, l, &col, algorithm)?;
        stats.accumulate(&rep.stats);
        preprocessing_ms += rep.preprocessing_ms;
        for (i, &xi) in rep.x.iter().enumerate() {
            x[i * nrhs + r] = xi;
        }
    }
    let useful_flops = 2 * l.nnz() as u64 * nrhs as u64;
    Ok(MultiSolveReport {
        algorithm,
        nrhs,
        exec_ms: stats.time_ms(config),
        gflops: stats.gflops(config, useful_flops),
        bandwidth_gbs: stats.bandwidth_gbs(config),
        x,
        stats,
        preprocessing_ms,
    })
}

/// A reusable solver bound to one matrix: computes statistics once,
/// recommends an algorithm, and exposes both simulated-GPU and native-CPU
/// solving.
pub struct Solver {
    l: LowerTriangularCsr,
    stats: MatrixStats,
}

impl Solver {
    /// Wraps a validated lower-triangular system.
    pub fn new(l: LowerTriangularCsr) -> Self {
        let stats = MatrixStats::compute(&l);
        Solver { l, stats }
    }

    /// The underlying matrix.
    pub fn matrix(&self) -> &LowerTriangularCsr {
        &self.l
    }

    /// The matrix statistics (α, β, δ, ...).
    pub fn stats(&self) -> &MatrixStats {
        &self.stats
    }

    /// The recommended GPU algorithm for this matrix (Figure 6 rule).
    pub fn recommend(&self) -> Algorithm {
        recommend(&self.stats)
    }

    /// Solves on a simulated device with the recommended algorithm.
    pub fn solve_simulated(
        &self,
        config: &DeviceConfig,
        b: &[f64],
    ) -> Result<SolveReport, SimtError> {
        solve_simulated(config, &self.l, b, self.recommend())
    }

    /// Solves on a simulated device with an explicit algorithm.
    pub fn solve_simulated_with(
        &self,
        config: &DeviceConfig,
        b: &[f64],
        algorithm: Algorithm,
    ) -> Result<SolveReport, SimtError> {
        solve_simulated(config, &self.l, b, algorithm)
    }

    /// Solves `nrhs` right-hand sides (row-major block) on a simulated
    /// device with the recommended algorithm.
    pub fn solve_multi_simulated(
        &self,
        config: &DeviceConfig,
        bs: &[f64],
        nrhs: usize,
    ) -> Result<MultiSolveReport, SimtError> {
        solve_multi_simulated(config, &self.l, bs, nrhs, self.recommend())
    }

    /// Solves natively on the CPU with self-scheduled busy-wait threads
    /// (the CPU analog of CapelliniSpTRSV). A wrong-length rhs is the same
    /// [`SimtError::Launch`] as on the simulated paths.
    pub fn solve_cpu(&self, b: &[f64], n_threads: usize) -> Result<Vec<f64>, SimtError> {
        check_rhs_len(b, self.l.n())?;
        Ok(crate::cpu::solve_selfsched(
            &self.l,
            b,
            n_threads,
            crate::cpu::Distribution::Cyclic,
        ))
    }

    /// Serial reference solve (Algorithm 1). A wrong-length rhs is the same
    /// [`SimtError::Launch`] as on the simulated paths.
    pub fn solve_serial(&self, b: &[f64]) -> Result<Vec<f64>, SimtError> {
        check_rhs_len(b, self.l.n())?;
        Ok(crate::reference::solve_serial_csr(&self.l, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capellini_sparse::gen;
    use capellini_sparse::linalg::assert_solutions_close;

    #[test]
    fn every_live_algorithm_produces_the_same_solution() {
        let l = gen::random_k(600, 3, 600, 41);
        let b: Vec<f64> = (0..600).map(|i| (i % 11) as f64 - 5.0).collect();
        let cfg = DeviceConfig::pascal_like();
        let x_ref = crate::reference::solve_serial_csr(&l, &b);
        for algo in Algorithm::all_live() {
            let rep = solve_simulated(&cfg, &l, &b, algo)
                .unwrap_or_else(|e| panic!("{}: {e}", algo.label()));
            assert_solutions_close(&rep.x, &x_ref, 1e-11);
            assert!(rep.exec_ms > 0.0);
            assert!(rep.gflops > 0.0);
            let session = SolverSession::with_algorithm(&cfg, l.clone(), algo);
            assert_eq!(rep.preprocessing_ms, session.analysis_ms());
        }
    }

    #[test]
    fn preprocessing_ordering_matches_table1() {
        let l = gen::stencil3d(16, 16, 16, 42);
        let b = vec![1.0; l.n()];
        let cfg = DeviceConfig::volta_like();
        let lv = solve_simulated(&cfg, &l, &b, Algorithm::LevelSet).unwrap();
        let cu = solve_simulated(&cfg, &l, &b, Algorithm::CusparseLike).unwrap();
        let sf = solve_simulated(&cfg, &l, &b, Algorithm::SyncFree).unwrap();
        let wf = solve_simulated(&cfg, &l, &b, Algorithm::CapelliniWritingFirst).unwrap();
        assert!(lv.preprocessing_ms > cu.preprocessing_ms);
        assert!(cu.preprocessing_ms > sf.preprocessing_ms);
        assert!(sf.preprocessing_ms > wf.preprocessing_ms);
    }

    #[test]
    fn solve_multi_matches_looped_single_solves_bitwise() {
        let l = gen::powerlaw(400, 3.0, 44);
        let n = l.n();
        let nrhs = 3;
        let cfg = DeviceConfig::pascal_like();
        let mut bs = vec![0.0; n * nrhs];
        let mut cols: Vec<Vec<f64>> = Vec::new();
        for r in 0..nrhs {
            let b: Vec<f64> = (0..n)
                .map(|i| ((i * (r + 2) + 5) % 17) as f64 - 8.0)
                .collect();
            for i in 0..n {
                bs[i * nrhs + r] = b[i];
            }
            cols.push(b);
        }
        // A batched-kernel algorithm and a looped-fallback algorithm.
        for algo in [Algorithm::SyncFree, Algorithm::CapelliniTwoPhase] {
            let rep = solve_multi_simulated(&cfg, &l, &bs, nrhs, algo).unwrap();
            assert_eq!(rep.nrhs, nrhs);
            assert!(rep.preprocessing_ms > 0.0);
            assert!(rep.exec_ms > 0.0);
            for (r, b) in cols.iter().enumerate() {
                let single = solve_simulated(&cfg, &l, b, algo).unwrap();
                for i in 0..n {
                    assert_eq!(
                        rep.x[i * nrhs + r].to_bits(),
                        single.x[i].to_bits(),
                        "{}: rhs {r} row {i}",
                        algo.label()
                    );
                }
            }
        }
    }

    #[test]
    fn solve_multi_rejects_bad_shapes() {
        let l = gen::diagonal(8);
        let cfg = DeviceConfig::pascal_like();
        let err = solve_multi_simulated(&cfg, &l, &[1.0; 15], 2, Algorithm::SyncFree).unwrap_err();
        assert!(matches!(err, capellini_simt::SimtError::Launch(_)));
        // nrhs == 0 with a *non-empty* block is still a shape mismatch.
        let err = solve_multi_simulated(&cfg, &l, &[1.0; 8], 0, Algorithm::SyncFree).unwrap_err();
        assert!(matches!(err, capellini_simt::SimtError::Launch(_)));
    }

    /// Regression (the nrhs == 0 satellite): a zero-column solve used to be
    /// rejected; it must instead be a well-formed empty success — empty
    /// solution, `LaunchStats::default()` counters, zero derived metrics —
    /// for every live algorithm, batched trio and looped fallback alike.
    #[test]
    fn solve_multi_with_zero_rhs_is_an_empty_success() {
        let l = gen::diagonal(8);
        let cfg = DeviceConfig::pascal_like();
        for algo in Algorithm::all_live() {
            let rep = solve_multi_simulated(&cfg, &l, &[], 0, algo)
                .unwrap_or_else(|e| panic!("{}: {e}", algo.label()));
            assert_eq!(rep.nrhs, 0, "{}", algo.label());
            assert!(rep.x.is_empty(), "{}", algo.label());
            assert_eq!(
                format!("{:?}", rep.stats),
                format!("{:?}", LaunchStats::default()),
                "{}: counters must be zeroed",
                algo.label()
            );
            assert_eq!(rep.exec_ms, 0.0);
            assert_eq!(rep.gflops, 0.0);
            assert_eq!(rep.bandwidth_gbs, 0.0);
            assert_eq!(rep.preprocessing_ms, 0.0);
        }
    }

    /// Regression (validation parity): the cold free function must reject a
    /// wrong-length right-hand side exactly like `SolverSession::solve`
    /// does — a recoverable Launch error, never a panic or a misread — and
    /// the `Solver` wrappers inherit the check.
    #[test]
    fn solve_simulated_rejects_wrong_rhs_length() {
        let l = gen::diagonal(16);
        let cfg = DeviceConfig::pascal_like();
        for algo in Algorithm::all_live() {
            for bad in [0usize, 7, 17] {
                let err = solve_simulated(&cfg, &l, &vec![1.0; bad], algo).unwrap_err();
                assert!(
                    matches!(err, capellini_simt::SimtError::Launch(_)),
                    "{}: rhs length {bad} must be a Launch error",
                    algo.label()
                );
                assert!(
                    err.to_string().contains(&bad.to_string()),
                    "{}: message names the bad length: {err}",
                    algo.label()
                );
            }
        }
        let solver = Solver::new(l);
        let err = solver.solve_simulated(&cfg, &[1.0; 3]).unwrap_err();
        assert!(matches!(err, capellini_simt::SimtError::Launch(_)));
        let err = solver
            .solve_simulated_with(&cfg, &[1.0; 3], Algorithm::LevelSet)
            .unwrap_err();
        assert!(matches!(err, capellini_simt::SimtError::Launch(_)));
    }

    /// Regression: an nrhs so large that `n * nrhs` overflows usize must be
    /// the structured Launch error, not an arithmetic panic.
    #[test]
    fn solve_multi_overflowing_nrhs_is_a_launch_error() {
        let l = gen::diagonal(8);
        let cfg = DeviceConfig::pascal_like();
        let err = solve_multi_simulated(&cfg, &l, &[1.0; 8], usize::MAX, Algorithm::SyncFree)
            .unwrap_err();
        assert!(matches!(err, capellini_simt::SimtError::Launch(_)));
        assert!(err.to_string().contains("overflows"));
        let solver = Solver::new(l);
        let err = solver
            .solve_multi_simulated(&cfg, &[1.0; 8], usize::MAX / 2)
            .unwrap_err();
        assert!(matches!(err, capellini_simt::SimtError::Launch(_)));
    }

    #[test]
    fn solver_facade_recommends_and_solves() {
        let l = gen::ultra_sparse_wide(3000, 8, 1, 43);
        let solver = Solver::new(l);
        assert_eq!(solver.recommend(), Algorithm::CapelliniWritingFirst);
        let b = vec![1.0; solver.matrix().n()];
        let x_ref = solver.solve_serial(&b).unwrap();
        let rep = solver
            .solve_simulated(&DeviceConfig::turing_like(), &b)
            .unwrap();
        assert_solutions_close(&rep.x, &x_ref, 1e-11);
        let x_cpu = solver.solve_cpu(&b, 4).unwrap();
        assert_solutions_close(&x_cpu, &x_ref, 1e-11);
    }
}
