//! The SpTRSV kernels, one module per algorithm:
//!
//! | module | paper | granularity | storage |
//! |---|---|---|---|
//! | [`levelset`] | Algorithm 2 (Anderson & Saad / Saltz) | thread, per-level launches | CSR + level analysis |
//! | [`syncfree`] | Algorithm 3 (Liu et al. [20]) | one **warp** per component | CSR arrays (CSC conversion charged as preprocessing) |
//! | [`syncfree_csc`] | Liu et al.'s original CSC scatter formulation | one warp per **column**, atomics | CSC + in-degree analysis |
//! | [`naive`] | §3.3 straw man | one thread per component, bare busy-wait | CSR |
//! | [`two_phase`] | Algorithm 4 — Two-Phase CapelliniSpTRSV | one **thread** per component | CSR |
//! | [`writing_first`] | Algorithm 5 — Writing-First CapelliniSpTRSV | one **thread** per component | CSR |
//! | [`writing_first_multi`] | the multiple-right-hand-sides extension (Liu et al. [21]) | thread, k accumulators | CSR |
//! | [`cusparse_like`] | cuSPARSE black-box stand-in (§2.4) | warp | CSR + analysis |
//! | [`cusparse_like_multi`] | its `csrsm2` (SpTRSM) analogue | warp, k accumulators | CSR + analysis |
//! | [`syncfree_multi`] | SyncFree over k right-hand sides (Liu et al. [21]) | warp, k accumulators | CSR |
//! | [`hybrid`] | §4.4 warp/thread fusion (future work) | mixed | CSR + row-block analysis |
//! | [`scheduled`] | level-coarsened work units (arXiv 2503.05408) | one warp per unit, per-unit flags | CSR + coarsened schedule |
//!
//! The three `*_multi` modules batch `k` right-hand sides per launch for
//! the evaluation trio; per column their floating-point schedule matches
//! the single-RHS kernel exactly, so batched solves are bit-identical to
//! looped ones (pinned by `tests/batched.rs`).
//! At `k = 1` they still do not reproduce their siblings' `LaunchStats`
//! (the x load and FMA fuse into one instruction and the finalize loops
//! per column), so the single-RHS modules stay separate.
//!
//! Every public `solve*` wrapper checks the right-hand side (or block)
//! shape first, returning [`SimtError::Launch`] instead of panicking.

pub mod cusparse_like;
pub mod cusparse_like_multi;
pub mod hybrid;
pub mod levelset;
pub mod naive;
pub mod scheduled;
pub mod syncfree;
pub mod syncfree_csc;
pub mod syncfree_multi;
pub mod two_phase;
pub mod writing_first;
pub mod writing_first_multi;

use capellini_simt::{GpuDevice, LaunchStats, SimtError};
use capellini_sparse::LowerTriangularCsr;

use crate::buffers::{
    check_rhs_block, check_rhs_len, DeviceCsr, MultiSolveBuffers, RhsLayout, SolveBuffers,
};

/// Result of a simulated solve: the solution plus the launch counters.
#[derive(Debug, Clone)]
pub struct SimSolve {
    /// Solution vector read back from the device.
    pub x: Vec<f64>,
    /// Accumulated launch statistics (one launch for the sync-free family,
    /// one per level for Level-Set).
    pub stats: LaunchStats,
}

/// Uploads matrix and right-hand side, runs `solve`, reads back `x`.
pub(crate) fn run_on_fresh_device(
    dev: &mut GpuDevice,
    l: &LowerTriangularCsr,
    b: &[f64],
    solve: impl FnOnce(&mut GpuDevice, DeviceCsr, SolveBuffers) -> Result<LaunchStats, SimtError>,
) -> Result<SimSolve, SimtError> {
    check_rhs_len(b, l.n())?;
    let dm = DeviceCsr::upload(dev, l);
    let sb = SolveBuffers::upload(dev, b);
    let stats = solve(dev, dm, sb)?;
    Ok(SimSolve {
        x: sb.read_x(dev),
        stats,
    })
}

/// Uploads the matrix and a row-major `n × nrhs` block tiled per `layout`,
/// runs `launch`, reads back `X` row-major. A zero-column block launches
/// nothing and returns an empty solution with zeroed counters.
pub(crate) fn run_multi_on_fresh_device(
    dev: &mut GpuDevice,
    l: &LowerTriangularCsr,
    bs: &[f64],
    nrhs: usize,
    layout: RhsLayout,
    launch: impl FnOnce(&mut GpuDevice, DeviceCsr, MultiSolveBuffers) -> Result<LaunchStats, SimtError>,
) -> Result<SimSolve, SimtError> {
    check_rhs_block(bs, l.n(), nrhs)?;
    if nrhs == 0 {
        return Ok(SimSolve {
            x: Vec::new(),
            stats: LaunchStats::default(),
        });
    }
    let dm = DeviceCsr::upload(dev, l);
    let mb = MultiSolveBuffers::upload_with_layout(dev, bs, l.n(), nrhs, layout);
    let stats = launch(dev, dm, mb)?;
    Ok(SimSolve {
        x: mb.read_x(dev),
        stats,
    })
}

#[cfg(test)]
pub(crate) mod testutil {
    use capellini_simt::DeviceConfig;
    use capellini_sparse::linalg::{assert_solutions_close, rhs_for_solution};
    use capellini_sparse::LowerTriangularCsr;

    use crate::reference::solve_serial_csr;

    /// A deterministic non-trivial right-hand side with known solution.
    pub fn problem(l: &LowerTriangularCsr) -> (Vec<f64>, Vec<f64>) {
        let n = l.n();
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % 23) as f64 - 11.0).collect();
        let b = rhs_for_solution(l, &x_true);
        (x_true, b)
    }

    /// Asserts a simulated solve matches the serial reference bit-for-bit
    /// up to a tight tolerance.
    #[track_caller]
    pub fn check_against_reference(l: &LowerTriangularCsr, b: &[f64], x: &[f64]) {
        let x_ref = solve_serial_csr(l, b);
        assert_solutions_close(x, &x_ref, 1e-11);
    }

    /// Small devices exercised in kernel unit tests.
    pub fn test_devices() -> Vec<DeviceConfig> {
        let mut small = DeviceConfig::pascal_like();
        small.sm_count = 2;
        small.max_warps_per_sm = 8;
        vec![DeviceConfig::pascal_like(), small]
    }

    /// A basket of small matrices covering the structural corner cases.
    pub fn test_matrices() -> Vec<(&'static str, LowerTriangularCsr)> {
        use capellini_sparse::gen;
        vec![
            ("paper-example", capellini_sparse::paper_example()),
            ("diagonal", gen::diagonal(70)),
            ("chain", gen::chain(129, 1, 7)),
            ("chain-k3", gen::chain(80, 3, 8)),
            ("random-wide", gen::random_k(400, 3, 400, 9)),
            ("random-narrow", gen::random_k(300, 2, 8, 10)),
            ("banded", gen::banded(200, 12, 0.5, 11)),
            ("dense-band", gen::dense_band(150, 40, 12)),
            ("powerlaw", gen::powerlaw(500, 3.0, 13)),
            ("lp-wide", gen::ultra_sparse_wide(400, 8, 2, 14)),
            ("circuit", gen::circuit_like(400, 4, 64, 15)),
            ("stencil", gen::stencil2d(20, 20, 16)),
            ("layered", gen::layered(350, 4, 5, 17)),
            ("single-row", gen::diagonal(1)),
            ("two-rows", gen::chain(2, 1, 18)),
        ]
    }
}
