//! Multiple right-hand sides: the extension direction of Liu et al. \[21\]
//! ("fast synchronization-free algorithms for parallel sparse triangular
//! solves with multiple right-hand sides"), applied to Writing-First
//! CapelliniSpTRSV.
//!
//! `L X = B` for an `n×m` block of right-hand sides: each thread still owns
//! one row, but folds every consumed element into `m` accumulators and
//! publishes `m` solution components behind a single `get_value` flag —
//! amortizing the dependency tracking, the column-index traffic, and the
//! matrix-value traffic over all right-hand sides.
//!
//! Layout: `X` and `B` are row-major `n×m` (`x[i*m + r]`), so one row's
//! values sit in consecutive sectors.

use capellini_simt::{Effect, GpuDevice, LaneMem, LaunchStats, Pc, SimtError, WarpKernel, PC_EXIT};
use capellini_sparse::LowerTriangularCsr;

use crate::buffers::{DeviceCsr, MultiSolveBuffers};
use crate::kernels::{run_multi_on_fresh_device, SimSolve};

const P_LD_BEGIN: Pc = 0;
const P_LD_END: Pc = 1;
const P_OUTER: Pc = 2;
const P_LD_COL: Pc = 3;
const P_POLL: Pc = 4;
const P_BR_READY: Pc = 5;
const P_LD_VAL: Pc = 6;
const P_RHS_FMA: Pc = 7;
const P_LD_COL2: Pc = 8;
const P_BR_DIAG: Pc = 9;
const P_LD_DIAG: Pc = 10;
const P_RHS_SOLVE_LD: Pc = 11;
const P_RHS_SOLVE_ST: Pc = 12;
const P_FENCE: Pc = 13;
const P_ST_FLAG: Pc = 14;

/// Writing-First over `m` right-hand sides.
pub struct WritingFirstMultiKernel {
    m: DeviceCsr,
    nrhs: u32,
    b: capellini_simt::BufF64,
    x: capellini_simt::BufF64,
    flags: capellini_simt::BufFlag,
    layout: crate::buffers::RhsLayout,
}

/// Per-lane registers: `nrhs` accumulators.
pub struct WfmLane {
    j: u32,
    row_end: u32,
    col: u32,
    r: u32,
    v: f64,
    bv: f64,
    dv: f64,
    ready: bool,
    sums: Vec<f64>,
}

impl WarpKernel for WritingFirstMultiKernel {
    type Lane = WfmLane;

    fn name(&self) -> &'static str {
        "capellini-writing-first-multirhs"
    }

    fn make_lane(&self, _tid: u32) -> WfmLane {
        WfmLane {
            j: 0,
            row_end: 0,
            col: 0,
            r: 0,
            v: 0.0,
            bv: 0.0,
            dv: 0.0,
            ready: false,
            sums: vec![0.0; self.nrhs as usize],
        }
    }

    #[inline(always)]
    fn exec(&self, pc: Pc, l: &mut WfmLane, tid: u32, mem: &mut LaneMem<'_>) -> Effect {
        let i = tid as usize;
        let m = self.nrhs as usize;
        match pc {
            P_LD_BEGIN => {
                if i >= self.m.n {
                    return Effect::exit();
                }
                l.j = mem.load_u32(self.m.row_ptr, i);
                Effect::to(P_LD_END)
            }
            P_LD_END => {
                l.row_end = mem.load_u32(self.m.row_ptr, i + 1);
                Effect::to(P_OUTER)
            }
            P_OUTER => {
                if l.j < l.row_end {
                    Effect::to(P_LD_COL)
                } else {
                    Effect::exit()
                }
            }
            P_LD_COL => {
                l.col = mem.load_u32(self.m.col_idx, l.j as usize);
                Effect::to(P_POLL)
            }
            P_POLL => {
                l.ready = mem.poll_flag(self.flags, l.col as usize);
                Effect::to(P_BR_READY)
            }
            P_BR_READY => {
                if l.ready {
                    Effect::to(P_LD_VAL)
                } else {
                    Effect::to(P_BR_DIAG)
                }
            }
            P_LD_VAL => {
                l.v = mem.load_f64(self.m.values, l.j as usize);
                l.r = 0;
                Effect::to(P_RHS_FMA)
            }
            P_RHS_FMA => {
                // One fused load+FMA per right-hand side; row-major tiling
                // puts consecutive `r` in the same sector, so the traffic
                // amortizes (col-major strides by n instead).
                let idx = self.layout.index(l.col as usize, l.r as usize, self.m.n, m);
                let xv = mem.load_f64(self.x, idx);
                l.sums[l.r as usize] += l.v * xv;
                l.r += 1;
                if l.r < self.nrhs {
                    Effect::flops(P_RHS_FMA, 2)
                } else {
                    l.j += 1;
                    Effect::flops(P_LD_COL2, 2)
                }
            }
            P_LD_COL2 => {
                l.col = mem.load_u32(self.m.col_idx, l.j as usize);
                Effect::to(P_POLL)
            }
            P_BR_DIAG => {
                if l.col == tid {
                    Effect::to(P_LD_DIAG)
                } else {
                    Effect::to(P_OUTER)
                }
            }
            P_LD_DIAG => {
                l.dv = mem.load_f64(self.m.values, l.row_end as usize - 1);
                l.r = 0;
                Effect::to(P_RHS_SOLVE_LD)
            }
            P_RHS_SOLVE_LD => {
                let idx = self.layout.index(i, l.r as usize, self.m.n, m);
                l.bv = mem.load_f64(self.b, idx);
                Effect::to(P_RHS_SOLVE_ST)
            }
            P_RHS_SOLVE_ST => {
                let xi = (l.bv - l.sums[l.r as usize]) / l.dv;
                let idx = self.layout.index(i, l.r as usize, self.m.n, m);
                mem.store_f64(self.x, idx, xi);
                l.r += 1;
                if l.r < self.nrhs {
                    Effect::flops(P_RHS_SOLVE_LD, 2)
                } else {
                    Effect::flops(P_FENCE, 2)
                }
            }
            P_FENCE => Effect::fence(P_ST_FLAG),
            P_ST_FLAG => {
                // One flag publishes all m components of this row.
                mem.store_flag(self.flags, i, true);
                Effect::exit()
            }
            _ => unreachable!("writing-first-multi has no pc {pc}"),
        }
    }

    fn reconv(&self, pc: Pc) -> Pc {
        match pc {
            P_LD_BEGIN | P_OUTER | P_BR_DIAG => PC_EXIT,
            P_BR_READY => P_BR_DIAG,
            // The per-RHS loops are uniform (same m on every lane) but keep
            // the points defined for robustness.
            P_RHS_FMA => P_LD_COL2,
            P_RHS_SOLVE_ST => P_FENCE,
            _ => unreachable!("pc {pc} cannot diverge"),
        }
    }

    fn branch_order(&self, pc: Pc, target: Pc) -> u8 {
        match pc {
            P_BR_READY => {
                if target == P_LD_VAL {
                    0
                } else {
                    1
                }
            }
            P_BR_DIAG => {
                if target == P_LD_DIAG {
                    0
                } else {
                    1
                }
            }
            _ => {
                if target == PC_EXIT {
                    1
                } else {
                    0
                }
            }
        }
    }

    fn pc_name(&self, pc: Pc) -> &'static str {
        match pc {
            P_RHS_FMA => "rhs fma loop",
            P_RHS_SOLVE_LD | P_RHS_SOLVE_ST => "rhs solve loop",
            _ => "writing-first-multi",
        }
    }

    /// Busy-wait purity (spin fast-forwarding): the poll/ld-col/branch cycle re-reads the same words each trip.
    fn spin_pure(&self, pc: Pc) -> bool {
        pc == P_POLL
    }
}

/// Launches the batched kernel on pre-uploaded device state — the session
/// path (one thread per row, `mb.nrhs` right-hand sides per launch).
pub fn launch_multi(
    dev: &mut GpuDevice,
    m: DeviceCsr,
    mb: MultiSolveBuffers,
) -> Result<LaunchStats, SimtError> {
    let kernel = WritingFirstMultiKernel {
        m,
        nrhs: mb.nrhs as u32,
        b: mb.b,
        x: mb.x,
        flags: mb.flags,
        layout: mb.layout,
    };
    let n_warps = super::writing_first::warps_for(m.n, dev.config().warp_size);
    dev.launch(&kernel, n_warps)
}

/// Solves `L X = B` for `nrhs` right-hand sides stored row-major in `bs`
/// (`bs[i*nrhs + r]`); returns `X` in the same layout plus launch stats.
pub fn solve_multi(
    dev: &mut GpuDevice,
    l: &LowerTriangularCsr,
    bs: &[f64],
    nrhs: usize,
) -> Result<SimSolve, SimtError> {
    solve_multi_layout(dev, l, bs, nrhs, crate::buffers::RhsLayout::RowMajor)
}

/// Like [`solve_multi`] with an explicit device tiling for the RHS block
/// (see `syncfree_multi::solve_multi_layout` — same host-side contract and
/// bit-identity guarantee).
pub fn solve_multi_layout(
    dev: &mut GpuDevice,
    l: &LowerTriangularCsr,
    bs: &[f64],
    nrhs: usize,
    layout: crate::buffers::RhsLayout,
) -> Result<SimSolve, SimtError> {
    run_multi_on_fresh_device(dev, l, bs, nrhs, layout, launch_multi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::problem;
    use crate::reference::solve_serial_csr;
    use capellini_simt::DeviceConfig;

    #[allow(clippy::needless_range_loop)]
    fn check_multi(l: &LowerTriangularCsr, nrhs: usize) {
        let n = l.n();
        // Build m distinct right-hand sides.
        let mut bs = vec![0.0; n * nrhs];
        let mut refs: Vec<Vec<f64>> = Vec::new();
        for r in 0..nrhs {
            let b: Vec<f64> = (0..n)
                .map(|i| ((i * (r + 3) + 7 * r) % 19) as f64 - 9.0)
                .collect();
            for i in 0..n {
                bs[i * nrhs + r] = b[i];
            }
            refs.push(solve_serial_csr(l, &b));
        }
        let mut dev = GpuDevice::new(DeviceConfig::pascal_like());
        let out = solve_multi(&mut dev, l, &bs, nrhs).unwrap();
        for r in 0..nrhs {
            for i in 0..n {
                let got = out.x[i * nrhs + r];
                let want = refs[r][i];
                assert!(
                    (got - want).abs() < 1e-10 * want.abs().max(1.0),
                    "rhs {r}, row {i}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn solves_multiple_rhs_across_shapes() {
        for l in [
            capellini_sparse::paper_example(),
            capellini_sparse::gen::powerlaw(800, 3.0, 85),
            capellini_sparse::gen::chain(200, 1, 86),
        ] {
            for nrhs in [1, 2, 4, 7] {
                check_multi(&l, nrhs);
            }
        }
    }

    #[test]
    fn single_rhs_matches_the_plain_kernel() {
        let l = capellini_sparse::gen::circuit_like(600, 4, 128, 87);
        let (_, b) = problem(&l);
        let mut d1 = GpuDevice::new(DeviceConfig::pascal_like());
        let multi = solve_multi(&mut d1, &l, &b, 1).unwrap();
        let mut d2 = GpuDevice::new(DeviceConfig::pascal_like());
        let single = crate::kernels::writing_first::solve(&mut d2, &l, &b).unwrap();
        capellini_sparse::linalg::assert_solutions_close(&multi.x, &single.x, 1e-12);
    }

    #[test]
    fn multi_rhs_amortizes_index_traffic() {
        // Solving 8 RHS together must execute far fewer warp instructions
        // than 8 separate solves (the index/flag machinery is shared).
        let l = capellini_sparse::gen::powerlaw(2_000, 3.0, 88);
        let n = l.n();
        let nrhs = 8;
        let bs = vec![1.0; n * nrhs];
        let mut dev = GpuDevice::new(DeviceConfig::pascal_like());
        let multi = solve_multi(&mut dev, &l, &bs, nrhs).unwrap();
        let b1 = vec![1.0; n];
        let mut dev = GpuDevice::new(DeviceConfig::pascal_like());
        let single = crate::kernels::writing_first::solve(&mut dev, &l, &b1).unwrap();
        assert!(
            multi.stats.warp_instructions < 4 * single.stats.warp_instructions,
            "multi {} vs 8x single {}",
            multi.stats.warp_instructions,
            8 * single.stats.warp_instructions
        );
        // And less than 8x the cycles.
        assert!(multi.stats.cycles < 6 * single.stats.cycles);
    }
}
