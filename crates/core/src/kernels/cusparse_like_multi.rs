//! Multi-RHS (SpTRSM) variant of the cuSPARSE-like kernel — the black-box
//! stand-in's `csrsm2` analogue: warp per row, info lookup, shuffle
//! reduction, heavier spin loop, `k` right-hand sides per launch.
//!
//! Same structure as `cusparse_like.rs` with `k` accumulators per lane and
//! a `warp_size × k` shared tile; one flag publishes a row's `k`
//! components. Per column, every floating-point operation matches the
//! single-RHS kernel in order and operands (see the bit-identity contract
//! in `syncfree_multi.rs`), so batched solutions are bit-identical to `k`
//! looped solves.

use capellini_simt::{
    BufU32, Effect, GpuDevice, LaneMem, LaunchStats, Pc, SimtError, WarpKernel, PC_EXIT,
};
use capellini_sparse::LowerTriangularCsr;

use crate::buffers::{DeviceCsr, MultiSolveBuffers, RhsLayout};
use crate::kernels::{run_multi_on_fresh_device, SimSolve};

const P_LD_INFO: Pc = 0;
const P_LD_BEGIN: Pc = 1;
const P_LD_END: Pc = 2;
const P_STRIDE_CHECK: Pc = 3;
const P_LD_COL: Pc = 4;
const P_POLL: Pc = 5;
const P_BR_READY: Pc = 6;
const P_BACKOFF: Pc = 7;
const P_LD_VAL: Pc = 8;
const P_RHS_FMA: Pc = 9;
const P_RED_INIT: Pc = 10;
const P_RED_STEP: Pc = 11;
const P_BR_LANE0: Pc = 12;
const P_LD_DIAG: Pc = 13;
const P_RHS_SOLVE_LD: Pc = 14;
const P_RHS_SOLVE_ST: Pc = 15;
const P_FENCE: Pc = 16;
const P_ST_FLAG: Pc = 17;

/// The cuSPARSE-like batched kernel: warp per row, `k` RHS per launch.
pub struct CusparseLikeMultiKernel {
    m: DeviceCsr,
    mb: MultiSolveBuffers,
    /// Analysis metadata (per-row nonzero counts), loaded per row like the
    /// opaque `csrsv2Info_t` structure.
    info: BufU32,
    warp_size: u32,
}

/// Per-lane registers: `k` accumulators.
pub struct CumLane {
    j: u32,
    row_begin: u32,
    row_end: u32,
    col: u32,
    r: u32,
    add_len: u32,
    v: f64,
    bv: f64,
    dv: f64,
    ready: bool,
    sums: Vec<f64>,
}

impl CusparseLikeMultiKernel {
    /// Creates the kernel over uploaded buffers (including the analysis
    /// info array) for a given warp width.
    pub fn new(m: DeviceCsr, mb: MultiSolveBuffers, info: BufU32, warp_size: usize) -> Self {
        CusparseLikeMultiKernel {
            m,
            mb,
            info,
            warp_size: warp_size as u32,
        }
    }
}

impl WarpKernel for CusparseLikeMultiKernel {
    type Lane = CumLane;

    fn name(&self) -> &'static str {
        "cusparse-like-multirhs"
    }

    fn shared_per_warp(&self) -> usize {
        self.warp_size as usize * self.mb.nrhs
    }

    fn make_lane(&self, _tid: u32) -> CumLane {
        CumLane {
            j: 0,
            row_begin: 0,
            row_end: 0,
            col: 0,
            r: 0,
            add_len: 0,
            v: 0.0,
            bv: 0.0,
            dv: 0.0,
            ready: false,
            sums: vec![0.0; self.mb.nrhs],
        }
    }

    #[inline(always)]
    fn exec(&self, pc: Pc, l: &mut CumLane, tid: u32, mem: &mut LaneMem<'_>) -> Effect {
        let i = (tid / self.warp_size) as usize;
        let lane = tid % self.warp_size;
        let k = self.mb.nrhs;
        match pc {
            P_LD_INFO => {
                if i >= self.m.n {
                    return Effect::exit();
                }
                let _nnz_row = mem.load_u32(self.info, i);
                Effect::to(P_LD_BEGIN)
            }
            P_LD_BEGIN => {
                l.row_begin = mem.load_u32(self.m.row_ptr, i);
                Effect::to(P_LD_END)
            }
            P_LD_END => {
                l.row_end = mem.load_u32(self.m.row_ptr, i + 1);
                l.j = l.row_begin + lane;
                l.sums.iter_mut().for_each(|s| *s = 0.0);
                Effect::to(P_STRIDE_CHECK)
            }
            P_STRIDE_CHECK => {
                if l.j + 1 < l.row_end {
                    Effect::to(P_LD_COL)
                } else {
                    Effect::to(P_RED_INIT)
                }
            }
            P_LD_COL => {
                l.col = mem.load_u32(self.m.col_idx, l.j as usize);
                Effect::to(P_POLL)
            }
            P_POLL => {
                l.ready = mem.poll_flag(self.mb.flags, l.col as usize);
                Effect::to(P_BR_READY)
            }
            P_BR_READY => {
                if l.ready {
                    Effect::to(P_LD_VAL)
                } else {
                    Effect::to(P_BACKOFF)
                }
            }
            P_BACKOFF => {
                // Heavier spin: one extra instruction per failed poll.
                Effect::to(P_POLL)
            }
            P_LD_VAL => {
                l.v = mem.load_f64(self.m.values, l.j as usize);
                l.r = 0;
                Effect::to(P_RHS_FMA)
            }
            P_RHS_FMA => {
                let idx = self
                    .mb
                    .layout
                    .index(l.col as usize, l.r as usize, self.m.n, k);
                let xv = mem.load_f64(self.mb.x, idx);
                l.sums[l.r as usize] += l.v * xv;
                l.r += 1;
                if (l.r as usize) < k {
                    Effect::flops(P_RHS_FMA, 2)
                } else {
                    l.j += self.warp_size;
                    Effect::flops(P_STRIDE_CHECK, 2)
                }
            }
            P_RED_INIT => {
                for r in 0..k {
                    mem.shared_store(lane as usize * k + r, l.sums[r]);
                }
                l.add_len = self.warp_size.next_power_of_two() / 2;
                Effect::to(P_RED_STEP)
            }
            P_RED_STEP => {
                // Shuffle-style step folding all k columns per round.
                if l.add_len == 0 {
                    return Effect::to(P_BR_LANE0);
                }
                if lane < l.add_len && lane + l.add_len < self.warp_size {
                    for r in 0..k {
                        let partner = mem.shared_load((lane + l.add_len) as usize * k + r);
                        l.sums[r] += partner;
                        mem.shared_store(lane as usize * k + r, l.sums[r]);
                    }
                }
                l.add_len /= 2;
                Effect::flops(P_RED_STEP, k as u16)
            }
            P_BR_LANE0 => {
                if lane == 0 {
                    Effect::to(P_LD_DIAG)
                } else {
                    Effect::exit()
                }
            }
            P_LD_DIAG => {
                l.dv = mem.load_f64(self.m.values, l.row_end as usize - 1);
                l.r = 0;
                Effect::to(P_RHS_SOLVE_LD)
            }
            P_RHS_SOLVE_LD => {
                let idx = self.mb.layout.index(i, l.r as usize, self.m.n, k);
                l.bv = mem.load_f64(self.mb.b, idx);
                Effect::to(P_RHS_SOLVE_ST)
            }
            P_RHS_SOLVE_ST => {
                let xi = (l.bv - l.sums[l.r as usize]) / l.dv;
                let idx = self.mb.layout.index(i, l.r as usize, self.m.n, k);
                mem.store_f64(self.mb.x, idx, xi);
                l.r += 1;
                if (l.r as usize) < k {
                    Effect::flops(P_RHS_SOLVE_LD, 2)
                } else {
                    Effect::flops(P_FENCE, 2)
                }
            }
            P_FENCE => Effect::fence(P_ST_FLAG),
            P_ST_FLAG => {
                mem.store_flag(self.mb.flags, i, true);
                Effect::exit()
            }
            _ => unreachable!("cusparse-like-multi has no pc {pc}"),
        }
    }

    fn reconv(&self, pc: Pc) -> Pc {
        match pc {
            P_LD_INFO => PC_EXIT,
            P_STRIDE_CHECK => P_RED_INIT,
            P_BR_READY => P_LD_VAL,
            P_RHS_FMA => P_STRIDE_CHECK,
            P_RED_STEP => P_BR_LANE0,
            P_BR_LANE0 => PC_EXIT,
            P_RHS_SOLVE_ST => P_FENCE,
            _ => unreachable!("pc {pc} cannot diverge"),
        }
    }

    fn branch_order(&self, pc: Pc, target: Pc) -> u8 {
        match pc {
            P_BR_READY => {
                if target == P_BACKOFF {
                    0
                } else {
                    1
                }
            }
            P_BR_LANE0 => {
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
            P_LD_INFO => "ld info[i]",
            P_LD_BEGIN => "ld rowPtr[i]",
            P_LD_END => "ld rowPtr[i+1]",
            P_STRIDE_CHECK => "stride loop?",
            P_LD_COL => "ld colIdx[j]",
            P_POLL => "poll get_value[col]",
            P_BR_READY => "busywait",
            P_BACKOFF => "backoff",
            P_LD_VAL => "ld val[j]",
            P_RHS_FMA => "rhs fma loop",
            P_RED_INIT => "shuffle init xk",
            P_RED_STEP => "shuffle step xk",
            P_BR_LANE0 => "lane0?",
            P_LD_DIAG => "ld diag",
            P_RHS_SOLVE_LD | P_RHS_SOLVE_ST => "rhs solve loop",
            P_FENCE => "threadfence",
            P_ST_FLAG => "st get_value[i]",
            _ => "?",
        }
    }

    /// Busy-wait purity (spin fast-forwarding): the poll/branch/backoff cycle touches no register but `ready`.
    fn spin_pure(&self, pc: Pc) -> bool {
        pc == P_POLL
    }
}

/// Builds the "analysis" info array (per-row nonzero counts) from the
/// already-uploaded `row_ptr` — the piece a session caches across solves.
pub fn build_info(dev: &mut GpuDevice, m: DeviceCsr) -> BufU32 {
    let row_ptr = dev.mem_ref().read_u32(m.row_ptr).to_vec();
    let info: Vec<u32> = row_ptr.windows(2).map(|w| w[1] - w[0]).collect();
    dev.mem().alloc_u32(&info)
}

/// Launches the batched kernel on pre-uploaded device state (matrix,
/// buffers, and analysis info).
pub fn launch_multi_with_info(
    dev: &mut GpuDevice,
    m: DeviceCsr,
    mb: MultiSolveBuffers,
    info: BufU32,
) -> Result<LaunchStats, SimtError> {
    let ws = dev.config().warp_size;
    dev.launch(&CusparseLikeMultiKernel::new(m, mb, info, ws), m.n)
}

/// Convenience: upload, build info, solve `L X = B` for `nrhs` row-major
/// right-hand sides, read back `X` in the same layout.
pub fn solve_multi(
    dev: &mut GpuDevice,
    l: &LowerTriangularCsr,
    bs: &[f64],
    nrhs: usize,
) -> Result<SimSolve, SimtError> {
    run_multi_on_fresh_device(dev, l, bs, nrhs, RhsLayout::RowMajor, |dev, dm, mb| {
        let info = build_info(dev, dm);
        launch_multi_with_info(dev, dm, mb, info)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::{test_devices, test_matrices};
    use crate::reference::solve_serial_csr;
    use capellini_simt::{DeviceConfig, GpuDevice};

    #[test]
    fn solves_multiple_rhs_on_all_devices() {
        for cfg in test_devices() {
            for (name, l) in test_matrices() {
                let n = l.n();
                let nrhs = 2;
                let mut bs = vec![0.0; n * nrhs];
                for r in 0..nrhs {
                    for i in 0..n {
                        bs[i * nrhs + r] = ((i * (r + 5) + 3 * r) % 17) as f64 - 8.0;
                    }
                }
                let mut dev = GpuDevice::new(cfg.clone());
                let out = solve_multi(&mut dev, &l, &bs, nrhs)
                    .unwrap_or_else(|e| panic!("{name} on {}: {e}", cfg.name));
                for r in 0..nrhs {
                    let b: Vec<f64> = (0..n).map(|i| bs[i * nrhs + r]).collect();
                    let want = solve_serial_csr(&l, &b);
                    for (i, want_i) in want.iter().enumerate() {
                        let got = out.x[i * nrhs + r];
                        assert!(
                            (got - want_i).abs() < 1e-10 * want_i.abs().max(1.0),
                            "{name} on {}: rhs {r}, row {i}: {got} vs {want_i}",
                            cfg.name,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batched_is_bit_identical_to_single() {
        let l = capellini_sparse::gen::circuit_like(500, 4, 96, 93);
        let n = l.n();
        let nrhs = 3;
        let mut bs = vec![0.0; n * nrhs];
        let mut cols = Vec::new();
        for r in 0..nrhs {
            let b: Vec<f64> = (0..n)
                .map(|i| ((i * 7 + r * 11) % 23) as f64 - 11.0)
                .collect();
            for i in 0..n {
                bs[i * nrhs + r] = b[i];
            }
            cols.push(b);
        }
        let mut dev = GpuDevice::new(DeviceConfig::pascal_like());
        let multi = solve_multi(&mut dev, &l, &bs, nrhs).unwrap();
        for (r, b) in cols.iter().enumerate() {
            let mut dev = GpuDevice::new(DeviceConfig::pascal_like());
            let single = crate::kernels::cusparse_like::solve(&mut dev, &l, b).unwrap();
            for i in 0..n {
                assert_eq!(
                    multi.x[i * nrhs + r].to_bits(),
                    single.x[i].to_bits(),
                    "rhs {r}, row {i}"
                );
            }
        }
    }
}
