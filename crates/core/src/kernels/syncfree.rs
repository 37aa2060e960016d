//! Algorithm 3: the **warp-level synchronization-free SpTRSV** of Liu et
//! al. \[20\] — the state-of-the-art baseline the paper compares against.
//!
//! One warp per component: lanes stride over the row's nonzeros
//! (`j = rowPtr[i] + lane, step WARP_SIZE`), busy-wait on each dependency's
//! `get_value` flag (always cross-warp, so the spin is live), then combine
//! partial sums with a shared-memory tree reduction, and lane 0 finalizes.
//!
//! The paper's §3.1 performance analysis falls out of this structure in the
//! simulator: with few nonzeros per row most lanes exit the strided loop
//! immediately (idle lanes), and with many components per level the
//! one-warp-per-component mapping exhausts SM residency.
//!
//! Liu's implementation consumes CSC; the CSR→CSC conversion is charged as
//! its preprocessing (see `HostCostModel::syncfree_preprocessing_ms`), while
//! the execution kernel follows the paper's Algorithm 3 pseudocode.

use capellini_simt::{
    Effect, GpuDevice, LaneMem, LaunchStats, Pc, SimtError, Trace, WarpKernel, PC_EXIT,
};
use capellini_sparse::LowerTriangularCsr;

use crate::buffers::{DeviceCsr, SolveBuffers};
use crate::kernels::{run_on_fresh_device, SimSolve};

const P_LD_BEGIN: Pc = 0;
const P_LD_END: Pc = 1;
const P_STRIDE_CHECK: Pc = 2;
const P_LD_COL: Pc = 3;
const P_POLL: Pc = 4;
const P_BR_READY: Pc = 5;
const P_LD_VAL: Pc = 6;
const P_LD_X: Pc = 7;
const P_FMA: Pc = 8;
const P_SH_STORE: Pc = 9;
const P_RED_CHECK: Pc = 10;
const P_RED_LOAD: Pc = 11;
const P_RED_STORE: Pc = 12;
const P_BR_LANE0: Pc = 13;
const P_LD_B: Pc = 14;
const P_LD_DIAG: Pc = 15;
const P_DIV: Pc = 16;
const P_ST_X: Pc = 17;
const P_FENCE: Pc = 18;
const P_ST_FLAG: Pc = 19;

/// The warp-level SyncFree kernel (Algorithm 3). Row `i` = warp id.
pub struct SyncFreeKernel {
    m: DeviceCsr,
    sb: SolveBuffers,
    warp_size: u32,
}

/// Per-lane registers.
#[derive(Default)]
pub struct SfLane {
    j: u32,
    row_begin: u32,
    row_end: u32,
    col: u32,
    add_len: u32,
    sum: f64,
    v: f64,
    bv: f64,
    ready: bool,
}

impl SyncFreeKernel {
    /// Creates the kernel over uploaded buffers for a given warp width.
    pub fn new(m: DeviceCsr, sb: SolveBuffers, warp_size: usize) -> Self {
        SyncFreeKernel {
            m,
            sb,
            warp_size: warp_size as u32,
        }
    }

    fn lane_of(&self, tid: u32) -> u32 {
        tid % self.warp_size
    }

    fn row_of(&self, tid: u32) -> u32 {
        tid / self.warp_size
    }
}

impl WarpKernel for SyncFreeKernel {
    type Lane = SfLane;

    fn name(&self) -> &'static str {
        "syncfree-warp"
    }

    fn shared_per_warp(&self) -> usize {
        self.warp_size as usize
    }

    fn make_lane(&self, _tid: u32) -> SfLane {
        SfLane::default()
    }

    #[inline(always)]
    fn exec(&self, pc: Pc, l: &mut SfLane, tid: u32, mem: &mut LaneMem<'_>) -> Effect {
        let i = self.row_of(tid) as usize; // the component this warp solves
        let lane = self.lane_of(tid);
        match pc {
            P_LD_BEGIN => {
                if i >= self.m.n {
                    return Effect::exit();
                }
                l.row_begin = mem.load_u32(self.m.row_ptr, i);
                Effect::to(P_LD_END)
            }
            P_LD_END => {
                l.row_end = mem.load_u32(self.m.row_ptr, i + 1);
                l.j = l.row_begin + lane;
                l.sum = 0.0;
                Effect::to(P_STRIDE_CHECK)
            }
            P_STRIDE_CHECK => {
                // Elements except the diagonal (last of the row).
                if l.j + 1 < l.row_end {
                    Effect::to(P_LD_COL)
                } else {
                    Effect::to(P_SH_STORE)
                }
            }
            P_LD_COL => {
                l.col = mem.load_u32(self.m.col_idx, l.j as usize);
                Effect::to(P_POLL)
            }
            P_POLL => {
                l.ready = mem.poll_flag(self.sb.flags, l.col as usize);
                Effect::to(P_BR_READY)
            }
            P_BR_READY => {
                if l.ready {
                    Effect::to(P_LD_VAL)
                } else {
                    Effect::to(P_POLL) // busy-wait (lines 10-11); cross-warp
                }
            }
            P_LD_VAL => {
                l.v = mem.load_f64(self.m.values, l.j as usize);
                Effect::to(P_LD_X)
            }
            P_LD_X => {
                l.bv = mem.load_f64(self.sb.x, l.col as usize);
                Effect::to(P_FMA)
            }
            P_FMA => {
                l.sum += l.v * l.bv;
                l.j += self.warp_size;
                Effect::flops(P_STRIDE_CHECK, 2)
            }
            P_SH_STORE => {
                mem.shared_store(lane as usize, l.sum);
                // Tree reduction over the next power of two handles
                // non-power-of-two warp widths (e.g. the 3-lane toy device).
                l.add_len = self.warp_size.next_power_of_two() / 2;
                Effect::to(P_RED_CHECK)
            }
            P_RED_CHECK => {
                if l.add_len > 0 {
                    Effect::to(P_RED_LOAD)
                } else {
                    Effect::to(P_BR_LANE0)
                }
            }
            P_RED_LOAD => {
                // Predicated: only the low half participates; the rest idle
                // in lock-step (no divergence — same next pc).
                if lane < l.add_len && lane + l.add_len < self.warp_size {
                    l.v = mem.shared_load((lane + l.add_len) as usize);
                    l.sum += l.v;
                    Effect::flops(P_RED_STORE, 1)
                } else {
                    Effect::to(P_RED_STORE)
                }
            }
            P_RED_STORE => {
                if lane < l.add_len {
                    mem.shared_store(lane as usize, l.sum);
                }
                l.add_len /= 2;
                Effect::to(P_RED_CHECK)
            }
            P_BR_LANE0 => {
                if lane == 0 {
                    Effect::to(P_LD_B)
                } else {
                    Effect::exit()
                }
            }
            P_LD_B => {
                l.bv = mem.load_f64(self.sb.b, i);
                Effect::to(P_LD_DIAG)
            }
            P_LD_DIAG => {
                l.v = mem.load_f64(self.m.values, l.row_end as usize - 1);
                Effect::to(P_DIV)
            }
            P_DIV => {
                l.sum = (l.bv - l.sum) / l.v;
                Effect::flops(P_ST_X, 2)
            }
            P_ST_X => {
                mem.store_f64(self.sb.x, i, l.sum);
                Effect::to(P_FENCE)
            }
            P_FENCE => Effect::fence(P_ST_FLAG),
            P_ST_FLAG => {
                mem.store_flag(self.sb.flags, i, true);
                Effect::exit()
            }
            _ => unreachable!("syncfree has no pc {pc}"),
        }
    }

    fn reconv(&self, pc: Pc) -> Pc {
        match pc {
            P_LD_BEGIN => PC_EXIT,
            // Lanes exit the strided element loop at different iterations
            // and wait at the reduction entry.
            P_STRIDE_CHECK => P_SH_STORE,
            // The busy-wait loop: exit side is the consume path.
            P_BR_READY => P_LD_VAL,
            // add_len is uniform, but keep the point defined.
            P_RED_CHECK => P_BR_LANE0,
            P_BR_LANE0 => PC_EXIT,
            _ => unreachable!("pc {pc} cannot diverge"),
        }
    }

    fn branch_order(&self, pc: Pc, target: Pc) -> u8 {
        match pc {
            // Spin side first: the compiled `while (!flag);` fall-through.
            // Live here because dependencies are always other warps' rows.
            P_BR_READY => {
                if target == P_POLL {
                    0
                } else {
                    1
                }
            }
            P_BR_LANE0 => {
                if target == P_LD_B {
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
            P_LD_BEGIN => "ld rowPtr[i]",
            P_LD_END => "ld rowPtr[i+1]",
            P_STRIDE_CHECK => "stride loop?",
            P_LD_COL => "ld colIdx[j]",
            P_POLL => "poll get_value[col]",
            P_BR_READY => "busywait",
            P_LD_VAL => "ld val[j]",
            P_LD_X => "ld x[col]",
            P_FMA => "sum += v*x",
            P_SH_STORE => "left_sum[lane]=sum",
            P_RED_CHECK => "reduce: len>0?",
            P_RED_LOAD => "reduce: load+add",
            P_RED_STORE => "reduce: store",
            P_BR_LANE0 => "lane0?",
            P_LD_B => "ld b[i]",
            P_LD_DIAG => "ld diag",
            P_DIV => "div",
            P_ST_X => "st x[i]",
            P_FENCE => "threadfence",
            P_ST_FLAG => "st get_value[i]",
            _ => "?",
        }
    }

    /// Busy-wait purity (spin fast-forwarding): the poll/ld-col/branch cycle re-reads the same words each trip.
    fn spin_pure(&self, pc: Pc) -> bool {
        pc == P_POLL
    }
}

/// Runs warp-level SyncFree on the device: one warp per row.
pub fn launch(
    dev: &mut GpuDevice,
    m: DeviceCsr,
    sb: SolveBuffers,
) -> Result<LaunchStats, SimtError> {
    let ws = dev.config().warp_size;
    dev.launch(&SyncFreeKernel::new(m, sb, ws), m.n)
}

/// Convenience: upload, solve, read back.
pub fn solve(
    dev: &mut GpuDevice,
    l: &LowerTriangularCsr,
    b: &[f64],
) -> Result<SimSolve, SimtError> {
    run_on_fresh_device(dev, l, b, launch)
}

/// Traced variant for the Figure 2 schedule study.
pub fn solve_traced(
    dev: &mut GpuDevice,
    l: &LowerTriangularCsr,
    b: &[f64],
    trace: &mut Trace,
) -> Result<SimSolve, SimtError> {
    run_on_fresh_device(dev, l, b, |dev, m, sb| {
        let ws = dev.config().warp_size;
        dev.launch_traced(&SyncFreeKernel::new(m, sb, ws), m.n, trace)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::{check_against_reference, problem, test_devices, test_matrices};
    use capellini_simt::{DeviceConfig, GpuDevice};

    #[test]
    fn solves_all_test_matrices_on_all_devices() {
        for cfg in test_devices() {
            for (name, l) in test_matrices() {
                let (_, b) = problem(&l);
                let mut dev = GpuDevice::new(cfg.clone());
                let out = solve(&mut dev, &l, &b)
                    .unwrap_or_else(|e| panic!("{name} on {}: {e}", cfg.name));
                check_against_reference(&l, &b, &out.x);
            }
        }
    }

    #[test]
    fn one_warp_per_component() {
        let l = capellini_sparse::gen::random_k(100, 3, 100, 2);
        let (_, b) = problem(&l);
        let mut dev = GpuDevice::new(DeviceConfig::pascal_like());
        let out = solve(&mut dev, &l, &b).unwrap();
        assert_eq!(out.stats.warps_launched, 100);
        // The tree reduction runs log2(32) = 5 rounds per warp: shared ops
        // are a significant fraction of the work.
        assert!(out.stats.shared_ops > 0);
    }

    #[test]
    fn dense_rows_use_the_warp_well() {
        // A dense band row has ~64 nonzeros: two strided iterations with all
        // lanes busy. This is SyncFree's favourable regime; it must at least
        // beat its own wide-level behaviour per nonzero.
        let l = capellini_sparse::gen::dense_band(256, 64, 6);
        let (_, b) = problem(&l);
        let mut dev = GpuDevice::new(DeviceConfig::pascal_like());
        let out = solve(&mut dev, &l, &b).unwrap();
        check_against_reference(&l, &b, &out.x);
    }
}
