//! The §3.3 Challenge-1 straw man: a thread-level solver that simply
//! busy-waits on every dependency, exactly like the warp-level algorithm
//! does — "previous deadlock solution designs of warp-level
//! synchronization-free SpTRSV do not work at thread level".
//!
//! Under lock-step execution with serialized divergence, a lane spinning on
//! a component owned by *another lane of the same warp* starves the producer
//! forever: the spin side of the compiled `while (!get_value[col]);` is the
//! fall-through, so it runs first and never yields. The simulator's deadlock
//! detector converts that into [`SimtError::Deadlock`].
//!
//! This kernel exists to demonstrate the failure mode (and to test the
//! detector); it *does* complete on matrices with no intra-warp
//! dependencies.

use capellini_simt::{Effect, GpuDevice, LaneMem, LaunchStats, Pc, SimtError, WarpKernel, PC_EXIT};
use capellini_sparse::LowerTriangularCsr;

use crate::buffers::{DeviceCsr, SolveBuffers};
use crate::kernels::writing_first::warps_for;
use crate::kernels::{run_on_fresh_device, SimSolve};

const P_LD_BEGIN: Pc = 0;
const P_LD_END: Pc = 1;
const P_LOOP: Pc = 2;
const P_LD_COL: Pc = 3;
const P_POLL: Pc = 4;
const P_BR_READY: Pc = 5;
const P_LD_VAL: Pc = 6;
const P_LD_X: Pc = 7;
const P_FMA: Pc = 8;
const P_LD_B: Pc = 9;
const P_LD_DIAG: Pc = 10;
const P_DIV: Pc = 11;
const P_ST_X: Pc = 12;
const P_FENCE: Pc = 13;
const P_ST_FLAG: Pc = 14;

/// The naive thread-level kernel.
pub struct NaiveThreadKernel {
    m: DeviceCsr,
    sb: SolveBuffers,
}

/// Per-lane registers.
#[derive(Default)]
pub struct NaiveLane {
    j: u32,
    row_end: u32,
    col: u32,
    left_sum: f64,
    v: f64,
    bv: f64,
    ready: bool,
}

impl NaiveThreadKernel {
    /// Creates the kernel over uploaded buffers.
    pub fn new(m: DeviceCsr, sb: SolveBuffers) -> Self {
        NaiveThreadKernel { m, sb }
    }
}

impl WarpKernel for NaiveThreadKernel {
    type Lane = NaiveLane;

    fn name(&self) -> &'static str {
        "naive-thread-busywait"
    }

    fn make_lane(&self, _tid: u32) -> NaiveLane {
        NaiveLane::default()
    }

    fn exec(&self, pc: Pc, l: &mut NaiveLane, tid: u32, mem: &mut LaneMem<'_>) -> Effect {
        let i = tid as usize;
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
                Effect::to(P_LOOP)
            }
            P_LOOP => {
                // All elements before the diagonal.
                if l.j + 1 < l.row_end {
                    Effect::to(P_LD_COL)
                } else {
                    Effect::to(P_LD_B)
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
                    Effect::to(P_POLL) // the fatal intra-warp busy-wait
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
                l.left_sum += l.v * l.bv;
                l.j += 1;
                Effect::flops(P_LOOP, 2)
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
                l.bv = (l.bv - l.left_sum) / l.v;
                Effect::flops(P_ST_X, 2)
            }
            P_ST_X => {
                mem.store_f64(self.sb.x, i, l.bv);
                Effect::to(P_FENCE)
            }
            P_FENCE => Effect::fence(P_ST_FLAG),
            P_ST_FLAG => {
                mem.store_flag(self.sb.flags, i, true);
                Effect::exit()
            }
            _ => unreachable!("naive kernel has no pc {pc}"),
        }
    }

    fn reconv(&self, pc: Pc) -> Pc {
        match pc {
            P_LD_BEGIN => PC_EXIT,
            P_LOOP => P_LD_B,
            P_BR_READY => P_LD_VAL,
            _ => unreachable!("pc {pc} cannot diverge"),
        }
    }

    fn branch_order(&self, pc: Pc, target: Pc) -> u8 {
        match pc {
            // The deadly choice: spin first, exactly as compiled.
            P_BR_READY => {
                if target == P_POLL {
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
            P_LOOP => "for j<diag",
            P_LD_COL => "ld colIdx[j]",
            P_POLL => "poll get_value[col]",
            P_BR_READY => "busywait",
            P_LD_VAL => "ld val[j]",
            P_LD_X => "ld x[col]",
            P_FMA => "fma",
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

/// Runs the naive thread-level solver; deadlocks on intra-warp dependencies.
pub fn launch(
    dev: &mut GpuDevice,
    m: DeviceCsr,
    sb: SolveBuffers,
) -> Result<LaunchStats, SimtError> {
    let n_warps = warps_for(m.n, dev.config().warp_size);
    dev.launch(&NaiveThreadKernel::new(m, sb), n_warps)
}

/// Convenience: upload, attempt to solve, read back.
pub fn solve(
    dev: &mut GpuDevice,
    l: &LowerTriangularCsr,
    b: &[f64],
) -> Result<SimSolve, SimtError> {
    run_on_fresh_device(dev, l, b, launch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::{check_against_reference, problem};
    use capellini_simt::{DeviceConfig, GpuDevice, SimtError};

    fn fast_deadlock_config() -> DeviceConfig {
        let mut cfg = DeviceConfig::pascal_like();
        cfg.deadlock_window = 300_000;
        cfg
    }

    #[test]
    fn deadlocks_on_intra_warp_chain() {
        // A bidiagonal chain makes 31 of every 32 dependencies intra-warp.
        let l = capellini_sparse::gen::chain(64, 1, 1);
        let (_, b) = problem(&l);
        let mut dev = GpuDevice::new(fast_deadlock_config());
        let err = solve(&mut dev, &l, &b).unwrap_err();
        assert!(matches!(err, SimtError::Deadlock { .. }), "got {err:?}");
    }

    #[test]
    fn deadlocks_on_the_paper_example() {
        // Figure 2c's discussion: thread2 and thread3 are in the same warp,
        // and thread3's check of x1 starves thread2 from ever updating it.
        let l = capellini_sparse::paper_example();
        let (_, b) = problem(&l);
        let mut cfg = DeviceConfig::toy();
        cfg.deadlock_window = 50_000;
        let mut dev = GpuDevice::new(cfg);
        let err = solve(&mut dev, &l, &b).unwrap_err();
        assert!(matches!(err, SimtError::Deadlock { .. }), "got {err:?}");
    }

    #[test]
    fn completes_when_no_intra_warp_dependencies() {
        // Strictly cross-warp dependencies: every row depends only on rows
        // at least one full warp earlier, or on nothing.
        use capellini_sparse::{CooMatrix, CsrMatrix, LowerTriangularCsr};
        let n = 128;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            if i >= 64 {
                coo.push(i as u32, (i - 64) as u32, 0.5);
            }
            coo.push(i as u32, i as u32, 1.0);
        }
        let l = LowerTriangularCsr::try_new(CsrMatrix::from_coo(&coo)).unwrap();
        let (_, b) = problem(&l);
        let mut dev = GpuDevice::new(fast_deadlock_config());
        let out = solve(&mut dev, &l, &b).unwrap();
        check_against_reference(&l, &b, &out.x);
    }

    #[test]
    fn completes_on_diagonal_matrix() {
        let l = capellini_sparse::gen::diagonal(100);
        let (_, b) = problem(&l);
        let mut dev = GpuDevice::new(fast_deadlock_config());
        let out = solve(&mut dev, &l, &b).unwrap();
        check_against_reference(&l, &b, &out.x);
    }
}
