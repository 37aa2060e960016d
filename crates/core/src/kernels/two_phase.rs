//! Algorithm 4: **Two-Phase CapelliniSpTRSV** — the basic thread-level
//! design, kept as the ablation baseline for §5.3's "optimization analysis"
//! (Writing-First is reported 28.9× faster).
//!
//! Phase 1 busy-waits on every dependency *outside* the warp
//! (`col < warp_begin`), which stalls the whole warp on the slowest
//! dependency; phase 2 runs a bounded `for k in 0..WARP_SIZE` sweep over the
//! in-warp dependencies, each iteration consuming all ready elements and
//! finalizing rows whose diagonal is reached — at least one per iteration,
//! hence no deadlock.

use capellini_simt::{Effect, GpuDevice, LaneMem, LaunchStats, Pc, SimtError, WarpKernel, PC_EXIT};
use capellini_sparse::LowerTriangularCsr;

use crate::buffers::{DeviceCsr, SolveBuffers};
use crate::kernels::writing_first::warps_for;
use crate::kernels::{run_on_fresh_device, SimSolve};

const P_LD_BEGIN: Pc = 0;
const P_LD_END: Pc = 1;
const P1_CHECK: Pc = 2;
const P1_LD_COL: Pc = 3;
const P1_BR_OUT: Pc = 4;
const P1_POLL: Pc = 5;
const P1_BR_READY: Pc = 6;
const P1_LD_VAL: Pc = 7;
const P1_LD_X: Pc = 8;
const P1_FMA: Pc = 9;
const P2_INIT: Pc = 10;
const P2_LOOP: Pc = 11;
const P2_LD_COL: Pc = 12;
const P2_POLL: Pc = 13;
const P2_BR_READY: Pc = 14;
const P2_LD_VAL: Pc = 15;
const P2_LD_X: Pc = 16;
const P2_FMA: Pc = 17;
const P2_BR_DIAG: Pc = 18;
const P_LD_B: Pc = 19;
const P_LD_DIAG: Pc = 20;
const P_DIV: Pc = 21;
const P_ST_X: Pc = 22;
const P_FENCE: Pc = 23;
const P_ST_FLAG: Pc = 24;
const P2_NEXT: Pc = 25;

/// The Two-Phase kernel (Algorithm 4).
pub struct TwoPhaseKernel {
    m: DeviceCsr,
    sb: SolveBuffers,
    warp_size: u32,
}

/// Per-lane registers.
#[derive(Default)]
pub struct TpLane {
    j: u32,
    row_end: u32,
    col: u32,
    k: u32,
    warp_begin: u32,
    left_sum: f64,
    v: f64,
    bv: f64,
    xi: f64,
    ready: bool,
    done: bool,
}

impl TwoPhaseKernel {
    /// Creates the kernel over uploaded buffers for a given warp width.
    pub fn new(m: DeviceCsr, sb: SolveBuffers, warp_size: usize) -> Self {
        TwoPhaseKernel {
            m,
            sb,
            warp_size: warp_size as u32,
        }
    }
}

impl WarpKernel for TwoPhaseKernel {
    type Lane = TpLane;

    fn name(&self) -> &'static str {
        "capellini-two-phase"
    }

    fn make_lane(&self, _tid: u32) -> TpLane {
        TpLane::default()
    }

    fn exec(&self, pc: Pc, l: &mut TpLane, tid: u32, mem: &mut LaneMem<'_>) -> Effect {
        let i = tid as usize;
        match pc {
            P_LD_BEGIN => {
                if i >= self.m.n {
                    return Effect::exit();
                }
                l.warp_begin = (tid / self.warp_size) * self.warp_size;
                l.j = mem.load_u32(self.m.row_ptr, i);
                Effect::to(P_LD_END)
            }
            P_LD_END => {
                l.row_end = mem.load_u32(self.m.row_ptr, i + 1);
                Effect::to(P1_CHECK)
            }
            // ---- Phase 1: dependencies outside the warp -----------------
            P1_CHECK => {
                if l.j < l.row_end {
                    Effect::to(P1_LD_COL)
                } else {
                    Effect::to(P2_INIT)
                }
            }
            P1_LD_COL => {
                l.col = mem.load_u32(self.m.col_idx, l.j as usize);
                Effect::to(P1_BR_OUT)
            }
            P1_BR_OUT => {
                if l.col < l.warp_begin {
                    Effect::to(P1_POLL)
                } else {
                    Effect::to(P2_INIT) // `break`: the rest is in-warp
                }
            }
            P1_POLL => {
                l.ready = mem.poll_flag(self.sb.flags, l.col as usize);
                Effect::to(P1_BR_READY)
            }
            P1_BR_READY => {
                if l.ready {
                    Effect::to(P1_LD_VAL)
                } else {
                    Effect::to(P1_POLL) // traditional busy-wait (line 9-10)
                }
            }
            P1_LD_VAL => {
                l.v = mem.load_f64(self.m.values, l.j as usize);
                Effect::to(P1_LD_X)
            }
            P1_LD_X => {
                l.xi = mem.load_f64(self.sb.x, l.col as usize);
                Effect::to(P1_FMA)
            }
            P1_FMA => {
                l.left_sum += l.v * l.xi;
                l.j += 1;
                Effect::flops(P1_CHECK, 2)
            }
            // ---- Phase 2: the bounded in-warp sweep ----------------------
            P2_INIT => {
                l.k = 0;
                Effect::to(P2_LOOP)
            }
            P2_LOOP => {
                if l.done || l.k >= self.warp_size {
                    Effect::exit()
                } else {
                    Effect::to(P2_LD_COL)
                }
            }
            P2_LD_COL => {
                l.col = mem.load_u32(self.m.col_idx, l.j as usize);
                Effect::to(P2_POLL)
            }
            P2_POLL => {
                l.ready = mem.poll_flag(self.sb.flags, l.col as usize);
                Effect::to(P2_BR_READY)
            }
            P2_BR_READY => {
                if l.ready {
                    Effect::to(P2_LD_VAL)
                } else {
                    Effect::to(P2_BR_DIAG)
                }
            }
            P2_LD_VAL => {
                l.v = mem.load_f64(self.m.values, l.j as usize);
                Effect::to(P2_LD_X)
            }
            P2_LD_X => {
                l.xi = mem.load_f64(self.sb.x, l.col as usize);
                Effect::to(P2_FMA)
            }
            P2_FMA => {
                l.left_sum += l.v * l.xi;
                l.j += 1;
                Effect::flops(P2_LD_COL, 2)
            }
            P2_BR_DIAG => {
                if l.col == tid {
                    Effect::to(P_LD_B)
                } else {
                    Effect::to(P2_NEXT)
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
                l.xi = (l.bv - l.left_sum) / l.v;
                Effect::flops(P_ST_X, 2)
            }
            P_ST_X => {
                mem.store_f64(self.sb.x, i, l.xi);
                Effect::to(P_FENCE)
            }
            P_FENCE => Effect::fence(P_ST_FLAG),
            P_ST_FLAG => {
                mem.store_flag(self.sb.flags, i, true);
                l.done = true;
                Effect::to(P2_NEXT) // the `break` resolves at the loop head
            }
            P2_NEXT => {
                l.k += 1;
                Effect::to(P2_LOOP)
            }
            _ => unreachable!("two-phase has no pc {pc}"),
        }
    }

    fn reconv(&self, pc: Pc) -> Pc {
        match pc {
            P_LD_BEGIN => PC_EXIT,
            // Phase-1 loop exits converge at the phase-2 entry.
            P1_CHECK | P1_BR_OUT => P2_INIT,
            // The phase-1 busy-wait loop: exit target is the consume path.
            P1_BR_READY => P1_LD_VAL,
            // The bounded for-loop: exits converge at kernel end.
            P2_LOOP => PC_EXIT,
            // In-warp consume loop exits at the diagonal check.
            P2_BR_READY => P2_BR_DIAG,
            // finalize-vs-continue converges at the loop latch.
            P2_BR_DIAG => P2_NEXT,
            _ => unreachable!("pc {pc} cannot diverge"),
        }
    }

    fn branch_order(&self, pc: Pc, target: Pc) -> u8 {
        match pc {
            // Busy-wait: the spinning side is the compiled fall-through.
            // Legal here because phase-1 dependencies are outside the warp.
            P1_BR_READY => {
                if target == P1_POLL {
                    0
                } else {
                    1
                }
            }
            // Consume side first in the phase-2 ready check.
            P2_BR_READY => {
                if target == P2_LD_VAL {
                    0
                } else {
                    1
                }
            }
            // Finalize first at the diagonal check (same reasoning as
            // Writing-First, though here the reconvergence at P2_NEXT makes
            // either order live — the `for` bound guarantees progress).
            P2_BR_DIAG => {
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
            P1_CHECK => "phase1: j<end?",
            P1_LD_COL => "phase1: ld col",
            P1_BR_OUT => "phase1: col<warp_begin?",
            P1_POLL => "phase1: poll",
            P1_BR_READY => "phase1: busywait",
            P1_LD_VAL => "phase1: ld val",
            P1_LD_X => "phase1: ld x",
            P1_FMA => "phase1: fma",
            P2_INIT => "phase2: k=0",
            P2_LOOP => "phase2: k<WS?",
            P2_LD_COL => "phase2: ld col",
            P2_POLL => "phase2: poll",
            P2_BR_READY => "phase2: ready?",
            P2_LD_VAL => "phase2: ld val",
            P2_LD_X => "phase2: ld x",
            P2_FMA => "phase2: fma",
            P2_BR_DIAG => "phase2: col==i?",
            P_LD_B => "ld b[i]",
            P_LD_DIAG => "ld diag",
            P_DIV => "div",
            P_ST_X => "st x[i]",
            P_FENCE => "threadfence",
            P_ST_FLAG => "st get_value[i]",
            P2_NEXT => "phase2: k+=1",
            _ => "?",
        }
    }

    /// Busy-wait purity (spin fast-forwarding): phase-1 polls purely; P2_POLL counts iterations (`l.k`) and must replay.
    fn spin_pure(&self, pc: Pc) -> bool {
        pc == P1_POLL
    }
}

/// Runs Two-Phase CapelliniSpTRSV on the device (buffers pre-uploaded).
pub fn launch(
    dev: &mut GpuDevice,
    m: DeviceCsr,
    sb: SolveBuffers,
) -> Result<LaunchStats, SimtError> {
    let ws = dev.config().warp_size;
    let n_warps = warps_for(m.n, ws);
    dev.launch(&TwoPhaseKernel::new(m, sb, ws), n_warps)
}

/// Convenience: upload, solve, read back.
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
    fn chain_exercises_the_bounded_phase2_sweep() {
        let l = capellini_sparse::gen::chain(200, 1, 4);
        let (_, b) = problem(&l);
        let mut dev = GpuDevice::new(DeviceConfig::pascal_like());
        let out = solve(&mut dev, &l, &b).unwrap();
        check_against_reference(&l, &b, &out.x);
    }

    #[test]
    fn slower_than_writing_first_on_wide_matrices() {
        // §5.3: the Writing-First optimization dominates Two-Phase.
        let l = capellini_sparse::gen::random_k(3000, 2, 3000, 5);
        let (_, b) = problem(&l);
        let mut d1 = GpuDevice::new(DeviceConfig::pascal_like());
        let tp = solve(&mut d1, &l, &b).unwrap();
        let mut d2 = GpuDevice::new(DeviceConfig::pascal_like());
        let wf = crate::kernels::writing_first::solve(&mut d2, &l, &b).unwrap();
        assert!(
            tp.stats.cycles > wf.stats.cycles,
            "two-phase {} cycles vs writing-first {}",
            tp.stats.cycles,
            wf.stats.cycles
        );
    }
}
