//! Algorithm 5: **Writing-First CapelliniSpTRSV** — the paper's headline
//! contribution. One thread per component, no preprocessing, CSR storage.
//!
//! Control flow (one instruction per `Pc`, transcribing Algorithm 5):
//!
//! ```text
//! P0  j = rowPtr[i]                 (tail lanes exit)
//! P1  row_end = rowPtr[i+1]
//! P2  outer while: j < row_end ?    (safety bound; the break exits earlier)
//! P3    col = colIdx[j]
//! P4    fl = get_value[col]         (the poll)
//! P5    inner while fl:             (divergent; consume side falls through)
//! P6      v = val[j]
//! P7      xv = x[col]
//! P8      left_sum += v·xv; j += 1
//! P9      col = colIdx[j]           → back to P4
//! P10   if col == i:                (divergent; FINALIZE falls through —
//!                                    the liveness-critical branch order)
//! P11     bv = b[i]
//! P12     dv = val[row_end-1]
//! P13     xi = (bv - left_sum)/dv
//! P14     x[i] = xi
//! P15     __threadfence()
//! P16     get_value[i] = true       → exit (the `break`)
//!       else → P2                   (re-poll; "writing first" means no
//!                                    thread ever blocks others' writes)
//! ```
//!
//! Why this cannot deadlock under serialized divergence (§4.1 "Design to
//! avoid deadlocks", reproduced mechanically by the simulator): the only
//! unbounded loop is the outer re-poll P10→P2, and a warp only keeps a lane
//! in it *after* letting finalize-side lanes of the same branch run first
//! (fall-through order). Every pass through P10 therefore publishes every
//! component whose row is complete, so the minimal unsolved row always
//! progresses.

use capellini_simt::{
    Effect, GpuDevice, LaneMem, LaunchStats, Pc, SimtError, Trace, WarpKernel, PC_EXIT,
};
use capellini_sparse::LowerTriangularCsr;

use crate::buffers::{DeviceCsr, SolveBuffers};
use crate::kernels::{run_on_fresh_device, SimSolve};

const P_LD_BEGIN: Pc = 0;
const P_LD_END: Pc = 1;
const P_OUTER: Pc = 2;
const P_LD_COL: Pc = 3;
const P_POLL: Pc = 4;
const P_BR_READY: Pc = 5;
const P_LD_VAL: Pc = 6;
const P_LD_X: Pc = 7;
const P_FMA: Pc = 8;
const P_LD_COL2: Pc = 9;
const P_BR_DIAG: Pc = 10;
const P_LD_B: Pc = 11;
const P_LD_DIAG: Pc = 12;
const P_DIV: Pc = 13;
const P_ST_X: Pc = 14;
const P_FENCE: Pc = 15;
const P_ST_FLAG: Pc = 16;
/// Ablation-only pc: the explicit per-element last-element check the paper's
/// Challenge 2 (3.3) eliminates by folding it into the readiness test.
const P_EXPLICIT_CHECK: Pc = 17;

/// Layout of the publish sequence (`x[i] = xi; __threadfence(); flag[i] = 1`).
///
/// [`FenceMode::Fenced`] is Algorithm 5. The other two deliberately break
/// the protocol; they exist to prove the relaxed memory model of
/// `capellini-simt` has teeth (under default sequential consistency both
/// broken layouts still "solve correctly" on most schedules — exactly the
/// latent-bug class `MemoryModel::Relaxed` makes observable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FenceMode {
    /// Store `x[i]`, `__threadfence()`, set the flag (Algorithm 5).
    #[default]
    Fenced,
    /// Fence stripped: store `x[i]`, then set the flag with no fence.
    NoFence,
    /// Set the flag *first*, fence, then store `x[i]` — the fence protects
    /// the wrong store, so consumers can see the flag before the value.
    FlagFirst,
}

/// The Writing-First kernel (Algorithm 5).
pub struct WritingFirstKernel {
    m: DeviceCsr,
    sb: SolveBuffers,
    /// When set, an explicit `if (is last element)` executes before every
    /// consumed element — the unoptimized control flow of Challenge 2,
    /// kept for the ablation study.
    explicit_last_check: bool,
    /// Publish-sequence layout (broken variants for the memory-model audit).
    fence_mode: FenceMode,
}

/// Per-lane registers.
#[derive(Default)]
pub struct WfLane {
    j: u32,
    row_end: u32,
    col: u32,
    left_sum: f64,
    v: f64,
    bv: f64,
    xi: f64,
}

impl WritingFirstKernel {
    /// Creates the kernel over uploaded buffers.
    pub fn new(m: DeviceCsr, sb: SolveBuffers) -> Self {
        WritingFirstKernel {
            m,
            sb,
            explicit_last_check: false,
            fence_mode: FenceMode::Fenced,
        }
    }

    /// The Challenge-2 ablation variant: checks for the last element before
    /// processing every nonzero instead of integrating the check into the
    /// readiness test.
    pub fn with_explicit_last_check(m: DeviceCsr, sb: SolveBuffers) -> Self {
        WritingFirstKernel {
            m,
            sb,
            explicit_last_check: true,
            fence_mode: FenceMode::Fenced,
        }
    }

    /// Audit variant with a deliberately broken (or intact) publish layout.
    pub fn with_fence_mode(m: DeviceCsr, sb: SolveBuffers, fence_mode: FenceMode) -> Self {
        WritingFirstKernel {
            m,
            sb,
            explicit_last_check: false,
            fence_mode,
        }
    }
}

impl WarpKernel for WritingFirstKernel {
    type Lane = WfLane;

    fn name(&self) -> &'static str {
        "capellini-writing-first"
    }

    fn make_lane(&self, _tid: u32) -> WfLane {
        WfLane::default()
    }

    #[inline(always)]
    fn exec(&self, pc: Pc, l: &mut WfLane, tid: u32, mem: &mut LaneMem<'_>) -> Effect {
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
                let fl = mem.poll_flag(self.sb.flags, l.col as usize);
                // Stash readiness in `v`'s sign? No — carry it via the next
                // branch directly: encode by choosing the branch target here
                // would skip the branch instruction; instead store in col's
                // high bit-free `v` register as 0/1.
                l.v = if fl { 1.0 } else { 0.0 };
                Effect::to(P_BR_READY)
            }
            P_BR_READY => {
                if l.v != 0.0 {
                    if self.explicit_last_check {
                        Effect::to(P_EXPLICIT_CHECK)
                    } else {
                        Effect::to(P_LD_VAL)
                    }
                } else {
                    Effect::to(P_BR_DIAG)
                }
            }
            P_EXPLICIT_CHECK => {
                // The redundant test Challenge 2 removes: compare the element
                // position against the row's last slot before consuming it.
                // (Always false here: the diagonal flag can never be ready.)
                debug_assert!(l.j + 1 < l.row_end || l.col == tid);
                Effect::to(P_LD_VAL)
            }
            P_LD_VAL => {
                l.v = mem.load_f64(self.m.values, l.j as usize);
                Effect::to(P_LD_X)
            }
            P_LD_X => {
                l.xi = mem.load_f64(self.sb.x, l.col as usize);
                Effect::to(P_FMA)
            }
            P_FMA => {
                l.left_sum += l.v * l.xi;
                l.j += 1;
                Effect::flops(P_LD_COL2, 2)
            }
            P_LD_COL2 => {
                l.col = mem.load_u32(self.m.col_idx, l.j as usize);
                Effect::to(P_POLL)
            }
            P_BR_DIAG => {
                if l.col == tid {
                    Effect::to(P_LD_B)
                } else {
                    Effect::to(P_OUTER)
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
            P_ST_X => match self.fence_mode {
                FenceMode::Fenced => {
                    mem.store_f64(self.sb.x, i, l.xi);
                    Effect::to(P_FENCE)
                }
                FenceMode::NoFence => {
                    mem.store_f64(self.sb.x, i, l.xi);
                    Effect::to(P_ST_FLAG)
                }
                FenceMode::FlagFirst => {
                    mem.store_flag(self.sb.flags, i, true);
                    Effect::to(P_FENCE)
                }
            },
            P_FENCE => Effect::fence(P_ST_FLAG),
            P_ST_FLAG => {
                match self.fence_mode {
                    FenceMode::FlagFirst => mem.store_f64(self.sb.x, i, l.xi),
                    _ => mem.store_flag(self.sb.flags, i, true),
                }
                Effect::exit()
            }
            _ => unreachable!("writing-first has no pc {pc}"),
        }
    }

    fn reconv(&self, pc: Pc) -> Pc {
        match pc {
            P_LD_BEGIN | P_OUTER | P_BR_DIAG => PC_EXIT,
            P_BR_READY => P_BR_DIAG,
            _ => unreachable!("pc {pc} cannot diverge"),
        }
    }

    fn branch_order(&self, pc: Pc, target: Pc) -> u8 {
        match pc {
            // Inner while: the consuming side is the fall-through.
            P_BR_READY => {
                if target == P_LD_VAL {
                    0
                } else {
                    1
                }
            }
            // `if (col == i) { finalize; break }`: finalize falls through,
            // the loop latch is the taken branch. Running finalize first is
            // what keeps the warp live.
            P_BR_DIAG => {
                if target == P_LD_B {
                    0
                } else {
                    1
                }
            }
            // Bounds/loop checks: continue first, exits last.
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
            P_OUTER => "while j<end",
            P_LD_COL => "ld colIdx[j]",
            P_POLL => "poll get_value[col]",
            P_BR_READY => "br ready?",
            P_LD_VAL => "ld val[j]",
            P_LD_X => "ld x[col]",
            P_FMA => "left_sum += v*x",
            P_LD_COL2 => "ld colIdx[j]",
            P_BR_DIAG => "br col==i?",
            P_LD_B => "ld b[i]",
            P_LD_DIAG => "ld diag",
            P_DIV => "xi=(b-sum)/diag",
            P_ST_X => "st x[i]",
            P_FENCE => "threadfence",
            P_ST_FLAG => "st get_value[i]",
            P_EXPLICIT_CHECK => "check last elem",
            _ => "?",
        }
    }

    /// Busy-wait purity (spin fast-forwarding): the poll/ld-col/branch cycle re-reads the same words each trip.
    fn spin_pure(&self, pc: Pc) -> bool {
        pc == P_POLL
    }
}

/// Number of warps needed for one thread per row. A warp size of 0 counts
/// as 1, so the launch's device shape check reports it instead of a
/// division by zero.
pub fn warps_for(n: usize, warp_size: usize) -> usize {
    n.div_ceil(warp_size.max(1))
}

/// Runs Writing-First CapelliniSpTRSV on the device (buffers pre-uploaded).
pub fn launch(
    dev: &mut GpuDevice,
    m: DeviceCsr,
    sb: SolveBuffers,
) -> Result<LaunchStats, SimtError> {
    let n_warps = warps_for(m.n, dev.config().warp_size);
    dev.launch(&WritingFirstKernel::new(m, sb), n_warps)
}

/// Convenience: upload, solve, read back.
pub fn solve(
    dev: &mut GpuDevice,
    l: &LowerTriangularCsr,
    b: &[f64],
) -> Result<SimSolve, SimtError> {
    run_on_fresh_device(dev, l, b, launch)
}

/// Ablation: the Challenge-2 unoptimized variant with an explicit
/// last-element check before every consumed element.
pub fn solve_with_explicit_last_check(
    dev: &mut GpuDevice,
    l: &LowerTriangularCsr,
    b: &[f64],
) -> Result<SimSolve, SimtError> {
    run_on_fresh_device(dev, l, b, |dev, m, sb| {
        let n_warps = warps_for(m.n, dev.config().warp_size);
        dev.launch(
            &WritingFirstKernel::with_explicit_last_check(m, sb),
            n_warps,
        )
    })
}

/// Audit entry point: Writing-First with a chosen publish-sequence layout
/// (see [`FenceMode`]). With `FenceMode::Fenced` this is exactly [`solve`].
pub fn solve_with_fence_mode(
    dev: &mut GpuDevice,
    l: &LowerTriangularCsr,
    b: &[f64],
    mode: FenceMode,
) -> Result<SimSolve, SimtError> {
    run_on_fresh_device(dev, l, b, |dev, m, sb| {
        let n_warps = warps_for(m.n, dev.config().warp_size);
        dev.launch(&WritingFirstKernel::with_fence_mode(m, sb, mode), n_warps)
    })
}

/// Traced variant for the Figure 2 schedule study.
pub fn solve_traced(
    dev: &mut GpuDevice,
    l: &LowerTriangularCsr,
    b: &[f64],
    trace: &mut Trace,
) -> Result<SimSolve, SimtError> {
    run_on_fresh_device(dev, l, b, |dev, m, sb| {
        let n_warps = warps_for(m.n, dev.config().warp_size);
        dev.launch_traced(&WritingFirstKernel::new(m, sb), n_warps, trace)
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
    fn no_preprocessing_means_single_launch() {
        let l = capellini_sparse::gen::random_k(200, 3, 200, 1);
        let (_, b) = problem(&l);
        let mut dev = GpuDevice::new(DeviceConfig::pascal_like());
        let out = solve(&mut dev, &l, &b).unwrap();
        assert_eq!(out.stats.launches, 1);
        assert_eq!(out.stats.warps_launched, 200u64.div_ceil(32));
        // Every row executes one fence; lanes finalizing together share a
        // warp instruction, so the count lies between warps and rows.
        assert!(
            out.stats.fences >= 7 && out.stats.fences <= 200,
            "{}",
            out.stats.fences
        );
    }

    #[test]
    fn works_on_toy_device_for_figure2() {
        let l = capellini_sparse::paper_example();
        let (_, b) = problem(&l);
        let mut dev = GpuDevice::new(DeviceConfig::toy());
        let mut trace = capellini_simt::Trace::new();
        let out = solve_traced(&mut dev, &l, &b, &mut trace).unwrap();
        check_against_reference(&l, &b, &out.x);
        // 8 rows / 3 lanes per warp = 3 warps.
        assert_eq!(out.stats.warps_launched, 3);
        assert!(!trace.events.is_empty());
    }

    #[test]
    fn explicit_last_check_variant_is_correct_and_slower_in_instructions() {
        let l = capellini_sparse::gen::random_k(500, 3, 500, 6);
        let (_, b) = problem(&l);
        let mut d1 = GpuDevice::new(DeviceConfig::pascal_like());
        let base = solve(&mut d1, &l, &b).unwrap();
        let mut d2 = GpuDevice::new(DeviceConfig::pascal_like());
        let checked = solve_with_explicit_last_check(&mut d2, &l, &b).unwrap();
        check_against_reference(&l, &b, &checked.x);
        assert!(
            checked.stats.warp_instructions > base.stats.warp_instructions,
            "checked {} vs base {}",
            checked.stats.warp_instructions,
            base.stats.warp_instructions
        );
    }

    #[test]
    fn deep_chain_still_completes() {
        // Fully sequential matrix: every row's dependency is in-warp for 31
        // of every 32 rows — the hardest liveness test for thread-level.
        let l = capellini_sparse::gen::chain(300, 1, 3);
        let (_, b) = problem(&l);
        let mut dev = GpuDevice::new(DeviceConfig::pascal_like());
        let out = solve(&mut dev, &l, &b).unwrap();
        check_against_reference(&l, &b, &out.x);
    }
}
