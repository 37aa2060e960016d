//! Multi-RHS (SpTRSM) variant of the warp-level SyncFree kernel
//! (Algorithm 3): one warp per row, `k` right-hand sides per launch.
//!
//! Structure mirrors `syncfree.rs` exactly — strided element loop,
//! busy-wait on `get_value`, shared-memory tree reduction, lane-0 finalize —
//! except every lane carries `k` accumulators, the shared tile is
//! `warp_size × k`, and one flag publishes all `k` components of a row.
//!
//! **Bit-identity contract** (pinned by `tests/batched.rs`): per column `r`,
//! every floating-point operation happens in the same order with the same
//! operands as a single-RHS solve of column `r` — the strided consume order,
//! the reduction tree shape, and the `(b - sum) / diag` finalize are all
//! unchanged — so the batched solution is bit-identical to `k` looped
//! solves.
//!
//! Layout: `X` and `B` are row-major `n×k` (`x[i*k + r]`), matching
//! `capellini_sparse::rhs::RhsBlock`.

use capellini_simt::{Effect, GpuDevice, LaneMem, LaunchStats, Pc, SimtError, WarpKernel, PC_EXIT};
use capellini_sparse::LowerTriangularCsr;

use crate::buffers::{DeviceCsr, MultiSolveBuffers};
use crate::kernels::{run_multi_on_fresh_device, SimSolve};

const P_LD_BEGIN: Pc = 0;
const P_LD_END: Pc = 1;
const P_STRIDE_CHECK: Pc = 2;
const P_LD_COL: Pc = 3;
const P_POLL: Pc = 4;
const P_BR_READY: Pc = 5;
const P_LD_VAL: Pc = 6;
const P_RHS_FMA: Pc = 7;
const P_SH_STORE: Pc = 8;
const P_RED_CHECK: Pc = 9;
const P_RED_LOAD: Pc = 10;
const P_RED_STORE: Pc = 11;
const P_BR_LANE0: Pc = 12;
const P_LD_DIAG: Pc = 13;
const P_RHS_SOLVE_LD: Pc = 14;
const P_RHS_SOLVE_ST: Pc = 15;
const P_FENCE: Pc = 16;
const P_ST_FLAG: Pc = 17;

/// Warp-level SyncFree over `k` right-hand sides. Row `i` = warp id.
pub struct SyncFreeMultiKernel {
    m: DeviceCsr,
    mb: MultiSolveBuffers,
    warp_size: u32,
}

/// Per-lane registers: `k` accumulators.
pub struct SfmLane {
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

impl SyncFreeMultiKernel {
    /// Creates the kernel over uploaded buffers for a given warp width.
    pub fn new(m: DeviceCsr, mb: MultiSolveBuffers, warp_size: usize) -> Self {
        SyncFreeMultiKernel {
            m,
            mb,
            warp_size: warp_size as u32,
        }
    }
}

impl WarpKernel for SyncFreeMultiKernel {
    type Lane = SfmLane;

    fn name(&self) -> &'static str {
        "syncfree-warp-multirhs"
    }

    fn shared_per_warp(&self) -> usize {
        self.warp_size as usize * self.mb.nrhs
    }

    fn make_lane(&self, _tid: u32) -> SfmLane {
        SfmLane {
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

    fn exec(&self, pc: Pc, l: &mut SfmLane, tid: u32, mem: &mut LaneMem<'_>) -> Effect {
        let i = (tid / self.warp_size) as usize; // the component this warp solves
        let lane = tid % self.warp_size;
        let k = self.mb.nrhs;
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
                l.sums.iter_mut().for_each(|s| *s = 0.0);
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
                l.ready = mem.poll_flag(self.mb.flags, l.col as usize);
                Effect::to(P_BR_READY)
            }
            P_BR_READY => {
                if l.ready {
                    Effect::to(P_LD_VAL)
                } else {
                    Effect::to(P_POLL) // busy-wait; cross-warp
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
            P_SH_STORE => {
                // Shared tile: lane-major, k consecutive slots per lane.
                for r in 0..k {
                    mem.shared_store(lane as usize * k + r, l.sums[r]);
                }
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
                // Predicated, like the single-RHS tree; each step folds all
                // k columns (shared traffic is per-op, not per-word).
                if lane < l.add_len && lane + l.add_len < self.warp_size {
                    for r in 0..k {
                        let partner = mem.shared_load((lane + l.add_len) as usize * k + r);
                        l.sums[r] += partner;
                    }
                    Effect::flops(P_RED_STORE, k as u16)
                } else {
                    Effect::to(P_RED_STORE)
                }
            }
            P_RED_STORE => {
                if lane < l.add_len {
                    for r in 0..k {
                        mem.shared_store(lane as usize * k + r, l.sums[r]);
                    }
                }
                l.add_len /= 2;
                Effect::to(P_RED_CHECK)
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
                // One flag publishes all k components of this row.
                mem.store_flag(self.mb.flags, i, true);
                Effect::exit()
            }
            _ => unreachable!("syncfree-multi has no pc {pc}"),
        }
    }

    fn reconv(&self, pc: Pc) -> Pc {
        match pc {
            P_LD_BEGIN => PC_EXIT,
            // Lanes exit the strided element loop at different iterations
            // and wait at the reduction entry.
            P_STRIDE_CHECK => P_SH_STORE,
            P_BR_READY => P_LD_VAL,
            // The per-RHS loop is uniform (same k on every lane) but keep
            // the point defined for robustness.
            P_RHS_FMA => P_STRIDE_CHECK,
            P_RED_CHECK => P_BR_LANE0,
            P_BR_LANE0 => PC_EXIT,
            P_RHS_SOLVE_ST => P_FENCE,
            _ => unreachable!("pc {pc} cannot diverge"),
        }
    }

    fn branch_order(&self, pc: Pc, target: Pc) -> u8 {
        match pc {
            // Spin side first: the compiled `while (!flag);` fall-through.
            P_BR_READY => {
                if target == P_POLL {
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
            P_LD_BEGIN => "ld rowPtr[i]",
            P_LD_END => "ld rowPtr[i+1]",
            P_STRIDE_CHECK => "stride loop?",
            P_LD_COL => "ld colIdx[j]",
            P_POLL => "poll get_value[col]",
            P_BR_READY => "busywait",
            P_LD_VAL => "ld val[j]",
            P_RHS_FMA => "rhs fma loop",
            P_SH_STORE => "left_sum[lane*k+r]=sums",
            P_RED_CHECK => "reduce: len>0?",
            P_RED_LOAD => "reduce: load+add xk",
            P_RED_STORE => "reduce: store xk",
            P_BR_LANE0 => "lane0?",
            P_LD_DIAG => "ld diag",
            P_RHS_SOLVE_LD | P_RHS_SOLVE_ST => "rhs solve loop",
            P_FENCE => "threadfence",
            P_ST_FLAG => "st get_value[i]",
            _ => "?",
        }
    }

    /// Busy-wait purity (spin fast-forwarding): the poll/branch cycle re-reads the same words each trip.
    fn spin_pure(&self, pc: Pc) -> bool {
        pc == P_POLL
    }
}

/// Launches the batched kernel on pre-uploaded device state: one warp per
/// row, `mb.nrhs` right-hand sides per launch.
pub fn launch_multi(
    dev: &mut GpuDevice,
    m: DeviceCsr,
    mb: MultiSolveBuffers,
) -> Result<LaunchStats, SimtError> {
    let ws = dev.config().warp_size;
    dev.launch(&SyncFreeMultiKernel::new(m, mb, ws), m.n)
}

/// Convenience: upload, solve `L X = B` for `nrhs` row-major right-hand
/// sides, read back `X` in the same layout.
pub fn solve_multi(
    dev: &mut GpuDevice,
    l: &LowerTriangularCsr,
    bs: &[f64],
    nrhs: usize,
) -> Result<SimSolve, SimtError> {
    solve_multi_layout(dev, l, bs, nrhs, crate::buffers::RhsLayout::RowMajor)
}

/// Like [`solve_multi`] with an explicit device tiling for the RHS block.
/// `bs` and the returned `X` stay row-major on the host either way; per
/// column the floating-point order is identical, so the solutions are
/// bit-identical across layouts — only the memory traffic differs (the
/// `repro locality` experiment's row-vs-column comparison).
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
    use crate::kernels::testutil::{problem, test_devices, test_matrices};
    use crate::reference::solve_serial_csr;
    use capellini_simt::{DeviceConfig, GpuDevice};

    #[test]
    fn solves_multiple_rhs_on_all_devices() {
        for cfg in test_devices() {
            for (name, l) in test_matrices() {
                let n = l.n();
                let nrhs = 3;
                let mut bs = vec![0.0; n * nrhs];
                for r in 0..nrhs {
                    for i in 0..n {
                        bs[i * nrhs + r] = ((i * (r + 2) + r) % 13) as f64 - 6.0;
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
        let l = capellini_sparse::gen::powerlaw(700, 3.0, 91);
        let n = l.n();
        let nrhs = 4;
        let mut bs = vec![0.0; n * nrhs];
        let mut cols = Vec::new();
        for r in 0..nrhs {
            let (_, mut b) = problem(&l);
            b.iter_mut().for_each(|v| *v += r as f64);
            for i in 0..n {
                bs[i * nrhs + r] = b[i];
            }
            cols.push(b);
        }
        let mut dev = GpuDevice::new(DeviceConfig::pascal_like());
        let multi = solve_multi(&mut dev, &l, &bs, nrhs).unwrap();
        for (r, b) in cols.iter().enumerate() {
            let mut dev = GpuDevice::new(DeviceConfig::pascal_like());
            let single = crate::kernels::syncfree::solve(&mut dev, &l, b).unwrap();
            for i in 0..n {
                assert_eq!(
                    multi.x[i * nrhs + r].to_bits(),
                    single.x[i].to_bits(),
                    "rhs {r}, row {i}"
                );
            }
        }
    }

    /// Column-major tiling changes the addresses the kernel touches but not
    /// one floating-point operation: the solution is bit-identical to the
    /// row-major default, while the traffic pattern differs (measured by the
    /// `repro locality` experiment under the finite-cache model).
    #[test]
    fn col_major_tiling_is_bit_identical_to_row_major() {
        let l = capellini_sparse::gen::powerlaw(500, 3.0, 95);
        let n = l.n();
        let nrhs = 4;
        let bs: Vec<f64> = (0..n * nrhs)
            .map(|i| ((i * 7 + 3) % 19) as f64 - 9.0)
            .collect();
        let mut d1 = GpuDevice::new(DeviceConfig::pascal_like());
        let row = solve_multi_layout(&mut d1, &l, &bs, nrhs, crate::buffers::RhsLayout::RowMajor)
            .unwrap();
        let mut d2 = GpuDevice::new(DeviceConfig::pascal_like());
        let col = solve_multi_layout(&mut d2, &l, &bs, nrhs, crate::buffers::RhsLayout::ColMajor)
            .unwrap();
        for (i, (a, b)) in row.x.iter().zip(&col.x).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "element {i}");
        }
    }

    #[test]
    fn multi_rhs_amortizes_index_traffic() {
        // 8 RHS together must execute far fewer warp instructions than 8
        // separate solves: the index, poll, and reduction machinery is
        // shared across the batch.
        let l = capellini_sparse::gen::powerlaw(2_000, 3.0, 92);
        let n = l.n();
        let nrhs = 8;
        let bs = vec![1.0; n * nrhs];
        let mut dev = GpuDevice::new(DeviceConfig::pascal_like());
        let multi = solve_multi(&mut dev, &l, &bs, nrhs).unwrap();
        let b1 = vec![1.0; n];
        let mut dev = GpuDevice::new(DeviceConfig::pascal_like());
        let single = crate::kernels::syncfree::solve(&mut dev, &l, &b1).unwrap();
        assert!(
            multi.stats.warp_instructions < 4 * single.stats.warp_instructions,
            "multi {} vs 8x single {}",
            multi.stats.warp_instructions,
            8 * single.stats.warp_instructions
        );
    }
}
