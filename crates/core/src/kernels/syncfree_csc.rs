//! The *original* CSC-formulated synchronization-free SpTRSV of Liu et
//! al. \[20\] (EuroPar'16), as opposed to Algorithm 3's row/CSR presentation:
//! one warp per **column**, scatter-style.
//!
//! For a lower-triangular CSC matrix (diagonal first in each column):
//!
//! 1. preprocessing computes each row's *in-degree* (its off-diagonal
//!    nonzero count) — this, plus the CSC conversion itself, is the
//!    algorithm's preprocessing charge;
//! 2. warp `j` busy-waits until `in_degree[j]` reaches zero, meaning every
//!    update `l_{j,k}·x_k (k<j)` has been folded into `left_sum[j]`;
//! 3. lane 0 computes `x_j = (b_j − left_sum[j]) / l_{j,j}` and publishes;
//! 4. the warp's lanes stride over the column's off-diagonal entries and
//!    scatter `atomicAdd(left_sum[r], −l_{r,j}·x_j)`,
//!    `atomicSub(in_degree[r], 1)` — which is what eventually releases the
//!    dependent warps.
//!
//! The busy-wait is on the warp's own counter (never another lane of the
//! same warp), so the design is deadlock-free by construction — and, like
//! Algorithm 3, it is *warp-level*: on high-granularity matrices it wastes
//! lanes exactly the same way.

use capellini_simt::{
    BufF64, BufU32, Effect, GpuDevice, LaneMem, LaunchStats, Pc, SimtError, WarpKernel, PC_EXIT,
};
use capellini_sparse::{CscMatrix, LowerTriangularCsr};

use crate::buffers::check_rhs_len;
use crate::kernels::SimSolve;

const P_LD_COLBEGIN: Pc = 0;
const P_LD_COLEND: Pc = 1;
const P_POLL_INDEG: Pc = 2;
const P_BR_READY: Pc = 3;
const P_LD_B: Pc = 4;
const P_LD_DIAG: Pc = 5;
const P_DIV: Pc = 6;
const P_ST_X: Pc = 7;
const P_FENCE: Pc = 8;
const P_BCAST: Pc = 9;
const P_SCATTER_CHECK: Pc = 10;
const P_LD_ROW: Pc = 11;
const P_LD_VAL: Pc = 12;
const P_ATOMIC_SUM: Pc = 13;
const P_ATOMIC_DEG: Pc = 14;

/// Device-resident CSC matrix plus the scatter state.
pub struct SyncFreeCscKernel {
    n: usize,
    col_ptr: BufU32,
    row_idx: BufU32,
    values: BufF64,
    b: BufF64,
    x: BufF64,
    /// Running right-hand-side corrections (`left_sum`).
    left_sum: BufF64,
    /// Remaining unresolved dependencies per row.
    in_degree: BufU32,
    warp_size: u32,
}

impl SyncFreeCscKernel {
    /// Builds the kernel from pre-uploaded state — the sharded path
    /// (`crate::shard`), which restricts the column range via a wrapper and
    /// forwards boundary scatter deltas over the inter-device link.
    pub(crate) fn new(dc: DeviceCsc, b: BufF64, x: BufF64, warp_size: usize) -> Self {
        SyncFreeCscKernel {
            n: dc.n,
            col_ptr: dc.col_ptr,
            row_idx: dc.row_idx,
            values: dc.values,
            b,
            x,
            left_sum: dc.left_sum,
            in_degree: dc.in_degree,
            warp_size: warp_size as u32,
        }
    }
}

/// Per-lane registers.
#[derive(Default)]
pub struct ScLane {
    j: u32,
    col_begin: u32,
    col_end: u32,
    row: u32,
    xj: f64,
    v: f64,
    ready: bool,
}

impl WarpKernel for SyncFreeCscKernel {
    type Lane = ScLane;

    fn name(&self) -> &'static str {
        "syncfree-csc"
    }

    fn shared_per_warp(&self) -> usize {
        1 // broadcast slot for x_j
    }

    fn make_lane(&self, _tid: u32) -> ScLane {
        ScLane::default()
    }

    #[inline(always)]
    fn exec(&self, pc: Pc, l: &mut ScLane, tid: u32, mem: &mut LaneMem<'_>) -> Effect {
        let col = (tid / self.warp_size) as usize;
        let lane = tid % self.warp_size;
        match pc {
            P_LD_COLBEGIN => {
                if col >= self.n {
                    return Effect::exit();
                }
                l.col_begin = mem.load_u32(self.col_ptr, col);
                Effect::to(P_LD_COLEND)
            }
            P_LD_COLEND => {
                l.col_end = mem.load_u32(self.col_ptr, col + 1);
                Effect::to(P_POLL_INDEG)
            }
            P_POLL_INDEG => {
                // Volatile re-read of the warp's own countdown.
                l.ready = mem.poll_zero_u32(self.in_degree, col);
                Effect::to(P_BR_READY)
            }
            P_BR_READY => {
                if l.ready {
                    Effect::to(if lane == 0 { P_LD_B } else { P_BCAST })
                } else {
                    Effect::to(P_POLL_INDEG)
                }
            }
            P_LD_B => {
                l.xj = mem.load_f64(self.b, col);
                Effect::to(P_LD_DIAG)
            }
            P_LD_DIAG => {
                // left_sum[col] is final once in_degree hit zero.
                l.v = mem.load_f64(self.left_sum, col);
                Effect::to(P_DIV)
            }
            P_DIV => {
                // The diagonal is the first entry of a lower-triangular CSC
                // column; divide and keep x_j in a register.
                let dv = mem.load_f64(self.values, l.col_begin as usize);
                l.xj = (l.xj - l.v) / dv;
                Effect::flops(P_ST_X, 2)
            }
            P_ST_X => {
                mem.store_f64(self.x, col, l.xj);
                Effect::to(P_FENCE)
            }
            P_FENCE => Effect::fence(P_BCAST),
            P_BCAST => {
                // Lane 0 broadcasts x_j through shared memory; the barrier
                // here is the lock-step itself (all lanes reconverged).
                if lane == 0 {
                    mem.shared_store(0, l.xj);
                } else {
                    l.xj = mem.shared_load(0);
                }
                l.j = l.col_begin + 1 + lane; // skip the diagonal
                Effect::to(P_SCATTER_CHECK)
            }
            P_SCATTER_CHECK => {
                if l.j < l.col_end {
                    Effect::to(P_LD_ROW)
                } else {
                    Effect::exit()
                }
            }
            P_LD_ROW => {
                l.row = mem.load_u32(self.row_idx, l.j as usize);
                Effect::to(P_LD_VAL)
            }
            P_LD_VAL => {
                l.v = mem.load_f64(self.values, l.j as usize);
                Effect::to(P_ATOMIC_SUM)
            }
            P_ATOMIC_SUM => {
                mem.atomic_add_f64(self.left_sum, l.row as usize, l.v * l.xj);
                Effect::flops(P_ATOMIC_DEG, 2)
            }
            P_ATOMIC_DEG => {
                mem.atomic_sub_u32(self.in_degree, l.row as usize, 1);
                l.j += self.warp_size;
                Effect::to(P_SCATTER_CHECK)
            }
            _ => unreachable!("syncfree-csc has no pc {pc}"),
        }
    }

    fn reconv(&self, pc: Pc) -> Pc {
        match pc {
            P_LD_COLBEGIN => PC_EXIT,
            // The ready branch splits lane 0 (solve path) from the rest
            // (waiting at the broadcast); they reconverge at the broadcast.
            P_BR_READY => P_BCAST,
            P_SCATTER_CHECK => PC_EXIT,
            _ => unreachable!("pc {pc} cannot diverge"),
        }
    }

    fn branch_order(&self, pc: Pc, target: Pc) -> u8 {
        match pc {
            P_BR_READY => match target {
                // Spin side first (compiled fall-through), then the solve
                // path; parked lanes wait at the broadcast.
                P_POLL_INDEG => 0,
                P_LD_B => 1,
                _ => 2,
            },
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
            P_LD_COLBEGIN => "ld colPtr[j]",
            P_LD_COLEND => "ld colPtr[j+1]",
            P_POLL_INDEG => "poll in_degree[j]",
            P_BR_READY => "ready?",
            P_LD_B => "ld b[j]",
            P_LD_DIAG => "ld left_sum[j]",
            P_DIV => "ld diag + div",
            P_ST_X => "st x[j]",
            P_FENCE => "threadfence",
            P_BCAST => "broadcast x_j",
            P_SCATTER_CHECK => "scatter loop?",
            P_LD_ROW => "ld rowIdx",
            P_LD_VAL => "ld val",
            P_ATOMIC_SUM => "atomicAdd left_sum",
            P_ATOMIC_DEG => "atomicSub in_degree",
            _ => "?",
        }
    }

    /// Busy-wait purity (spin fast-forwarding): the in-degree poll loop is a bare poll/branch cycle.
    fn spin_pure(&self, pc: Pc) -> bool {
        pc == P_POLL_INDEG
    }
}

/// Host preprocessing: CSC conversion (done by the caller) plus in-degree
/// computation from the CSC structure.
pub fn in_degrees(csc: &CscMatrix) -> Vec<u32> {
    let n = csc.n_cols();
    let mut deg = vec![0u32; n];
    for j in 0..n {
        let (rows, _) = csc.col(j);
        for &r in rows.iter().skip(1) {
            deg[r as usize] += 1;
        }
    }
    deg
}

/// The device-resident CSC structure plus the *consumable* scatter state
/// (`left_sum`, `in_degree`). A session uploads this once and re-arms the
/// consumable arrays between solves via [`rearm`].
#[derive(Debug, Clone, Copy)]
pub struct DeviceCsc {
    /// Matrix dimension.
    pub n: usize,
    /// `cscColPtr` (n+1 entries).
    pub col_ptr: BufU32,
    /// `cscRowIdx` (nnz entries).
    pub row_idx: BufU32,
    /// `cscVal` (nnz entries).
    pub values: BufF64,
    /// Running right-hand-side corrections (consumed by each solve).
    pub left_sum: BufF64,
    /// Remaining unresolved dependencies per row (consumed by each solve).
    pub in_degree: BufU32,
}

/// Uploads the CSC arrays and the initial in-degree state.
pub fn upload_csc(dev: &mut GpuDevice, csc: &CscMatrix, deg: &[u32]) -> DeviceCsc {
    let n = csc.n_cols();
    let mem = dev.mem();
    DeviceCsc {
        n,
        col_ptr: mem.alloc_u32(csc.col_ptr()),
        row_idx: mem.alloc_u32(csc.row_idx()),
        values: mem.alloc_f64(csc.values()),
        left_sum: mem.alloc_f64_zeroed(n),
        in_degree: mem.alloc_u32(deg),
    }
}

/// Re-arms the consumable scatter state for another solve: the in-degree
/// countdown is rewound to `deg` and `left_sum` is zeroed. Without this, a
/// second launch would observe the drained counters of the first.
pub fn rearm(dev: &mut GpuDevice, dc: DeviceCsc, deg: &[u32]) {
    let mem = dev.mem();
    mem.write_u32(dc.in_degree, deg);
    mem.fill_f64(dc.left_sum, 0.0);
}

/// Launches the column-scatter kernel on pre-uploaded (and armed) state.
pub fn launch_uploaded(
    dev: &mut GpuDevice,
    dc: DeviceCsc,
    b: BufF64,
    x: BufF64,
) -> Result<LaunchStats, SimtError> {
    let ws = dev.config().warp_size;
    let kernel = SyncFreeCscKernel {
        n: dc.n,
        col_ptr: dc.col_ptr,
        row_idx: dc.row_idx,
        values: dc.values,
        b,
        x,
        left_sum: dc.left_sum,
        in_degree: dc.in_degree,
        warp_size: ws as u32,
    };
    dev.launch(&kernel, dc.n)
}

/// Uploads the CSC system and runs the column-scatter SyncFree solver.
pub fn solve(
    dev: &mut GpuDevice,
    l: &LowerTriangularCsr,
    b: &[f64],
) -> Result<SimSolve, SimtError> {
    check_rhs_len(b, l.n())?;
    let csc = l.csr().to_csc();
    let deg = in_degrees(&csc);
    let n = l.n();
    let dc = upload_csc(dev, &csc, &deg);
    let mem = dev.mem();
    let b = mem.alloc_f64(b);
    let x = mem.alloc_f64_zeroed(n);
    let stats = launch_uploaded(dev, dc, b, x)?;
    Ok(SimSolve {
        x: dev.mem_ref().read_f64(x).to_vec(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::{check_against_reference, problem, test_devices, test_matrices};
    use capellini_simt::{DeviceConfig, GpuDevice};

    #[test]
    fn in_degree_counts_off_diagonal_row_entries() {
        let l = capellini_sparse::paper_example();
        let deg = in_degrees(&l.csr().to_csc());
        // Row i's in-degree = its strictly-lower nonzero count.
        let expect: Vec<u32> = (0..l.n()).map(|i| l.row_deps(i).len() as u32).collect();
        assert_eq!(deg, expect);
    }

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
    fn scatter_uses_atomics() {
        let l = capellini_sparse::gen::random_k(500, 3, 500, 61);
        let (_, b) = problem(&l);
        let mut dev = GpuDevice::new(DeviceConfig::pascal_like());
        let out = solve(&mut dev, &l, &b).unwrap();
        // Two atomics per off-diagonal nonzero (sum + degree), coalescing
        // may merge some within a warp.
        assert!(out.stats.atomic_ops > 0);
        check_against_reference(&l, &b, &out.x);
    }

    #[test]
    fn agrees_with_the_row_formulation() {
        let l = capellini_sparse::gen::powerlaw(2_000, 3.0, 62);
        let (_, b) = problem(&l);
        let mut d1 = GpuDevice::new(DeviceConfig::pascal_like());
        let csc = solve(&mut d1, &l, &b).unwrap();
        let mut d2 = GpuDevice::new(DeviceConfig::pascal_like());
        let csr = crate::kernels::syncfree::solve(&mut d2, &l, &b).unwrap();
        capellini_sparse::linalg::assert_solutions_close(&csc.x, &csr.x, 1e-10);
    }
}
