//! §4.4: the **warp/thread hybrid** the paper sketches as future work:
//! "we can define a threshold: if the average number of nonzero elements is
//! lower than the threshold, we use the thread-level SpTRSV to process the
//! set of rows; otherwise, we use the warp-level synchronization-free
//! SpTRSV."
//!
//! Preprocessing (host, unlike pure CapelliniSpTRSV) walks the matrix in
//! blocks of `WARP_SIZE` consecutive rows and emits one *task* per warp:
//!
//! * `ThreadBlock { base }` — the warp solves rows `base..base+WARP_SIZE`
//!   writing-first style (thread level), or
//! * `WarpRow { row }` — the warp solves one row, Algorithm-3 style —
//!   a dense block of 32 rows emits 32 such tasks.
//!
//! Both halves publish through the same `x`/`get_value` arrays, so the two
//! granularities interoperate freely. Liveness: task order follows row
//! order, warps activate in FIFO order, and each sub-state-machine is
//! individually live (Writing-First's finalize-first order; SyncFree's
//! cross-warp-only spins).

use capellini_simt::{
    BufU32, Effect, GpuDevice, LaneMem, LaunchStats, Pc, SimtError, WarpKernel, PC_EXIT,
};
use capellini_sparse::LowerTriangularCsr;

use crate::buffers::{DeviceCsr, SolveBuffers};
use crate::kernels::{run_on_fresh_device, SimSolve};

/// Default `nnz_row` threshold between thread-level and warp-level blocks.
/// Half a warp of useful lanes is where the warp-level mapping stops wasting
/// the machine.
pub const DEFAULT_THRESHOLD: f64 = 16.0;

// Dispatcher.
const P_LD_TASK: Pc = 0;

// Thread-level (writing-first) half: 10..27.
const T_LD_BEGIN: Pc = 10;
const T_LD_END: Pc = 11;
const T_OUTER: Pc = 12;
const T_LD_COL: Pc = 13;
const T_POLL: Pc = 14;
const T_BR_READY: Pc = 15;
const T_LD_VAL: Pc = 16;
const T_LD_X: Pc = 17;
const T_FMA: Pc = 18;
const T_LD_COL2: Pc = 19;
const T_BR_DIAG: Pc = 20;
const T_LD_B: Pc = 21;
const T_LD_DIAG: Pc = 22;
const T_DIV: Pc = 23;
const T_ST_X: Pc = 24;
const T_FENCE: Pc = 25;
const T_ST_FLAG: Pc = 26;

// Warp-level (syncfree) half: 40..59.
const W_LD_BEGIN: Pc = 40;
const W_LD_END: Pc = 41;
const W_STRIDE: Pc = 42;
const W_LD_COL: Pc = 43;
const W_POLL: Pc = 44;
const W_BR_READY: Pc = 45;
const W_LD_VAL: Pc = 46;
const W_LD_X: Pc = 47;
const W_FMA: Pc = 48;
const W_SH_STORE: Pc = 49;
const W_RED_CHECK: Pc = 50;
const W_RED_LOAD: Pc = 51;
const W_RED_STORE: Pc = 52;
const W_BR_LANE0: Pc = 53;
const W_LD_B: Pc = 54;
const W_LD_DIAG: Pc = 55;
const W_DIV: Pc = 56;
const W_ST_X: Pc = 57;
const W_FENCE: Pc = 58;
const W_ST_FLAG: Pc = 59;

/// One warp's work item, encoded `(base_row << 1) | is_thread_block`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Thread-level rows `base..base+warp_size` (clamped to n).
    ThreadBlock {
        /// First row of the block.
        base: u32,
    },
    /// Warp-level single row.
    WarpRow {
        /// The row.
        row: u32,
    },
}

impl Task {
    fn encode(self) -> u32 {
        match self {
            Task::ThreadBlock { base } => (base << 1) | 1,
            Task::WarpRow { row } => row << 1,
        }
    }

    fn decode(v: u32) -> Task {
        if v & 1 == 1 {
            Task::ThreadBlock { base: v >> 1 }
        } else {
            Task::WarpRow { row: v >> 1 }
        }
    }
}

/// The hybrid preprocessing: block-granularity task selection. A warp size
/// of 0 plans one-row blocks; the launch's device shape check rejects it.
pub fn plan_tasks(l: &LowerTriangularCsr, warp_size: usize, threshold: f64) -> Vec<Task> {
    let n = l.n();
    let row_ptr = l.csr().row_ptr();
    let mut tasks = Vec::new();
    let mut base = 0usize;
    while base < n {
        let hi = (base + warp_size.max(1)).min(n);
        let block_nnz = (row_ptr[hi] - row_ptr[base]) as f64;
        let avg = block_nnz / (hi - base) as f64;
        if avg < threshold {
            tasks.push(Task::ThreadBlock { base: base as u32 });
        } else {
            for r in base..hi {
                tasks.push(Task::WarpRow { row: r as u32 });
            }
        }
        base = hi;
    }
    tasks
}

/// The hybrid kernel: per-warp dispatch between the two granularities.
pub struct HybridKernel {
    m: DeviceCsr,
    sb: SolveBuffers,
    tasks: BufU32,
    warp_size: u32,
}

impl HybridKernel {
    /// Builds the kernel against an explicit task list — the sharded path
    /// (`crate::shard`), which filters the global plan down to one shard's
    /// rows before uploading.
    pub(crate) fn new(m: DeviceCsr, sb: SolveBuffers, tasks: BufU32, warp_size: usize) -> Self {
        HybridKernel {
            m,
            sb,
            tasks,
            warp_size: warp_size as u32,
        }
    }
}

/// Uploads an explicit task list (sharded path); returns the device buffer.
pub(crate) fn upload_task_list(dev: &mut GpuDevice, tasks: &[Task]) -> BufU32 {
    let encoded: Vec<u32> = tasks.iter().map(|t| t.encode()).collect();
    dev.mem().alloc_u32(&encoded)
}

/// Per-lane registers (union of both halves).
#[derive(Default)]
pub struct HyLane {
    /// Row this lane works on (thread half) or the warp's row (warp half).
    row: u32,
    thread_mode: bool,
    j: u32,
    row_end: u32,
    col: u32,
    add_len: u32,
    sum: f64,
    v: f64,
    bv: f64,
    xi: f64,
    ready: bool,
}

impl WarpKernel for HybridKernel {
    type Lane = HyLane;

    fn name(&self) -> &'static str {
        "hybrid-warp-thread"
    }

    fn shared_per_warp(&self) -> usize {
        self.warp_size as usize
    }

    fn make_lane(&self, _tid: u32) -> HyLane {
        HyLane::default()
    }

    #[inline(always)]
    fn exec(&self, pc: Pc, l: &mut HyLane, tid: u32, mem: &mut LaneMem<'_>) -> Effect {
        let warp = (tid / self.warp_size) as usize;
        let lane = tid % self.warp_size;
        match pc {
            P_LD_TASK => {
                let task = Task::decode(mem.load_u32(self.tasks, warp));
                match task {
                    Task::ThreadBlock { base } => {
                        l.thread_mode = true;
                        l.row = base + lane;
                        if (l.row as usize) < self.m.n {
                            Effect::to(T_LD_BEGIN)
                        } else {
                            Effect::exit()
                        }
                    }
                    Task::WarpRow { row } => {
                        l.thread_mode = false;
                        l.row = row;
                        Effect::to(W_LD_BEGIN)
                    }
                }
            }

            // ---- Thread-level half: Writing-First over l.row -------------
            T_LD_BEGIN => {
                l.j = mem.load_u32(self.m.row_ptr, l.row as usize);
                Effect::to(T_LD_END)
            }
            T_LD_END => {
                l.row_end = mem.load_u32(self.m.row_ptr, l.row as usize + 1);
                Effect::to(T_OUTER)
            }
            T_OUTER => {
                if l.j < l.row_end {
                    Effect::to(T_LD_COL)
                } else {
                    Effect::exit()
                }
            }
            T_LD_COL => {
                l.col = mem.load_u32(self.m.col_idx, l.j as usize);
                Effect::to(T_POLL)
            }
            T_POLL => {
                l.ready = mem.poll_flag(self.sb.flags, l.col as usize);
                Effect::to(T_BR_READY)
            }
            T_BR_READY => {
                if l.ready {
                    Effect::to(T_LD_VAL)
                } else {
                    Effect::to(T_BR_DIAG)
                }
            }
            T_LD_VAL => {
                l.v = mem.load_f64(self.m.values, l.j as usize);
                Effect::to(T_LD_X)
            }
            T_LD_X => {
                l.xi = mem.load_f64(self.sb.x, l.col as usize);
                Effect::to(T_FMA)
            }
            T_FMA => {
                l.sum += l.v * l.xi;
                l.j += 1;
                Effect::flops(T_LD_COL2, 2)
            }
            T_LD_COL2 => {
                l.col = mem.load_u32(self.m.col_idx, l.j as usize);
                Effect::to(T_POLL)
            }
            T_BR_DIAG => {
                if l.col == l.row {
                    Effect::to(T_LD_B)
                } else {
                    Effect::to(T_OUTER)
                }
            }
            T_LD_B => {
                l.bv = mem.load_f64(self.sb.b, l.row as usize);
                Effect::to(T_LD_DIAG)
            }
            T_LD_DIAG => {
                l.v = mem.load_f64(self.m.values, l.row_end as usize - 1);
                Effect::to(T_DIV)
            }
            T_DIV => {
                l.xi = (l.bv - l.sum) / l.v;
                Effect::flops(T_ST_X, 2)
            }
            T_ST_X => {
                mem.store_f64(self.sb.x, l.row as usize, l.xi);
                Effect::to(T_FENCE)
            }
            T_FENCE => Effect::fence(T_ST_FLAG),
            T_ST_FLAG => {
                mem.store_flag(self.sb.flags, l.row as usize, true);
                Effect::exit()
            }

            // ---- Warp-level half: SyncFree over the shared l.row ---------
            W_LD_BEGIN => {
                l.j = mem.load_u32(self.m.row_ptr, l.row as usize);
                Effect::to(W_LD_END)
            }
            W_LD_END => {
                l.row_end = mem.load_u32(self.m.row_ptr, l.row as usize + 1);
                l.j += lane;
                l.sum = 0.0;
                Effect::to(W_STRIDE)
            }
            W_STRIDE => {
                if l.j + 1 < l.row_end {
                    Effect::to(W_LD_COL)
                } else {
                    Effect::to(W_SH_STORE)
                }
            }
            W_LD_COL => {
                l.col = mem.load_u32(self.m.col_idx, l.j as usize);
                Effect::to(W_POLL)
            }
            W_POLL => {
                l.ready = mem.poll_flag(self.sb.flags, l.col as usize);
                Effect::to(W_BR_READY)
            }
            W_BR_READY => {
                if l.ready {
                    Effect::to(W_LD_VAL)
                } else {
                    Effect::to(W_POLL)
                }
            }
            W_LD_VAL => {
                l.v = mem.load_f64(self.m.values, l.j as usize);
                Effect::to(W_LD_X)
            }
            W_LD_X => {
                l.bv = mem.load_f64(self.sb.x, l.col as usize);
                Effect::to(W_FMA)
            }
            W_FMA => {
                l.sum += l.v * l.bv;
                l.j += self.warp_size;
                Effect::flops(W_STRIDE, 2)
            }
            W_SH_STORE => {
                mem.shared_store(lane as usize, l.sum);
                l.add_len = self.warp_size.next_power_of_two() / 2;
                Effect::to(W_RED_CHECK)
            }
            W_RED_CHECK => {
                if l.add_len > 0 {
                    Effect::to(W_RED_LOAD)
                } else {
                    Effect::to(W_BR_LANE0)
                }
            }
            W_RED_LOAD => {
                if lane < l.add_len && lane + l.add_len < self.warp_size {
                    l.v = mem.shared_load((lane + l.add_len) as usize);
                    l.sum += l.v;
                    Effect::flops(W_RED_STORE, 1)
                } else {
                    Effect::to(W_RED_STORE)
                }
            }
            W_RED_STORE => {
                if lane < l.add_len {
                    mem.shared_store(lane as usize, l.sum);
                }
                l.add_len /= 2;
                Effect::to(W_RED_CHECK)
            }
            W_BR_LANE0 => {
                if lane == 0 {
                    Effect::to(W_LD_B)
                } else {
                    Effect::exit()
                }
            }
            W_LD_B => {
                l.bv = mem.load_f64(self.sb.b, l.row as usize);
                Effect::to(W_LD_DIAG)
            }
            W_LD_DIAG => {
                l.v = mem.load_f64(self.m.values, l.row_end as usize - 1);
                Effect::to(W_DIV)
            }
            W_DIV => {
                l.sum = (l.bv - l.sum) / l.v;
                Effect::flops(W_ST_X, 2)
            }
            W_ST_X => {
                mem.store_f64(self.sb.x, l.row as usize, l.sum);
                Effect::to(W_FENCE)
            }
            W_FENCE => Effect::fence(W_ST_FLAG),
            W_ST_FLAG => {
                mem.store_flag(self.sb.flags, l.row as usize, true);
                Effect::exit()
            }
            _ => unreachable!("hybrid has no pc {pc}"),
        }
    }

    fn reconv(&self, pc: Pc) -> Pc {
        match pc {
            // The mode dispatch never diverges (one task per warp), except
            // for the tail thread-block where overflow lanes exit.
            P_LD_TASK => PC_EXIT,
            T_OUTER | T_BR_DIAG => PC_EXIT,
            T_BR_READY => T_BR_DIAG,
            W_STRIDE => W_SH_STORE,
            W_BR_READY => W_LD_VAL,
            W_RED_CHECK => W_BR_LANE0,
            W_BR_LANE0 => PC_EXIT,
            _ => unreachable!("pc {pc} cannot diverge"),
        }
    }

    fn branch_order(&self, pc: Pc, target: Pc) -> u8 {
        match pc {
            T_BR_READY => {
                if target == T_LD_VAL {
                    0
                } else {
                    1
                }
            }
            T_BR_DIAG => {
                if target == T_LD_B {
                    0
                } else {
                    1
                }
            }
            W_BR_READY => {
                if target == W_POLL {
                    0
                } else {
                    1
                }
            }
            W_BR_LANE0 => {
                if target == W_LD_B {
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
            P_LD_TASK => "ld task[warp]",
            T_LD_BEGIN..=T_ST_FLAG => "thread-level",
            W_LD_BEGIN..=W_ST_FLAG => "warp-level",
            _ => "?",
        }
    }

    /// Busy-wait purity (spin fast-forwarding): both sub-kernel poll cycles re-read the same words each trip.
    fn spin_pure(&self, pc: Pc) -> bool {
        pc == T_POLL || pc == W_POLL
    }
}

/// Plans the task list on the host and uploads the encoded tasks, returning
/// the device buffer and the task count (= grid warps). The session layer
/// calls this once and replays the plan across solves.
pub fn upload_tasks(
    dev: &mut GpuDevice,
    l: &LowerTriangularCsr,
    threshold: f64,
) -> (BufU32, usize) {
    let ws = dev.config().warp_size;
    let tasks = plan_tasks(l, ws, threshold);
    let encoded: Vec<u32> = tasks.iter().map(|t| t.encode()).collect();
    let n_tasks = encoded.len();
    (dev.mem().alloc_u32(&encoded), n_tasks)
}

/// Runs the hybrid solver with the given threshold.
pub fn launch_with_threshold(
    dev: &mut GpuDevice,
    m: DeviceCsr,
    sb: SolveBuffers,
    l: &LowerTriangularCsr,
    threshold: f64,
) -> Result<LaunchStats, SimtError> {
    let (tasks, n_tasks) = upload_tasks(dev, l, threshold);
    launch_with_tasks(dev, m, sb, tasks, n_tasks)
}

/// Runs the hybrid kernel against an already-uploaded task plan — the
/// session path, which plans once and reuses the encoded tasks across
/// solves. `n_tasks` is the task count (= grid warps).
pub fn launch_with_tasks(
    dev: &mut GpuDevice,
    m: DeviceCsr,
    sb: SolveBuffers,
    tasks: BufU32,
    n_tasks: usize,
) -> Result<LaunchStats, SimtError> {
    let ws = dev.config().warp_size;
    dev.launch(
        &HybridKernel {
            m,
            sb,
            tasks,
            warp_size: ws as u32,
        },
        n_tasks,
    )
}

/// Convenience: upload, solve with the default threshold, read back.
pub fn solve(
    dev: &mut GpuDevice,
    l: &LowerTriangularCsr,
    b: &[f64],
) -> Result<SimSolve, SimtError> {
    solve_with_threshold(dev, l, b, DEFAULT_THRESHOLD)
}

/// Convenience with an explicit threshold (for the ablation sweep).
pub fn solve_with_threshold(
    dev: &mut GpuDevice,
    l: &LowerTriangularCsr,
    b: &[f64],
    threshold: f64,
) -> Result<SimSolve, SimtError> {
    run_on_fresh_device(dev, l, b, |dev, m, sb| {
        launch_with_threshold(dev, m, sb, l, threshold)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::{check_against_reference, problem, test_devices, test_matrices};
    use capellini_simt::{DeviceConfig, GpuDevice};

    #[test]
    fn task_encoding_round_trips() {
        for t in [
            Task::ThreadBlock { base: 0 },
            Task::ThreadBlock { base: 96 },
            Task::WarpRow { row: 0 },
            Task::WarpRow { row: 12345 },
        ] {
            assert_eq!(Task::decode(t.encode()), t);
        }
    }

    #[test]
    fn plan_splits_by_density() {
        // First 64 rows sparse (chain), next 64 dense (band 40).
        use capellini_sparse::{CooMatrix, CsrMatrix, LowerTriangularCsr};
        let n = 128;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            if i < 64 {
                if i > 0 {
                    coo.push(i as u32, i as u32 - 1, 0.5);
                }
            } else {
                for d in 1..=40usize.min(i) {
                    coo.push(i as u32, (i - d) as u32, 0.01);
                }
            }
            coo.push(i as u32, i as u32, 1.0);
        }
        let l = LowerTriangularCsr::try_new(CsrMatrix::from_coo(&coo)).unwrap();
        let tasks = plan_tasks(&l, 32, 16.0);
        // Two sparse blocks → 2 thread tasks; two dense blocks → 64 warp tasks.
        let threads = tasks
            .iter()
            .filter(|t| matches!(t, Task::ThreadBlock { .. }))
            .count();
        let warps = tasks
            .iter()
            .filter(|t| matches!(t, Task::WarpRow { .. }))
            .count();
        assert_eq!(threads, 2);
        assert_eq!(warps, 64);
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
    fn extreme_thresholds_degenerate_to_pure_algorithms() {
        let l = capellini_sparse::gen::random_k(300, 3, 300, 4);
        let (_, b) = problem(&l);
        // threshold = ∞ → all thread-level blocks.
        let mut d = GpuDevice::new(DeviceConfig::pascal_like());
        let all_thread = solve_with_threshold(&mut d, &l, &b, f64::INFINITY).unwrap();
        check_against_reference(&l, &b, &all_thread.x);
        assert_eq!(all_thread.stats.warps_launched, 300u64.div_ceil(32));
        // threshold = 0 → all warp-level rows.
        let mut d = GpuDevice::new(DeviceConfig::pascal_like());
        let all_warp = solve_with_threshold(&mut d, &l, &b, 0.0).unwrap();
        check_against_reference(&l, &b, &all_warp.x);
        assert_eq!(all_warp.stats.warps_launched, 300);
    }

    #[test]
    fn mixed_matrix_interoperates_across_granularities() {
        // Sparse and dense stripes alternate; correctness requires the two
        // task kinds to honour each other's flags.
        use capellini_sparse::{CooMatrix, CsrMatrix, LowerTriangularCsr};
        let n = 256;
        let mut coo = CooMatrix::new(n, n);
        for i in 1..n {
            let stripe_dense = (i / 32) % 2 == 1;
            if stripe_dense {
                for d in 1..=24usize.min(i) {
                    coo.push(i as u32, (i - d) as u32, 0.02);
                }
            } else {
                coo.push(i as u32, (i / 2) as u32, 0.5);
            }
        }
        for i in 0..n {
            coo.push(i as u32, i as u32, 1.0);
        }
        let l = LowerTriangularCsr::try_new(CsrMatrix::from_coo(&coo)).unwrap();
        let (_, b) = problem(&l);
        let mut dev = GpuDevice::new(DeviceConfig::pascal_like());
        let out = solve(&mut dev, &l, &b).unwrap();
        check_against_reference(&l, &b, &out.x);
    }
}
