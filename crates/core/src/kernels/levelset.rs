//! Algorithm 2: the classic **Level-Set SpTRSV** (Anderson & Saad \[1\],
//! Saltz \[35\]). Preprocessing partitions components into level-sets; each
//! level is solved by one kernel launch with a thread per component, and the
//! inter-level synchronization is the launch boundary itself — which is why
//! the algorithm pays one launch overhead per level (the synchronization
//! cost the sync-free family eliminates).

use capellini_simt::{
    BufU32, Effect, GpuDevice, LaneMem, LaunchStats, Pc, SimtError, WarpKernel, PC_EXIT,
};
use capellini_sparse::{LevelSets, LowerTriangularCsr};

use crate::buffers::{DeviceCsr, SolveBuffers};
use crate::kernels::writing_first::warps_for;
use crate::kernels::{run_on_fresh_device, SimSolve};

const P_LD_ORDER: Pc = 0;
const P_LD_BEGIN: Pc = 1;
const P_LD_END: Pc = 2;
const P_LOOP: Pc = 3;
const P_LD_COL: Pc = 4;
const P_LD_VAL: Pc = 5;
const P_LD_X: Pc = 6;
const P_LD_B: Pc = 7;
const P_LD_DIAG: Pc = 8;
const P_DIV: Pc = 9;
const P_ST_X: Pc = 10;

/// Kernel solving the components of one level (all dependencies ready).
pub struct LevelSolveKernel {
    m: DeviceCsr,
    b: capellini_simt::BufF64,
    x: capellini_simt::BufF64,
    order: BufU32,
    /// Offset of this level inside `order`.
    level_lo: usize,
    /// Components in this level.
    count: usize,
}

impl LevelSolveKernel {
    /// Builds one level's kernel — the sharded path (`crate::shard`), which
    /// drives the per-level launch loop itself over a filtered order array.
    pub(crate) fn new(
        m: DeviceCsr,
        b: capellini_simt::BufF64,
        x: capellini_simt::BufF64,
        order: BufU32,
        level_lo: usize,
        count: usize,
    ) -> Self {
        LevelSolveKernel {
            m,
            b,
            x,
            order,
            level_lo,
            count,
        }
    }
}

/// Per-lane registers.
#[derive(Default)]
pub struct LvLane {
    id: u32,
    j: u32,
    row_end: u32,
    col: u32,
    left_sum: f64,
    v: f64,
    bv: f64,
}

impl WarpKernel for LevelSolveKernel {
    type Lane = LvLane;

    fn name(&self) -> &'static str {
        "levelset-level"
    }

    fn make_lane(&self, _tid: u32) -> LvLane {
        LvLane::default()
    }

    fn exec(&self, pc: Pc, l: &mut LvLane, tid: u32, mem: &mut LaneMem<'_>) -> Effect {
        match pc {
            P_LD_ORDER => {
                if tid as usize >= self.count {
                    return Effect::exit();
                }
                l.id = mem.load_u32(self.order, self.level_lo + tid as usize);
                Effect::to(P_LD_BEGIN)
            }
            P_LD_BEGIN => {
                l.j = mem.load_u32(self.m.row_ptr, l.id as usize);
                Effect::to(P_LD_END)
            }
            P_LD_END => {
                l.row_end = mem.load_u32(self.m.row_ptr, l.id as usize + 1);
                Effect::to(P_LOOP)
            }
            P_LOOP => {
                if l.j + 1 < l.row_end {
                    Effect::to(P_LD_COL)
                } else {
                    Effect::to(P_LD_B)
                }
            }
            P_LD_COL => {
                l.col = mem.load_u32(self.m.col_idx, l.j as usize);
                Effect::to(P_LD_VAL)
            }
            P_LD_VAL => {
                l.v = mem.load_f64(self.m.values, l.j as usize);
                Effect::to(P_LD_X)
            }
            P_LD_X => {
                // No flag, no spin: the level schedule guarantees readiness.
                let xv = mem.load_f64(self.x, l.col as usize);
                l.left_sum += l.v * xv;
                l.j += 1;
                Effect::flops(P_LOOP, 2)
            }
            P_LD_B => {
                l.bv = mem.load_f64(self.b, l.id as usize);
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
                mem.store_f64(self.x, l.id as usize, l.bv);
                Effect::exit()
            }
            _ => unreachable!("level kernel has no pc {pc}"),
        }
    }

    fn reconv(&self, pc: Pc) -> Pc {
        match pc {
            P_LD_ORDER => PC_EXIT,
            P_LOOP => P_LD_B,
            _ => unreachable!("pc {pc} cannot diverge"),
        }
    }

    fn pc_name(&self, pc: Pc) -> &'static str {
        match pc {
            P_LD_ORDER => "ld order[k]",
            P_LD_BEGIN => "ld rowPtr[id]",
            P_LD_END => "ld rowPtr[id+1]",
            P_LOOP => "for j<diag",
            P_LD_COL => "ld colIdx[j]",
            P_LD_VAL => "ld val[j]",
            P_LD_X => "ld x[col] + fma",
            P_LD_B => "ld b[id]",
            P_LD_DIAG => "ld diag",
            P_DIV => "div",
            P_ST_X => "st x[id]",
            _ => "?",
        }
    }
}

/// Runs Level-Set SpTRSV: one launch per level over a precomputed analysis.
/// Returns the accumulated statistics of all launches.
pub fn launch_with_levels(
    dev: &mut GpuDevice,
    m: DeviceCsr,
    sb: SolveBuffers,
    levels: &LevelSets,
) -> Result<LaunchStats, SimtError> {
    let order = dev.mem().alloc_u32(levels.order());
    launch_with_uploaded_levels(dev, m, sb, levels, order)
}

/// Runs Level-Set SpTRSV against an `order` array already resident on the
/// device — the session path, which uploads the analysis once and reuses it
/// across solves.
pub fn launch_with_uploaded_levels(
    dev: &mut GpuDevice,
    m: DeviceCsr,
    sb: SolveBuffers,
    levels: &LevelSets,
    order: BufU32,
) -> Result<LaunchStats, SimtError> {
    let ws = dev.config().warp_size;
    let mut total = LaunchStats::default();
    for lvl in 0..levels.n_levels() {
        let lo = levels.level_ptr()[lvl] as usize;
        let hi = levels.level_ptr()[lvl + 1] as usize;
        let count = hi - lo;
        if count == 0 {
            continue;
        }
        let kernel = LevelSolveKernel {
            m,
            b: sb.b,
            x: sb.x,
            order,
            level_lo: lo,
            count,
        };
        let stats = dev.launch(&kernel, warps_for(count, ws))?;
        total.accumulate(&stats);
    }
    Ok(total)
}

/// Convenience: upload, analyze levels on the host, solve, read back.
pub fn solve(
    dev: &mut GpuDevice,
    l: &LowerTriangularCsr,
    b: &[f64],
) -> Result<SimSolve, SimtError> {
    run_on_fresh_device(dev, l, b, |dev, m, sb| {
        launch_with_levels(dev, m, sb, &LevelSets::analyze(l))
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
    fn one_launch_per_level() {
        let l = capellini_sparse::gen::chain(50, 1, 2); // 50 levels
        let (_, b) = problem(&l);
        let mut dev = GpuDevice::new(DeviceConfig::pascal_like());
        let out = solve(&mut dev, &l, &b).unwrap();
        assert_eq!(out.stats.launches, 50);
        // Launch overhead accumulates per level: the synchronization cost.
        assert!(out.stats.cycles >= 50 * DeviceConfig::pascal_like().launch_overhead_cycles);
    }

    #[test]
    fn wide_single_level_is_one_launch() {
        let l = capellini_sparse::gen::diagonal(512);
        let (_, b) = problem(&l);
        let mut dev = GpuDevice::new(DeviceConfig::pascal_like());
        let out = solve(&mut dev, &l, &b).unwrap();
        assert_eq!(out.stats.launches, 1);
        check_against_reference(&l, &b, &out.x);
    }
}
