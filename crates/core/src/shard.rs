//! Sharded multi-device SpTRSV (DESIGN.md §15).
//!
//! [`solve_sharded`] partitions a triangular system across up to
//! [`MAX_DEVICES`](capellini_simt::multidev::MAX_DEVICES) simulated devices
//! by contiguous, nnz-balanced row blocks ([`RowPartition`]) and
//! co-simulates them exactly on a common t = 0 timeline. Because rows only
//! depend on earlier rows and cuts are warp-aligned, dependencies flow
//! strictly from lower shards to higher ones, so the coordinator runs the
//! devices in shard order:
//!
//! 1. each producer runs with a publication watch armed on its boundary
//!    buffers, capturing the tick at which every boundary `x` value /
//!    completion flag / atomic delta became DRAM-visible;
//! 2. each publication a downstream shard imports is pushed through the
//!    directed [`Link`] between the two devices (latency floor + bandwidth
//!    token bucket), yielding its arrival tick on the consumer;
//! 3. the consumer launches with the arrivals pre-scheduled as external
//!    events: each writes the consumer's device-local mirror word at its
//!    arrival tick and wakes any warp parked on it, so the single-device
//!    waiter/wake machinery works unchanged across device boundaries.
//!
//! Per-algorithm sharding (each preserves the exact per-row arithmetic of
//! the single-device kernel, so `x` is bit-identical for every CSR-ordered
//! kernel; the CSC scatter formulation reorders atomic adds and is compared
//! within tolerance instead):
//!
//! * thread-per-row kernels (Writing-First, Two-Phase, Naive) and
//!   warp-per-row kernels (SyncFree, cuSPARSE-like) run behind a
//!   `ShardView` that offsets global thread ids by the shard base and
//!   exits out-of-shard lanes at launch;
//! * Hybrid filters the *global* task plan down to the shard's rows (blocks
//!   never span warp-aligned cuts, so per-row granularity is preserved);
//! * Scheduled builds its schedule on a ghost-padded shard matrix
//!   ([`GhostShard`]), then strips the ghost rows back out of the unit
//!   lists; each import gets a fresh per-unit flag slot that the link event
//!   sets on arrival;
//! * Level-Set is host-mediated: producers finish before consumers start,
//!   so imported `x` values are written before the per-level launch loop
//!   and the link cost is folded into the makespan analytically (one
//!   exchange window per level);
//! * SyncFree-CSC forwards the boundary *scatter deltas* (`atomicAdd
//!   left_sum`, `atomicSub in_degree`) instead of finished values — deltas,
//!   not totals, so each consumer's accumulation order is preserved.
//!
//! When shards fail (an injected cross-device cycle), the coordinator keeps
//! running downstream shards — their missing boundary inputs surface the
//! stall there too — and merges everything into *one* structured
//! [`SimtError::Deadlock`] whose warp snapshots are device-tagged
//! ([`merge_deadlock`]).

use std::collections::BTreeMap;

use capellini_simt::{
    merge_deadlock, DeviceConfig, Effect, ExtEvent, ExtOp, GpuDevice, LaneMem, LaunchStats, Link,
    LinkConfig, Pc, SimtError, WarpKernel,
};
use capellini_sparse::{
    GhostShard, LevelSets, LowerTriangularCsr, RowPartition, Schedule, ScheduleParams,
};

use crate::buffers::{check_rhs_len, DeviceCsr, SolveBuffers};
use crate::kernels::cusparse_like::CusparseLikeKernel;
use crate::kernels::cusparse_like_multi::build_info;
use crate::kernels::hybrid::{self, HybridKernel, Task};
use crate::kernels::levelset::LevelSolveKernel;
use crate::kernels::naive::NaiveThreadKernel;
use crate::kernels::scheduled::{DeviceSchedule, ScheduledKernel};
use crate::kernels::syncfree::SyncFreeKernel;
use crate::kernels::syncfree_csc::{self, SyncFreeCscKernel};
use crate::kernels::two_phase::TwoPhaseKernel;
use crate::kernels::writing_first::{warps_for, WritingFirstKernel};
use crate::select::Algorithm;

/// Payload bytes per boundary message: the 8-byte value plus the row index
/// and a routing header (what a real peer-to-peer copy descriptor costs).
pub const MSG_BYTES: u64 = 16;

/// Sharding parameters: device count plus the inter-device link model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardConfig {
    /// Number of devices (1..=[`capellini_simt::multidev::MAX_DEVICES`]).
    pub devices: usize,
    /// Inter-device link parameters.
    pub link: LinkConfig,
}

impl ShardConfig {
    /// `devices` shards over a PCIe-class interconnect.
    pub fn pcie(devices: usize) -> Self {
        ShardConfig {
            devices,
            link: LinkConfig::pcie_like(),
        }
    }

    /// `devices` shards over an NVLink-class interconnect.
    pub fn nvlink(devices: usize) -> Self {
        ShardConfig {
            devices,
            link: LinkConfig::nvlink_like(),
        }
    }

    /// Rejects non-physical configurations.
    pub fn validate(&self) -> Result<(), SimtError> {
        if self.devices == 0 || self.devices > capellini_simt::multidev::MAX_DEVICES {
            return Err(SimtError::Config(format!(
                "device count must be 1..={}, got {}",
                capellini_simt::multidev::MAX_DEVICES,
                self.devices
            )));
        }
        self.link.validate()
    }
}

/// Outcome of a sharded solve: the assembled solution, per-device launch
/// statistics, and the link traffic the boundary exchange generated.
#[derive(Debug)]
pub struct ShardedReport {
    /// The algorithm that ran on every shard.
    pub algorithm: Algorithm,
    /// The row partition the solve used.
    pub partition: RowPartition,
    /// Assembled solution (each shard contributes its owned rows).
    pub x: Vec<f64>,
    /// Per-device accumulated launch statistics (zero for zero-row shards).
    pub per_device: Vec<LaunchStats>,
    /// End-to-end cycles: all devices start at t = 0, so this is the max
    /// per-device end cycle (Level-Set adds the per-level exchange windows).
    pub makespan_cycles: u64,
    /// Boundary messages moved over all links.
    pub link_messages: u64,
    /// Boundary payload bytes moved over all links.
    pub link_bytes: u64,
}

impl ShardedReport {
    /// Makespan in milliseconds under `config`'s clock.
    pub fn makespan_ms(&self, config: &DeviceConfig) -> f64 {
        LaunchStats {
            cycles: self.makespan_cycles,
            ..LaunchStats::default()
        }
        .time_ms(config)
    }
}

/// Restricts a global-id kernel to one shard's contiguous id range: thread
/// ids are offset by `base` (so lane state, warp grouping and shared-memory
/// layout match the unsharded launch exactly — `base` is always a multiple
/// of the warp size) and ids at or beyond `limit` exit at the first
/// instruction, exactly like the kernels' own `i >= n` tail check.
pub(crate) struct ShardView<K: WarpKernel> {
    inner: K,
    base: u32,
    limit: u32,
}

impl<K: WarpKernel> ShardView<K> {
    pub(crate) fn new(inner: K, base: u32, limit: u32) -> Self {
        ShardView { inner, base, limit }
    }
}

impl<K: WarpKernel> WarpKernel for ShardView<K> {
    type Lane = K::Lane;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn shared_per_warp(&self) -> usize {
        self.inner.shared_per_warp()
    }

    fn make_lane(&self, tid: u32) -> K::Lane {
        self.inner.make_lane(tid + self.base)
    }

    #[inline(always)]
    fn exec(&self, pc: Pc, lane: &mut K::Lane, tid: u32, mem: &mut LaneMem<'_>) -> Effect {
        let gtid = tid + self.base;
        if pc == 0 && gtid >= self.limit {
            return Effect::exit();
        }
        self.inner.exec(pc, lane, gtid, mem)
    }

    fn reconv(&self, pc: Pc) -> Pc {
        self.inner.reconv(pc)
    }

    fn branch_order(&self, pc: Pc, target: Pc) -> u8 {
        self.inner.branch_order(pc, target)
    }

    fn pc_name(&self, pc: Pc) -> &'static str {
        self.inner.pc_name(pc)
    }

    fn spin_pure(&self, pc: Pc) -> bool {
        self.inner.spin_pure(pc)
    }
}

/// The per-link state of one coordinator run, plus traffic totals.
struct Links {
    cfg: LinkConfig,
    tpc: u64,
    map: BTreeMap<(usize, usize), Link>,
}

impl Links {
    fn new(cfg: LinkConfig, tpc: u64) -> Self {
        Links {
            cfg,
            tpc,
            map: BTreeMap::new(),
        }
    }

    fn transfer(&mut self, producer: usize, consumer: usize, ready: u64) -> u64 {
        let cfg = self.cfg;
        let tpc = self.tpc;
        self.map
            .entry((producer, consumer))
            .or_insert_with(|| Link::new(&cfg, tpc))
            .transfer(ready, MSG_BYTES)
    }

    fn totals(&self) -> (u64, u64) {
        self.map
            .values()
            .fold((0, 0), |(m, b), l| (m + l.messages(), b + l.total_bytes()))
    }
}

/// Per-export-row publication: visibility tick on the producer's timeline
/// plus the published value.
type PubMap = BTreeMap<u32, (u64, f64)>;

/// Extracts, for every exported row, the tick at which *both* its `x` value
/// and its covering completion flag were DRAM-visible on the producer. The
/// flag index is algorithm-specific (`flag_of` maps a global row to it).
fn export_readiness(
    recs: &[ExtEvent],
    x_raw: u32,
    flags_raw: u32,
    exports: &[u32],
    row_of_x: impl Fn(u32) -> Option<u32>,
    flag_of: impl Fn(u32) -> u32,
) -> PubMap {
    let mut x_seen: BTreeMap<u32, (u64, f64)> = BTreeMap::new();
    let mut f_seen: BTreeMap<u32, u64> = BTreeMap::new();
    for r in recs {
        if r.buf == x_raw {
            if let ExtOp::StoreF64(v) = r.op {
                if let Some(row) = row_of_x(r.idx) {
                    let e = x_seen.entry(row).or_insert((0, v));
                    e.0 = e.0.max(r.tick);
                    e.1 = v;
                }
            }
        } else if r.buf == flags_raw {
            let e = f_seen.entry(r.idx).or_insert(0);
            *e = (*e).max(r.tick);
        }
    }
    let mut out = PubMap::new();
    for &row in exports {
        let &(tx, v) = x_seen
            .get(&row)
            .expect("every exported row publishes its x value");
        let tf = *f_seen
            .get(&flag_of(row))
            .expect("every exported row publishes a covering flag");
        out.insert(row, (tx.max(tf), v));
    }
    out
}

/// Turns a producer's readiness map into the consumer's external events:
/// one `x` store plus one flag store per imported row, both at the link
/// arrival tick (the value is applied before the flag that announces it).
#[allow(clippy::too_many_arguments)]
fn import_events(
    links: &mut Links,
    producer: usize,
    consumer: usize,
    pubs: &PubMap,
    rows: &[u32],
    x_raw: u32,
    flags_raw: u32,
    x_idx_of: impl Fn(u32) -> u32,
    flag_idx_of: impl Fn(u32) -> u32,
    events: &mut Vec<ExtEvent>,
) {
    let mut items: Vec<(u64, u32, f64)> = rows
        .iter()
        .map(|&r| {
            let &(ready, v) = pubs.get(&r).expect("producer published every export");
            (ready, r, v)
        })
        .collect();
    items.sort_unstable_by_key(|&(ready, r, _)| (ready, r));
    for (ready, r, v) in items {
        let arrival = links.transfer(producer, consumer, ready);
        events.push(ExtEvent {
            tick: arrival,
            buf: x_raw,
            idx: x_idx_of(r),
            op: ExtOp::StoreF64(v),
        });
        events.push(ExtEvent {
            tick: arrival,
            buf: flags_raw,
            idx: flag_idx_of(r),
            op: ExtOp::StoreFlag(true),
        });
    }
}

/// Runs `algorithm` sharded across `shard.devices` simulated devices.
///
/// The returned solution is bit-identical to the single-device
/// [`crate::solver::solve_simulated`] result for every CSR-ordered kernel
/// (all live algorithms except [`Algorithm::SyncFreeCsc`], whose atomic
/// scatter order legitimately differs across partitions).
pub fn solve_sharded(
    config: &DeviceConfig,
    l: &LowerTriangularCsr,
    b: &[f64],
    algorithm: Algorithm,
    shard: &ShardConfig,
) -> Result<ShardedReport, SimtError> {
    shard.validate()?;
    let part = RowPartition::build(l, shard.devices, config.warp_size);
    solve_sharded_with_partition(config, l, b, algorithm, shard, part)
}

/// [`solve_sharded`] against a prebuilt partition — the session path, which
/// caches partitions per device count and reuses them across solves. The
/// partition must have been built on `l` with the device's warp size.
///
/// A right-hand side of the wrong length is a recoverable
/// [`SimtError::Launch`], exactly as in [`crate::solver::solve_simulated`].
pub fn solve_sharded_with_partition(
    config: &DeviceConfig,
    l: &LowerTriangularCsr,
    b: &[f64],
    algorithm: Algorithm,
    shard: &ShardConfig,
    part: RowPartition,
) -> Result<ShardedReport, SimtError> {
    check_rhs_len(b, l.n())?;
    shard.validate()?;
    let tpc = config.schedulers_per_sm.max(1) as u64;
    let mut links = Links::new(shard.link, tpc);
    match algorithm {
        Algorithm::LevelSet => solve_levelset(config, l, b, &part, &mut links),
        Algorithm::SyncFreeCsc => solve_csc(config, l, b, &part, &mut links),
        Algorithm::Scheduled => solve_scheduled(config, l, b, &part, &mut links),
        _ => solve_row_kernels(config, l, b, algorithm, &part, &mut links),
    }
    .map(|(x, per_device, makespan_cycles)| {
        let (link_messages, link_bytes) = links.totals();
        ShardedReport {
            algorithm,
            partition: part,
            x,
            per_device,
            makespan_cycles,
            link_messages,
            link_bytes,
        }
    })
}

type ShardRun = (Vec<f64>, Vec<LaunchStats>, u64);

/// Collects a run's failures into one device-tagged error, or reports the
/// per-device outcome totals.
fn finish(
    failures: Vec<(usize, SimtError)>,
    x: Vec<f64>,
    per_device: Vec<LaunchStats>,
) -> Result<ShardRun, SimtError> {
    if failures.is_empty() {
        let makespan = per_device.iter().map(|s| s.cycles).max().unwrap_or(0);
        Ok((x, per_device, makespan))
    } else {
        Err(merge_deadlock(failures))
    }
}

/// Sharded driver for every kernel that indexes `x`/`flags` by global row:
/// the thread-per-row family, the warp-per-row family, and Hybrid.
fn solve_row_kernels(
    config: &DeviceConfig,
    l: &LowerTriangularCsr,
    b: &[f64],
    algorithm: Algorithm,
    part: &RowPartition,
    links: &mut Links,
) -> Result<ShardRun, SimtError> {
    let n = l.n();
    let ws = config.warp_size;
    let devices = part.devices();
    let mut x = vec![0.0f64; n];
    let mut per_device = vec![LaunchStats::default(); devices];
    let mut failures: Vec<(usize, SimtError)> = Vec::new();
    let mut pubs: Vec<PubMap> = vec![PubMap::new(); devices];

    for d in 0..devices {
        let (r0, r1) = part.range(d);
        if r1 == r0 {
            continue;
        }
        let mut dev = GpuDevice::new(config.clone());
        let m = DeviceCsr::upload(&mut dev, l);
        let sb = SolveBuffers::upload(&mut dev, b);
        let mut events: Vec<ExtEvent> = Vec::new();
        for (p, from) in pubs.iter().enumerate().take(d) {
            let rows = part.imports_from(d, p);
            if rows.is_empty() {
                continue;
            }
            if from.is_empty() {
                // The producer failed; launch without its inputs so the
                // stall surfaces here too and merges into one deadlock.
                continue;
            }
            import_events(
                links,
                p,
                d,
                from,
                rows,
                sb.x.raw(),
                sb.flags.raw(),
                |r| r,
                |r| r,
                &mut events,
            );
        }
        events.sort_by_key(|e| e.tick);
        dev.mem().set_watch(&[sb.x.raw(), sb.flags.raw()]);
        let res = match algorithm {
            Algorithm::CapelliniWritingFirst => dev.launch_with_events(
                &ShardView::new(WritingFirstKernel::new(m, sb), r0, r1),
                warps_for((r1 - r0) as usize, ws),
                &events,
            ),
            Algorithm::CapelliniTwoPhase => dev.launch_with_events(
                &ShardView::new(TwoPhaseKernel::new(m, sb, ws), r0, r1),
                warps_for((r1 - r0) as usize, ws),
                &events,
            ),
            Algorithm::NaiveThread => dev.launch_with_events(
                &ShardView::new(NaiveThreadKernel::new(m, sb), r0, r1),
                warps_for((r1 - r0) as usize, ws),
                &events,
            ),
            Algorithm::SyncFree => dev.launch_with_events(
                &ShardView::new(
                    SyncFreeKernel::new(m, sb, ws),
                    r0 * ws as u32,
                    r1 * ws as u32,
                ),
                (r1 - r0) as usize,
                &events,
            ),
            Algorithm::CusparseLike => {
                let info = build_info(&mut dev, m);
                dev.launch_with_events(
                    &ShardView::new(
                        CusparseLikeKernel::new(m, sb, info, ws),
                        r0 * ws as u32,
                        r1 * ws as u32,
                    ),
                    (r1 - r0) as usize,
                    &events,
                )
            }
            Algorithm::Hybrid => {
                let local: Vec<Task> = hybrid::plan_tasks(l, ws, hybrid::DEFAULT_THRESHOLD)
                    .into_iter()
                    .filter(|t| match *t {
                        Task::ThreadBlock { base } => base >= r0 && base < r1,
                        Task::WarpRow { row } => row >= r0 && row < r1,
                    })
                    .collect();
                let tasks = hybrid::upload_task_list(&mut dev, &local);
                dev.launch_with_events(&HybridKernel::new(m, sb, tasks, ws), local.len(), &events)
            }
            Algorithm::LevelSet | Algorithm::SyncFreeCsc | Algorithm::Scheduled => {
                unreachable!("handled by dedicated drivers")
            }
        };
        match res {
            Ok(stats) => {
                let recs = dev.mem().take_watch();
                pubs[d] = export_readiness(
                    &recs,
                    sb.x.raw(),
                    sb.flags.raw(),
                    part.exports(d),
                    Some,
                    |r| r,
                );
                let xs = dev.mem_ref().read_f64(sb.x);
                x[r0 as usize..r1 as usize].copy_from_slice(&xs[r0 as usize..r1 as usize]);
                per_device[d] = stats;
            }
            Err(e) => failures.push((d, e)),
        }
    }
    finish(failures, x, per_device)
}

/// Sharded Scheduled driver: each shard gets a ghost-padded matrix, builds
/// its own schedule on it, then strips the ghost rows back out of the unit
/// lists so no warp recomputes an import. Every import gets a fresh flag
/// slot after the real units; the link event stores `x` then sets it.
fn solve_scheduled(
    config: &DeviceConfig,
    l: &LowerTriangularCsr,
    b: &[f64],
    part: &RowPartition,
    links: &mut Links,
) -> Result<ShardRun, SimtError> {
    let ws = config.warp_size;
    let devices = part.devices();
    let mut x = vec![0.0f64; l.n()];
    let mut per_device = vec![LaunchStats::default(); devices];
    let mut failures: Vec<(usize, SimtError)> = Vec::new();
    let mut pubs: Vec<PubMap> = vec![PubMap::new(); devices];

    for d in 0..devices {
        let (r0, r1) = part.range(d);
        if r1 == r0 {
            continue;
        }
        let gs = GhostShard::build(l, part, d);
        let n_ghost = gs.n_ghost;
        let glt = LowerTriangularCsr::try_new(gs.matrix.clone())
            .expect("ghost padding preserves lower-triangularity");
        let glevels = LevelSets::analyze(&glt);
        let sched = Schedule::build(&glt, &glevels, ScheduleParams::for_warp(ws));

        // Strip ghost rows out of the unit row lists, drop units left
        // empty, and renumber compactly. Unit kinds survive verbatim (the
        // kernel's dependent-parallel stride is re-derived at run time from
        // the staged rows, so a shorter unit stays well-formed); a ghost
        // dependency simply becomes a cross-unit poll of its fresh slot.
        let old_desc = sched.encode_desc();
        let rows_arr = sched.rows();
        let mut units: Vec<(u32, Vec<u32>)> = Vec::new();
        for u in 0..sched.n_units() {
            let start = (old_desc[u] >> 2) as usize;
            let end = (old_desc[u + 1] >> 2) as usize;
            let kind = old_desc[u] & 3;
            let kept: Vec<u32> = rows_arr[start..end]
                .iter()
                .copied()
                .filter(|&r| (r as usize) >= n_ghost)
                .collect();
            if !kept.is_empty() {
                units.push((kind, kept));
            }
        }
        let n_units = units.len();
        let n_pad = glt.n();
        let mut new_rows: Vec<u32> = Vec::with_capacity(n_pad - n_ghost);
        let mut new_desc: Vec<u32> = Vec::with_capacity(n_units + 1);
        let mut unit_of = vec![0u32; n_pad];
        for (uid, (kind, kept)) in units.iter().enumerate() {
            new_desc.push(((new_rows.len() as u32) << 2) | kind);
            for &r in kept {
                unit_of[r as usize] = uid as u32;
                new_rows.push(r);
            }
        }
        new_desc.push((new_rows.len() as u32) << 2);
        for (g, slot) in unit_of.iter_mut().enumerate().take(n_ghost) {
            *slot = (n_units + g) as u32;
        }

        let mut dev = GpuDevice::new(config.clone());
        let m = DeviceCsr::upload(&mut dev, &glt);
        let mut b_pad = vec![0.0f64; n_pad];
        b_pad[n_ghost..].copy_from_slice(&b[r0 as usize..r1 as usize]);
        let sb = SolveBuffers::upload(&mut dev, &b_pad);
        let ds = DeviceSchedule {
            rows: dev.mem().alloc_u32(&new_rows),
            desc: dev.mem().alloc_u32(&new_desc),
            unit_of: dev.mem().alloc_u32(&unit_of),
            n_units,
        };

        let ghosts = gs.global_of[..n_ghost].to_vec();
        let local_of = |r: u32| -> u32 {
            ghosts
                .binary_search(&r)
                .expect("every import is a ghost row") as u32
        };
        let mut events: Vec<ExtEvent> = Vec::new();
        for (p, from) in pubs.iter().enumerate().take(d) {
            let rows = part.imports_from(d, p);
            if rows.is_empty() || from.is_empty() {
                continue;
            }
            import_events(
                links,
                p,
                d,
                from,
                rows,
                sb.x.raw(),
                sb.flags.raw(),
                local_of,
                |r| n_units as u32 + local_of(r),
                &mut events,
            );
        }
        events.sort_by_key(|e| e.tick);
        dev.mem().set_watch(&[sb.x.raw(), sb.flags.raw()]);
        match dev.launch_with_events(&ScheduledKernel::new(m, sb, ds, ws), n_units, &events) {
            Ok(stats) => {
                let recs = dev.mem().take_watch();
                pubs[d] = export_readiness(
                    &recs,
                    sb.x.raw(),
                    sb.flags.raw(),
                    part.exports(d),
                    |idx| {
                        // Padded x index → global row (owned rows only).
                        ((idx as usize) >= n_ghost).then(|| r0 + (idx - n_ghost as u32))
                    },
                    |r| unit_of[n_ghost + (r - r0) as usize],
                );
                let xs = dev.mem_ref().read_f64(sb.x);
                x[r0 as usize..r1 as usize].copy_from_slice(&xs[n_ghost..n_pad]);
                per_device[d] = stats;
            }
            Err(e) => failures.push((d, e)),
        }
    }
    finish(failures, x, per_device)
}

/// Sharded Level-Set driver. Levels are global launch barriers, so the
/// exchange is host-mediated: producers fully precede consumers in the
/// shard order, imported `x` values are written before the consumer's
/// launch loop, and the link cost is folded into the makespan as one
/// exchange window per level (max per-device level time, then every
/// boundary row of that level crosses its link before the next level).
fn solve_levelset(
    config: &DeviceConfig,
    l: &LowerTriangularCsr,
    b: &[f64],
    part: &RowPartition,
    links: &mut Links,
) -> Result<ShardRun, SimtError> {
    let n = l.n();
    let ws = config.warp_size;
    let tpc = config.schedulers_per_sm.max(1) as u64;
    let devices = part.devices();
    let levels = LevelSets::analyze(l);
    let n_levels = levels.n_levels();
    let mut x = vec![0.0f64; n];
    let mut per_device = vec![LaunchStats::default(); devices];
    let mut failures: Vec<(usize, SimtError)> = Vec::new();
    // Per-level, per-device launch cycles for the makespan model.
    let mut lvl_cycles = vec![vec![0u64; devices]; n_levels];

    for d in 0..devices {
        let (r0, r1) = part.range(d);
        if r1 == r0 {
            continue;
        }
        let mut dev = GpuDevice::new(config.clone());
        let m = DeviceCsr::upload(&mut dev, l);
        let sb = SolveBuffers::upload(&mut dev, b);

        // Host-side boundary exchange: producers already finished.
        let imports = part.imports(d);
        if !imports.is_empty() {
            let mut xs = vec![0.0f64; n];
            for &r in &imports {
                xs[r as usize] = x[r as usize];
            }
            dev.mem().write_f64(sb.x, &xs);
        }

        // Filtered order: this shard's rows, in global level order.
        let mut local_order: Vec<u32> = Vec::with_capacity((r1 - r0) as usize);
        let mut local_ptr: Vec<usize> = Vec::with_capacity(n_levels + 1);
        local_ptr.push(0);
        for lvl in 0..n_levels {
            local_order.extend(
                levels
                    .rows_in_level(lvl)
                    .iter()
                    .copied()
                    .filter(|&r| r >= r0 && r < r1),
            );
            local_ptr.push(local_order.len());
        }
        let order = dev.mem().alloc_u32(&local_order);

        let mut total = LaunchStats::default();
        let mut err = None;
        for lvl in 0..n_levels {
            let lo = local_ptr[lvl];
            let count = local_ptr[lvl + 1] - lo;
            if count == 0 {
                continue;
            }
            let kernel = LevelSolveKernel::new(m, sb.b, sb.x, order, lo, count);
            match dev.launch(&kernel, warps_for(count, ws)) {
                Ok(stats) => {
                    lvl_cycles[lvl][d] = stats.cycles;
                    total.accumulate(&stats);
                }
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        match err {
            None => {
                let xs = dev.mem_ref().read_f64(sb.x);
                x[r0 as usize..r1 as usize].copy_from_slice(&xs[r0 as usize..r1 as usize]);
                per_device[d] = total;
            }
            Some(e) => failures.push((d, e)),
        }
    }

    if !failures.is_empty() {
        return Err(merge_deadlock(failures));
    }

    // Makespan: per level, every device runs its slice concurrently, then
    // the level's boundary rows cross their links before the next level.
    let mut clock_ticks = 0u64;
    for (lvl, per_dev) in lvl_cycles.iter().enumerate().take(n_levels) {
        let step = per_dev.iter().copied().max().unwrap_or(0) * tpc;
        let end = clock_ticks + step;
        let mut next = end;
        for c in 0..devices {
            for p in 0..c {
                for &r in part.imports_from(c, p) {
                    if levels.level_of(r as usize) as usize == lvl {
                        next = next.max(links.transfer(p, c, end));
                    }
                }
            }
        }
        clock_ticks = next;
    }
    let makespan = clock_ticks.div_ceil(tpc);
    Ok((x, per_device, makespan))
}

/// A producer-side CSC scatter delta destined for a downstream shard.
#[derive(Debug, Clone, Copy)]
struct CscDelta {
    tick: u64,
    row: u32,
    to_left_sum: bool,
    op: ExtOp,
}

/// Sharded SyncFree-CSC driver: warp-per-*column* behind a [`ShardView`].
/// Consumers never read a producer's `x`; the boundary traffic is the
/// scatter deltas themselves (`atomicAdd left_sum` / `atomicSub
/// in_degree`), replayed on the owner's mirrors in publication order. Each
/// link preserves order, and a row's in-degree only reaches zero after
/// every link has delivered its add-before-sub pair, so the consumer's
/// division sees the complete left sum.
fn solve_csc(
    config: &DeviceConfig,
    l: &LowerTriangularCsr,
    b: &[f64],
    part: &RowPartition,
    links: &mut Links,
) -> Result<ShardRun, SimtError> {
    let n = l.n();
    let ws = config.warp_size;
    let devices = part.devices();
    let csc = l.csr().to_csc();
    let deg = syncfree_csc::in_degrees(&csc);
    let mut x = vec![0.0f64; n];
    let mut per_device = vec![LaunchStats::default(); devices];
    let mut failures: Vec<(usize, SimtError)> = Vec::new();
    // deltas[p]: boundary scatters captured on producer p, in tick order.
    let mut deltas: Vec<Vec<CscDelta>> = vec![Vec::new(); devices];

    for d in 0..devices {
        let (r0, r1) = part.range(d);
        if r1 == r0 {
            continue;
        }
        let mut dev = GpuDevice::new(config.clone());
        let dc = syncfree_csc::upload_csc(&mut dev, &csc, &deg);
        let b_buf = dev.mem().alloc_f64(b);
        let x_buf = dev.mem().alloc_f64_zeroed(n);

        let mut events: Vec<ExtEvent> = Vec::new();
        for (p, from) in deltas.iter().enumerate().take(d) {
            for delta in from.iter().filter(|dl| part.owner_of(dl.row) == d) {
                let arrival = links.transfer(p, d, delta.tick);
                events.push(ExtEvent {
                    tick: arrival,
                    buf: if delta.to_left_sum {
                        dc.left_sum.raw()
                    } else {
                        dc.in_degree.raw()
                    },
                    idx: delta.row,
                    op: delta.op,
                });
            }
        }
        events.sort_by_key(|e| e.tick);
        dev.mem()
            .set_watch(&[dc.left_sum.raw(), dc.in_degree.raw()]);
        let kernel = ShardView::new(
            SyncFreeCscKernel::new(dc, b_buf, x_buf, ws),
            r0 * ws as u32,
            r1 * ws as u32,
        );
        match dev.launch_with_events(&kernel, (r1 - r0) as usize, &events) {
            Ok(stats) => {
                let mut recs = dev.mem().take_watch();
                recs.sort_by_key(|r| r.tick);
                deltas[d] = recs
                    .into_iter()
                    .filter(|r| part.owner_of(r.idx) > d)
                    .map(|r| CscDelta {
                        tick: r.tick,
                        row: r.idx,
                        to_left_sum: r.buf == dc.left_sum.raw(),
                        op: r.op,
                    })
                    .collect();
                let xs = dev.mem_ref().read_f64(x_buf);
                x[r0 as usize..r1 as usize].copy_from_slice(&xs[r0 as usize..r1 as usize]);
                per_device[d] = stats;
            }
            Err(e) => failures.push((d, e)),
        }
    }
    finish(failures, x, per_device)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::solve_simulated;

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    fn sharded_matches_unsharded(algorithm: Algorithm, devices: usize) {
        let config = DeviceConfig::pascal_like();
        let l = capellini_sparse::gen::random_k(600, 6, 90, 17);
        let b: Vec<f64> = (0..l.n()).map(|i| 1.0 + (i % 7) as f64).collect();
        let single = solve_simulated(&config, &l, &b, algorithm).expect("unsharded solve");
        let report = solve_sharded(&config, &l, &b, algorithm, &ShardConfig::pcie(devices))
            .expect("sharded solve");
        assert_eq!(
            bits(&report.x),
            bits(&single.x),
            "{algorithm:?} must be bit-identical across {devices} devices"
        );
    }

    #[test]
    fn writing_first_sharded_is_bit_identical() {
        sharded_matches_unsharded(Algorithm::CapelliniWritingFirst, 3);
    }

    #[test]
    fn scheduled_sharded_is_bit_identical() {
        sharded_matches_unsharded(Algorithm::Scheduled, 3);
    }

    #[test]
    fn levelset_sharded_is_bit_identical() {
        sharded_matches_unsharded(Algorithm::LevelSet, 4);
    }

    #[test]
    fn csc_sharded_matches_within_tolerance() {
        let config = DeviceConfig::pascal_like();
        let l = capellini_sparse::gen::random_k(400, 5, 60, 9);
        let b: Vec<f64> = (0..l.n()).map(|i| 0.5 + (i % 5) as f64).collect();
        let single = solve_simulated(&config, &l, &b, Algorithm::SyncFreeCsc).expect("unsharded");
        let report = solve_sharded(
            &config,
            &l,
            &b,
            Algorithm::SyncFreeCsc,
            &ShardConfig::nvlink(3),
        )
        .expect("sharded");
        for (i, (&a, &c)) in report.x.iter().zip(single.x.iter()).enumerate() {
            assert!(
                (a - c).abs() <= 1e-10 * c.abs().max(1.0),
                "row {i}: sharded {a} vs single {c}"
            );
        }
    }

    #[test]
    fn sharding_generates_link_traffic() {
        let config = DeviceConfig::pascal_like();
        let l = capellini_sparse::gen::chain(256, 1, 3);
        let b = vec![1.0f64; l.n()];
        let report = solve_sharded(
            &config,
            &l,
            &b,
            Algorithm::CapelliniWritingFirst,
            &ShardConfig::pcie(2),
        )
        .expect("sharded solve");
        assert!(report.link_messages >= 1, "a chain crosses every cut");
        assert_eq!(report.link_bytes, report.link_messages * MSG_BYTES);
        assert!(report.makespan_cycles > 0);
    }

    #[test]
    fn shard_config_rejects_bad_device_counts() {
        assert!(ShardConfig::pcie(0).validate().is_err());
        assert!(ShardConfig::pcie(9).validate().is_err());
        assert!(ShardConfig::pcie(8).validate().is_ok());
    }
}
