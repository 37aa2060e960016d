//! The execution engine: an event-driven, cycle-accounted SIMT simulator.
//!
//! Model summary (see DESIGN.md §2):
//!
//! * Warps are the scheduling unit. Each SM issues at most
//!   `schedulers_per_sm` warp instructions per cycle (implemented by
//!   counting time in *ticks* of `1/schedulers` cycles and letting each SM
//!   issue one instruction per tick).
//! * A warp executes its active lane group in lock-step; divergent branches
//!   are serialized on a reconvergence stack with kernel-declared
//!   reconvergence points and branch order (pre-Volta semantics).
//! * Memory: per-warp accesses are coalesced into 32-byte sectors; the
//!   first touch of a sector pays DRAM latency and occupies the DRAM
//!   bandwidth queue, later touches are L2 hits. Stores are fire-and-forget.
//! * Warps block in-order on their own memory results; latency is hidden
//!   across warps by the scheduler, bounded by the resident-warp limit.
//! * A launch fails with [`SimtError::Deadlock`] if no store and no lane
//!   retirement happens for `deadlock_window` cycles — which is exactly how
//!   the naive thread-level busy-wait of §3.3 dies.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::config::{DeviceConfig, MemoryModel, ProfileMode, SpinModel, StoreScope};
use crate::error::{SimtError, WarpSnapshot};
use crate::kernel::{Pc, WarpKernel, PC_EXIT};
use crate::mem::{
    AccessKind, CacheHit, DeviceMemory, ExtEvent, LaneMem, RawAccess, SpinRec, SECTOR_BYTES,
};
use crate::metrics::{sat_add, EngineCounters, LaunchStats};
use crate::profile::{Profile, Profiler, StallReason};
use crate::trace::{Trace, TraceEvent};

/// A simulated GPU: a configuration plus device memory that persists across
/// launches (so multi-kernel algorithms keep their data resident).
pub struct GpuDevice {
    config: DeviceConfig,
    mem: DeviceMemory,
    /// Pooled per-warp allocations reused across launches. Level-set-style
    /// algorithms issue thousands of small launches per solve; recycling the
    /// stack/shared vectors keeps those launches allocation-free.
    warp_scratch: Vec<WarpScratch>,
    /// The most recent launch's state. It stays on the device, failed
    /// launches included, so the next launch reuses every allocation.
    launch: Launch,
    /// Profiles collected by launches run with profiling armed (see
    /// [`ProfileMode`]), in launch order. Drained by
    /// [`GpuDevice::take_profiles`].
    profiles: Vec<Profile>,
    /// Grid-reuse: cached initial-residency assignments keyed by warp
    /// count. See the fill in [`GpuDevice::launch_inner`].
    grid_cache: Vec<GridPlan>,
    /// Number of launches that reused a cached grid plan (see
    /// [`GpuDevice::grid_reuses`]).
    grid_reuses: u64,
}

/// Bound on cached grid plans per device. Level-set solves launch one grid
/// per level, so distinct warp counts can pile up; FIFO eviction past this
/// cap keeps the cache a few kilobytes at most.
const GRID_CACHE_CAP: usize = 32;

/// A cached initial-residency assignment: for a grid of `n_warps` warps,
/// `sms[w]` is the SM the round-robin fill assigns warp `w` (covering only
/// the initially resident prefix — later warps are placed dynamically as
/// residents retire, which depends on runtime timing and is not cached).
struct GridPlan {
    n_warps: usize,
    sms: Vec<u32>,
}

impl GridPlan {
    /// The round-robin fill: SMs take one warp each in turn until the grid
    /// or every SM's residency is exhausted, so warp `w` lands on SM
    /// `w % sm_count`.
    fn round_robin(n_warps: usize, sm_count: usize, max_resident: usize) -> Self {
        let resident = n_warps.min(sm_count * max_resident);
        let sms = (0..resident).map(|w| (w % sm_count) as u32).collect();
        GridPlan { n_warps, sms }
    }
}

/// A device's latencies and hang bounds in scheduler ticks: each SM issues
/// one warp instruction per tick, and a cycle is `schedulers_per_sm` ticks.
#[derive(Clone, Copy, Default)]
struct Ticks {
    per_cycle: u64,
    dram: u64,
    l2: u64,
    /// L1 hit latency of the finite-cache model. 0 disables cache probing
    /// entirely (the legacy first-touch path is then the only accounting,
    /// bit-exact with pre-cache builds).
    l1: u64,
    shared: u64,
    alu: u64,
    store: u64,
    fence: u64,
    /// DRAM occupancy per 32-byte sector (the bandwidth model).
    sector_service: f64,
    /// The deadlock window.
    deadlock: u64,
    /// The cycle budget.
    max: u64,
}

impl Ticks {
    fn new(cfg: &DeviceConfig) -> Self {
        let tpc = cfg.schedulers_per_sm.max(1) as u64;
        Ticks {
            per_cycle: tpc,
            dram: cfg.dram_latency * tpc,
            l2: cfg.l2_latency * tpc,
            l1: cfg.cache.map_or(0, |c| c.l1_latency.max(1) * tpc),
            shared: cfg.shared_latency * tpc,
            alu: (cfg.alu_latency * tpc).max(1),
            store: (cfg.store_latency * tpc).max(1),
            fence: (cfg.fence_latency * tpc).max(1),
            sector_service: SECTOR_BYTES as f64 / cfg.bytes_per_cycle() * tpc as f64,
            deadlock: cfg.deadlock_window * tpc,
            max: cfg.max_cycles.saturating_mul(tpc),
        }
    }

    /// The hang an issue at tick `t` would be, given the last progress
    /// tick and the deadlock window `dl` in force; the budget is checked
    /// first.
    fn hang_at(&self, t: u64, last_progress: u64, dl: u64) -> Option<Hang> {
        if t > self.max {
            Some(Hang::Timeout)
        } else if t.saturating_sub(last_progress) > dl {
            Some(Hang::Deadlock {
                cycle: t / self.per_cycle,
            })
        } else {
            None
        }
    }

    /// The first tick at which an issue is a hang (see [`Ticks::hang_at`]).
    fn hang_limit(&self, last_progress: u64, dl: u64) -> u64 {
        self.max
            .saturating_add(1)
            .min(last_progress.saturating_add(dl).saturating_add(1))
    }
}

/// Why a launch stopped before its warps finished.
enum Hang {
    /// The cycle budget ran out.
    Timeout,
    /// Nothing stored or retired a lane for the deadlock window, or the
    /// schedule emptied with warps still parked; detected at `cycle`.
    Deadlock { cycle: u64 },
}

/// The scheduler: one issue arbiter per SM the grid occupies, under a
/// tournament tree (DESIGN.md §6). Each SM keeps a min-heap of its warps'
/// timed events (issue-ready ticks, newly resident warps and wake kicks)
/// and a waiting set of the warps that found its issue slot taken, each
/// keyed `(sm_next_free[sm], warp)`: the key a busy re-key in one global
/// heap would reach, one pop at a time. An SM's key is the least of its
/// heap top and its lowest waiting warp, and the tree yields the least SM
/// key, so events come out earliest first, same-tick ones in warp-id
/// order. A warp's sequence number marks its one valid timed entry;
/// superseded entries (re-kicked warps) stay in their heap and are skipped
/// when selected.
///
/// Keys are packed into one `u128` (see [`pack`]), so comparing two costs
/// no branch.
#[derive(Default)]
struct Queue {
    /// Per SM: its warps' timed events, `pack(tick, warp, seq)`. Only the
    /// first [`Queue::sms`] are in use; the rest keep their allocations for
    /// wider grids.
    timed: Vec<BinaryHeap<Reverse<u128>>>,
    /// Per SM: its waiting warps, in descending warp-id order, so the
    /// lowest (the next to issue) is last.
    waiting: Vec<Vec<u32>>,
    seq: Vec<u32>,
    /// Min tree over the SM keys `pack(tick, warp, sm)`: SM `s` is leaf
    /// `sms + s`, node `i` holds the least of nodes `2i` and `2i + 1`, and
    /// node 1 is the root. An SM with no event holds [`NO_EVENT`].
    tree: Vec<u128>,
}

/// The key of an SM with neither a timed event nor a waiting warp.
const NO_EVENT: u128 = u128::MAX;

/// An event key: ordered by tick, then warp, then `low` (a timed entry's
/// sequence number, or the SM in the tree).
#[inline]
fn pack(tick: u64, warp: u32, low: u32) -> u128 {
    (tick as u128) << 64 | (warp as u128) << 32 | low as u128
}

/// The `(tick, warp, low)` of a key.
#[inline]
fn unpack(key: u128) -> (u64, u32, u32) {
    ((key >> 64) as u64, (key >> 32) as u32, key as u32)
}

/// Where the selected event came from.
enum Selected {
    /// A timed event that was superseded after it was pushed.
    Superseded,
    /// The warp's live timed event, now popped.
    Timed,
    /// The SM's lowest waiting warp, which keeps its place until it issues.
    Waiting,
}

impl Queue {
    /// Starts a launch of `n_warps` warps over `sms` SMs of `resident`
    /// warp slots each, keeping every allocation. Only the SMs the last
    /// launch occupied can hold entries: Level-Set runs thousands of
    /// one-warp launches, and clearing every SM's queue at each of them
    /// took a warm cant-like solve from 16.3 to 18.2 ms.
    fn reset(&mut self, sms: usize, resident: usize, n_warps: usize) {
        let used = self.sms();
        self.timed[..used].iter_mut().for_each(BinaryHeap::clear);
        self.waiting[..used].iter_mut().for_each(Vec::clear);
        if self.timed.len() < sms {
            self.timed
                .resize_with(sms, || BinaryHeap::with_capacity(resident));
            self.waiting
                .resize_with(sms, || Vec::with_capacity(resident));
        }
        self.seq.clear();
        self.seq.resize(n_warps, 0);
        self.tree.clear();
        self.tree.resize(2 * sms, NO_EVENT);
    }

    /// SMs the grid occupies: warps fill SMs round-robin, and a pending
    /// warp takes the SM of the warp that retired.
    fn sms(&self) -> usize {
        self.tree.len() / 2
    }

    /// Schedules `warp` on SM `sm` at `tick`, superseding its pending
    /// entry. The caller refreshes the SM's key.
    #[inline]
    fn push(&mut self, sm: usize, tick: u64, warp: u32) {
        let s = &mut self.seq[warp as usize];
        *s = s.wrapping_add(1);
        self.timed[sm].push(Reverse(pack(tick, warp, *s)));
    }

    /// Puts `warp` in SM `sm`'s waiting set. The caller refreshes the key.
    fn wait(&mut self, sm: usize, warp: u32) {
        let w = &mut self.waiting[sm];
        let pos = w.partition_point(|&x| x > warp);
        w.insert(pos, warp);
    }

    /// SM `sm`'s key, given its issue cursor `free`.
    #[inline]
    fn key(&self, sm: usize, free: u64) -> u128 {
        let timed = self.timed[sm]
            .peek()
            .map_or(NO_EVENT, |&Reverse(k)| k >> 32 << 32 | sm as u128);
        match self.waiting[sm].last() {
            Some(&w) => timed.min(pack(free, w, sm as u32)),
            None => timed,
        }
    }

    /// Recomputes SM `sm`'s key after its events or its issue cursor
    /// `free` changed, and the tree path above it.
    #[inline]
    fn refresh(&mut self, sm: usize, free: u64) {
        let mut i = self.sms() + sm;
        let key = self.key(sm, free);
        if self.tree[i] == key {
            return;
        }
        self.tree[i] = key;
        while i > 1 {
            i /= 2;
            self.tree[i] = self.tree[2 * i].min(self.tree[2 * i + 1]);
        }
    }

    /// The least event `(tick, warp, sm)`, if any.
    #[inline]
    fn first(&self) -> Option<(u64, u32, usize)> {
        let root = self.tree[1];
        (root != NO_EVENT).then(|| {
            let (t, w, sm) = unpack(root);
            (t, w, sm as usize)
        })
    }

    /// Takes the event [`Queue::first`] returned. At an equal key a
    /// superseded timed entry goes first; it is skipped anyway.
    #[inline]
    fn select(&mut self, sm: usize, t: u64, warp: u32) -> Selected {
        match self.timed[sm].peek() {
            Some(&Reverse(k)) if k >> 32 == pack(t, warp, 0) >> 32 => {
                self.timed[sm].pop();
                if k as u32 == self.seq[warp as usize] {
                    Selected::Timed
                } else {
                    Selected::Superseded
                }
            }
            _ => Selected::Waiting,
        }
    }
}

/// A launch's kernel-independent state. It lives on the device between
/// launches, so every allocation is reused; [`Launch::reset`] starts a
/// launch. The kernel-typed warps stay local to [`GpuDevice::launch_inner`].
#[derive(Default)]
struct Launch {
    // Fixed for the launch.
    ticks: Ticks,
    /// The configured cycle budget (reported by a timeout).
    max_cycles: u64,
    warp_size: usize,
    /// Spin fast-forwarding is on: `SpinModel::FastForward`, untraced.
    ff_on: bool,
    relaxed_on: bool,
    /// Relaxed model with per-SM store buffers (else per warp).
    sm_scope: bool,
    racecheck: bool,
    /// No profiler wants per-instruction events, so parked warps advance
    /// in closed form.
    batch_ok: bool,

    // Scheduling.
    queue: Queue,
    /// Host-work counters (see [`GpuDevice::last_launch_counters`]).
    counters: EngineCounters,
    /// Resident warps per SM.
    resident: Vec<usize>,
    /// Per SM: the first tick its issue slot is free...
    sm_next_free: Vec<u64>,
    /// ...and the tick of its last issue (stall gaps are measured from it).
    sm_last_issue: Vec<u64>,

    // Accounting.
    stats: LaunchStats,
    /// Armed only under [`ProfileMode::Sampled`]: every hook is a skipped
    /// `if let` otherwise, keeping the default path byte-identical.
    prof: Option<Profiler>,
    /// Tick at which the DRAM bandwidth queue drains.
    dram_busy: f64,
    /// Last tick at which a warp stored or retired a lane, or a link event
    /// landed (the deadlock window runs from here).
    last_progress: u64,
    /// Latest completion tick of anything issued.
    end_tick: u64,

    // Spin fast-forwarding (see `SpinFf`).
    spin: Vec<SpinState>,
    n_parked: usize,
    /// Per-SM min-heap of `(next_tick, warp)` keys for parked warps, so
    /// `ff_advance` selects its next virtual visit in O(log parked) instead
    /// of rescanning the SM's parked list. Keys go stale when a warp
    /// advances or unparks; since `next_tick` is strictly increasing per
    /// warp, a key is live iff it equals the warp's current projection, and
    /// stale keys are lazily dropped on peek.
    sm_visit: Vec<BinaryHeap<Reverse<(u64, u32)>>>,
    /// Per-SM ready row: parked warps whose visit fell at or below the SM
    /// issue cursor, sorted by warp id (the replay heap's same-tick tie
    /// order). They issue as soon as a slot frees; keeping them out of the
    /// visit heap displaces the crowd once instead of re-sorting it on
    /// every slot the cursor advances past.
    sm_ready: Vec<Vec<u32>>,
    /// Per-SM parked crowds and their plans (see [`Crowd`]).
    crowds: Vec<Crowd>,
    /// Retired spin boxes, reused by the next capture. The boxes are the
    /// point: a `SpinState` holds one, so reusing it saves the allocation.
    #[allow(clippy::vec_box)]
    spare: Vec<Box<SpinFf>>,
    wakes: Vec<(u32, u64, u32)>,

    // Per-instruction scratch.
    accesses: Vec<RawAccess>,
    targets: Vec<(u32, Pc)>,
    groups: Vec<(Pc, u64)>,
    spin_rec: SpinRec,
}

/// The kernel-independent allocations of a retired warp, kept for reuse by
/// later launches (the lane vector is typed per kernel and is recycled
/// within a launch instead).
#[derive(Default)]
struct WarpScratch {
    stack: Vec<StackEntry>,
    shared: Vec<f64>,
}

/// One reconvergence-stack entry. Deliberately 16 bytes: warp stacks are the
/// hottest per-warp state, and divergent solves push/pop them constantly.
#[derive(Clone, Copy)]
struct StackEntry {
    pc: Pc,
    reconv: Pc,
    mask: u64,
}

const _: () = assert!(std::mem::size_of::<StackEntry>() == 16);

struct WarpRt<L> {
    sm: usize,
    lanes: Vec<L>,
    alive: u64,
    stack: Vec<StackEntry>,
    shared: Vec<f64>,
}

impl<L> WarpRt<L> {
    /// A warp on a retired warp's allocations; [`WarpRt::reset`] makes it
    /// runnable.
    fn from_scratch(WarpScratch { stack, shared }: WarpScratch) -> Self {
        WarpRt {
            sm: 0,
            lanes: Vec::new(),
            alive: 0,
            stack,
            shared,
        }
    }

    /// Makes this warp a fresh warp `wid` of `kernel` on `sm`, keeping its
    /// allocations: every lane alive at pc 0, zeroed shared memory, newly
    /// made lanes. A fresh warp and a recycled one are indistinguishable,
    /// so pooling never changes a simulated result.
    fn reset<K: WarpKernel<Lane = L>>(&mut self, kernel: &K, wid: usize, sm: usize, ws: usize) {
        let full_mask = if ws == 64 { u64::MAX } else { (1u64 << ws) - 1 };
        self.sm = sm;
        self.alive = full_mask;
        self.stack.clear();
        self.stack.push(StackEntry {
            pc: 0,
            reconv: PC_EXIT,
            mask: full_mask,
        });
        self.shared.clear();
        self.shared.resize(kernel.shared_per_warp(), 0.0);
        self.lanes.clear();
        self.lanes
            .extend((0..ws).map(|l| kernel.make_lane((wid * ws + l) as u32)));
    }

    fn done(&self) -> bool {
        self.stack.is_empty() || self.alive == 0
    }
}

/// Retires `mask` lanes: removes them from every stack entry.
fn retire(stack: &mut [StackEntry], alive: &mut u64, mask: u64) -> u32 {
    let newly = (*alive & mask).count_ones();
    *alive &= !mask;
    for e in stack.iter_mut() {
        e.mask &= !mask;
    }
    newly
}

/// Restores the stack invariants: drop empty entries, retire lanes parked at
/// `PC_EXIT`, and merge entries that have reached their reconvergence point.
fn normalize(stack: &mut Vec<StackEntry>, alive: &mut u64, retired: &mut u64) {
    while let Some(top) = stack.last() {
        if top.mask == 0 {
            stack.pop();
        } else if top.pc == PC_EXIT {
            let m = top.mask;
            *retired += retire(stack, alive, m) as u64;
        } else if stack.len() > 1 && top.pc == top.reconv {
            stack.pop();
        } else {
            break;
        }
    }
}

struct StepOutcome {
    /// The issued instruction's pc and active mask.
    pc: Pc,
    mask: u64,
    cost_ticks: u64,
    stored: bool,
    retired: u64,
    /// Profiling: what the issue slot was spent on (always computed — a
    /// couple of flag tests — but only read when profiling is armed).
    issue: StallReason,
    /// Profiling: what blocks the warp until `t + cost_ticks`.
    wait: StallReason,
    /// Flops performed by this instruction (already added to the stats;
    /// echoed here so spin capture can replay them).
    flops: u64,
    /// L2 sector hits this instruction contributed.
    l2_hits: u32,
    /// Spin capture: the step was uniform, straight-line (the
    /// `top.pc = first_target` fast path) and side-effect free with all
    /// memory traffic hitting L2 and no stale read under the relaxed model
    /// — repeating it against unchanged memory reproduces identical
    /// accounting.
    pure: bool,
}

/// Warps included in a hang diagnostic (keep errors readable on big grids).
const MAX_SNAPSHOT_WARPS: usize = 8;

/// Captures where the live warps currently are, for hang diagnostics. A
/// parked warp reports its anchor-poll pc and the words it is parked on.
fn snapshot_warps<L>(warps: &[Option<WarpRt<L>>], spin: &[SpinState]) -> Vec<WarpSnapshot> {
    warps
        .iter()
        .enumerate()
        .filter_map(|(i, w)| {
            w.as_ref().map(|w| {
                let top = w.stack.last();
                let (pc, active_mask, waiting_on) = match spin.get(i) {
                    Some(SpinState::Parked(p)) => (p.anchor_pc, p.mask, p.watch.clone()),
                    _ => (
                        top.map_or(PC_EXIT, |e| e.pc),
                        top.map_or(0, |e| e.mask),
                        Vec::new(),
                    ),
                };
                WarpSnapshot {
                    device: 0,
                    warp: i as u32,
                    sm: w.sm,
                    pc,
                    active_mask,
                    waiting_on,
                }
            })
        })
        .take(MAX_SNAPSHOT_WARPS)
        .collect()
}
// --- Spin fast-forwarding (wake-on-write) --------------------------------
//
// Under `SpinModel::FastForward`, in an untraced launch, a warp caught in
// a *pure* busy-wait loop (kernel-declared via `WarpKernel::spin_pure`,
// engine-verified per iteration) is parked: it leaves the scheduler heap
// and its would-be poll iterations are reconstructed arithmetically — same
// instructions, issue slots, stalls, L2 hits, and profiler attribution the
// replayed loop would have produced, at O(1) cost per *wake* instead of per
// iteration. Stores, atomics, fences, and store-buffer drains to watched
// words queue wakes keyed by the scheduler slot `(tick, min_warp)` at which
// the write has executed; the parked warp re-polls at its first anchor
// visit at or after that key. Waking early is safe (the poll fails and the
// warp re-parks); waking late cannot happen, which is what keeps the model
// exact.

/// Longest pure spin-loop body (in warp instructions, anchor poll
/// included) the capture tracks; longer loops simply replay.
const MAX_SIG: usize = 16;

/// One instruction of a captured spin iteration: exactly the accounting
/// the replayed step would generate.
#[derive(Clone, Copy)]
struct SigStep {
    pc: Pc,
    cost: u64,
    l2_hits: u32,
    flops: u64,
    poll_fails: u32,
    issue: StallReason,
    wait: StallReason,
}

/// A captured (or capture-in-progress) pure spin loop of one warp. Boxes
/// are recycled through [`Launch::spare`], so a warm solve parks without
/// allocating.
#[derive(Default)]
struct SpinFf {
    sm: usize,
    anchor_pc: Pc,
    mask: u64,
    /// Active lanes (popcount of `mask`).
    lanes: u64,
    /// The loop in execution order; `sig[0]` is the anchor poll.
    sig: Vec<SigStep>,
    /// Ticks per whole iteration (sum of `sig` costs).
    period: u64,
    /// Global words whose writes must wake this warp: the polled words
    /// plus every word the loop body reads.
    watch: Vec<(u32, u32)>,
    /// Virtual cursor: next `sig` index to issue...
    idx: usize,
    /// ...and the earliest tick it can issue at (pre-displacement). For a
    /// warp on its SM's ready row this value is allowed to go stale below
    /// the SM cursor; for a member of its SM's crowd plan it is the cursor
    /// at which the warp joined the plan. Readers must use [`cursor`].
    next_tick: u64,
    /// Tick of the earliest scheduled wake kick, if one is in the heap.
    kick: Option<u64>,
}

/// Parked warp `wid`'s virtual cursor `(idx, tick)`: computed from its
/// SM's crowd plan when there is one, else its stored cursor, where a warp
/// on the SM's ready `row` is gated by the SM issue cursor `free`
/// (= `sm_next_free[p.sm]`), which its stored tick may trail. Projections
/// (wake kicks, unparking) must use this, never raw `next_tick`, or a kick
/// can land in the scheduler's past.
#[inline]
fn cursor(p: &SpinFf, wid: u32, crowd: &Crowd, row: &[u32], free: u64) -> (usize, u64) {
    if crowd.active() {
        crowd.cursor_of(wid)
    } else if row.binary_search(&wid).is_ok() {
        (p.idx, p.next_tick.max(free))
    } else {
        (p.idx, p.next_tick)
    }
}

impl SpinFf {
    /// Starts a capture at an all-lanes-failed pure poll, in this box's
    /// allocations.
    fn start(&mut self, sm: usize, pc: Pc, mask: u64, out: &StepOutcome, polled: &[(u32, u32)]) {
        self.sm = sm;
        self.anchor_pc = pc;
        self.mask = mask;
        self.lanes = mask.count_ones() as u64;
        self.sig.clear();
        self.sig.push(SigStep {
            pc,
            cost: out.cost_ticks,
            l2_hits: out.l2_hits,
            flops: out.flops,
            poll_fails: polled.len() as u32,
            issue: out.issue,
            wait: out.wait,
        });
        self.period = 0;
        self.watch.clear();
        for &wd in polled {
            if !self.watch.contains(&wd) {
                self.watch.push(wd);
            }
        }
        self.idx = 0;
        self.next_tick = 0;
        self.kick = None;
    }
}

/// Consecutive all-lanes-failed anchor visits required before a capture
/// starts. Capturing is pure overhead for the short spins that dominate
/// shallow DAGs — most polls there succeed within a couple of iterations,
/// long before the warp could park. Arming costs long spins
/// `ARM_VISITS - 1` extra replayed iterations, which is noise against the
/// thousands they skip.
const ARM_VISITS: u8 = 3;

/// Per-warp spin fast-forward state.
enum SpinState {
    /// Not in a recognized spin loop.
    Idle,
    /// Counting consecutive all-lanes-failed visits to one anchor poll;
    /// holds no box until the streak reaches [`ARM_VISITS`].
    Arming { anchor_pc: Pc, mask: u64, fails: u8 },
    /// An all-lanes-failed pure poll was seen; recording one iteration.
    Capturing(Box<SpinFf>),
    /// Off the heap; iterations are reconstructed virtually.
    Parked(Box<SpinFf>),
    /// A wake kick rewound the warp to its anchor poll; the next real step
    /// re-polls and either proceeds or re-captures.
    Waking(Box<SpinFf>),
}

/// Issue tick of the parked warp's next anchor-poll visit at or after the
/// scheduler key `(tick, min_warp)` — the first poll that can observe a
/// write which executes at that key. `(idx, next_tick)` is the warp's
/// [`cursor`]. Future displacement can only push the poll later; the
/// conversion path re-kicks in that case.
fn poll_at_or_after(
    p: &SpinFf,
    (idx, next_tick): (usize, u64),
    tick: u64,
    min_warp: u32,
    wid: u32,
) -> u64 {
    let base = if idx == 0 {
        next_tick
    } else {
        let suffix: u64 = p.sig[idx..].iter().map(|s| s.cost).sum();
        next_tick + suffix
    };
    let mut u = if base >= tick {
        base
    } else {
        base + (tick - base).div_ceil(p.period) * p.period
    };
    if u == tick && wid < min_warp {
        // Within one tick the heap runs lower warp ids first, so the write
        // would land after this poll: wait one more iteration.
        u += p.period;
    }
    u
}

/// One slot of a crowd plan: signature step `idx` of parked warp `wid`,
/// issuing `off` ticks after the plan's period base and completing at
/// `end`, with that step's accounting.
#[derive(Clone, Copy)]
struct PlanSlot {
    off: u64,
    end: u64,
    flops: u64,
    wid: u32,
    idx: u32,
    lanes: u32,
    l2_hits: u32,
    poll_fails: u32,
}

/// One SM's parked warps and, when they qualify, their persistent crowd
/// plan: every parked warp of the SM, spinning with one shared period on
/// pairwise-disjoint slots (DESIGN.md §9). Below the next real scheduler
/// key such a crowd is displacement-free, so an advance walks the plan's
/// calendar with arithmetic only, and a member's cursor is computed from
/// the plan only when something reads it.
#[derive(Default)]
struct Crowd {
    /// The SM's parked warps.
    parked: Vec<u32>,
    period: u64,
    /// One period of slots, sorted by `off` (distinct, below `period`);
    /// empty when the SM has no plan.
    cal: Vec<PlanSlot>,
    /// Threads, flops, L2 hits and failed polls of one period.
    totals: [u64; 4],
    /// Cursor: the next slot is `cal[at]`, at tick `base + cal[at].off`;
    /// slots before `at` come one period later.
    at: usize,
    base: u64,
    /// Without a plan: the crowd was displaced (a dissolve, or an attempt
    /// that failed on a pending displacement or a shared slot), so it is
    /// tried again when its ready row drains, once `visits` has reached
    /// [`RETRY_VISITS`] per parked warp. Unequal periods clear it until the
    /// parked set changes.
    retry: bool,
    /// Per-visit virtual issues since the last attempt.
    visits: usize,
}

impl Crowd {
    fn active(&self) -> bool {
        !self.cal.is_empty()
    }

    /// Tick of slot `i` as seen from the cursor.
    fn tick(&self, i: usize) -> u64 {
        self.base + self.cal[i].off + if i < self.at { self.period } else { 0 }
    }

    /// Tick of the next slot, if the SM has a plan.
    fn next_tick(&self) -> Option<u64> {
        self.cal.get(self.at).map(|sl| self.base + sl.off)
    }

    /// Member `wid`'s cursor: its first slot at or after the plan cursor.
    fn cursor_of(&self, wid: u32) -> (usize, u64) {
        (self.at..self.cal.len())
            .chain(0..self.at)
            .find(|&i| self.cal[i].wid == wid)
            .map(|i| (self.cal[i].idx as usize, self.tick(i)))
            .expect("plan member has a slot")
    }

    /// Adds the threads, flops, L2 hits and failed polls of `slots` to
    /// `sums`, and returns their latest completion offset.
    fn account(slots: &[PlanSlot], sums: &mut [u64; 4]) -> u64 {
        let mut end = 0;
        for sl in slots {
            sums[0] += sl.lanes as u64;
            sums[1] += sl.flops;
            sums[2] += sl.l2_hits as u64;
            sums[3] += sl.poll_fails as u64;
            end = end.max(sl.end);
        }
        end
    }

    /// Latest completion offset over `slots`.
    fn end_max(slots: &[PlanSlot]) -> u64 {
        slots.iter().map(|sl| sl.end).max().unwrap_or(0)
    }

    /// Re-expresses the calendar from tick `free` (the SM issue cursor,
    /// past every walked slot and at or before the next): it is rotated to
    /// start at the cursor.
    fn rebase(&mut self, free: u64) {
        for i in 0..self.cal.len() {
            let t = self.tick(i) - free;
            let sl = &mut self.cal[i];
            (sl.end, sl.off) = (sl.end - sl.off + t, t);
        }
        self.cal.rotate_left(self.at);
        self.at = 0;
        self.base = free;
    }

    /// Recomputes `totals` after the calendar changed.
    fn sum(&mut self) {
        self.totals = [0; 4];
        Crowd::account(&self.cal, &mut self.totals);
    }
}

/// Per-visit virtual issues per parked warp a displaced crowd makes before
/// it is tried for a plan again. Replay displaces colliding slots apart, so
/// a displaced crowd heals into one that qualifies; but where real issues
/// keep landing on its slots, most attempts fail, and each costs a pass
/// over the crowd and a sort. Waiting for this much per-visit work bounds
/// that cost by the work a plan would save. Measured on warm solves: 2 and
/// 8 gave chain-like SyncFree 9.7 and 11.8 ms, nlpkkt160-like cuSPARSE-like
/// 55.2 and 54.3 ms; 4 gave 10.3 and 52.8 ms (retrying at every drain:
/// nlpkkt160-like 82 ms; never: chain-like 92 ms).
const RETRY_VISITS: usize = 4;

/// Unparked resident warps above which an SM builds no crowd plan: their
/// real issues land on planned slots, so such a plan mostly dissolves
/// before it walks (wiki-Talk-like SyncFree built 1,453 plans and dissolved
/// 1,433 for 39,808 walked issues). Deep DAGs leave few warps unparked:
/// paper-deep's ops build the same plans as with no limit. Measured on warm
/// `pascal_like()`
/// solves of paper-shallow's 16 ops, sum of per-op best times over two
/// rounds: no limit 530.5 and 551.6 ms; 2: 501.9 and 538.3 ms; 1, 4 and 8
/// (second round only): 539.4, 564.1 and 539.0 ms.
const PLAN_MAX_UNPARKED: usize = 2;

/// Parked warp `wid`'s plan slots for one period from its stored cursor,
/// as offsets from a plan base `free`. The caller checked that the cursor
/// is at or past `free`; the warp's last issue is before `free`, so every
/// slot lands within one period.
fn plan_slots(p: &SpinFf, wid: u32, free: u64) -> impl Iterator<Item = PlanSlot> + '_ {
    let len = p.sig.len();
    let mut u = p.next_tick;
    (0..len).map(move |j| {
        let i = (p.idx + j) % len;
        let st = &p.sig[i];
        let off = u - free;
        debug_assert!(off < p.period, "slot beyond one period");
        u += st.cost;
        PlanSlot {
            off,
            end: off + st.cost,
            flops: st.flops,
            wid,
            idx: i as u32,
            lanes: p.lanes as u32,
            l2_hits: st.l2_hits,
            poll_fails: st.poll_fails,
        }
    })
}

/// Adds `n` reconstructed warp instructions (`threads` thread instructions
/// in all) with their flops, L2 hits and failed polls to `stats`.
fn add_virtual(stats: &mut LaunchStats, n: u64, threads: u64, flops: u64, l2: u64, polls: u64) {
    sat_add(&mut stats.issue_ticks, n);
    sat_add(&mut stats.warp_instructions, n);
    sat_add(&mut stats.thread_instructions, threads);
    sat_add(&mut stats.flops, flops);
    sat_add(&mut stats.l2_hits, l2);
    sat_add(&mut stats.failed_polls, polls);
}

impl Launch {
    /// Starts a launch of `n_warps` warps of the kernel named `kernel` on a
    /// device configured by `cfg`: every field takes its launch-start value
    /// and every allocation is kept. A `traced` launch replays every spin
    /// poll, whatever the spin model, so its events are Replay's by
    /// construction.
    fn reset(&mut self, cfg: &DeviceConfig, kernel: &'static str, n_warps: usize, traced: bool) {
        let sm_count = cfg.sm_count;
        self.ticks = Ticks::new(cfg);
        self.max_cycles = cfg.max_cycles;
        self.warp_size = cfg.warp_size;
        self.ff_on = cfg.spin_model == SpinModel::FastForward && !traced;
        (self.relaxed_on, self.sm_scope, self.racecheck) = match cfg.memory_model {
            MemoryModel::SequentiallyConsistent => (false, false, false),
            MemoryModel::Relaxed {
                scope, racecheck, ..
            } => (true, scope == StoreScope::Sm, racecheck),
        };
        self.prof = match cfg.profile {
            ProfileMode::Off => None,
            ProfileMode::Sampled { interval_cycles } => Some(Profiler::new(
                kernel,
                sm_count,
                n_warps,
                interval_cycles,
                self.ticks.per_cycle,
            )),
        };
        self.batch_ok = self.prof.is_none();

        self.queue
            .reset(sm_count.min(n_warps), cfg.max_warps_per_sm, n_warps);
        self.counters = EngineCounters::default();
        self.resident.clear();
        self.resident.resize(sm_count, 0);
        self.sm_next_free.clear();
        self.sm_next_free.resize(sm_count, 0);
        self.sm_last_issue.clear();
        self.sm_last_issue.resize(sm_count, 0);

        self.stats = LaunchStats {
            warps_launched: n_warps as u64,
            launches: 1,
            ..Default::default()
        };
        self.dram_busy = 0.0;
        self.last_progress = 0;
        self.end_tick = 0;

        // Spin boxes outlive their launch, up to one per warp slot.
        for st in self.spin.drain(..) {
            if let SpinState::Capturing(b) | SpinState::Parked(b) | SpinState::Waking(b) = st {
                self.spare.push(b);
            }
        }
        self.spare.truncate(sm_count * cfg.max_warps_per_sm);
        self.n_parked = 0;
        self.sm_visit.iter_mut().for_each(BinaryHeap::clear);
        self.sm_ready.iter_mut().for_each(Vec::clear);
        self.crowds.iter_mut().for_each(|cr| {
            cr.parked.clear();
            cr.cal.clear();
            cr.retry = false;
        });
        if self.ff_on {
            self.spin.resize_with(n_warps, || SpinState::Idle);
            self.sm_visit.resize_with(sm_count, BinaryHeap::new);
            self.sm_ready.resize(sm_count, Vec::new());
            self.crowds.resize_with(sm_count, Crowd::default);
        }
        self.spin_rec.reads.clear();
        self.spin_rec.record_reads = false;
    }

    /// The error for a hang of the kernel named `kernel`, with a snapshot
    /// of where its live `warps` are.
    fn hang_error<L>(
        &self,
        kernel: &'static str,
        warps: &[Option<WarpRt<L>>],
        hang: Hang,
    ) -> SimtError {
        let live_warps = warps.iter().filter(|w| w.is_some()).count();
        let last_progress_cycle = self.last_progress / self.ticks.per_cycle;
        let warps = snapshot_warps(warps, &self.spin);
        match hang {
            Hang::Timeout => SimtError::Timeout {
                kernel,
                max_cycles: self.max_cycles,
                live_warps,
                last_progress_cycle,
                warps,
            },
            Hang::Deadlock { cycle } => SimtError::Deadlock {
                kernel,
                cycle,
                live_warps,
                last_progress_cycle,
                warps,
            },
        }
    }

    /// Walks SM `s`'s crowd plan over every slot below the scheduler key
    /// `bound`: whole periods by multiplication, then the rest of one
    /// period, counted by binary search and summed in one pass. A slot at
    /// the bound's tick issues first when its warp id is lower, as the heap
    /// orders same-tick events. Below `bound` the SM is the crowd's alone
    /// and no slot is contested,
    /// so every visit lands on its slot and the stall gaps of the merged
    /// issues telescope: for issues at `u_1 < … < u_n` after an issue at
    /// `L`, they sum to `(u_n − L) − n`. The first slot at or past
    /// `hang_limit` is the hang, at the tick replay reports it; `dl` is the
    /// deadlock window in force.
    fn walk_plan(
        &mut self,
        s: usize,
        bound: (u64, u32),
        hang_limit: u64,
        dl: u64,
    ) -> Result<(), Hang> {
        let cr = &mut self.crowds[s];
        let (bt, bw) = bound;
        let lim = bt.min(hang_limit);
        let (n, period, at) = (cr.cal.len(), cr.period, cr.at);
        let (mut walked, mut sums, mut end, mut u_last) = (0u64, [0u64; 4], 0u64, 0u64);
        // Whole periods from the cursor: the j-th ends at `l0 + j * period`.
        let l0 = cr.tick((at + n - 1) % n);
        if lim > l0 {
            let k = (lim - 1 - l0) / period + 1;
            walked = k * n as u64;
            sums = cr.totals.map(|v| v * k);
            let wrapped = match at {
                0 => 0,
                _ => period + Crowd::end_max(&cr.cal[..at]),
            };
            end = cr.base + (k - 1) * period + Crowd::end_max(&cr.cal[at..]).max(wrapped);
            u_last = l0 + (k - 1) * period;
            cr.base += k * period;
        }
        // The rest: slots below `lim`, plus the bound's tick if it is ours.
        let mut c = match lim.checked_sub(cr.base) {
            Some(room) => cr.cal[at..].partition_point(|sl| sl.off < room),
            None => 0,
        };
        if at + c == n {
            if let Some(room) = lim.checked_sub(cr.base + period) {
                c += cr.cal[..at].partition_point(|sl| sl.off < room);
            }
        }
        if c < n {
            let (u, w) = (cr.tick((at + c) % n), cr.cal[(at + c) % n].wid);
            if u == bt && u < hang_limit && w < bw {
                c += 1;
            }
        }
        if c > 0 {
            u_last = cr.tick((at + c - 1) % n);
            let (a, b) = ((at + c).min(n), (at + c).saturating_sub(n));
            end = end.max(cr.base + Crowd::account(&cr.cal[at..a], &mut sums));
            if b > 0 {
                end = end.max(cr.base + period + Crowd::account(&cr.cal[..b], &mut sums));
            }
        }
        if at + c >= n {
            cr.base += period;
        }
        cr.at = (at + c) % n;
        walked += c as u64;
        if walked > 0 {
            let [threads, flops, l2, polls] = sums;
            add_virtual(&mut self.stats, walked, threads, flops, l2, polls);
            self.counters.virtual_crowd += walked;
            self.stats.stall_ticks = self
                .stats
                .stall_ticks
                .saturating_add((u_last - self.sm_last_issue[s]).saturating_sub(walked));
            self.sm_last_issue[s] = u_last;
            self.sm_next_free[s] = u_last + 1;
            self.end_tick = self.end_tick.max(end);
        }
        let next = (cr.base + cr.cal[cr.at].off, cr.cal[cr.at].wid);
        if next < bound {
            return Err(self
                .ticks
                .hang_at(next.0, self.last_progress, dl)
                .expect("an unwalked slot below the bound is past a hang limit"));
        }
        Ok(())
    }

    /// Tries to plan SM `s`'s parked crowd from its per-visit state (see
    /// [`Crowd::retry`] for when). It qualifies when the ready row is empty,
    /// at most [`PLAN_MAX_UNPARKED`] resident warps are unparked, and every
    /// parked warp spins with one shared period, its cursor at or past the
    /// SM cursor, on slots no other warp uses.
    fn try_plan(&mut self, s: usize) {
        let (cr, free) = (&mut self.crowds[s], self.sm_next_free[s]);
        cr.cal.clear();
        (cr.retry, cr.visits) = (self.batch_ok, 0);
        let unparked = self.resident[s] - cr.parked.len();
        if !self.batch_ok || !self.sm_ready[s].is_empty() || unparked > PLAN_MAX_UNPARKED {
            return;
        }
        for (i, &wid) in cr.parked.iter().enumerate() {
            let SpinState::Parked(p) = &self.spin[wid as usize] else {
                unreachable!("listed warp is parked");
            };
            if i == 0 {
                cr.period = p.period;
            }
            if p.period != cr.period || p.next_tick < free {
                cr.retry = p.period == cr.period;
                cr.cal.clear();
                return;
            }
            cr.cal.extend(plan_slots(p, wid, free));
        }
        cr.cal.sort_unstable_by_key(|sl| sl.off);
        if cr.cal.windows(2).any(|w| w[0].off == w[1].off) {
            // Replay resolves a shared slot by displacing the higher warp.
            cr.cal.clear();
            return;
        }
        if cr.active() {
            cr.sum();
            (cr.at, cr.base) = (0, free);
            self.sm_visit[s].clear();
            self.counters.plans_built += 1;
            #[cfg(debug_assertions)]
            self.check_sm(s);
        }
    }

    /// Dissolves SM `s`'s plan back into per-visit state: every member's
    /// cursor is written from the plan and re-enters the visit heap, and
    /// the displaced crowd is due a retry.
    fn dissolve(&mut self, s: usize) {
        let (cr, spin) = (&mut self.crowds[s], &mut self.spin);
        // Backwards from the cursor, each member's last write is its first
        // slot at or after it.
        for i in (cr.at..cr.cal.len()).chain(0..cr.at).rev() {
            let SpinState::Parked(p) = &mut spin[cr.cal[i].wid as usize] else {
                unreachable!("plan member is parked");
            };
            (p.idx, p.next_tick) = (cr.cal[i].idx as usize, cr.tick(i));
        }
        for &wid in &cr.parked {
            let SpinState::Parked(p) = &spin[wid as usize] else {
                unreachable!("listed warp is parked");
            };
            self.sm_visit[s].push(Reverse((p.next_tick, wid)));
        }
        cr.cal.clear();
        (cr.retry, cr.visits) = (true, 0);
        self.counters.plans_dissolved += 1;
        #[cfg(debug_assertions)]
        self.check_sm(s);
    }

    /// Warp `wid` has just parked on SM `s`: it joins the SM's plan when its
    /// period matches and its slots are free, and otherwise the crowd goes
    /// per-visit.
    fn crowd_joined(&mut self, s: usize, wid: u32) {
        let SpinState::Parked(p) = &self.spin[wid as usize] else {
            unreachable!("joining warp is parked");
        };
        let (cr, free) = (&mut self.crowds[s], self.sm_next_free[s]);
        if !cr.active() {
            self.sm_visit[s].push(Reverse((p.next_tick, wid)));
            self.try_plan(s);
            return;
        }
        cr.rebase(free);
        // It issued its anchor poll at `free - 1`, so its cursor is at or
        // past `free`.
        let fits = p.period == cr.period
            && plan_slots(p, wid, free).all(|sl| {
                let pos = cr.cal.partition_point(|x| x.off < sl.off);
                let vacant = cr.cal.get(pos).is_none_or(|x| x.off != sl.off);
                if vacant {
                    cr.cal.insert(pos, sl);
                }
                vacant
            });
        if fits {
            cr.sum();
            #[cfg(debug_assertions)]
            self.check_sm(s);
        } else {
            let period = p.period == cr.period;
            self.dissolve(s);
            self.crowds[s].retry = period;
        }
    }

    /// Warp `wid` has just unparked from SM `s`: it leaves the SM's plan,
    /// or the per-visit crowd it leaves behind is tried for one.
    fn crowd_left(&mut self, s: usize, wid: u32) {
        let cr = &mut self.crowds[s];
        if !cr.active() {
            self.try_plan(s);
            return;
        }
        cr.rebase(self.sm_next_free[s]);
        cr.cal.retain(|sl| sl.wid != wid);
        cr.sum();
        #[cfg(debug_assertions)]
        self.check_sm(s);
    }

    /// Advances SM `s`'s parked warps' virtual execution up to (excluding)
    /// the scheduler key `bound`, reproducing exactly the accounting their
    /// replayed spin iterations would have generated. One SM at a time is
    /// exact: an untraced launch observes no global order, and every
    /// reconstructed quantity commutes across SMs. An SM with a crowd plan
    /// walks it; otherwise its parked warps are visited one by one. `dl` is
    /// the deadlock window in force; a virtual issue past a hang threshold
    /// is the hang.
    fn ff_advance<K: WarpKernel>(
        &mut self,
        kernel: &K,
        s: usize,
        bound: (u64, u32),
        dl: u64,
    ) -> Result<(), Hang> {
        loop {
            if self.crowds[s].active() {
                let hang_limit = self.ticks.hang_limit(self.last_progress, dl);
                return self.walk_plan(s, bound, hang_limit, dl);
            }
            if !self.ff_visits(kernel, s, bound, dl)? {
                return Ok(());
            }
            self.try_plan(s);
        }
    }

    /// The per-visit path of [`Launch::ff_advance`] on SM `s`: one virtual
    /// instruction per visit, in `(tick, warp)` order, mirroring the real
    /// issue path. Returns true when the SM's crowd is due a retry.
    fn ff_visits<K: WarpKernel>(
        &mut self,
        kernel: &K,
        s: usize,
        bound: (u64, u32),
        dl: u64,
    ) -> Result<bool, Hang> {
        let (spin, heap, row) = (
            &mut self.spin[..],
            &mut self.sm_visit[s],
            &mut self.sm_ready[s],
        );
        loop {
            // Visit keys due at or below the SM issue cursor move onto the
            // ready row, where the crowd issues in warp-id order — the order
            // the replay heap produces for same-tick displaced entries —
            // without being re-keyed every slot the cursor advances past. A
            // key is live iff the warp is still parked and the key matches
            // its current projection (`next_tick` is strictly increasing per
            // warp, so every superseded key compares stale).
            let free = self.sm_next_free[s];
            while let Some(&Reverse((tk, w))) = heap.peek() {
                if !matches!(&spin[w as usize], SpinState::Parked(p) if p.next_tick == tk) {
                    heap.pop();
                    continue;
                }
                if tk > free {
                    break;
                }
                heap.pop();
                if let Err(pos) = row.binary_search(&w) {
                    row.insert(pos, w);
                    self.counters.ready_inserts += 1;
                }
            }
            // A ready-row warp issues at the cursor; every remaining visit
            // key is strictly later, so the row front (lowest warp id) wins
            // whenever the row is non-empty. A pick consumes its row entry
            // or key — the issue below pushes the successor key.
            let (u0, wid, drained) = if let Some(&w0) = row.first() {
                if (free, w0) >= bound {
                    return Ok(false);
                }
                row.remove(0);
                (free, w0, row.is_empty())
            } else if let Some(&Reverse((tk0, w0))) = heap.peek() {
                if (tk0, w0) >= bound {
                    return Ok(false);
                }
                heap.pop();
                (tk0, w0, false)
            } else {
                return Ok(false);
            };
            // Hang thresholds, checked at the issue tick like the real loop.
            if let Some(hang) = self.ticks.hang_at(u0, self.last_progress, dl) {
                return Err(hang);
            }
            let SpinState::Parked(p) = &mut spin[wid as usize] else {
                unreachable!("candidate is parked");
            };
            self.counters.virtual_single += 1;
            let st = p.sig[p.idx];
            let gap = u0.saturating_sub(self.sm_last_issue[s]).saturating_sub(1);
            self.stats.stall_ticks = self.stats.stall_ticks.saturating_add(gap);
            self.sm_last_issue[s] = u0;
            self.sm_next_free[s] = u0 + 1;
            add_virtual(
                &mut self.stats,
                1,
                p.lanes,
                st.flops,
                st.l2_hits as u64,
                st.poll_fails as u64,
            );
            let t_done = u0 + st.cost;
            self.end_tick = self.end_tick.max(t_done);
            if let Some(pr) = self.prof.as_mut() {
                pr.on_issue(
                    s,
                    u0,
                    gap,
                    wid as usize,
                    st.pc,
                    kernel.pc_name(st.pc),
                    st.issue,
                    st.wait,
                    t_done,
                );
            }
            p.idx = (p.idx + 1) % p.sig.len();
            p.next_tick = t_done;
            heap.push(Reverse((t_done, wid)));
            let cr = &mut self.crowds[s];
            cr.visits += 1;
            if drained && cr.retry && cr.visits >= RETRY_VISITS * cr.parked.len() {
                return Ok(true);
            }
        }
    }

    /// Delivers the wakes queued in `mem` (by stores, atomics, fences,
    /// drains or link events) to parked warps, as of scheduler key `bound`:
    /// each woken warp gets a kick at its first anchor poll that can
    /// observe the write. `dl` is the deadlock window in force.
    // Runs after every issued instruction; kept inline in the scheduler
    // loop, where it measured faster on spin-heavy solves.
    #[inline(always)]
    fn deliver_wakes<K: WarpKernel>(
        &mut self,
        kernel: &K,
        mem: &mut DeviceMemory,
        bound: (u64, u32),
        dl: u64,
    ) -> Result<(), Hang> {
        if self.n_parked == 0 {
            return Ok(());
        }
        mem.take_spin_wakes(&mut self.wakes);
        for i in 0..self.wakes.len() {
            let (wid, tick, min_warp) = self.wakes[i];
            let SpinState::Parked(p) = &self.spin[wid as usize] else {
                continue;
            };
            let sm = p.sm;
            // The target warp's SM may be lazily behind this event (parked
            // warps advance one SM per pop), in which case the anchor-visit
            // projection below would miss displacement already decided: a
            // lattice visit just before the write can really issue
            // at-or-after it. Bring the SM up to this event first — every
            // visit the advance consumes precedes the write in schedule
            // order, so it fails in replay too.
            self.ff_advance(kernel, sm, bound, dl)?;
            if let SpinState::Parked(p) = &mut self.spin[wid as usize] {
                let (cr, row) = (&self.crowds[sm], &self.sm_ready[sm]);
                let cur = cursor(p, wid, cr, row, self.sm_next_free[sm]);
                let kt = poll_at_or_after(p, cur, tick, min_warp, wid);
                if p.kick.is_none_or(|old| kt < old) {
                    p.kick = Some(kt);
                    self.queue.push(sm, kt, wid);
                }
            }
            // The advance may have moved the SM's cursor, and with it the
            // key of its waiting warps.
            self.queue.refresh(sm, self.sm_next_free[sm]);
        }
        Ok(())
    }

    /// A popped event of parked warp `wid` is its wake kick. If the warp's
    /// virtual cursor sits exactly on its anchor poll at `t`, it unparks
    /// and the anchor pc is returned: the caller rewinds the warp there and
    /// runs the poll for real (registers at the anchor are
    /// iteration-invariant for a pure loop). Otherwise displacement (or a
    /// later projection) moved the anchor past this kick, and the warp is
    /// re-kicked there.
    fn take_kick(&mut self, wid: u32, t: u64) -> Option<Pc> {
        let slot = &mut self.spin[wid as usize];
        let SpinState::Parked(p) = slot else {
            unreachable!("kicked warp is parked")
        };
        let sm = p.sm;
        let row = &mut self.sm_ready[sm];
        let cur = cursor(p, wid, &self.crowds[sm], row, self.sm_next_free[sm]);
        if cur == (0, t) {
            let anchor = p.anchor_pc;
            if let Ok(pos) = row.binary_search(&wid) {
                row.remove(pos);
            }
            p.kick = None;
            let SpinState::Parked(p) = std::mem::replace(slot, SpinState::Idle) else {
                unreachable!("kicked warp is parked")
            };
            *slot = SpinState::Waking(p);
            self.crowds[sm].parked.retain(|&x| x != wid);
            self.n_parked -= 1;
            self.crowd_left(sm, wid);
            Some(anchor)
        } else {
            let kt = poll_at_or_after(p, cur, 0, 0, wid);
            p.kick = Some(kt);
            self.queue.push(sm, kt, wid);
            self.counters.rekicks += 1;
            None
        }
    }

    /// The spin capture state machine, fed warp `wid`'s instruction just
    /// issued on `sm` (outcome `out`, complete at `t_done`). It recognizes a
    /// pure busy-wait loop: an all-lanes-failed poll (the anchor) followed
    /// by pure steps that return to the same anchor with the same mask. On
    /// the closing anchor visit the warp parks: it leaves the heap and
    /// waits for a write to its watch set. Returns true if it parked.
    // Runs after every issued instruction under fast-forward; see
    // `deliver_wakes` on inlining.
    #[inline(always)]
    fn capture<K: WarpKernel>(
        &mut self,
        kernel: &K,
        mem: &mut DeviceMemory,
        wid: u32,
        sm: usize,
        out: &StepOutcome,
        t_done: u64,
    ) -> bool {
        let rec = &mut self.spin_rec;
        let (pc, mask) = (out.pc, out.mask);
        let is_poll = !rec.polled.is_empty() || rec.polled_ok > 0;
        let anchor_ok =
            !rec.polled.is_empty() && rec.polled_ok == 0 && out.pure && kernel.spin_pure(pc);
        let spare = &mut self.spare;
        let slot = &mut self.spin[wid as usize];
        let mut state = std::mem::replace(slot, SpinState::Idle);
        if let SpinState::Waking(old) = state {
            // The woken warp just re-executed its poll for real; drop the
            // stale watch registration (re-parking below re-registers a
            // freshly captured set, so changed read-set values are
            // re-observed).
            mem.spin_unpark(wid, &old.watch);
            spare.push(old);
            state = SpinState::Idle;
        }
        let start_capture = |spare: &mut Vec<Box<SpinFf>>| {
            let mut c = spare.pop().unwrap_or_default();
            c.start(sm, pc, mask, out, &rec.polled);
            SpinState::Capturing(c)
        };
        match state {
            SpinState::Idle => {
                if anchor_ok {
                    *slot = SpinState::Arming {
                        anchor_pc: pc,
                        mask,
                        fails: 1,
                    };
                }
            }
            SpinState::Arming {
                anchor_pc,
                mask: armed,
                fails,
            } => {
                if anchor_ok {
                    if pc == anchor_pc && mask == armed {
                        if fails + 1 >= ARM_VISITS {
                            *slot = start_capture(spare);
                        } else {
                            *slot = SpinState::Arming {
                                anchor_pc,
                                mask,
                                fails: fails + 1,
                            };
                        }
                    } else {
                        *slot = SpinState::Arming {
                            anchor_pc: pc,
                            mask,
                            fails: 1,
                        };
                    }
                } else if !is_poll {
                    // Loop-body steps between anchor visits keep the
                    // streak; a progressing or impure poll drops it (the
                    // implicit fall-through to `Idle`).
                    *slot = SpinState::Arming {
                        anchor_pc,
                        mask: armed,
                        fails,
                    };
                }
            }
            SpinState::Capturing(mut c) => {
                if is_poll {
                    if anchor_ok
                        && pc == c.anchor_pc
                        && mask == c.mask
                        && rec.polled.len() == c.sig[0].poll_fails as usize
                        && rec.polled.iter().all(|wd| c.watch.contains(wd))
                    {
                        // The loop closed on its anchor: park.
                        debug_assert_eq!(out.cost_ticks, c.sig[0].cost);
                        for &r in rec.reads.iter() {
                            if !c.watch.contains(&r) {
                                c.watch.push(r);
                            }
                        }
                        rec.reads.clear();
                        c.period = c.sig.iter().map(|s| s.cost).sum();
                        c.idx = if c.sig.len() > 1 { 1 } else { 0 };
                        c.next_tick = t_done;
                        c.kick = None;
                        if let Some(due) = mem.spin_park(wid, &c.watch) {
                            // A buffered store to a watched word drains no
                            // later than `due`; schedule the corresponding
                            // no-later-than wake.
                            let kt = poll_at_or_after(&c, (c.idx, c.next_tick), due, 0, wid);
                            c.kick = Some(kt);
                            self.queue.push(sm, kt, wid);
                        }
                        *slot = SpinState::Parked(c);
                        self.crowds[sm].parked.push(wid);
                        self.n_parked += 1;
                        self.counters.parks += 1;
                        self.crowd_joined(sm, wid);
                        return true;
                    }
                    rec.reads.clear();
                    if anchor_ok {
                        // A different all-fail pure poll: restart the
                        // capture from this new anchor.
                        c.start(sm, pc, mask, out, &rec.polled);
                        *slot = SpinState::Capturing(c);
                    } else {
                        // The poll (partially) succeeded or went impure:
                        // the loop is making progress.
                        spare.push(c);
                    }
                } else if out.pure && mask == c.mask && c.sig.len() < MAX_SIG {
                    c.sig.push(SigStep {
                        pc,
                        cost: out.cost_ticks,
                        l2_hits: out.l2_hits,
                        flops: out.flops,
                        poll_fails: 0,
                        issue: out.issue,
                        wait: out.wait,
                    });
                    *slot = SpinState::Capturing(c);
                } else {
                    rec.reads.clear();
                    spare.push(c);
                }
            }
            SpinState::Parked(_) | SpinState::Waking(_) => {
                unreachable!("parked warps do not execute")
            }
        }
        false
    }

    /// Debug builds: SM `s`'s parked warps are each in exactly one place —
    /// its crowd plan, its ready row, or one live visit-heap key — and a
    /// plan member's computed cursor is at or past the SM cursor, on the
    /// lattice its signature lays out from the cursor it joined with.
    #[cfg(debug_assertions)]
    fn check_sm(&self, s: usize) {
        let (cr, free, heap) = (&self.crowds[s], self.sm_next_free[s], &self.sm_visit[s]);
        let parked = |wid: u32| match &self.spin[wid as usize] {
            SpinState::Parked(p) if p.sm == s => p,
            _ => panic!("warp {wid} is listed as parked on SM {s} but is not"),
        };
        if cr.active() {
            assert!(
                self.sm_ready[s].is_empty() && heap.is_empty(),
                "SM {s}: a planned crowd also has per-visit entries"
            );
            let mut slots = 0;
            for &wid in &cr.parked {
                let p = parked(wid);
                let (idx, tick) = cr.cursor_of(wid);
                assert!(
                    tick >= free,
                    "SM {s}: warp {wid}'s planned cursor {tick} is behind the SM cursor {free}"
                );
                let len = p.sig.len();
                let steps: u64 = (0..(idx + len - p.idx) % len)
                    .map(|j| p.sig[(p.idx + j) % len].cost)
                    .sum();
                let lap = tick.checked_sub(p.next_tick + steps);
                assert!(
                    lap.is_some_and(|d| d % cr.period == 0),
                    "SM {s}: warp {wid}'s planned cursor ({idx}, {tick}) is off the lattice \
                     of its cursor ({}, {})",
                    p.idx,
                    p.next_tick
                );
                slots += len;
            }
            assert!(
                slots == cr.cal.len()
                    && cr.cal.windows(2).all(|w| w[0].off < w[1].off)
                    && cr.cal.last().is_some_and(|sl| sl.off < cr.period),
                "SM {s}: the calendar is not one period of its members' disjoint slots"
            );
        } else {
            // Without allocating, so that host work is the same in every
            // build: each waiting warp has a live key, and there are no more
            // live keys than waiting warps.
            let live = |&(tk, w): &(u64, u32)| matches!(&self.spin[w as usize], SpinState::Parked(p) if p.next_tick == tk);
            let mut waiting = 0;
            for &wid in &cr.parked {
                let p = parked(wid);
                let on_row = self.sm_ready[s].binary_search(&wid).is_ok();
                let keyed = heap
                    .iter()
                    .any(|&Reverse((tk, w))| w == wid && tk == p.next_tick);
                assert!(
                    on_row != keyed,
                    "SM {s}: parked warp {wid} is on the ready row: {on_row}, keyed: {keyed}"
                );
                waiting += keyed as usize;
            }
            assert_eq!(
                heap.iter().filter(|k| live(&k.0)).count(),
                waiting,
                "SM {s}: a parked warp has two live visit keys"
            );
        }
        let c = &self.counters;
        assert_eq!(
            c.issues + c.virtual_single + c.virtual_crowd,
            self.stats.warp_instructions,
            "issues and virtual issues do not sum to the warp instructions"
        );
    }

    /// Debug builds, between events: every leaf of the arbiter tree is its
    /// SM's key recomputed from scratch and every node the least of its
    /// children, so the root is the least SM key; and SM `s`'s warps are
    /// each scheduled once. An unparked resident warp has one live timed
    /// entry or a place in the waiting set, never both; a parked warp is
    /// not waiting and has a live timed entry exactly when its wake kick is
    /// set, at the kick's tick; the waiting set is strictly ordered.
    #[cfg(debug_assertions)]
    fn check_queue(&self, s: usize) {
        let q = &self.queue;
        let n = q.sms();
        for sm in 0..n {
            assert_eq!(
                q.tree[n + sm],
                q.key(sm, self.sm_next_free[sm]),
                "SM {sm}: the arbiter holds a stale key"
            );
        }
        for i in 1..n {
            assert_eq!(
                q.tree[i],
                q.tree[2 * i].min(q.tree[2 * i + 1]),
                "arbiter node {i} is not the least of its children"
            );
        }
        let parked = |w: u32| match self.spin.get(w as usize) {
            Some(SpinState::Parked(p)) => Some(p),
            _ => None,
        };
        let waiting = &q.waiting[s];
        assert!(
            waiting.windows(2).all(|p| p[0] > p[1]),
            "SM {s}: the waiting set is not strictly ordered"
        );
        assert!(
            waiting.iter().all(|&w| parked(w).is_none()),
            "SM {s}: a parked warp is waiting"
        );
        let (mut unparked_live, mut kicks) = (0, 0);
        for &Reverse(k) in q.timed[s].iter() {
            let (t, w, sq) = unpack(k);
            if sq != q.seq[w as usize] {
                continue;
            }
            match parked(w) {
                Some(p) => {
                    assert!(
                        p.sm == s && p.kick == Some(t),
                        "SM {s}: parked warp {w}'s timed entry at {t} is not its kick"
                    );
                    kicks += 1;
                }
                None => {
                    assert!(
                        waiting.binary_search_by(|x| w.cmp(x)).is_err(),
                        "SM {s}: warp {w} is both timed and waiting"
                    );
                    unparked_live += 1;
                }
            }
        }
        let crowd = self.crowds.get(s).map_or(&[][..], |cr| &cr.parked[..]);
        assert_eq!(
            crowd
                .iter()
                .filter(|&&w| parked(w).is_some_and(|p| p.kick.is_some()))
                .count(),
            kicks,
            "SM {s}: a parked warp's kick has no live timed entry"
        );
        assert_eq!(
            waiting.len() + unparked_live + crowd.len(),
            self.resident[s],
            "SM {s}: an unparked warp is unscheduled or scheduled twice"
        );
    }

    /// Debug builds: the invariants of a launch that completed, under
    /// either spin model.
    #[cfg(debug_assertions)]
    fn check_end(&self, mem: &DeviceMemory) {
        assert_eq!(self.n_parked, 0, "a completed launch left warps parked");
        (0..self.crowds.len()).for_each(|s| self.check_sm(s));
        (0..self.queue.sms()).for_each(|s| self.check_queue(s));
        let c = &self.counters;
        assert_eq!(
            c.issues + c.busy_rekeys + c.superseded + c.rekicks,
            c.heap_events,
            "the heap-pop split does not sum to the heap events"
        );
        assert_eq!(
            c.issues + c.virtual_single + c.virtual_crowd,
            self.stats.warp_instructions,
            "issues and virtual issues do not sum to the warp instructions"
        );
        assert!(
            mem.store_buffers_empty(),
            "stores still buffered at launch end"
        );
    }

    /// Issues one instruction of warp `wid` at tick `t`: executes its
    /// active lanes, charges memory, fence or ALU timing, and resolves
    /// control flow on the reconvergence stack.
    fn step_warp<K: WarpKernel>(
        &mut self,
        kernel: &K,
        w: &mut WarpRt<K::Lane>,
        wid: u32,
        mem: &mut DeviceMemory,
        trace: &mut Option<&mut Trace>,
        t: u64,
    ) -> StepOutcome {
        let top = w.stack.last().expect("non-done warp has stack");
        let pc = top.pc;
        let mask = top.mask;
        debug_assert!(mask != 0, "active group must have lanes");
        debug_assert_eq!(mask & !w.alive, 0, "active mask contains retired lanes");

        let tk = &self.ticks;
        let warp_size = self.warp_size;
        let owner = if self.sm_scope { w.sm as u32 } else { wid };
        let stale_before = mem.stale_count();
        let mut spin_rec = if self.ff_on {
            self.spin_rec.begin_instr();
            self.spin_rec.record_reads = matches!(self.spin[wid as usize], SpinState::Capturing(_));
            Some(&mut self.spin_rec)
        } else {
            None
        };
        let accesses = &mut self.accesses;
        let targets = &mut self.targets;
        let stats = &mut self.stats;
        accesses.clear();
        targets.clear();
        let mut shared_ops: u32 = 0;
        let mut failed_polls: u32 = 0;
        let mut flops: u64 = 0;
        let mut fence = false;
        // Uniformity is tracked inline so the common fully-converged case
        // never rescans `targets`.
        let mut first_target = PC_EXIT;
        let mut uniform = true;

        for lane in 0..warp_size {
            if mask & (1 << lane) == 0 {
                continue;
            }
            let tid = wid * warp_size as u32 + lane as u32;
            let mut lm = LaneMem {
                dev: mem,
                shared: &mut w.shared,
                accesses,
                shared_ops: &mut shared_ops,
                failed_polls: &mut failed_polls,
                spin: spin_rec.as_deref_mut(),
                owner,
                warp: wid,
                now: t,
                pc,
                #[cfg(debug_assertions)]
                ops_this_exec: 0,
            };
            let eff = kernel.exec(pc, &mut w.lanes[lane], tid, &mut lm);
            flops += eff.flops as u64;
            fence |= eff.fence;
            if targets.is_empty() {
                first_target = eff.next;
            } else if eff.next != first_target {
                uniform = false;
            }
            targets.push((lane as u32, eff.next));
        }

        sat_add(&mut stats.warp_instructions, 1);
        sat_add(&mut stats.thread_instructions, mask.count_ones() as u64);
        sat_add(&mut stats.flops, flops);
        sat_add(&mut stats.shared_ops, shared_ops as u64);
        sat_add(&mut stats.failed_polls, failed_polls as u64);

        // Profiling: classify what this issue slot was spent on. Evaluated
        // unconditionally (a few flag tests) but only consumed when
        // profiling is armed. Checked before control resolution so the
        // stack still reflects the issuing instruction's divergence state.
        let issue = if failed_polls > 0 {
            StallReason::SpinPoll
        } else if fence {
            StallReason::StoreDrain
        } else if !uniform || w.stack.len() > 1 {
            StallReason::Divergence
        } else {
            StallReason::Executing
        };

        if let Some(tr) = trace.as_deref_mut() {
            tr.events.push(TraceEvent {
                cycle: t / tk.per_cycle,
                sm: w.sm,
                warp: wid,
                pc,
                label: kernel.pc_name(pc),
                mask,
            });
        }

        // --- Timing of this instruction ---------------------------------
        let cost_ticks;
        let wait;
        let mut stored = false;
        let mut pure_mem = true;
        let mut l2_here: u32 = 0;
        if !accesses.is_empty() {
            let kind = accesses[0].kind;
            debug_assert!(
                accesses.iter().all(|a| a.kind == kind),
                "one instruction mixes access kinds"
            );
            stored = matches!(kind, AccessKind::Store | AccessKind::Atomic);
            let is_store = kind == AccessKind::Store;
            // Coalesce: unique sectors across the warp. Streaming kernels
            // emit the lanes' accesses already sorted; skip the sort then.
            let sort_key = |a: &RawAccess| ((a.buf as u64) << 32) | a.sector as u64;
            if !accesses.is_sorted_by_key(sort_key) {
                accesses.sort_unstable_by_key(sort_key);
            }
            accesses.dedup();
            // Finite-cache model: probe L1/L2 for plain data loads only.
            // Sync-protocol accesses (`bypass`), stores, and atomics keep
            // the legacy path, so spin fast-forward capture/replay and the
            // store pipeline are untouched. Probing mutates LRU state, so
            // it happens here, once per issued instruction in pop order
            // (DESIGN.md §13).
            let probe_cache = tk.l1 > 0 && kind == AccessKind::Load && !accesses[0].bypass;
            let mut worst = if probe_cache { tk.l1 } else { tk.l2 };
            let mut bw_limited = false;
            let mut l1_missed = false;
            for &a in accesses.iter() {
                if probe_cache {
                    let (hit, evictions) = mem.cache_probe(w.sm, a);
                    sat_add(&mut stats.sector_evictions, evictions);
                    // Keep the first-touch bitmaps warm: footprint
                    // diagnostics stay comparable across cache modes.
                    let _ = mem.touch(a);
                    // Probing bumps LRU state, so a re-execution of this
                    // instruction is not idempotent: never treat it as a
                    // pure spin step (loops with data loads stay on the
                    // slow path; parked loops remain poll-only).
                    pure_mem = false;
                    match hit {
                        CacheHit::L1 => sat_add(&mut stats.l1_hits, 1),
                        CacheHit::L2 => {
                            sat_add(&mut stats.l1_misses, 1);
                            sat_add(&mut stats.l2_hits, 1);
                            l2_here += 1;
                            worst = worst.max(tk.l2);
                            l1_missed = true;
                        }
                        CacheHit::Miss => {
                            sat_add(&mut stats.l1_misses, 1);
                            sat_add(&mut stats.l2_misses, 1);
                            sat_add(&mut stats.dram_transactions, 1);
                            sat_add(&mut stats.dram_read_bytes, SECTOR_BYTES as u64);
                            self.dram_busy = self.dram_busy.max(t as f64) + tk.sector_service;
                            let ready = (self.dram_busy as u64).max(t + tk.dram);
                            bw_limited |= ready > t + tk.dram;
                            worst = worst.max(ready - t);
                            l1_missed = true;
                        }
                    }
                    continue;
                }
                let miss = mem.touch(a);
                if miss {
                    sat_add(&mut stats.dram_transactions, 1);
                    if stored {
                        sat_add(&mut stats.dram_write_bytes, SECTOR_BYTES as u64);
                    } else {
                        sat_add(&mut stats.dram_read_bytes, SECTOR_BYTES as u64);
                    }
                    self.dram_busy = self.dram_busy.max(t as f64) + tk.sector_service;
                    let ready = (self.dram_busy as u64).max(t + tk.dram);
                    // The DRAM queue pushed this sector past the raw
                    // latency: the warp is bandwidth-throttled, not merely
                    // latency-bound.
                    bw_limited |= ready > t + tk.dram;
                    worst = worst.max(ready - t);
                    pure_mem = false;
                } else {
                    sat_add(&mut stats.l2_hits, 1);
                    l2_here += 1;
                }
                if stored {
                    // Writes drop the sector from every SM's L1 so later
                    // consumer loads re-fetch through L2 (no-op with the
                    // cache model off).
                    mem.cache_invalidate(a);
                }
            }
            // Plain stores are fire-and-forget; loads and atomics block the
            // warp until the L2/DRAM responds.
            cost_ticks = if is_store { tk.store } else { worst };
            wait = if is_store {
                StallReason::Executing
            } else if bw_limited {
                StallReason::Bandwidth
            } else if l1_missed {
                StallReason::CacheMiss
            } else {
                StallReason::MemLatency
            };
            if kind == AccessKind::Atomic {
                sat_add(&mut stats.atomic_ops, accesses.len() as u64);
            }
        } else if fence {
            sat_add(&mut stats.fences, 1);
            cost_ticks = tk.fence;
            wait = StallReason::StoreDrain;
            // Under the relaxed model the fence is load-bearing: it drains
            // and publishes this owner's store buffer (no-op under SC).
            mem.fence_drain(owner, wid, t);
        } else if shared_ops > 0 {
            cost_ticks = tk.shared;
            wait = StallReason::MemLatency;
        } else {
            cost_ticks = tk.alu;
            wait = StallReason::Executing;
        }

        // --- Control resolution ------------------------------------------
        let mut retired_ct: u64 = 0;
        let mut straight = false;
        if uniform {
            let top = w.stack.last_mut().expect("stack non-empty");
            if first_target == PC_EXIT {
                let m = top.mask;
                retired_ct += retire(&mut w.stack, &mut w.alive, m) as u64;
                normalize(&mut w.stack, &mut w.alive, &mut retired_ct);
            } else if first_target == top.reconv {
                w.stack.pop();
                normalize(&mut w.stack, &mut w.alive, &mut retired_ct);
            } else {
                // Fast path: a uniform straight-line step only moves the
                // top-of-stack pc and cannot break a stack invariant, so
                // `normalize` would return immediately — skip it.
                top.pc = first_target;
                straight = true;
            }
        } else {
            let rpc = kernel.reconv(pc);
            w.stack.last_mut().expect("stack non-empty").pc = rpc;
            // Group lanes by target (scratch hoisted by the caller).
            let groups = &mut self.groups;
            groups.clear();
            for &(lane, tg) in targets.iter() {
                match groups.iter_mut().find(|g| g.0 == tg) {
                    Some(g) => g.1 |= 1 << lane,
                    None => groups.push((tg, 1 << lane)),
                }
            }
            // Execution order: kernel's branch order, then pc. Push in
            // reverse so the first-executing group ends on top. Targets are
            // unique within `groups`, so the unstable sort (which does not
            // allocate) is deterministic.
            groups.sort_unstable_by_key(|&(tg, _)| (kernel.branch_order(pc, tg), tg));
            for &(tg, gmask) in groups.iter().rev() {
                if tg == rpc {
                    continue; // parked in the parent entry
                } else if tg == PC_EXIT {
                    retired_ct += retire(&mut w.stack, &mut w.alive, gmask) as u64;
                } else {
                    w.stack.push(StackEntry {
                        pc: tg,
                        reconv: rpc,
                        mask: gmask,
                    });
                }
            }
            normalize(&mut w.stack, &mut w.alive, &mut retired_ct);
        }

        StepOutcome {
            pc,
            mask,
            cost_ticks: cost_ticks.max(1),
            stored,
            retired: retired_ct,
            issue,
            wait,
            flops,
            l2_hits: l2_here,
            pure: straight
                && !stored
                && !fence
                && shared_ops == 0
                && pure_mem
                && mem.stale_count() == stale_before,
        }
    }
}

impl GpuDevice {
    /// Creates a device with empty memory.
    pub fn new(config: DeviceConfig) -> Self {
        let mut mem = DeviceMemory::new();
        if let Some(cache) = &config.cache {
            // Arm the finite-cache tag state for the device's lifetime; like
            // the first-touch bitmaps it persists across launches, so warm
            // relaunches on the same buffers see a warm cache.
            mem.set_cache(cache, config.sm_count);
        }
        GpuDevice {
            config,
            mem,
            warp_scratch: Vec::new(),
            launch: Launch::default(),
            profiles: Vec::new(),
            grid_cache: Vec::new(),
            grid_reuses: 0,
        }
    }

    /// Number of launches on this device that reused a cached grid plan
    /// instead of re-walking the round-robin residency fill. Diagnostic for
    /// the session-amortization contract: warm same-shape launches should
    /// all hit the cache. Reuse is bit-transparent — the cached plan is
    /// exactly the assignment the fill loop would recompute.
    pub fn grid_reuses(&self) -> u64 {
        self.grid_reuses
    }

    /// Scheduler events selected by the most recent launch: timed events
    /// (superseded ones included) and waiting warps taken from their SM's
    /// issue arbiter. [`crate::SpinModel::FastForward`] minimizes it
    /// (identical stats, far fewer events on spin-heavy kernels), and a warp
    /// that finds its SM busy adds one event on joining the SM's waiting
    /// set, not one per slot it waits. The `heap_events` field of
    /// [`GpuDevice::last_launch_counters`].
    pub fn last_launch_heap_events(&self) -> u64 {
        self.launch.counters.heap_events
    }

    /// The most recent launch's host-work counters, failed launches
    /// included. Diagnostic only; deliberately not part of [`LaunchStats`]
    /// so Replay and FastForward stats stay directly comparable.
    pub fn last_launch_counters(&self) -> EngineCounters {
        self.launch.counters
    }

    /// Drains and returns the profiles accumulated by profiled launches,
    /// in launch order. Empty unless the device config armed profiling via
    /// [`DeviceConfig::with_profile`].
    pub fn take_profiles(&mut self) -> Vec<Profile> {
        std::mem::take(&mut self.profiles)
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Device memory (allocation and host read-back).
    pub fn mem(&mut self) -> &mut DeviceMemory {
        &mut self.mem
    }

    /// Read-only device memory access.
    pub fn mem_ref(&self) -> &DeviceMemory {
        &self.mem
    }

    /// Launches `n_warps` warps of `kernel` and runs to completion.
    pub fn launch<K: WarpKernel>(
        &mut self,
        kernel: &K,
        n_warps: usize,
    ) -> Result<LaunchStats, SimtError> {
        self.launch_inner(kernel, n_warps, None, &[])
    }

    /// Launches like [`GpuDevice::launch`] with a pre-scheduled stream of
    /// external memory events, sorted by tick (ascending; an unsorted list
    /// is a [`SimtError::Launch`]): each event is applied to device memory
    /// the moment simulated time reaches its tick, waking any parked warps
    /// that spin on the written word. This is how the multi-device
    /// coordinator injects link-delivered boundary values into a consumer
    /// shard's timeline. While events are still pending the deadlock window
    /// is suspended — a warp spinning on a word the link has not delivered
    /// yet is waiting, not deadlocked.
    pub fn launch_with_events<K: WarpKernel>(
        &mut self,
        kernel: &K,
        n_warps: usize,
        events: &[ExtEvent],
    ) -> Result<LaunchStats, SimtError> {
        if !events.is_sorted_by_key(|ev| ev.tick) {
            return Err(SimtError::Launch(
                "external events must be sorted by tick".into(),
            ));
        }
        self.launch_inner(kernel, n_warps, None, events)
    }

    /// Launches with an instruction trace (intended for the toy device).
    /// A traced launch replays every spin poll, even under
    /// [`SpinModel::FastForward`], so the trace, stats and host-work
    /// counters are those of [`SpinModel::Replay`].
    pub fn launch_traced<K: WarpKernel>(
        &mut self,
        kernel: &K,
        n_warps: usize,
        trace: &mut Trace,
    ) -> Result<LaunchStats, SimtError> {
        self.launch_inner(kernel, n_warps, Some(trace), &[])
    }

    fn launch_inner<K: WarpKernel>(
        &mut self,
        kernel: &K,
        n_warps: usize,
        mut trace: Option<&mut Trace>,
        events: &[ExtEvent],
    ) -> Result<LaunchStats, SimtError> {
        let cfg = &self.config;
        if cfg.sm_count == 0 || cfg.max_warps_per_sm == 0 {
            return Err(SimtError::Config(format!(
                "device has no warp slots ({} SMs with {} resident warps each)",
                cfg.sm_count, cfg.max_warps_per_sm
            )));
        }
        if cfg.warp_size == 0 || cfg.warp_size > 64 {
            return Err(SimtError::Config(format!(
                "warp size must be 1 to 64 lanes (got {})",
                cfg.warp_size
            )));
        }
        if n_warps == 0 {
            // A zero-warp grid is a legal no-op launch: no kernel body ever
            // runs, so report well-formed zeroed stats (plus the fixed
            // launch overhead) instead of erroring or producing a bogus
            // deadlock snapshot downstream. External events still land.
            for ev in events {
                self.mem.ext_apply(ev);
            }
            self.launch.counters = EngineCounters::default();
            return Ok(LaunchStats {
                launches: 1,
                cycles: cfg.launch_overhead_cycles,
                ..Default::default()
            });
        }
        if n_warps
            .checked_mul(cfg.warp_size)
            .is_none_or(|threads| threads > u32::MAX as usize)
        {
            return Err(SimtError::Launch(format!(
                "grid of {n_warps} warps exceeds the 32-bit thread-id space"
            )));
        }
        if let MemoryModel::Relaxed {
            drain_ticks,
            racecheck,
            ..
        } = cfg.memory_model
        {
            // Relaxed memory model: arm per-launch store buffers; everything
            // on the SC path stays byte-identical (all hooks early-return).
            self.mem.set_relaxed(drain_ticks, racecheck);
        }
        // Spin fast-forwarding (wake-on-write) parks warps off the heap and
        // reconstructs them virtually — see the comment at `SpinFf`. The
        // waiter registry starts every launch empty.
        self.mem.spin_clear();
        let mut launch = std::mem::take(&mut self.launch);
        let s = &mut launch;
        s.reset(cfg, kernel.name(), n_warps, trace.is_some());
        let tpc = s.ticks.per_cycle;
        let ws = cfg.warp_size;

        // Initial residency: fill SMs round-robin. The assignment depends
        // only on `n_warps` and device constants, so same-shape launches —
        // a session re-solving the same matrix, level-set's per-level grids
        // — replay a cached plan instead of re-walking the round-robin
        // cycle. Reuse is bit-transparent: the cached plan *is* the
        // assignment the fill computes.
        let plan = match self.grid_cache.iter().position(|p| p.n_warps == n_warps) {
            Some(pos) => {
                self.grid_reuses += 1;
                &self.grid_cache[pos]
            }
            None => {
                if self.grid_cache.len() >= GRID_CACHE_CAP {
                    self.grid_cache.remove(0);
                }
                let plan = GridPlan::round_robin(n_warps, cfg.sm_count, cfg.max_warps_per_sm);
                self.grid_cache.push(plan);
                self.grid_cache.last().expect("plan just cached")
            }
        };
        // Warp-allocation pool: new warps draw their stack/shared vectors
        // from allocations retired by earlier launches, and within a launch
        // a finished warp's `WarpRt` (lane vector included) is recycled
        // wholesale for the next pending warp (see `WarpRt::reset`).
        let pool_cap = cfg.sm_count * cfg.max_warps_per_sm;
        let mut warps: Vec<Option<WarpRt<K::Lane>>> = (0..n_warps).map(|_| None).collect();
        for (wid, &sm) in plan.sms.iter().enumerate() {
            let sm = sm as usize;
            let mut w = WarpRt::from_scratch(self.warp_scratch.pop().unwrap_or_default());
            w.reset(kernel, wid, sm, ws);
            warps[wid] = Some(w);
            s.resident[sm] += 1;
            debug_assert!(s.resident[sm] <= cfg.max_warps_per_sm);
            s.queue.push(sm, 0, wid as u32);
        }
        (0..s.queue.sms()).for_each(|sm| s.queue.refresh(sm, 0));
        let mut next_pending = plan.sms.len();

        // While link events are still pending, a stall is waiting on the
        // link, not a deadlock: the window is suspended (the max-cycles
        // timeout stays armed as the backstop).
        let deadlock_ticks = s.ticks.deadlock;
        let window = |ev_i: usize| {
            if ev_i < events.len() {
                u64::MAX
            } else {
                deadlock_ticks
            }
        };
        let mut ev_i = 0usize;
        // Every failure breaks out with its error and the tick at which
        // buffered stores flush; the one teardown below handles them all.
        let exit: Result<(), (SimtError, u64)> = 'run: loop {
            // Apply external (link-delivered) events that are due at or
            // before the next scheduled event, re-reading it after each one:
            // an applied event may wake a parked warp whose kick lands
            // earlier. With no event left the remaining link events apply
            // unconditionally (every runnable warp is parked or done; only
            // a link event can unblock anything).
            while ev_i < events.len() {
                if let Some((nt, _, _)) = s.queue.first() {
                    if events[ev_i].tick > nt {
                        break;
                    }
                }
                let ev = events[ev_i];
                ev_i += 1;
                self.mem.ext_apply(&ev);
                // The link delivering a value is forward progress for the
                // deadlock accounting, exactly like a local store.
                s.last_progress = s.last_progress.max(ev.tick);
                s.end_tick = s.end_tick.max(ev.tick);
                let woken = s.deliver_wakes(kernel, &mut self.mem, (ev.tick, 0), window(ev_i));
                if let Err(hang) = woken {
                    break 'run Err((s.hang_error(kernel.name(), &warps, hang), s.end_tick));
                }
            }
            let Some((t, wid, sm)) = s.queue.first() else {
                // No event is left. Every pending wake for a parked warp
                // keeps a kick scheduled, so parked warps remaining here
                // can never run again: report the deadlock *now*, waiter
                // graph attached, instead of burning the deadlock window on
                // an empty schedule.
                if s.n_parked > 0 {
                    let hang = Hang::Deadlock {
                        cycle: s.end_tick / tpc + 1,
                    };
                    break 'run Err((s.hang_error(kernel.name(), &warps, hang), s.end_tick));
                }
                break Ok(());
            };
            let dl = window(ev_i);
            s.counters.heap_events += 1;
            // Every way out of this block leaves SM `sm`'s key to refresh.
            'event: {
                let waiting = match s.queue.select(sm, t, wid) {
                    // The warp was re-kicked after this entry was pushed.
                    Selected::Superseded => {
                        s.counters.superseded += 1;
                        break 'event;
                    }
                    Selected::Timed => false,
                    Selected::Waiting => true,
                };
                if s.relaxed_on {
                    // Events come out monotone in t, so due-expired stores
                    // drain exactly once, in program order.
                    self.mem.drain_due(t);
                }
                let w = warps[wid as usize].as_mut().expect("scheduled warp exists");
                debug_assert_eq!(w.sm, sm, "warp {wid} is scheduled on another SM");
                if s.n_parked > 0 {
                    // Bring this SM's parked warps' virtual execution up to
                    // this event: only they can matter before the issue below.
                    if let Err(hang) = s.ff_advance(kernel, sm, (t, wid), dl) {
                        break 'run Err((s.hang_error(kernel.name(), &warps, hang), t));
                    }
                    if matches!(s.spin[wid as usize], SpinState::Parked(_)) {
                        match s.take_kick(wid, t) {
                            // Fall through: the poll issues at t like any event.
                            Some(anchor) => {
                                w.stack.last_mut().expect("parked warp has stack").pc = anchor
                            }
                            None => break 'event,
                        }
                    }
                }
                if s.sm_next_free[sm] > t {
                    // The slot is taken: the warp waits at the SM's cursor.
                    s.counters.busy_rekeys += 1;
                    if !waiting {
                        s.queue.wait(sm, wid);
                    }
                    break 'event;
                }
                if waiting {
                    let lowest = s.queue.waiting[sm].pop();
                    debug_assert_eq!(lowest, Some(wid), "SM {sm}: not its lowest waiting warp");
                }
                if let Some(hang) = s.ticks.hang_at(t, s.last_progress, dl) {
                    break 'run Err((s.hang_error(kernel.name(), &warps, hang), t));
                }

                // A real issue on a planned slot displaces that slot's warp
                // (a lower warp id would have issued first): the crowd
                // leaves its plan.
                if s.crowds.get(sm).and_then(Crowd::next_tick) == Some(t) {
                    s.dissolve(sm);
                }

                // Issue accounting.
                s.counters.issues += 1;
                sat_add(&mut s.stats.issue_ticks, 1);
                let gap = t.saturating_sub(s.sm_last_issue[sm]).saturating_sub(1);
                s.stats.stall_ticks = s.stats.stall_ticks.saturating_add(gap);
                s.sm_last_issue[sm] = t;
                s.sm_next_free[sm] = t + 1;

                // Execute one warp instruction.
                let out = s.step_warp(kernel, w, wid, &mut self.mem, &mut trace, t);
                if s.racecheck {
                    if let Some(r) = self.mem.take_race() {
                        let err = SimtError::RaceDetected {
                            kernel: kernel.name(),
                            buffer: r.buf,
                            index: r.idx,
                            producer_warp: r.producer_warp,
                            consumer_warp: r.consumer_warp,
                            pc: r.pc,
                        };
                        break 'run Err((err, t));
                    }
                }
                if out.stored || out.retired > 0 {
                    s.last_progress = t;
                }
                sat_add(&mut s.stats.lanes_retired, out.retired);
                let t_done = t + out.cost_ticks;
                s.end_tick = s.end_tick.max(t_done);
                if let Some(p) = s.prof.as_mut() {
                    p.on_issue(
                        sm,
                        t,
                        gap,
                        wid as usize,
                        out.pc,
                        kernel.pc_name(out.pc),
                        out.issue,
                        out.wait,
                        t_done,
                    );
                }
                let parked = s.ff_on && s.capture(kernel, &mut self.mem, wid, sm, &out, t_done);
                if w.done() {
                    let mut w = warps[wid as usize].take().expect("done warp exists");
                    s.resident[sm] -= 1;
                    if next_pending < n_warps {
                        w.reset(kernel, next_pending, sm, ws);
                        warps[next_pending] = Some(w);
                        s.resident[sm] += 1;
                        debug_assert!(s.resident[sm] <= cfg.max_warps_per_sm);
                        s.queue.push(sm, t + 1, next_pending as u32);
                        next_pending += 1;
                    } else if self.warp_scratch.len() < pool_cap {
                        self.warp_scratch.push(WarpScratch {
                            stack: w.stack,
                            shared: w.shared,
                        });
                    }
                } else if !parked {
                    s.queue.push(sm, t_done, wid);
                }

                // Deliver wakes produced by this instruction's stores,
                // atomics, fences, or evictions to parked warps.
                if let Err(hang) = s.deliver_wakes(kernel, &mut self.mem, (t, wid), dl) {
                    break 'run Err((s.hang_error(kernel.name(), &warps, hang), t));
                }
            }
            s.queue.refresh(sm, s.sm_next_free[sm]);
            #[cfg(debug_assertions)]
            s.check_queue(sm);
        };
        if let Err((err, flush)) = exit {
            // Buffered stores still land and no registration outlives the
            // launch. The launch state and the warp pool stay on the device.
            self.mem.finish_relaxed(flush);
            self.mem.spin_clear();
            self.launch = launch;
            return Err(err);
        }

        // Kernel completion is a device-wide sync point: under the relaxed
        // model every still-buffered store drains here, which is what makes
        // launch-boundary-synchronized algorithms (Level-Set) correct.
        if s.relaxed_on {
            let (stale, drained) = self.mem.finish_relaxed(s.end_tick);
            s.stats.stale_reads = stale;
            s.stats.drained_stores = drained;
        }
        // Kernel completion includes draining the DRAM write queue
        // (fire-and-forget stores still occupy bandwidth).
        let end_tick = s.end_tick.max(s.dram_busy.ceil() as u64);
        s.stats.cycles = end_tick.div_ceil(tpc) + cfg.launch_overhead_cycles;
        if let Some(p) = s.prof.take() {
            self.profiles.push(p.finish(end_tick));
        }
        #[cfg(debug_assertions)]
        s.check_end(&self.mem);
        self.mem.spin_clear();
        let stats = s.stats;
        self.launch = launch;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Effect;
    use crate::mem::{BufF64, BufFlag};

    /// y[i] = 2 * x[i] for i < n: 3-instruction streaming kernel.
    struct DoubleKernel {
        n: usize,
        x: BufF64,
        y: BufF64,
    }

    #[derive(Default)]
    struct DoubleLane {
        v: f64,
    }

    impl WarpKernel for DoubleKernel {
        type Lane = DoubleLane;
        fn name(&self) -> &'static str {
            "double"
        }
        fn make_lane(&self, _tid: u32) -> DoubleLane {
            DoubleLane::default()
        }
        fn exec(&self, pc: Pc, lane: &mut DoubleLane, tid: u32, mem: &mut LaneMem<'_>) -> Effect {
            match pc {
                0 => {
                    if tid as usize >= self.n {
                        Effect::exit()
                    } else {
                        lane.v = mem.load_f64(self.x, tid as usize);
                        Effect::to(1)
                    }
                }
                1 => {
                    lane.v *= 2.0;
                    Effect::flops(2, 1)
                }
                2 => {
                    mem.store_f64(self.y, tid as usize, lane.v);
                    Effect::exit()
                }
                _ => unreachable!(),
            }
        }
        fn reconv(&self, pc: Pc) -> Pc {
            match pc {
                0 => PC_EXIT, // the bounds check diverges only toward EXIT
                _ => unreachable!("no other branch diverges"),
            }
        }
    }

    #[test]
    fn streaming_kernel_computes_and_coalesces() {
        let mut dev = GpuDevice::new(DeviceConfig::pascal_like());
        let n = 100usize;
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let x = dev.mem().alloc_f64(&xs);
        let y = dev.mem().alloc_f64_zeroed(n);
        let stats = dev
            .launch(&DoubleKernel { n, x, y }, n.div_ceil(32))
            .unwrap();
        let out = dev.mem_ref().read_f64(y);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 2.0 * i as f64);
        }
        // 4 warps; full warps run 3 instructions, the tail warp's bounds
        // check diverges (4 live lanes continue, 28 exit) but instruction
        // count stays 3 per warp.
        assert_eq!(stats.warp_instructions, 12);
        assert_eq!(stats.lanes_retired, 128);
        assert_eq!(stats.flops, 100);
        // Coalescing: 100 f64 reads = 800 bytes = 25 sectors; same writes.
        assert_eq!(stats.dram_read_bytes, 25 * 32);
        assert_eq!(stats.dram_write_bytes, 25 * 32);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn grid_reuse_is_bit_transparent() {
        // Two identical launches on one device: the second must hit the
        // grid-plan cache and still produce byte-identical stats/results.
        let cfg = DeviceConfig::pascal_like();
        let n = 1000usize; // > one full residency wave on the scaled device
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();

        let mut dev = GpuDevice::new(cfg.clone());
        let x = dev.mem().alloc_f64(&xs);
        let y = dev.mem().alloc_f64_zeroed(n);
        let k = DoubleKernel { n, x, y };
        let s1 = dev.launch(&k, n.div_ceil(32)).unwrap();
        assert_eq!(dev.grid_reuses(), 0);
        let out1 = dev.mem_ref().read_f64(y).to_vec();
        let s2 = dev.launch(&k, n.div_ceil(32)).unwrap();
        assert_eq!(dev.grid_reuses(), 1, "same-shape relaunch must reuse");
        let out2 = dev.mem_ref().read_f64(y).to_vec();

        assert_eq!(out1, out2);
        // Timing-independent accounting must match exactly; cycle counts may
        // legitimately differ because the second launch finds data in L2.
        assert_eq!(s1.warp_instructions, s2.warp_instructions);
        assert_eq!(s1.lanes_retired, s2.lanes_retired);
        assert_eq!(s1.flops, s2.flops);

        // A fresh device running the second shape cold must agree with the
        // reused plan on everything a kernel can observe.
        let mut cold = GpuDevice::new(cfg);
        let x2 = cold.mem().alloc_f64(&xs);
        let y2 = cold.mem().alloc_f64_zeroed(n);
        cold.launch(&DoubleKernel { n, x: x2, y: y2 }, n.div_ceil(32))
            .unwrap();
        assert_eq!(cold.mem_ref().read_f64(y2), &out2[..]);
    }

    #[test]
    fn grid_cache_eviction_keeps_reuse_correct() {
        // Cycle through more shapes than the cache holds; every shape must
        // still solve correctly after its plan is evicted and rebuilt.
        let mut dev = GpuDevice::new(DeviceConfig::pascal_like());
        for round in 0..2 {
            for shape in 1..=(GRID_CACHE_CAP + 3) {
                let n = shape * 8;
                let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
                let x = dev.mem().alloc_f64(&xs);
                let y = dev.mem().alloc_f64_zeroed(n);
                dev.launch(&DoubleKernel { n, x, y }, n.div_ceil(32))
                    .unwrap();
                let out = dev.mem_ref().read_f64(y);
                assert_eq!(out[n - 1], 2.0 * (n - 1) as f64, "round {round}");
            }
        }
        assert!(dev.grid_cache.len() <= GRID_CACHE_CAP);
    }

    /// Divergent kernel: even lanes take a long path, odd lanes short, then
    /// everyone reconverges and stores a tag.
    struct DivergeKernel;

    #[derive(Default)]
    struct DivergeLane {
        tag: f64,
    }

    impl WarpKernel for DivergeKernel {
        type Lane = DivergeLane;
        fn name(&self) -> &'static str {
            "diverge"
        }
        fn make_lane(&self, _tid: u32) -> DivergeLane {
            DivergeLane::default()
        }
        fn exec(&self, pc: Pc, lane: &mut DivergeLane, tid: u32, _m: &mut LaneMem<'_>) -> Effect {
            match pc {
                // branch: even → 1 (long), odd → 3 (short)
                0 => Effect::to(if tid.is_multiple_of(2) { 1 } else { 3 }),
                1 => {
                    lane.tag += 1.0;
                    Effect::to(2)
                }
                2 => {
                    lane.tag += 10.0;
                    Effect::to(4) // jump to reconvergence
                }
                3 => {
                    lane.tag += 100.0;
                    Effect::to(4)
                }
                4 => Effect::to(5),
                5 => Effect::exit(),
                _ => unreachable!(),
            }
        }
        fn reconv(&self, pc: Pc) -> Pc {
            match pc {
                0 => 4,
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn divergence_serializes_and_reconverges() {
        let mut dev = GpuDevice::new(DeviceConfig::toy()); // 3-lane warps
        let k = DivergeKernel;
        let mut trace = Trace::new();
        let stats = dev.launch_traced(&k, 1, &mut trace).unwrap();
        // lanes 0,2 even → +1 +10 ; lane 1 odd → +100. Check divergence
        // instruction counting: pc0 (1) + long path 2 instrs + short path
        // 1 instr + reconverged pc4, pc5 (2) = 6 warp instructions.
        assert_eq!(stats.warp_instructions, 6);
        // Reconverged instructions ran with all 3 lanes.
        let pc4 = trace.events.iter().find(|e| e.pc == 4).unwrap();
        assert_eq!(pc4.mask, 0b111);
        // Divergent instructions ran with partial masks.
        let pc1 = trace.events.iter().find(|e| e.pc == 1).unwrap();
        assert_eq!(pc1.mask, 0b101);
        let pc3 = trace.events.iter().find(|e| e.pc == 3).unwrap();
        assert_eq!(pc3.mask, 0b010);
        assert_eq!(stats.thread_instructions, 3 + 2 * 2 + 1 + 3 + 3);
    }

    /// The §3.3 Challenge-1 scenario: lane 1 spins on a flag that lane 0
    /// sets *later in program order*. `spin_first = true` models the naive
    /// compiled layout (spin side is the fall-through): deadlock.
    /// `spin_first = false` models a layout where the producer side runs
    /// first: completes.
    struct IntraWarpSpin {
        flag: BufFlag,
        spin_first: bool,
    }

    impl WarpKernel for IntraWarpSpin {
        type Lane = ();
        fn name(&self) -> &'static str {
            "intra-warp-spin"
        }
        fn make_lane(&self, _tid: u32) {}
        fn exec(&self, pc: Pc, _l: &mut (), tid: u32, mem: &mut LaneMem<'_>) -> Effect {
            match pc {
                // Lane 1 heads to the spin loop; other lanes to the producer path.
                0 => Effect::to(if tid % 3 == 1 { 1 } else { 3 }),
                // Spin: poll flag[0].
                1 => {
                    let f = mem.load_flag(self.flag, 0);
                    Effect::to(if f { 5 } else { 1 })
                }
                // Producer: lane 0 sets flag[0].
                3 => {
                    if tid.is_multiple_of(3) {
                        mem.store_flag(self.flag, 0, true);
                    }
                    Effect::to(5)
                }
                5 => Effect::exit(),
                _ => unreachable!(),
            }
        }
        fn reconv(&self, pc: Pc) -> Pc {
            match pc {
                0 => 5,
                1 => 5, // spin-exit branch reconverges at the join
                _ => unreachable!(),
            }
        }
        fn branch_order(&self, pc: Pc, target: Pc) -> u8 {
            if pc == 0 {
                // Choose which side of the initial divergence runs first.
                match (self.spin_first, target) {
                    (true, 1) => 0,
                    (true, _) => 1,
                    (false, 3) => 0,
                    (false, _) => 1,
                }
            } else {
                // Within the spin loop, keep spinning first (backward branch
                // is the fall-through), as compiled spin loops do.
                if target == 1 {
                    0
                } else {
                    1
                }
            }
        }
    }

    #[test]
    fn intra_warp_spin_deadlocks_when_spinner_runs_first() {
        // (the range loop above indexes two vecs in lock-step; clippy's
        // iterator suggestion would obscure it)
        let mut cfg = DeviceConfig::toy();
        cfg.deadlock_window = 10_000;
        let mut dev = GpuDevice::new(cfg);
        let flag = dev.mem().alloc_flags(1);
        let err = dev
            .launch(
                &IntraWarpSpin {
                    flag,
                    spin_first: true,
                },
                1,
            )
            .unwrap_err();
        match err {
            SimtError::Deadlock {
                kernel,
                cycle,
                live_warps,
                last_progress_cycle,
                warps,
            } => {
                assert_eq!(kernel, "intra-warp-spin");
                assert_eq!(live_warps, 1);
                assert!(last_progress_cycle < cycle);
                // The snapshot shows the lone warp stuck in the spin loop.
                assert_eq!(warps.len(), 1);
                assert_eq!(warps[0].warp, 0);
                assert_eq!(warps[0].pc, 1, "stuck at the poll instruction");
                assert_ne!(warps[0].active_mask, 0);
            }
            other => panic!("expected a deadlock, got {other:?}"),
        }
    }

    #[test]
    fn intra_warp_spin_completes_when_producer_runs_first() {
        let mut dev = GpuDevice::new(DeviceConfig::toy());
        let flag = dev.mem().alloc_flags(1);
        let stats = dev
            .launch(
                &IntraWarpSpin {
                    flag,
                    spin_first: false,
                },
                1,
            )
            .unwrap();
        assert_eq!(dev.mem_ref().read_flags(flag), &[1]);
        assert_eq!(stats.lanes_retired, 3);
    }

    /// Cross-warp spin: warp 1 spins on a flag set by warp 0. Must complete
    /// (this is the legal busy-wait of the SyncFree algorithm).
    struct CrossWarpSpin {
        flag: BufFlag,
    }

    impl WarpKernel for CrossWarpSpin {
        type Lane = ();
        fn name(&self) -> &'static str {
            "cross-warp-spin"
        }
        fn make_lane(&self, _tid: u32) {}
        fn exec(&self, pc: Pc, _l: &mut (), tid: u32, mem: &mut LaneMem<'_>) -> Effect {
            let warp = tid / 3; // toy warp size
            match pc {
                0 => Effect::to(if warp == 0 { 1 } else { 2 }),
                1 => {
                    // Warp 0: do some "work", then set the flag.
                    mem.store_flag(self.flag, 0, true);
                    Effect::to(4)
                }
                2 => {
                    let f = mem.load_flag(self.flag, 0);
                    Effect::to(if f { 4 } else { 2 })
                }
                4 => Effect::exit(),
                _ => unreachable!(),
            }
        }
        fn reconv(&self, pc: Pc) -> Pc {
            match pc {
                0 | 2 => 4,
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn cross_warp_spin_completes() {
        let mut dev = GpuDevice::new(DeviceConfig::toy());
        let flag = dev.mem().alloc_flags(1);
        let stats = dev.launch(&CrossWarpSpin { flag }, 2).unwrap();
        assert_eq!(stats.lanes_retired, 6);
        assert_eq!(dev.mem_ref().read_flags(flag), &[1]);
    }

    /// Shared-memory ping-pong within a warp.
    struct SharedKernel {
        y: BufF64,
    }

    impl WarpKernel for SharedKernel {
        type Lane = ();
        fn name(&self) -> &'static str {
            "shared"
        }
        fn shared_per_warp(&self) -> usize {
            4
        }
        fn make_lane(&self, _tid: u32) {}
        fn exec(&self, pc: Pc, _l: &mut (), tid: u32, mem: &mut LaneMem<'_>) -> Effect {
            let lane = (tid % 3) as usize;
            match pc {
                0 => {
                    mem.shared_store(lane, tid as f64 + 1.0);
                    Effect::to(1)
                }
                1 => {
                    // Rotate: lane reads neighbour's slot (lock-step makes
                    // the previous stores visible).
                    let v = mem.shared_load((lane + 1) % 3);
                    mem.store_f64(self.y, lane, v);
                    Effect::exit()
                }
                _ => unreachable!(),
            }
        }
        fn reconv(&self, _pc: Pc) -> Pc {
            unreachable!("uniform control flow")
        }
    }

    #[test]
    fn shared_memory_visible_across_lanes_in_lockstep() {
        let mut dev = GpuDevice::new(DeviceConfig::toy());
        let y = dev.mem().alloc_f64_zeroed(3);
        let stats = dev.launch(&SharedKernel { y }, 1).unwrap();
        assert_eq!(dev.mem_ref().read_f64(y), &[2.0, 3.0, 1.0]);
        assert_eq!(stats.shared_ops, 6);
    }

    #[test]
    fn zero_warps_is_a_wellformed_noop_launch() {
        let mut dev = GpuDevice::new(DeviceConfig::toy());
        let flag = dev.mem().alloc_flags(1);
        let stats = dev.launch(&CrossWarpSpin { flag }, 0).unwrap();
        assert_eq!(stats.launches, 1);
        assert_eq!(stats.warps_launched, 0);
        assert_eq!(stats.warp_instructions, 0);
        assert_eq!(stats.lanes_retired, 0);
        assert_eq!(stats.cycles, dev.config().launch_overhead_cycles);
        // Memory is untouched and no profile is emitted even when armed.
        assert_eq!(dev.mem_ref().read_flags(flag), &[0]);
        let mut dev = GpuDevice::new(DeviceConfig::toy().with_profile(ProfileMode::sampled(8)));
        let flag = dev.mem().alloc_flags(1);
        let stats = dev.launch(&CrossWarpSpin { flag }, 0).unwrap();
        assert!(dev.take_profiles().is_empty());
        assert_eq!(stats.warps_launched, 0);
    }

    #[test]
    fn oversized_grid_is_a_launch_error() {
        let mut dev = GpuDevice::new(DeviceConfig::toy());
        let flag = dev.mem().alloc_flags(1);
        let too_many = u32::MAX as usize / dev.config().warp_size + 1;
        let err = dev.launch(&CrossWarpSpin { flag }, too_many).unwrap_err();
        assert!(matches!(err, SimtError::Launch(_)));
    }

    #[test]
    fn profiled_launch_matches_unprofiled_stats_and_accounts_all_slots() {
        let n = 3000usize;
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let run = |profile: ProfileMode| {
            let cfg = DeviceConfig::pascal_like().with_profile(profile);
            let mut dev = GpuDevice::new(cfg);
            let x = dev.mem().alloc_f64(&xs);
            let y = dev.mem().alloc_f64_zeroed(n);
            let stats = dev
                .launch(&DoubleKernel { n, x, y }, n.div_ceil(32))
                .unwrap();
            (
                stats,
                dev.take_profiles(),
                dev.mem_ref().read_f64(y).to_vec(),
            )
        };
        let (plain, plain_profiles, y_plain) = run(ProfileMode::Off);
        let (profiled, mut profiles, y_prof) = run(ProfileMode::sampled(64));
        assert!(plain_profiles.is_empty());
        assert_eq!(plain, profiled, "profiling must not perturb");
        assert_eq!(y_plain, y_prof);
        assert_eq!(profiles.len(), 1, "sampled mode yields one profile");
        let p = profiles.pop().unwrap();
        assert_eq!(p.kernel, "double");
        assert_eq!(p.interval_cycles, 64);
        // Every issue slot the stats counted appears in the timeline.
        assert_eq!(p.issued_slots, profiled.warp_instructions);
        // Buckets account for every SM issue slot of the whole run: one
        // slot per SM per tick, so the total is within one cycle's worth of
        // total_cycles × slot capacity.
        let cap = p.sm_count as u64 * p.schedulers_per_sm as u64;
        let slots = p.total_slots();
        assert!(slots > p.total_cycles.saturating_sub(1) * cap);
        assert!(slots <= p.total_cycles * cap + p.sm_count as u64);
        // No bucket exceeds its per-interval capacity.
        let per_bucket_cap = p.interval_cycles * p.schedulers_per_sm as u64;
        for b in &p.buckets {
            assert!(b.slots.iter().sum::<u64>() <= per_bucket_cap);
        }
        assert!(!p.warp_spans.is_empty());
        assert!(p.phases.iter().any(|ph| ph.warp_instructions > 0));
    }

    #[test]
    fn determinism_same_launch_same_stats() {
        let run = || {
            let mut dev = GpuDevice::new(DeviceConfig::pascal_like());
            let n = 1000usize;
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let x = dev.mem().alloc_f64(&xs);
            let y = dev.mem().alloc_f64_zeroed(n);
            dev.launch(&DoubleKernel { n, x, y }, n.div_ceil(32))
                .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn bandwidth_queue_bounds_streaming_throughput() {
        // A kernel that streams far more data than latency alone explains:
        // the DRAM queue must stretch the run to at least bytes / bandwidth.
        let mut cfg = DeviceConfig::pascal_like();
        cfg.dram_bw_gbps = 16.0; // 10 bytes per cycle at 1.6 GHz
        let mut dev = GpuDevice::new(cfg.clone());
        let n = 64 * 1024usize;
        let xs = vec![1.0f64; n];
        let x = dev.mem().alloc_f64(&xs);
        let y = dev.mem().alloc_f64_zeroed(n);
        let stats = dev
            .launch(&DoubleKernel { n, x, y }, n.div_ceil(32))
            .unwrap();
        let bytes = stats.dram_read_bytes + stats.dram_write_bytes;
        assert_eq!(
            bytes as usize,
            2 * n * 8,
            "streaming traffic is the footprint"
        );
        let min_cycles = bytes as f64 / cfg.bytes_per_cycle();
        assert!(
            (stats.cycles as f64) >= min_cycles * 0.9,
            "cycles {} must be bandwidth-bound (>= {:.0})",
            stats.cycles,
            min_cycles
        );
    }

    #[test]
    fn occupancy_limits_latency_hiding() {
        // The same launch with fewer resident warps per SM must take longer:
        // less latency hiding — the mechanism behind the paper's occupancy
        // argument.
        let run = |max_warps: usize| {
            let mut cfg = DeviceConfig::pascal_like();
            cfg.sm_count = 1;
            cfg.max_warps_per_sm = max_warps;
            let mut dev = GpuDevice::new(cfg);
            let n = 4096usize;
            let xs = vec![1.0f64; n];
            let x = dev.mem().alloc_f64(&xs);
            let y = dev.mem().alloc_f64_zeroed(n);
            dev.launch(&DoubleKernel { n, x, y }, n.div_ceil(32))
                .unwrap()
                .cycles
        };
        let low_occupancy = run(2);
        let high_occupancy = run(64);
        assert!(
            low_occupancy > 2 * high_occupancy,
            "2 resident warps ({low_occupancy} cycles) must be far slower than 64 ({high_occupancy})"
        );
    }

    #[test]
    fn issue_width_bounds_alu_throughput() {
        // A pure-ALU kernel issues at most schedulers_per_sm instructions
        // per SM per cycle.
        struct AluKernel;
        impl WarpKernel for AluKernel {
            type Lane = u32;
            fn name(&self) -> &'static str {
                "alu"
            }
            fn make_lane(&self, _tid: u32) -> u32 {
                0
            }
            fn exec(&self, _pc: Pc, l: &mut u32, _tid: u32, _m: &mut LaneMem<'_>) -> Effect {
                *l += 1;
                if *l < 64 {
                    Effect::flops(0, 1)
                } else {
                    Effect::exit()
                }
            }
            fn reconv(&self, _pc: Pc) -> Pc {
                PC_EXIT
            }
        }
        let mut cfg = DeviceConfig::pascal_like();
        cfg.sm_count = 1;
        cfg.schedulers_per_sm = 2;
        cfg.alu_latency = 1;
        cfg.launch_overhead_cycles = 0;
        let mut dev = GpuDevice::new(cfg);
        let stats = dev.launch(&AluKernel, 64).unwrap();
        // 64 warps x 64 instructions at <= 2 per cycle >= 2048 cycles.
        assert!(stats.warp_instructions == 64 * 64);
        assert!(
            stats.cycles >= 64 * 64 / 2,
            "cycles {} below the issue-width bound",
            stats.cycles
        );
    }

    /// The fence-before-flag publish protocol, in three layouts: correct
    /// (store x, fence, set flag), fence-stripped, and flag-first (set flag,
    /// fence, then store x — the fence protects the wrong store).
    #[derive(Clone, Copy, PartialEq)]
    enum PublishMode {
        Fenced,
        NoFence,
        FlagFirst,
    }

    /// Warp 0 lane 0 produces `x[0]` and publishes it; warp 1 lane 0 spins
    /// on the flag, then reads `x[0]` into `y[0]`.
    struct ProducerConsumer {
        mode: PublishMode,
        x: BufF64,
        y: BufF64,
        flag: BufFlag,
    }

    impl WarpKernel for ProducerConsumer {
        type Lane = f64;
        fn name(&self) -> &'static str {
            "producer-consumer"
        }
        fn make_lane(&self, _tid: u32) -> f64 {
            0.0
        }
        fn exec(&self, pc: Pc, l: &mut f64, tid: u32, mem: &mut LaneMem<'_>) -> Effect {
            match pc {
                0 => Effect::to(match tid {
                    0 => 1,
                    3 => 10,
                    _ => PC_EXIT,
                }),
                // Producer, in mode order.
                1 => match self.mode {
                    PublishMode::FlagFirst => {
                        mem.store_flag(self.flag, 0, true);
                        Effect::to(2)
                    }
                    _ => {
                        mem.store_f64(self.x, 0, 42.0);
                        Effect::to(if self.mode == PublishMode::Fenced {
                            2
                        } else {
                            3
                        })
                    }
                },
                2 => Effect::fence(3),
                3 => match self.mode {
                    PublishMode::FlagFirst => {
                        mem.store_f64(self.x, 0, 42.0);
                        Effect::exit()
                    }
                    _ => {
                        mem.store_flag(self.flag, 0, true);
                        Effect::exit()
                    }
                },
                // Consumer spin loop.
                10 => {
                    let ready = mem.poll_flag(self.flag, 0);
                    Effect::to(if ready { 11 } else { 10 })
                }
                11 => {
                    *l = mem.load_f64(self.x, 0);
                    Effect::to(12)
                }
                12 => {
                    mem.store_f64(self.y, 0, *l);
                    Effect::exit()
                }
                _ => unreachable!(),
            }
        }
        fn reconv(&self, pc: Pc) -> Pc {
            match pc {
                0 => PC_EXIT,
                10 => 11,
                _ => unreachable!(),
            }
        }
    }

    fn run_producer_consumer(
        mode: PublishMode,
        model: crate::MemoryModel,
    ) -> (Result<LaunchStats, SimtError>, f64) {
        let mut dev = GpuDevice::new(DeviceConfig::toy().with_memory_model(model));
        let x = dev.mem().alloc_f64_zeroed(1);
        let y = dev.mem().alloc_f64_zeroed(1);
        let flag = dev.mem().alloc_flags(1);
        let res = dev.launch(&ProducerConsumer { mode, x, y, flag }, 2);
        let y_val = dev.mem_ref().read_f64(y)[0];
        (res, y_val)
    }

    #[test]
    fn fenced_publish_is_correct_under_every_model() {
        use crate::MemoryModel;
        for model in [
            MemoryModel::SequentiallyConsistent,
            MemoryModel::relaxed(10_000),
            MemoryModel::racecheck(10_000),
        ] {
            let (res, y) = run_producer_consumer(PublishMode::Fenced, model);
            let stats = res.unwrap();
            assert_eq!(y, 42.0, "under {model:?}");
            if model.is_relaxed() {
                assert!(stats.drained_stores >= 2, "x and flag both drained");
                assert_eq!(stats.stale_reads, 0);
            }
        }
    }

    #[test]
    fn per_sm_scope_shares_the_buffer_within_an_sm() {
        use crate::{MemoryModel, StoreScope};
        // Toy device has a single SM, so under Sm scope the consumer warp
        // shares the producer's buffer: even the fence-stripped layout
        // forwards and completes without a race.
        let model = MemoryModel::Relaxed {
            drain_ticks: 10_000,
            scope: StoreScope::Sm,
            racecheck: true,
        };
        let (res, y) = run_producer_consumer(PublishMode::NoFence, model);
        res.unwrap();
        assert_eq!(y, 42.0);
    }

    #[test]
    fn missing_fence_is_a_detected_race_under_racecheck() {
        use crate::MemoryModel;
        // Under SC the bug is invisible...
        let (res, y) =
            run_producer_consumer(PublishMode::NoFence, MemoryModel::SequentiallyConsistent);
        res.unwrap();
        assert_eq!(y, 42.0, "SC silently certifies the broken kernel");
        // ...racecheck rejects it with full attribution.
        let (res, _) = run_producer_consumer(PublishMode::NoFence, MemoryModel::racecheck(10_000));
        match res.unwrap_err() {
            SimtError::RaceDetected {
                kernel,
                index,
                producer_warp,
                consumer_warp,
                pc,
                ..
            } => {
                assert_eq!(kernel, "producer-consumer");
                assert_eq!(index, 0);
                assert_eq!(producer_warp, 0);
                assert_eq!(consumer_warp, 1);
                assert_eq!(pc, 11, "the consumer's x load races");
            }
            other => panic!("expected a race, got {other:?}"),
        }
    }

    #[test]
    fn flag_before_store_reads_stale_data_under_relaxed() {
        use crate::MemoryModel;
        // Flag-first is broken even under SC when the consumer's poll lands
        // in the window between the flag store and the x store — as it does
        // in the toy schedule. The relaxed model widens that window from a
        // couple of cycles to the whole drain delay.
        let (res, y) =
            run_producer_consumer(PublishMode::FlagFirst, MemoryModel::SequentiallyConsistent);
        res.unwrap();
        assert_eq!(y, 0.0, "consumer outruns the producer even under SC");
        // Relaxed (no racecheck): the fence publishes the *flag*, the x
        // store stays buffered, and the consumer reads a stale 0.0.
        let (res, y) = run_producer_consumer(PublishMode::FlagFirst, MemoryModel::relaxed(10_000));
        let stats = res.unwrap();
        assert_eq!(y, 0.0, "wrong result is observable");
        assert!(stats.stale_reads >= 1, "and counted: {stats:?}");
        // Racecheck names the racy read instead.
        let (res, _) =
            run_producer_consumer(PublishMode::FlagFirst, MemoryModel::racecheck(10_000));
        assert!(matches!(
            res.unwrap_err(),
            SimtError::RaceDetected { pc: 11, .. }
        ));
    }

    #[test]
    fn more_warps_than_resident_still_completes() {
        let mut cfg = DeviceConfig::toy();
        cfg.max_warps_per_sm = 1; // only one resident warp
        let mut dev = GpuDevice::new(cfg);
        let n = 30usize; // 10 warps of 3 lanes
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let x = dev.mem().alloc_f64(&xs);
        let y = dev.mem().alloc_f64_zeroed(n);
        let stats = dev.launch(&DoubleKernel { n, x, y }, 10).unwrap();
        assert_eq!(stats.warps_launched, 10);
        let out = dev.mem_ref().read_f64(y);
        assert!(out.iter().enumerate().all(|(i, &v)| v == 2.0 * i as f64));
    }

    /// Spins on `flag[0]` (a value only an external event can set), then
    /// copies `x[0]` to `y[0]` — the consumer half of a cross-device
    /// boundary exchange, with no on-device producer at all.
    struct WaitForLink {
        flag: BufFlag,
        x: BufF64,
        y: BufF64,
    }

    #[derive(Default)]
    struct WaitLane {
        v: f64,
    }

    impl WarpKernel for WaitForLink {
        type Lane = WaitLane;
        fn name(&self) -> &'static str {
            "wait-for-link"
        }
        fn make_lane(&self, _tid: u32) -> WaitLane {
            WaitLane::default()
        }
        fn exec(&self, pc: Pc, lane: &mut WaitLane, _tid: u32, mem: &mut LaneMem<'_>) -> Effect {
            match pc {
                0 => {
                    let f = mem.poll_flag(self.flag, 0);
                    Effect::to(if f { 1 } else { 0 })
                }
                1 => {
                    lane.v = mem.load_f64(self.x, 0);
                    Effect::to(2)
                }
                2 => {
                    mem.store_f64(self.y, 0, lane.v);
                    Effect::exit()
                }
                _ => unreachable!(),
            }
        }
        fn reconv(&self, _pc: Pc) -> Pc {
            PC_EXIT // the spin branch is warp-uniform, it never diverges
        }
        fn spin_pure(&self, pc: Pc) -> bool {
            pc == 0
        }
    }

    #[test]
    fn external_events_unblock_a_spinning_warp_under_every_model() {
        use crate::mem::{ExtEvent, ExtOp};
        use crate::MemoryModel;
        for mm in [
            MemoryModel::SequentiallyConsistent,
            MemoryModel::relaxed(64),
            MemoryModel::racecheck(64),
        ] {
            for spin in [SpinModel::Replay, SpinModel::FastForward] {
                let cfg = DeviceConfig::toy()
                    .with_memory_model(mm)
                    .with_spin_model(spin);
                let mut dev = GpuDevice::new(cfg);
                let flag = dev.mem().alloc_flags(1);
                let x = dev.mem().alloc_f64_zeroed(1);
                let y = dev.mem().alloc_f64_zeroed(1);
                let k = WaitForLink { flag, x, y };
                // The value arrives before its ready-flag, like a real
                // boundary exchange (value message, then flag message).
                let arrival = 4000u64;
                let events = [
                    ExtEvent {
                        tick: arrival - 10,
                        buf: x.raw(),
                        idx: 0,
                        op: ExtOp::StoreF64(6.5),
                    },
                    ExtEvent {
                        tick: arrival,
                        buf: flag.raw(),
                        idx: 0,
                        op: ExtOp::StoreFlag(true),
                    },
                ];
                let stats = dev
                    .launch_with_events(&k, 1, &events)
                    .unwrap_or_else(|e| panic!("{mm:?}/{spin:?}: {e}"));
                assert_eq!(dev.mem_ref().read_f64(y)[0], 6.5, "{mm:?}/{spin:?}");
                // The spin cannot end before the flag's arrival tick.
                let tpc = dev.config().schedulers_per_sm.max(1) as u64;
                assert!(
                    stats.cycles >= arrival / tpc,
                    "{mm:?}/{spin:?}: finished at {} < arrival {}",
                    stats.cycles,
                    arrival / tpc
                );
            }
        }
    }

    #[test]
    fn a_spin_with_no_event_is_still_a_deadlock() {
        let cfg = DeviceConfig::toy().with_spin_model(SpinModel::FastForward);
        let mut dev = GpuDevice::new(cfg);
        let flag = dev.mem().alloc_flags(1);
        let x = dev.mem().alloc_f64_zeroed(1);
        let y = dev.mem().alloc_f64_zeroed(1);
        let k = WaitForLink { flag, x, y };
        match dev.launch_with_events(&k, 1, &[]) {
            Err(SimtError::Deadlock { warps, .. }) => {
                assert!(
                    warps
                        .iter()
                        .any(|w| w.waiting_on.contains(&(flag.raw(), 0))),
                    "waiter graph names the flag: {warps:?}"
                );
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn unsorted_external_events_are_a_launch_error() {
        use crate::mem::{ExtEvent, ExtOp};
        let mut dev = GpuDevice::new(DeviceConfig::toy());
        let flag = dev.mem().alloc_flags(1);
        let x = dev.mem().alloc_f64_zeroed(1);
        let y = dev.mem().alloc_f64_zeroed(1);
        let ev = |tick| ExtEvent {
            tick,
            buf: flag.raw(),
            idx: 0,
            op: ExtOp::StoreFlag(true),
        };
        let err = dev
            .launch_with_events(&WaitForLink { flag, x, y }, 1, &[ev(20), ev(10)])
            .unwrap_err();
        assert!(
            matches!(&err, SimtError::Launch(msg) if msg.contains("sorted by tick")),
            "{err:?}"
        );
        // Nothing ran: the flag is still unset.
        assert_eq!(dev.mem_ref().read_flags(flag), &[0]);
    }

    #[test]
    fn a_failed_launch_keeps_its_state_on_the_device() {
        let mut cfg = DeviceConfig::toy();
        cfg.deadlock_window = 1_000;
        let mut dev = GpuDevice::new(cfg);
        let flag = dev.mem().alloc_flags(1);
        let (x, y) = (
            dev.mem().alloc_f64(&[1.0; 8]),
            dev.mem().alloc_f64_zeroed(8),
        );
        dev.launch(&DoubleKernel { n: 8, x, y }, 3).unwrap();
        let pooled = dev.warp_scratch.len();
        assert!(pooled > 0, "retired warps return to the pool");
        let spinner = IntraWarpSpin {
            flag,
            spin_first: true,
        };
        assert!(matches!(
            dev.launch(&spinner, 1),
            Err(SimtError::Deadlock { .. })
        ));
        // The live warp's allocations go down with the launch; the rest of
        // the pool and the launch state stay for the next launch.
        assert_eq!(dev.warp_scratch.len(), pooled - 1);
        assert_eq!(dev.launch.sm_next_free.len(), dev.config().sm_count);
        assert!(dev.last_launch_heap_events() > 0);
        dev.launch(&DoubleKernel { n: 8, x, y }, 3).unwrap();
        assert_eq!(dev.mem_ref().read_f64(y), &[2.0; 8]);
    }

    #[test]
    fn a_device_without_warp_slots_or_lanes_is_a_config_error() {
        let flag_kernel = |dev: &mut GpuDevice| {
            let flag = dev.mem().alloc_flags(1);
            dev.launch(&CrossWarpSpin { flag }, 2)
        };
        let mut shapes = [(); 4].map(|_| DeviceConfig::toy());
        shapes[0].sm_count = 0;
        shapes[1].max_warps_per_sm = 0;
        shapes[2].warp_size = 0;
        shapes[3].warp_size = 65;
        for cfg in shapes {
            let what = format!(
                "{} SMs x {} warps of {} lanes",
                cfg.sm_count, cfg.max_warps_per_sm, cfg.warp_size
            );
            match flag_kernel(&mut GpuDevice::new(cfg)) {
                Err(SimtError::Config(_)) => {}
                other => panic!("{what}: expected a Config error, got {other:?}"),
            }
        }
    }

    #[test]
    fn zero_warp_launch_still_applies_events() {
        use crate::mem::{ExtEvent, ExtOp};
        let mut dev = GpuDevice::new(DeviceConfig::toy());
        let x = dev.mem().alloc_f64_zeroed(2);
        let events = [ExtEvent {
            tick: 100,
            buf: x.raw(),
            idx: 1,
            op: ExtOp::StoreF64(3.25),
        }];
        let y = dev.mem().alloc_f64_zeroed(1);
        let flag = dev.mem().alloc_flags(1);
        let k = WaitForLink { flag, x, y };
        dev.launch_with_events(&k, 0, &events).unwrap();
        assert_eq!(dev.mem_ref().read_f64(x)[1], 3.25);
    }

    /// The decisions of the `k`-th issue of an arbiter run seeded `seed`,
    /// by warp `w`: its cost (1–4 ticks), whether the warp is pushed a
    /// second time (superseding the first entry, as a re-kick does), and
    /// how far forward another SM's cursor moves (as a wake's advance of
    /// that SM's parked warps moves it). 0 moves nothing.
    fn issue_rolls(seed: u64, k: u64, w: u32) -> (u64, Option<u64>, u64, u64) {
        let mut h = (seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (w as u64) << 40)
            .wrapping_mul(0xD6E8_FEB8_6659_FD93);
        let mut roll = |n: u64| {
            h ^= h >> 29;
            h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (h >> 33) % n
        };
        let cost = 1 + roll(4);
        let again = (roll(5) == 0).then(|| 1 + roll(6));
        let (target, bump) = (roll(64), if roll(4) == 0 { roll(5) } else { 0 });
        (cost, again, target, bump)
    }

    /// One scheduling run of `n_warps` warps, `per_warp` issues each, on
    /// `sm_count` SMs, by the arbiter (`naive` false) or by one global heap
    /// that re-keys a busy warp to its SM's cursor, one pop at a time: the
    /// scheduler the arbiter replaced. Returns the issues `(tick, warp)` in
    /// order.
    fn schedule(
        sm_count: usize,
        n_warps: usize,
        per_warp: u32,
        seed: u64,
        naive: bool,
    ) -> Vec<(u64, u32)> {
        let sms = sm_count.min(n_warps);
        let (mut q, mut heap) = (Queue::default(), BinaryHeap::new());
        q.reset(sms, 64, n_warps);
        let mut seq = vec![0u32; n_warps];
        // Schedules `w` at `t` in whichever scheduler runs.
        let push = |q: &mut Queue, heap: &mut BinaryHeap<_>, seq: &mut [u32], t: u64, w: u32| {
            if naive {
                seq[w as usize] += 1;
                heap.push(Reverse((t, w, seq[w as usize])));
            } else {
                q.push(w as usize % sms, t, w);
            }
        };
        (0..n_warps as u32).for_each(|w| push(&mut q, &mut heap, &mut seq, 0, w));
        (0..sms).for_each(|sm| q.refresh(sm, 0));
        let (mut free, mut issued, mut out) = (vec![0u64; sms], vec![0u32; n_warps], Vec::new());
        loop {
            let (t, w, waiting) = if naive {
                let Some(Reverse((t, w, sq))) = heap.pop() else {
                    break;
                };
                if sq != seq[w as usize] {
                    continue;
                }
                (t, w, false)
            } else {
                let Some((t, w, sm)) = q.first() else { break };
                assert_eq!(sm, w as usize % sms, "warp {w} selected on SM {sm}");
                match q.select(sm, t, w) {
                    Selected::Superseded => {
                        q.refresh(sm, free[sm]);
                        continue;
                    }
                    Selected::Timed => (t, w, false),
                    Selected::Waiting => (t, w, true),
                }
            };
            let sm = w as usize % sms;
            if free[sm] > t {
                if naive {
                    push(&mut q, &mut heap, &mut seq, free[sm], w);
                } else if !waiting {
                    q.wait(sm, w);
                    q.refresh(sm, free[sm]);
                }
                continue;
            }
            if waiting {
                assert_eq!(q.waiting[sm].pop(), Some(w));
            }
            let (cost, again, target, bump) = issue_rolls(seed, out.len() as u64, w);
            out.push((t, w));
            free[sm] = t + 1;
            issued[w as usize] += 1;
            if issued[w as usize] < per_warp {
                push(&mut q, &mut heap, &mut seq, t + cost, w);
                if let Some(d) = again {
                    push(&mut q, &mut heap, &mut seq, t + d, w);
                }
            }
            let other = target as usize % sms;
            free[other] = free[other].max(t + bump);
            if !naive {
                q.refresh(sm, free[sm]);
                q.refresh(other, free[other]);
                let least = (0..sms).map(|s| q.key(s, free[s])).min();
                assert_eq!(Some(q.tree[1]), least, "the root is not the least SM key");
            }
        }
        assert_eq!(out.len(), n_warps * per_warp as usize, "a warp was lost");
        out
    }

    #[test]
    fn arbiter_issues_in_the_order_of_one_rekeying_heap() {
        for sm_count in [1, 2, 3, 5, 20, 33] {
            for n_warps in [1, 7, 100] {
                for seed in 0..3 {
                    let naive = schedule(sm_count, n_warps, 12, seed, true);
                    let arbiter = schedule(sm_count, n_warps, 12, seed, false);
                    assert_eq!(
                        arbiter, naive,
                        "{sm_count} SMs, {n_warps} warps, seed {seed}: the issue order moved"
                    );
                }
            }
        }
    }
}
