//! Device memory: typed buffers with per-sector touch tracking.
//!
//! The traffic model charges DRAM for the *first* touch of each 32-byte
//! sector (read and write tracked separately) and treats later touches as L2
//! hits — an "infinite L2" approximation that makes total DRAM traffic equal
//! the working-set footprint, which is the regime the paper's matrices
//! (a few MB, within real L2 reach for the hot arrays) operate in.

use std::collections::HashMap;

use crate::kernel::Pc;

/// Bytes per memory sector/transaction (NVIDIA L2 sector size).
pub const SECTOR_BYTES: u32 = 32;

/// Per-owner store-buffer capacity under the relaxed model. Real GPUs hold
/// a handful of outstanding stores per sub-core; overflowing the buffer
/// force-drains the oldest entry (without publishing it).
const STORE_BUFFER_CAP: usize = 8;

/// Handle to a device buffer of `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufF64(pub(crate) u32);

/// Handle to a device buffer of `u32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufU32(pub(crate) u32);

/// Handle to a device buffer of byte flags (the paper's `get_value` array).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufFlag(pub(crate) u32);

impl BufF64 {
    /// Raw buffer id, for cross-device event plumbing ([`ExtEvent::buf`]).
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl BufU32 {
    /// Raw buffer id, for cross-device event plumbing ([`ExtEvent::buf`]).
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl BufFlag {
    /// Raw buffer id, for cross-device event plumbing ([`ExtEvent::buf`]).
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// The payload of every write to simulated memory: a warp store or atomic,
/// a buffered store as it drains, and a link-delivered boundary write.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExtOp {
    /// Overwrite an `f64` word (a finished boundary `x` value).
    StoreF64(f64),
    /// Overwrite a completion flag (the paper's `get_value` bit).
    StoreFlag(bool),
    /// Atomic add of a delta to an `f64` word (CSC left-sum forwarding —
    /// deltas, not totals, so FP accumulation order is preserved).
    AddF64(f64),
    /// Atomic subtract of a delta from a `u32` word (CSC in-degree
    /// countdown forwarding).
    SubU32(u32),
}

/// One write to one word at a fixed tick. The publication watch
/// ([`DeviceMemory::set_watch`]) captures a producer's writes as
/// `ExtEvent`s, and `GpuDevice::launch_with_events` applies link-delivered
/// ones on a consumer; the multi-device coordinator turns the first into
/// the second by pushing them through the inter-device link model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtEvent {
    /// Engine tick (cycles × schedulers per SM) at which the write becomes
    /// visible (reaches DRAM) on the device it happens on. Under the
    /// relaxed model a captured store is visible at its drain, fence or
    /// atomic-sync tick, not at execution, so cross-device consumers never
    /// observe a value earlier than an on-device consumer could have.
    pub tick: u64,
    /// Raw buffer id on that device ([`BufF64::raw`] etc.).
    pub buf: u32,
    /// Element index within the buffer.
    pub idx: u32,
    /// The write (atomics carry the delta, not the total).
    pub op: ExtOp,
}

/// Publication watch: buffer ids to observe plus everything captured so
/// far. Armed by the multi-device coordinator on producer devices.
struct WatchState {
    bufs: Vec<u32>,
    records: Vec<ExtEvent>,
}

/// Records a DRAM-visible write to a watched buffer. Free function so call
/// sites inside `retain` closures can borrow it disjointly from the
/// relaxed-model state.
fn watch_note(watch: &mut Option<WatchState>, buf: u32, idx: usize, tick: u64, op: ExtOp) {
    if let Some(w) = watch {
        if w.bufs.contains(&buf) {
            w.records.push(ExtEvent {
                tick,
                buf,
                idx: idx as u32,
                op,
            });
        }
    }
}

enum BufData {
    F64(Vec<f64>),
    U32(Vec<u32>),
    Flag(Vec<u8>),
}

struct Buffer {
    data: BufData,
    /// One bit per sector: has this sector ever been read?
    read_touched: Vec<u64>,
    /// One bit per sector: has this sector ever been written?
    write_touched: Vec<u64>,
}

impl Buffer {
    fn len(&self) -> usize {
        match &self.data {
            BufData::F64(v) => v.len(),
            BufData::U32(v) => v.len(),
            BufData::Flag(v) => v.len(),
        }
    }

    fn new(data: BufData) -> Self {
        let bytes = match &data {
            BufData::F64(v) => v.len() * 8,
            BufData::U32(v) => v.len() * 4,
            BufData::Flag(v) => v.len(),
        };
        let sectors = bytes.div_ceil(SECTOR_BYTES as usize);
        let words = sectors.div_ceil(64);
        Buffer {
            data,
            read_touched: vec![0; words],
            write_touched: vec![0; words],
        }
    }
}

/// Writes `op` into word `idx` of buffer `buf`: the one place a launch
/// changes a buffer's contents (warp stores and atomics, store-buffer
/// drains and link events all end here). Panics if the op does not match
/// the buffer's element type.
#[inline]
fn apply(bufs: &mut [Buffer], buf: u32, idx: usize, op: ExtOp) {
    match (&mut bufs[buf as usize].data, op) {
        (BufData::F64(v), ExtOp::StoreF64(x)) => v[idx] = x,
        (BufData::F64(v), ExtOp::AddF64(x)) => v[idx] += x,
        (BufData::Flag(v), ExtOp::StoreFlag(x)) => v[idx] = x as u8,
        (BufData::U32(v), ExtOp::SubU32(x)) => v[idx] = v[idx].wrapping_sub(x),
        _ => panic!("write type mismatch on buffer {buf}"),
    }
}

/// The kind of a global-memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Plain load (blocks the warp until the value returns).
    Load,
    /// Plain store (fire-and-forget).
    Store,
    /// Read-modify-write resolved at the L2 (blocks like a load, writes
    /// like a store).
    Atomic,
}

/// One recorded global-memory access (at most one per lane per instruction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawAccess {
    /// Buffer id.
    pub buf: u32,
    /// Sector index within the buffer.
    pub sector: u32,
    /// Access kind.
    pub kind: AccessKind,
    /// Synchronization-protocol access (flag polls, sync counter polls,
    /// atomics): bypasses the optional L1/L2 cache model and always takes
    /// the legacy first-touch path, so spin fast-forward replay stays
    /// bit-exact. Uniform per instruction (every lane of one instruction
    /// issues the same kind of access), so coalescing is unaffected.
    pub bypass: bool,
}

/// A store sitting in an owner's buffer, not yet visible in DRAM.
/// Program order is the push order of `RelaxedState::pending`; the publish
/// epoch lives in the word's [`WordMeta`].
#[derive(Debug, Clone, Copy)]
struct PendingStore {
    owner: u32,
    buf: u32,
    idx: usize,
    /// A `StoreF64` or `StoreFlag`: the simulator has no plain `u32` store.
    op: ExtOp,
    /// Tick at which the store drains on its own.
    due: u64,
}

/// Bookkeeping for one global word with unpublished stores: who last stored
/// it, at which epoch, how many of its stores are still undrained — and the
/// newest value, so same-owner store-to-load forwarding is O(1).
#[derive(Debug, Clone, Copy)]
struct WordMeta {
    owner: u32,
    warp: u32,
    epoch: u64,
    undrained: u32,
    last_op: ExtOp,
}

/// Per-instruction spin observations, recorded by [`LaneMem`] for the
/// engine's fast-forward capture (see [`crate::SpinModel::FastForward`]).
#[derive(Default)]
pub(crate) struct SpinRec {
    /// Words polled not-ready this instruction (one entry per failed lane
    /// poll, so `polled.len()` is the instruction's failed-poll count).
    pub(crate) polled: Vec<(u32, u32)>,
    /// Lane polls that succeeded this instruction.
    pub(crate) polled_ok: u32,
    /// Words read by data loads while `record_reads` is set (the rest of a
    /// captured spin iteration's read set).
    pub(crate) reads: Vec<(u32, u32)>,
    /// Armed by the engine only while capturing a spin-loop iteration.
    pub(crate) record_reads: bool,
}

impl SpinRec {
    /// Clears the per-instruction fields (`reads` persists across a
    /// captured iteration and is drained by the engine).
    pub(crate) fn begin_instr(&mut self) {
        self.polled.clear();
        self.polled_ok = 0;
    }
}

/// Wake scheduled for a parked warp: the waiter and the earliest scheduler
/// key `(tick, min_warp)` at which a poll by that warp can observe the
/// satisfying value — a poll at `tick` sees it only if the polling warp id
/// is `>= min_warp` (heap pop order within a tick is by warp id).
type SpinWake = (u32, u64, u32);

/// An empty list, or the end of one, in [`SpinWaiters`].
const NIL: u32 = u32::MAX;

/// One word's entry in the spin-wait registry's index.
#[derive(Clone, Copy)]
struct WordSlot {
    /// The word's first and last registrations, or [`NIL`].
    head: u32,
    tail: u32,
    /// Equal to [`SpinWaiters::stamp`] while the word is in the watch set
    /// being deduplicated.
    stamp: u32,
}

/// One registration: parked `warp` waits on the word of index slot
/// `slot`. A word's registrations are a doubly linked list in park order.
/// A free node has warp [`NIL`] and chains the free list through `next`.
#[derive(Clone, Copy)]
struct Waiter {
    warp: u32,
    prev: u32,
    next: u32,
    slot: u32,
}

/// Registry of warps parked on global words under
/// [`crate::SpinModel::FastForward`], dense over the buffers the kernel
/// watches: one [`WordSlot`] per element of each watched buffer, allocated
/// the first time the launch watches the buffer, heading a list of
/// registrations in one slab. A park and an unpark cost O(watched words)
/// and a wake walks one list, with no hashing; the slot's stamp
/// deduplicates a watch set in O(1) per word. O(1) to consult whenever no
/// warp is parked. Released at launch end: kept across launches, it would
/// hold a slot per element of every buffer any launch watched.
struct SpinWaiters {
    /// Per buffer, by raw id: the index of its first slot in `slots`, or
    /// [`NIL`] while the launch has not watched it.
    base: Vec<u32>,
    /// The watched buffers' slots, each buffer's contiguous.
    slots: Vec<WordSlot>,
    /// Registrations, live and free.
    nodes: Vec<Waiter>,
    /// The first free node, or [`NIL`].
    free: u32,
    /// Live registrations.
    registered: usize,
    /// The dedupe generation (see [`WordSlot::stamp`]).
    stamp: u32,
    /// Wakes produced by stores/fences/atomics, drained by the engine
    /// after every executed instruction.
    wakes: Vec<SpinWake>,
}

impl Default for SpinWaiters {
    fn default() -> Self {
        SpinWaiters {
            base: Vec::new(),
            slots: Vec::new(),
            nodes: Vec::new(),
            free: NIL,
            registered: 0,
            stamp: 0,
            wakes: Vec::new(),
        }
    }
}

impl SpinWaiters {
    /// The slot of word `idx` of buffer `buf`, if a launch watches `buf`.
    #[inline]
    fn find(&self, buf: u32, idx: usize) -> Option<usize> {
        match self.base.get(buf as usize) {
            Some(&b) if b != NIL => Some(b as usize + idx),
            _ => None,
        }
    }

    /// The slot of word `idx` of buffer `buf`, allocating the buffer's
    /// slots (one per element of `bufs[buf]`) the first time.
    #[inline]
    fn slot(&mut self, bufs: &[Buffer], buf: u32, idx: u32) -> u32 {
        let b = buf as usize;
        if self.base.len() <= b {
            self.base.resize(b + 1, NIL);
        }
        if self.base[b] == NIL {
            self.base[b] = self.slots.len() as u32;
            let len = self.slots.len() + bufs[b].len();
            let empty = WordSlot {
                head: NIL,
                tail: NIL,
                stamp: 0,
            };
            self.slots.resize(len, empty);
        }
        self.base[b] + idx
    }

    /// A stamp no slot holds.
    fn restamp(&mut self) -> u32 {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.slots.iter_mut().for_each(|sl| sl.stamp = 0);
            self.stamp = 1;
        }
        self.stamp
    }

    /// Registers `warp` on the word of slot `slot`, last in its list.
    fn link(&mut self, warp: u32, slot: u32) -> u32 {
        let id = match self.free {
            NIL => self.nodes.len() as u32,
            id => id,
        };
        let sl = &mut self.slots[slot as usize];
        let prev = std::mem::replace(&mut sl.tail, id);
        match prev {
            NIL => sl.head = id,
            prev => self.nodes[prev as usize].next = id,
        }
        let node = Waiter {
            warp,
            prev,
            next: NIL,
            slot,
        };
        if id as usize == self.nodes.len() {
            self.nodes.push(node);
        } else {
            self.free = self.nodes[id as usize].next;
            self.nodes[id as usize] = node;
        }
        self.registered += 1;
        id
    }

    /// Removes registration `id` from its word's list and frees it.
    fn unlink(&mut self, id: u32) {
        let Waiter {
            prev, next, slot, ..
        } = self.nodes[id as usize];
        let sl = &mut self.slots[slot as usize];
        match prev {
            NIL => sl.head = next,
            prev => self.nodes[prev as usize].next = next,
        }
        match next {
            NIL => sl.tail = prev,
            next => self.nodes[next as usize].prev = prev,
        }
        self.nodes[id as usize] = Waiter {
            warp: NIL,
            prev: NIL,
            next: self.free,
            slot: NIL,
        };
        self.free = id;
        self.registered -= 1;
    }
}

/// Queues a wake for every waiter of `(buf, idx)`, in park order. The key
/// names the first scheduler slot at which the *initiating instruction*
/// has executed; a woken warp whose poll still cannot observe the value
/// (e.g. the store is buffered and unpublished) simply fails the poll and
/// re-parks, so waking early is safe while waking late never happens.
fn wake_waiters(spin: &mut SpinWaiters, buf: u32, idx: usize, tick: u64, min_warp: u32) {
    if spin.registered == 0 {
        return;
    }
    let Some(slot) = spin.find(buf, idx) else {
        return;
    };
    let mut id = spin.slots[slot].head;
    while id != NIL {
        let w = spin.nodes[id as usize];
        spin.wakes.push((w.warp, tick, min_warp));
        id = w.next;
    }
}

/// A detected unpublished cross-owner read, reported by the engine as
/// [`crate::SimtError::RaceDetected`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct RaceInfo {
    pub(crate) buf: u32,
    pub(crate) idx: usize,
    pub(crate) producer_warp: u32,
    pub(crate) consumer_warp: u32,
    pub(crate) pc: Pc,
}

/// State of the relaxed memory model for one launch: the store buffers,
/// the per-word publish epochs, and the audit counters.
struct RelaxedState {
    drain_ticks: u64,
    racecheck: bool,
    /// All undrained stores, in program (seq) order.
    pending: Vec<PendingStore>,
    /// Per-owner count of entries in `pending` (capacity enforcement).
    owner_counts: HashMap<u32, usize>,
    /// Racecheck epochs of words stored since the last owning fence.
    words: HashMap<(u32, usize), WordMeta>,
    /// Per-owner fence epoch: every store with `seq < fence_epochs[owner]`
    /// is published (ordering-visible to other owners).
    fence_epochs: HashMap<u32, u64>,
    next_seq: u64,
    /// Earliest `due` among `pending` (fast path for the per-tick drain).
    min_due: u64,
    race: Option<RaceInfo>,
    stale_reads: u64,
    drained_stores: u64,
}

impl RelaxedState {
    fn new(drain_ticks: u64, racecheck: bool) -> Self {
        RelaxedState {
            drain_ticks,
            racecheck,
            pending: Vec::new(),
            owner_counts: HashMap::new(),
            words: HashMap::new(),
            fence_epochs: HashMap::new(),
            next_seq: 0,
            min_due: u64::MAX,
            race: None,
            stale_reads: 0,
            drained_stores: 0,
        }
    }

    fn fence_epoch(&self, owner: u32) -> u64 {
        self.fence_epochs.get(&owner).copied().unwrap_or(0)
    }

    /// Retires one buffered store at `tick`: writes it through, publishes
    /// it to the watch, and drops it from its owner's and its word's
    /// undrained counts. Every drain ends here; the caller decides which
    /// stores drain, at which tick, and whether the drain wakes anyone.
    fn retire(
        &mut self,
        ps: &PendingStore,
        tick: u64,
        bufs: &mut [Buffer],
        watch: &mut Option<WatchState>,
    ) {
        apply(bufs, ps.buf, ps.idx, ps.op);
        watch_note(watch, ps.buf, ps.idx, tick, ps.op);
        self.drained_stores = self.drained_stores.saturating_add(1);
        *self.owner_counts.get_mut(&ps.owner).expect("owner count") -= 1;
        if let Some(m) = self.words.get_mut(&(ps.buf, ps.idx)) {
            m.undrained = m.undrained.saturating_sub(1);
        }
    }

    /// Retires, in program order, every buffered store `tick_of` gives a
    /// drain tick, and recomputes `min_due` over the stores left.
    fn drain(
        &mut self,
        bufs: &mut [Buffer],
        watch: &mut Option<WatchState>,
        mut tick_of: impl FnMut(&PendingStore) -> Option<u64>,
    ) {
        let mut pending = std::mem::take(&mut self.pending);
        let mut min_due = u64::MAX;
        pending.retain(|ps| match tick_of(ps) {
            Some(tick) => {
                self.retire(ps, tick, bufs, watch);
                false
            }
            None => {
                min_due = min_due.min(ps.due);
                true
            }
        });
        self.pending = pending;
        self.min_due = min_due;
    }
}

/// Deterministic per-word drain-time skew: spreads autonomous drains out
/// so a missing fence produces value-dependent (but reproducible) timing,
/// as on real hardware. Same word → same skew, so per-word FIFO holds.
fn drain_skew(buf: u32, idx: usize, drain_ticks: u64) -> u64 {
    let h = (buf as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((idx as u64).wrapping_mul(0x85EB_CA77_C2B2_AE63));
    (h >> 33) % (drain_ticks / 2 + 1)
}

/// Where a cache-probed data load was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CacheHit {
    /// Served by the issuing SM's L1.
    L1,
    /// Missed L1, served by the shared L2 (allocates into L1).
    L2,
    /// Missed both levels; pays the full DRAM path (allocates into both).
    Miss,
}

/// Sector/tag cache state for the finite-cache model
/// ([`crate::DeviceConfig::with_cache`]): per-SM set-associative L1 tag
/// arrays over a shared L2, tracking 32-byte sectors keyed by
/// `(buffer, sector)`. Tags only — all hit/miss/eviction *counters* live in
/// [`crate::LaunchStats`] and are bumped by the engine once per probe, in
/// pop order (DESIGN.md §13). Like the first-touch bitmaps,
/// the tag state persists across launches on the same device.
struct CacheSim {
    l1_sets: usize,
    l1_ways: usize,
    l2_sets: usize,
    l2_ways: usize,
    /// Per-SM L1 tags, flattened `[sm][set][way]`; `u64::MAX` = empty line.
    l1_tags: Vec<u64>,
    /// Last-use stamp per L1 line (LRU victim = smallest stamp).
    l1_lru: Vec<u64>,
    /// Shared L2 tags, flattened `[set][way]`.
    l2_tags: Vec<u64>,
    l2_lru: Vec<u64>,
    /// Monotone use clock: bumped once per probe, so LRU order is a pure
    /// function of the (deterministic) probe sequence.
    clock: u64,
}

/// Empty-line sentinel. A real tag `(buf << 32) | sector` can only equal
/// this for buffer/sector ids of `u32::MAX`, which the allocator never
/// produces.
const EMPTY_LINE: u64 = u64::MAX;

/// Deterministic set-index hash: multiplicative scramble of the sector tag
/// so neighbouring sectors of one buffer spread over sets without aliasing
/// against same-offset sectors of other buffers.
fn cache_set_index(tag: u64, sets: usize) -> usize {
    ((tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % sets
}

impl CacheSim {
    fn new(cfg: &crate::config::CacheConfig, sm_count: usize) -> Self {
        let (l1_sets, l1_ways) = (cfg.l1_sets.max(1), cfg.l1_ways.max(1));
        let (l2_sets, l2_ways) = (cfg.l2_sets.max(1), cfg.l2_ways.max(1));
        CacheSim {
            l1_sets,
            l1_ways,
            l2_sets,
            l2_ways,
            l1_tags: vec![EMPTY_LINE; sm_count.max(1) * l1_sets * l1_ways],
            l1_lru: vec![0; sm_count.max(1) * l1_sets * l1_ways],
            l2_tags: vec![EMPTY_LINE; l2_sets * l2_ways],
            l2_lru: vec![0; l2_sets * l2_ways],
            clock: 0,
        }
    }

    /// Looks `tag` up in the line range `[base, base+ways)`; on hit bumps
    /// its stamp and returns true. On miss installs it over the LRU way and
    /// returns `(false, evicted_valid_line)`.
    fn probe_level(
        tags: &mut [u64],
        lru: &mut [u64],
        base: usize,
        ways: usize,
        tag: u64,
        clock: u64,
    ) -> (bool, bool) {
        let lines = &mut tags[base..base + ways];
        if let Some(w) = lines.iter().position(|&t| t == tag) {
            lru[base + w] = clock;
            return (true, false);
        }
        let victim = (0..ways).min_by_key(|&w| lru[base + w]).unwrap_or(0);
        let evicted = lines[victim] != EMPTY_LINE;
        lines[victim] = tag;
        lru[base + victim] = clock;
        (false, evicted)
    }

    /// Simulates one sector load by SM `sm`. Returns where it hit and how
    /// many valid lines the allocation(s) evicted.
    fn probe(&mut self, sm: usize, tag: u64) -> (CacheHit, u64) {
        self.clock += 1;
        let l1_base = (sm * self.l1_sets + cache_set_index(tag, self.l1_sets)) * self.l1_ways;
        let (l1_hit, l1_evict) = Self::probe_level(
            &mut self.l1_tags,
            &mut self.l1_lru,
            l1_base,
            self.l1_ways,
            tag,
            self.clock,
        );
        if l1_hit {
            return (CacheHit::L1, 0);
        }
        let l2_base = cache_set_index(tag, self.l2_sets) * self.l2_ways;
        let (l2_hit, l2_evict) = Self::probe_level(
            &mut self.l2_tags,
            &mut self.l2_lru,
            l2_base,
            self.l2_ways,
            tag,
            self.clock,
        );
        let evictions = l1_evict as u64 + l2_evict as u64;
        if l2_hit {
            (CacheHit::L2, evictions)
        } else {
            (CacheHit::Miss, evictions)
        }
    }

    /// A store or atomic to `tag`: drops the sector from *every* SM's L1 so
    /// later consumer loads re-fetch through L2 (write-through with
    /// cross-SM invalidation — the sector is never dirty). The shared L2
    /// stays valid: it sees the write.
    fn invalidate(&mut self, tag: u64) {
        let sm_count = self.l1_tags.len() / (self.l1_sets * self.l1_ways);
        let set = cache_set_index(tag, self.l1_sets);
        for sm in 0..sm_count {
            let base = (sm * self.l1_sets + set) * self.l1_ways;
            for line in &mut self.l1_tags[base..base + self.l1_ways] {
                if *line == tag {
                    *line = EMPTY_LINE;
                }
            }
        }
    }
}

/// All buffers of one simulated device.
#[derive(Default)]
pub struct DeviceMemory {
    bufs: Vec<Buffer>,
    /// `Some` while a launch runs under [`crate::MemoryModel::Relaxed`].
    relaxed: Option<RelaxedState>,
    /// Parked-warp waiter lists (fast-forward spin model).
    spin: SpinWaiters,
    /// `Some` when the device was built with a [`crate::CacheConfig`].
    cache: Option<CacheSim>,
    /// `Some` while a multi-device coordinator is capturing publications.
    watch: Option<WatchState>,
}

impl DeviceMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Uploads an `f64` slice.
    pub fn alloc_f64(&mut self, data: &[f64]) -> BufF64 {
        self.bufs.push(Buffer::new(BufData::F64(data.to_vec())));
        BufF64(self.bufs.len() as u32 - 1)
    }

    /// Allocates a zero-initialised `f64` buffer.
    pub fn alloc_f64_zeroed(&mut self, len: usize) -> BufF64 {
        self.bufs.push(Buffer::new(BufData::F64(vec![0.0; len])));
        BufF64(self.bufs.len() as u32 - 1)
    }

    /// Uploads a `u32` slice.
    pub fn alloc_u32(&mut self, data: &[u32]) -> BufU32 {
        self.bufs.push(Buffer::new(BufData::U32(data.to_vec())));
        BufU32(self.bufs.len() as u32 - 1)
    }

    /// Allocates a zeroed flag array (the paper's `MALLOC/MEMSET get_value`).
    pub fn alloc_flags(&mut self, len: usize) -> BufFlag {
        self.bufs.push(Buffer::new(BufData::Flag(vec![0; len])));
        BufFlag(self.bufs.len() as u32 - 1)
    }

    /// Host read-back of an `f64` buffer.
    #[inline]
    pub fn read_f64(&self, h: BufF64) -> &[f64] {
        match &self.bufs[h.0 as usize].data {
            BufData::F64(v) => v,
            _ => panic!("buffer {} is not f64", h.0),
        }
    }

    /// Host read-back of a `u32` buffer.
    #[inline]
    pub fn read_u32(&self, h: BufU32) -> &[u32] {
        match &self.bufs[h.0 as usize].data {
            BufData::U32(v) => v,
            _ => panic!("buffer {} is not u32", h.0),
        }
    }

    /// Host read-back of a flag buffer.
    #[inline]
    pub fn read_flags(&self, h: BufFlag) -> &[u8] {
        match &self.bufs[h.0 as usize].data {
            BufData::Flag(v) => v,
            _ => panic!("buffer {} is not flags", h.0),
        }
    }

    /// Host-side reset of a flag buffer (between launches).
    pub fn clear_flags(&mut self, h: BufFlag) {
        match &mut self.bufs[h.0 as usize].data {
            BufData::Flag(v) => v.iter_mut().for_each(|b| *b = 0),
            _ => panic!("buffer {} is not flags", h.0),
        }
    }

    /// Host-side overwrite of an `f64` buffer.
    pub fn write_f64(&mut self, h: BufF64, data: &[f64]) {
        match &mut self.bufs[h.0 as usize].data {
            BufData::F64(v) => {
                assert_eq!(v.len(), data.len(), "host write length mismatch");
                v.copy_from_slice(data);
            }
            _ => panic!("buffer {} is not f64", h.0),
        }
    }

    /// Host-side overwrite of a *prefix* of an `f64` buffer; the remainder
    /// (if any) is zero-filled. This is the reuse path for pooled buffers
    /// whose capacity outlives the current problem size: the stale tail from
    /// a previous, larger solve is scrubbed rather than left observable.
    pub fn write_f64_prefix(&mut self, h: BufF64, data: &[f64]) {
        match &mut self.bufs[h.0 as usize].data {
            BufData::F64(v) => {
                assert!(
                    data.len() <= v.len(),
                    "host write of {} elements exceeds buffer capacity {}",
                    data.len(),
                    v.len()
                );
                v[..data.len()].copy_from_slice(data);
                v[data.len()..].fill(0.0);
            }
            _ => panic!("buffer {} is not f64", h.0),
        }
    }

    /// Host-side fill of an `f64` buffer with a constant (the pooled analogue
    /// of `cudaMemset` on an intermediate array between launches).
    pub fn fill_f64(&mut self, h: BufF64, val: f64) {
        match &mut self.bufs[h.0 as usize].data {
            BufData::F64(v) => v.fill(val),
            _ => panic!("buffer {} is not f64", h.0),
        }
    }

    /// Host-side overwrite of a `u32` buffer (lengths must match). Used to
    /// re-arm consumable state such as SyncFree's in-degree array between
    /// session solves.
    pub fn write_u32(&mut self, h: BufU32, data: &[u32]) {
        match &mut self.bufs[h.0 as usize].data {
            BufData::U32(v) => {
                assert_eq!(v.len(), data.len(), "host write length mismatch");
                v.copy_from_slice(data);
            }
            _ => panic!("buffer {} is not u32", h.0),
        }
    }

    /// Arms the publication watch on the given raw buffer ids: every write
    /// that reaches DRAM (SC stores immediately; relaxed stores when they
    /// drain; atomics at the RMW) in a watched buffer is captured as an
    /// [`ExtEvent`] with its visibility tick. Link events are not captured.
    /// Used by the multi-device coordinator to observe a producer shard's
    /// boundary publications.
    pub fn set_watch(&mut self, bufs: &[u32]) {
        self.watch = Some(WatchState {
            bufs: bufs.to_vec(),
            records: Vec::new(),
        });
    }

    /// Disarms the watch and returns everything captured since
    /// [`DeviceMemory::set_watch`], in capture order (visibility ticks are
    /// non-decreasing per word but not globally sorted).
    pub fn take_watch(&mut self) -> Vec<ExtEvent> {
        self.watch.take().map_or_else(Vec::new, |w| w.records)
    }

    /// Applies one external (link-delivered) operation at tick `ev.tick`:
    /// writes the backing store directly (after an atomic-style sync that
    /// drains any buffered stores to the word), invalidates the sector in
    /// every SM's L1, and wakes parked waiters with `min_warp = 0` — the
    /// link is not a warp, so any poll at or after the tick may observe the
    /// value. Traffic is not charged here; the link model accounts for the
    /// transfer separately.
    pub(crate) fn ext_apply(&mut self, ev: &ExtEvent) {
        let idx = ev.idx as usize;
        self.atomic_sync(ev.buf, idx, ev.tick);
        apply(&mut self.bufs, ev.buf, idx, ev.op);
        let byte_off = match ev.op {
            ExtOp::StoreF64(_) | ExtOp::AddF64(_) => idx * 8,
            ExtOp::SubU32(_) => idx * 4,
            ExtOp::StoreFlag(_) => idx,
        };
        self.cache_invalidate(RawAccess {
            buf: ev.buf,
            sector: (byte_off as u32) / SECTOR_BYTES,
            kind: AccessKind::Store,
            bypass: true,
        });
        wake_waiters(&mut self.spin, ev.buf, idx, ev.tick, 0);
    }

    /// Marks a sector touched; returns true if this is the first touch
    /// (i.e. the access goes to DRAM rather than L2).
    pub(crate) fn touch(&mut self, a: RawAccess) -> bool {
        let buf = &mut self.bufs[a.buf as usize];
        let map = if matches!(a.kind, AccessKind::Store | AccessKind::Atomic) {
            &mut buf.write_touched
        } else {
            &mut buf.read_touched
        };
        let (w, b) = ((a.sector / 64) as usize, a.sector % 64);
        let first = map[w] & (1 << b) == 0;
        map[w] |= 1 << b;
        first
    }

    // ---- finite-cache model (engine-internal) ---------------------------

    /// Arms the finite L1/L2 cache model (device construction with
    /// [`crate::DeviceConfig::with_cache`]). Without this call every probe
    /// helper below is a no-op and the legacy first-touch model is the only
    /// traffic accounting — bit-exact with pre-cache builds.
    pub(crate) fn set_cache(&mut self, cfg: &crate::config::CacheConfig, sm_count: usize) {
        self.cache = Some(CacheSim::new(cfg, sm_count));
    }

    /// Probes the cache hierarchy for one sector load issued by SM `sm`.
    /// Must only be called with the model armed, for non-bypass loads, in
    /// the engine's pop order (determinism contract).
    pub(crate) fn cache_probe(&mut self, sm: usize, a: RawAccess) -> (CacheHit, u64) {
        let tag = ((a.buf as u64) << 32) | a.sector as u64;
        self.cache
            .as_mut()
            .expect("cache model armed")
            .probe(sm, tag)
    }

    /// Invalidates the sector of a store/atomic in every SM's L1 (no-op
    /// with the model off).
    pub(crate) fn cache_invalidate(&mut self, a: RawAccess) {
        if let Some(c) = &mut self.cache {
            c.invalidate(((a.buf as u64) << 32) | a.sector as u64);
        }
    }

    // ---- relaxed memory model (engine-internal) -------------------------

    /// Arms the relaxed model for one launch with fresh buffers/counters.
    pub(crate) fn set_relaxed(&mut self, drain_ticks: u64, racecheck: bool) {
        self.relaxed = Some(RelaxedState::new(drain_ticks, racecheck));
    }

    /// Tick of the next autonomous drain, if a store is buffered: the
    /// earliest due tick, or a lower bound on it after a capacity eviction.
    pub(crate) fn next_drain(&self) -> Option<u64> {
        self.relaxed
            .as_ref()
            .and_then(|rs| (!rs.pending.is_empty()).then_some(rs.min_due))
    }

    /// Drains every store due at or before `now`, in program order, each
    /// at its own due tick, and wakes its word's waiters with
    /// `(due, min_warp)`: every poll from that key on reads the drained
    /// value. The engine drains at [`DeviceMemory::next_drain`] with
    /// `min_warp` 0, so the stores it drains are all due at `now`.
    pub(crate) fn drain_due(&mut self, now: u64, min_warp: u32) {
        let Some(rs) = &mut self.relaxed else { return };
        if now >= rs.min_due {
            let spin = &mut self.spin;
            rs.drain(&mut self.bufs, &mut self.watch, |ps| {
                (ps.due <= now).then(|| {
                    wake_waiters(spin, ps.buf, ps.idx, ps.due, min_warp);
                    ps.due
                })
            });
        }
    }

    /// `__threadfence` by `owner` (executed by `warp` at tick `now`):
    /// drains its store buffer and bumps its fence epoch, publishing
    /// everything it stored so far. Warps parked on a published word are
    /// woken with the fence's visibility key.
    pub(crate) fn fence_drain(&mut self, owner: u32, warp: u32, now: u64) {
        let Some(rs) = &mut self.relaxed else { return };
        let spin = &mut self.spin;
        rs.drain(&mut self.bufs, &mut self.watch, |ps| {
            (ps.owner == owner).then(|| {
                wake_waiters(spin, ps.buf, ps.idx, now, warp.saturating_add(1));
                now
            })
        });
        let epoch = rs.next_seq;
        rs.fence_epochs.insert(owner, epoch);
        // Published words need no further tracking.
        rs.words
            .retain(|_, m| !(m.owner == owner && m.epoch < epoch));
    }

    /// End-of-launch flush: drains everything at `now` (the kernel-boundary
    /// sync of CUDA's launch semantics) and returns the
    /// `(stale_reads, drained_stores)` counters. Disarms the model, so host
    /// read-backs always see the drained state.
    pub(crate) fn finish_relaxed(&mut self, now: u64) -> (u64, u64) {
        let Some(mut rs) = self.relaxed.take() else {
            return (0, 0);
        };
        rs.drain(&mut self.bufs, &mut self.watch, |_| Some(now));
        (rs.stale_reads, rs.drained_stores)
    }

    /// Debug builds: no store is left in a store buffer.
    #[cfg(debug_assertions)]
    pub(crate) fn store_buffers_empty(&self) -> bool {
        self.relaxed.as_ref().is_none_or(|rs| rs.pending.is_empty())
    }

    /// Takes the pending race report, if a racy read occurred.
    pub(crate) fn take_race(&mut self) -> Option<RaceInfo> {
        self.relaxed.as_mut().and_then(|rs| rs.race.take())
    }

    // ---- spin fast-forward waiter registry (engine-internal) ------------

    /// Whether `watch` holds every word of `words`. A closing capture polls
    /// the words it started with, in the same order, so equal lists skip
    /// the stamps.
    pub(crate) fn spin_watch_holds(&mut self, watch: &[(u32, u32)], words: &[(u32, u32)]) -> bool {
        if watch == words {
            return true;
        }
        let (spin, bufs) = (&mut self.spin, &self.bufs);
        let stamp = spin.restamp();
        for &(buf, idx) in watch {
            let sl = spin.slot(bufs, buf, idx);
            spin.slots[sl as usize].stamp = stamp;
        }
        words.iter().all(|&(buf, idx)| {
            let sl = spin.slot(bufs, buf, idx);
            spin.slots[sl as usize].stamp == stamp
        })
    }

    /// Drops the repeats from `watch` and appends each word of `reads` it
    /// does not hold, keeping first-seen order.
    pub(crate) fn spin_watch_dedupe(&mut self, watch: &mut Vec<(u32, u32)>, reads: &[(u32, u32)]) {
        let (spin, bufs) = (&mut self.spin, &self.bufs);
        let stamp = spin.restamp();
        let first = |spin: &mut SpinWaiters, (buf, idx): (u32, u32)| {
            let sl = spin.slot(bufs, buf, idx) as usize;
            std::mem::replace(&mut spin.slots[sl].stamp, stamp) != stamp
        };
        watch.retain(|&wd| first(spin, wd));
        for &wd in reads {
            if first(spin, wd) {
                watch.push(wd);
            }
        }
    }

    /// Parks `warp` on every word in `watch`; `nodes` receives its
    /// registrations, one per word in `watch` order.
    pub(crate) fn spin_park(&mut self, warp: u32, watch: &[(u32, u32)], nodes: &mut Vec<u32>) {
        let (spin, bufs) = (&mut self.spin, &self.bufs);
        nodes.clear();
        for &(buf, idx) in watch {
            let sl = spin.slot(bufs, buf, idx);
            nodes.push(spin.link(warp, sl));
        }
    }

    /// Removes the registrations in `nodes` (a parked warp's, from
    /// [`DeviceMemory::spin_park`]) and empties it.
    pub(crate) fn spin_unpark(&mut self, nodes: &mut Vec<u32>) {
        for &id in nodes.iter() {
            self.spin.unlink(id);
        }
        nodes.clear();
    }

    /// Drains queued wakes into `out` (cleared first).
    pub(crate) fn take_spin_wakes(&mut self, out: &mut Vec<SpinWake>) {
        out.clear();
        out.append(&mut self.spin.wakes);
    }

    /// Clears all waiter state and releases the registry's memory (launch
    /// start and end, and error paths that leave warps parked).
    pub(crate) fn spin_clear(&mut self) {
        let mut wakes = std::mem::take(&mut self.spin.wakes);
        wakes.clear();
        self.spin = SpinWaiters {
            wakes,
            ..SpinWaiters::default()
        };
    }

    /// Debug builds: registration `id`'s warp and word, if it is live and
    /// linked to its neighbours.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn spin_node(&self, id: u32) -> Option<(u32, (u32, u32))> {
        let spin = &self.spin;
        let w = spin.nodes.get(id as usize).filter(|w| w.warp != NIL)?;
        let sl = spin.slots[w.slot as usize];
        let node = |i: u32| &spin.nodes[i as usize];
        let linked = (if w.prev == NIL {
            sl.head == id
        } else {
            node(w.prev).next == id
        }) && (if w.next == NIL {
            sl.tail == id
        } else {
            node(w.next).prev == id
        });
        // The watched buffer whose slots hold `w.slot`: the one with the
        // greatest base at or below it.
        let (buf, base) = (spin.base.iter().enumerate())
            .filter(|&(_, &b)| b != NIL && b <= w.slot)
            .max_by_key(|&(_, &b)| b)?;
        linked.then_some((w.warp, (buf as u32, w.slot - base)))
    }

    /// Debug builds: live registrations, counted over the registry's slab.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn spin_registered(&self) -> usize {
        let live = self.spin.nodes.iter().filter(|w| w.warp != NIL).count();
        assert_eq!(live, self.spin.registered, "the spin registry miscounts");
        live
    }

    /// Stale data reads observed so far this launch (relaxed model only).
    /// The engine compares this across an instruction to detect that a
    /// candidate spin iteration touched stale data and must not be parked.
    pub(crate) fn stale_count(&self) -> u64 {
        self.relaxed.as_ref().map_or(0, |rs| rs.stale_reads)
    }

    /// Buffers a store by `owner`/`warp` instead of writing DRAM.
    fn relaxed_store(&mut self, owner: u32, warp: u32, buf: u32, idx: usize, op: ExtOp, now: u64) {
        let rs = self.relaxed.as_mut().expect("relaxed model armed");
        if *rs.owner_counts.entry(owner).or_insert(0) >= STORE_BUFFER_CAP {
            // Capacity eviction: force-drain the owner's oldest store.
            // The value reaches DRAM but is NOT published (no fence ran).
            let pos = rs
                .pending
                .iter()
                .position(|ps| ps.owner == owner)
                .expect("owner count says an entry exists");
            let ps = rs.pending.remove(pos);
            rs.retire(&ps, now, &mut self.bufs, &mut self.watch);
            wake_waiters(&mut self.spin, ps.buf, ps.idx, now, warp.saturating_add(1));
        }
        let seq = rs.next_seq;
        rs.next_seq += 1;
        let due = now + rs.drain_ticks + drain_skew(buf, idx, rs.drain_ticks);
        rs.pending.push(PendingStore {
            owner,
            buf,
            idx,
            op,
            due,
        });
        *rs.owner_counts.entry(owner).or_insert(0) += 1;
        rs.min_due = rs.min_due.min(due);
        let m = rs.words.entry((buf, idx)).or_insert(WordMeta {
            owner,
            warp,
            epoch: seq,
            undrained: 0,
            last_op: op,
        });
        m.owner = owner;
        m.warp = warp;
        m.epoch = seq;
        m.undrained += 1;
        m.last_op = op;
        // Wake warps parked on this word as soon as the store *executes*:
        // a co-owner forwards the value immediately, and anyone else
        // re-polls, fails, and re-parks until the drain wakes it again.
        // Waking at execution keeps relaxed-model staleness accounting
        // exact for loops whose bodies read racy words.
        wake_waiters(&mut self.spin, buf, idx, now, warp.saturating_add(1));
    }

    /// Relaxed-model load path. Forwards the reader's own newest buffered
    /// store (program order within an owner); otherwise the caller reads
    /// DRAM, and for data loads (`sync == false`) a cross-owner undrained
    /// store counts as a stale read and — under racecheck — an unpublished
    /// cross-owner store records a race.
    fn relaxed_peek(
        &mut self,
        owner: u32,
        warp: u32,
        pc: Pc,
        buf: u32,
        idx: usize,
        sync: bool,
    ) -> Option<ExtOp> {
        let rs = self.relaxed.as_mut()?;
        let m = rs.words.get(&(buf, idx))?;
        if m.owner == owner {
            // Store-to-load forwarding: the newest value this owner stored
            // to the word (whether still buffered or already drained — by
            // per-word FIFO it is also what DRAM holds once drained).
            return Some(m.last_op);
        }
        if !sync {
            if m.undrained > 0 {
                rs.stale_reads = rs.stale_reads.saturating_add(1);
            }
            if rs.racecheck && m.epoch >= rs.fence_epoch(m.owner) && rs.race.is_none() {
                rs.race = Some(RaceInfo {
                    buf,
                    idx,
                    producer_warp: m.warp,
                    consumer_warp: warp,
                    pc,
                });
            }
        }
        None
    }

    /// Atomics synchronize the word they touch: all pending stores to it
    /// (any owner) drain first, in program order, at the atomic's tick and
    /// without waking anyone (the write that follows wakes), and the word is
    /// published — an atomic RMW at the L2 is ordering-safe by
    /// construction. Link events sync their word the same way.
    fn atomic_sync(&mut self, buf: u32, idx: usize, now: u64) {
        let Some(rs) = &mut self.relaxed else { return };
        rs.drain(&mut self.bufs, &mut self.watch, |ps| {
            (ps.buf == buf && ps.idx == idx).then_some(now)
        });
        rs.words.remove(&(buf, idx));
    }

    /// Total footprint in bytes of all buffers (upper bound on traffic).
    pub fn footprint_bytes(&self) -> u64 {
        self.bufs
            .iter()
            .map(|b| match &b.data {
                BufData::F64(v) => v.len() as u64 * 8,
                BufData::U32(v) => v.len() as u64 * 4,
                BufData::Flag(v) => v.len() as u64,
            })
            .sum()
    }
}

/// The per-lane memory interface handed to [`crate::kernel::WarpKernel::exec`].
///
/// Every method performs the access *functionally* at issue time and records
/// it for the timing/coalescing model. A single `exec` may perform at most
/// one memory access — one instruction, one operation.
pub struct LaneMem<'a> {
    pub(crate) dev: &'a mut DeviceMemory,
    pub(crate) shared: &'a mut [f64],
    pub(crate) accesses: &'a mut Vec<RawAccess>,
    pub(crate) shared_ops: &'a mut u32,
    pub(crate) failed_polls: &'a mut u32,
    /// Store-buffer owner id under the relaxed model (warp or SM scoped).
    pub(crate) owner: u32,
    /// Logical warp id of the executing lane (race attribution).
    pub(crate) warp: u32,
    /// Current engine tick (store drain deadlines).
    pub(crate) now: u64,
    /// Program counter of the executing instruction (race attribution).
    pub(crate) pc: Pc,
    /// Spin observations for the engine's fast-forward capture (`None`
    /// under [`crate::SpinModel::Replay`]).
    pub(crate) spin: Option<&'a mut SpinRec>,
    #[cfg(debug_assertions)]
    pub(crate) ops_this_exec: u32,
}

impl<'a> LaneMem<'a> {
    #[inline]
    fn note_read(&mut self, buf: u32, idx: usize) {
        if let Some(s) = self.spin.as_deref_mut() {
            if s.record_reads {
                s.reads.push((buf, idx as u32));
            }
        }
    }

    #[inline]
    fn note_poll(&mut self, buf: u32, idx: usize, ready: bool) {
        if let Some(s) = self.spin.as_deref_mut() {
            if ready {
                s.polled_ok += 1;
            } else {
                s.polled.push((buf, idx as u32));
            }
        }
    }

    #[inline]
    fn record(&mut self, buf: u32, byte_off: usize, kind: AccessKind, bypass: bool) {
        #[cfg(debug_assertions)]
        {
            self.ops_this_exec += 1;
            debug_assert!(
                self.ops_this_exec <= 1,
                "a kernel instruction may perform at most one memory access"
            );
        }
        self.accesses.push(RawAccess {
            buf,
            sector: (byte_off as u32) / SECTOR_BYTES,
            kind,
            bypass,
        });
    }

    /// The setup every warp load shares: records the access, notes the
    /// word in a captured spin iteration's read set and, under the relaxed
    /// model, returns the reader's own forwarded store or does the
    /// stale-read and race accounting. Sync loads (flag and counter polls)
    /// bypass the cache model and are exempt from that accounting.
    // Runs once per lane per memory instruction, like `store` and `commit`;
    // the three are forced inline because an out-of-line `commit` measured
    // 3–5% slower on thread-level solves.
    #[inline(always)]
    fn load(&mut self, buf: u32, idx: usize, byte_off: usize, sync: bool) -> Option<ExtOp> {
        self.record(buf, byte_off, AccessKind::Load, sync);
        self.note_read(buf, idx);
        if self.dev.relaxed.is_some() {
            self.dev
                .relaxed_peek(self.owner, self.warp, self.pc, buf, idx, sync)
        } else {
            None
        }
    }

    /// A plain store: buffered under the relaxed model, committed at once
    /// otherwise.
    // See `load` on inlining.
    #[inline(always)]
    fn store(&mut self, buf: u32, idx: usize, op: ExtOp) {
        if self.dev.relaxed.is_some() {
            self.dev
                .relaxed_store(self.owner, self.warp, buf, idx, op, self.now);
        } else {
            self.commit(buf, idx, op);
        }
    }

    /// Makes a write visible now: applies it, publishes it to the watch and
    /// wakes warps parked on the word with `(now, warp + 1)`.
    // See `load` on inlining.
    #[inline(always)]
    fn commit(&mut self, buf: u32, idx: usize, op: ExtOp) {
        apply(&mut self.dev.bufs, buf, idx, op);
        watch_note(&mut self.dev.watch, buf, idx, self.now, op);
        wake_waiters(
            &mut self.dev.spin,
            buf,
            idx,
            self.now,
            self.warp.saturating_add(1),
        );
    }

    /// Global load of an `f64`.
    #[inline]
    pub fn load_f64(&mut self, h: BufF64, idx: usize) -> f64 {
        match self.load(h.0, idx, idx * 8, false) {
            Some(ExtOp::StoreF64(v)) => v,
            _ => self.dev.read_f64(h)[idx],
        }
    }

    /// Global store of an `f64`.
    #[inline]
    pub fn store_f64(&mut self, h: BufF64, idx: usize, v: f64) {
        self.record(h.0, idx * 8, AccessKind::Store, false);
        self.store(h.0, idx, ExtOp::StoreF64(v));
    }

    /// Global load of a `u32` (data load: racechecked under the relaxed
    /// model; the sync-loop variant is [`LaneMem::poll_zero_u32`]).
    #[inline]
    pub fn load_u32(&mut self, h: BufU32, idx: usize) -> u32 {
        self.load_u32_inner(h, idx, false)
    }

    #[inline]
    fn load_u32_inner(&mut self, h: BufU32, idx: usize, sync: bool) -> u32 {
        let fwd = self.load(h.0, idx, idx * 4, sync);
        debug_assert!(fwd.is_none(), "u32 words are never store-buffered");
        self.dev.read_u32(h)[idx]
    }

    /// Volatile load of a completion flag (the spin-loop poll). Flag loads
    /// are the synchronization protocol itself, so they are exempt from
    /// racecheck — but under the relaxed model they observe the *drained*
    /// flag state (another warp's buffered `store_flag` is invisible).
    #[inline]
    pub fn load_flag(&mut self, h: BufFlag, idx: usize) -> bool {
        match self.load(h.0, idx, idx, true) {
            Some(ExtOp::StoreFlag(v)) => v,
            _ => self.dev.read_flags(h)[idx] != 0,
        }
    }

    /// Volatile poll of a completion flag that also classifies the outcome:
    /// a `false` result is counted as a *dependency-stall* retry — the
    /// quantity behind the paper's Figure 8b. Use this (not `load_flag`)
    /// for `get_value` spin loops.
    #[inline]
    pub fn poll_flag(&mut self, h: BufFlag, idx: usize) -> bool {
        let v = self.load_flag(h, idx);
        if !v {
            *self.failed_polls = self.failed_polls.saturating_add(1);
        }
        self.note_poll(h.0, idx, v);
        v
    }

    /// Store of a completion flag.
    #[inline]
    pub fn store_flag(&mut self, h: BufFlag, idx: usize, v: bool) {
        self.record(h.0, idx, AccessKind::Store, true);
        self.store(h.0, idx, ExtOp::StoreFlag(v));
    }

    /// Volatile poll of a `u32` counter against zero, counting non-zero
    /// results as dependency-stall retries (the in-degree countdown of
    /// CSC-based SyncFree). Sync-exempt from racecheck, like `poll_flag`.
    #[inline]
    pub fn poll_zero_u32(&mut self, h: BufU32, idx: usize) -> bool {
        let v = self.load_u32_inner(h, idx, true);
        if v != 0 {
            *self.failed_polls = self.failed_polls.saturating_add(1);
        }
        self.note_poll(h.0, idx, v == 0);
        v == 0
    }

    /// Atomic `fetch_add` on an `f64` (the scatter update of CSC-based
    /// SyncFree \[20\]); returns the previous value.
    #[inline]
    pub fn atomic_add_f64(&mut self, h: BufF64, idx: usize, v: f64) -> f64 {
        self.record(h.0, idx * 8, AccessKind::Atomic, true);
        self.dev.atomic_sync(h.0, idx, self.now);
        let old = self.dev.read_f64(h)[idx];
        self.commit(h.0, idx, ExtOp::AddF64(v));
        old
    }

    /// Atomic `fetch_sub` on a `u32` (the in-degree countdown of CSC-based
    /// SyncFree); returns the previous value.
    #[inline]
    pub fn atomic_sub_u32(&mut self, h: BufU32, idx: usize, v: u32) -> u32 {
        self.record(h.0, idx * 4, AccessKind::Atomic, true);
        self.dev.atomic_sync(h.0, idx, self.now);
        let old = self.dev.read_u32(h)[idx];
        self.commit(h.0, idx, ExtOp::SubU32(v));
        old
    }

    /// Per-warp shared-memory load.
    #[inline]
    pub fn shared_load(&mut self, idx: usize) -> f64 {
        *self.shared_ops += 1;
        self.shared[idx]
    }

    /// Per-warp shared-memory store.
    #[inline]
    pub fn shared_store(&mut self, idx: usize, v: f64) {
        *self.shared_ops += 1;
        self.shared[idx] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane_mem<'a>(
        dev: &'a mut DeviceMemory,
        shared: &'a mut [f64],
        acc: &'a mut Vec<RawAccess>,
        sops: &'a mut u32,
        polls: &'a mut u32,
    ) -> LaneMem<'a> {
        lane_mem_as(dev, shared, acc, sops, polls, 0, 0)
    }

    /// Test lane with an explicit owner/warp identity (relaxed-model tests).
    fn lane_mem_as<'a>(
        dev: &'a mut DeviceMemory,
        shared: &'a mut [f64],
        acc: &'a mut Vec<RawAccess>,
        sops: &'a mut u32,
        polls: &'a mut u32,
        owner: u32,
        now: u64,
    ) -> LaneMem<'a> {
        LaneMem {
            dev,
            shared,
            accesses: acc,
            shared_ops: sops,
            failed_polls: polls,
            owner,
            warp: owner,
            now,
            pc: 0,
            spin: None,
            #[cfg(debug_assertions)]
            ops_this_exec: 0,
        }
    }

    #[test]
    fn alloc_and_read_back() {
        let mut dev = DeviceMemory::new();
        let f = dev.alloc_f64(&[1.0, 2.0, 3.0]);
        let u = dev.alloc_u32(&[7, 8]);
        let g = dev.alloc_flags(4);
        assert_eq!(dev.read_f64(f), &[1.0, 2.0, 3.0]);
        assert_eq!(dev.read_u32(u), &[7, 8]);
        assert_eq!(dev.read_flags(g), &[0, 0, 0, 0]);
        assert_eq!(dev.footprint_bytes(), 24 + 8 + 4);
    }

    #[test]
    fn loads_and_stores_record_sectors() {
        let mut dev = DeviceMemory::new();
        let f = dev.alloc_f64(&[0.0; 16]);
        let mut acc = Vec::new();
        let mut sops = 0;
        let mut polls = 0u32;
        let mut shared = [0.0f64; 1];
        {
            let mut m = lane_mem(&mut dev, &mut shared, &mut acc, &mut sops, &mut polls);
            m.store_f64(f, 5, 9.0); // byte 40 → sector 1
        }
        assert_eq!(
            acc,
            vec![RawAccess {
                buf: 0,
                sector: 1,
                kind: AccessKind::Store,
                bypass: false
            }]
        );
        assert_eq!(dev.read_f64(f)[5], 9.0);
    }

    #[test]
    fn first_touch_is_dram_then_l2() {
        let mut dev = DeviceMemory::new();
        let f = dev.alloc_f64(&[0.0; 8]);
        let a = RawAccess {
            buf: f.0,
            sector: 0,
            kind: AccessKind::Load,
            bypass: false,
        };
        assert!(dev.touch(a), "first read touch goes to DRAM");
        assert!(!dev.touch(a), "second read touch is an L2 hit");
        let w = RawAccess {
            buf: f.0,
            sector: 0,
            kind: AccessKind::Store,
            bypass: false,
        };
        assert!(dev.touch(w), "write touches tracked separately");
        assert!(!dev.touch(w));
    }

    #[test]
    fn cache_probe_hits_after_fill_and_invalidates_on_store() {
        let cfg = crate::config::CacheConfig::small();
        let mut dev = DeviceMemory::new();
        let f = dev.alloc_f64(&[0.0; 64]);
        dev.set_cache(&cfg, 2);
        let a = RawAccess {
            buf: f.0,
            sector: 3,
            kind: AccessKind::Load,
            bypass: false,
        };
        // Cold: miss both levels, allocate, then hit L1 on SM 0.
        assert_eq!(dev.cache_probe(0, a), (CacheHit::Miss, 0));
        assert_eq!(dev.cache_probe(0, a), (CacheHit::L1, 0));
        // SM 1 has its own L1 but shares the L2.
        assert_eq!(dev.cache_probe(1, a), (CacheHit::L2, 0));
        assert_eq!(dev.cache_probe(1, a), (CacheHit::L1, 0));
        // A store invalidates the sector in *every* SM's L1; the shared L2
        // stays valid, so the next load is an L2 hit, not a DRAM miss.
        dev.cache_invalidate(RawAccess {
            buf: f.0,
            sector: 3,
            kind: AccessKind::Store,
            bypass: false,
        });
        assert_eq!(dev.cache_probe(0, a), (CacheHit::L2, 0));
        assert_eq!(dev.cache_probe(1, a), (CacheHit::L2, 0));
    }

    #[test]
    fn cache_lru_evicts_within_a_set() {
        // A 1-set, 2-way L1 over a 1-set, 2-way L2: the third distinct
        // sector must evict the least-recently-used line at both levels.
        let cfg = crate::config::CacheConfig {
            l1_sets: 1,
            l1_ways: 2,
            l1_latency: 30,
            l2_sets: 1,
            l2_ways: 2,
        };
        let mut dev = DeviceMemory::new();
        let f = dev.alloc_f64(&[0.0; 1024]);
        dev.set_cache(&cfg, 1);
        let acc = |sector: u32| RawAccess {
            buf: f.0,
            sector,
            kind: AccessKind::Load,
            bypass: false,
        };
        assert_eq!(dev.cache_probe(0, acc(0)), (CacheHit::Miss, 0));
        assert_eq!(dev.cache_probe(0, acc(1)), (CacheHit::Miss, 0));
        // Sector 2 evicts a valid line in L1 and in L2 (LRU = sector 0).
        assert_eq!(dev.cache_probe(0, acc(2)), (CacheHit::Miss, 2));
        // Sector 0 was evicted from both levels: full miss again.
        assert_eq!(dev.cache_probe(0, acc(0)), (CacheHit::Miss, 2));
        // Sector 2 was refreshed more recently than 1, so 1 is the next
        // victim and 2 still hits.
        assert_eq!(dev.cache_probe(0, acc(2)), (CacheHit::L1, 0));
    }

    #[test]
    fn flags_clear_between_launches() {
        let mut dev = DeviceMemory::new();
        let g = dev.alloc_flags(3);
        let mut acc = Vec::new();
        let mut sops = 0;
        let mut polls = 0u32;
        let mut shared = [0.0f64; 0];
        {
            let mut m = lane_mem(&mut dev, &mut shared, &mut acc, &mut sops, &mut polls);
            m.store_flag(g, 1, true);
        }
        assert_eq!(dev.read_flags(g), &[0, 1, 0]);
        dev.clear_flags(g);
        assert_eq!(dev.read_flags(g), &[0, 0, 0]);
    }

    #[test]
    fn shared_memory_is_per_warp_scratch() {
        let mut dev = DeviceMemory::new();
        let mut acc = Vec::new();
        let mut sops = 0;
        let mut polls = 0u32;
        let mut shared = [0.0f64; 4];
        {
            let mut m = lane_mem(&mut dev, &mut shared, &mut acc, &mut sops, &mut polls);
            m.shared_store(2, 5.0);
            // shared ops don't count against the one-global-access rule
        }
        let mut acc2 = Vec::new();
        {
            let mut m = lane_mem(&mut dev, &mut shared, &mut acc2, &mut sops, &mut polls);
            assert_eq!(m.shared_load(2), 5.0);
        }
        assert_eq!(sops, 2);
        assert!(acc.is_empty() && acc2.is_empty());
    }

    #[test]
    fn atomics_read_modify_write() {
        let mut dev = DeviceMemory::new();
        let f = dev.alloc_f64(&[1.0, 2.0]);
        let u = dev.alloc_u32(&[5]);
        let mut acc = Vec::new();
        let mut sops = 0;
        let mut polls = 0u32;
        let mut shared = [0.0f64; 0];
        {
            let mut m = lane_mem(&mut dev, &mut shared, &mut acc, &mut sops, &mut polls);
            assert_eq!(m.atomic_add_f64(f, 1, 0.5), 2.0);
        }
        acc.clear();
        {
            let mut m = lane_mem(&mut dev, &mut shared, &mut acc, &mut sops, &mut polls);
            assert_eq!(m.atomic_sub_u32(u, 0, 2), 5);
        }
        assert_eq!(dev.read_f64(f)[1], 2.5);
        assert_eq!(dev.read_u32(u)[0], 3);
        assert_eq!(acc[0].kind, AccessKind::Atomic);
    }

    #[test]
    fn poll_flag_counts_failures() {
        let mut dev = DeviceMemory::new();
        let g = dev.alloc_flags(2);
        let mut acc = Vec::new();
        let mut sops = 0;
        let mut polls = 0u32;
        let mut shared = [0.0f64; 0];
        {
            let mut m = lane_mem(&mut dev, &mut shared, &mut acc, &mut sops, &mut polls);
            assert!(!m.poll_flag(g, 0));
        }
        acc.clear();
        {
            let mut m = lane_mem(&mut dev, &mut shared, &mut acc, &mut sops, &mut polls);
            m.store_flag(g, 0, true);
        }
        acc.clear();
        {
            let mut m = lane_mem(&mut dev, &mut shared, &mut acc, &mut sops, &mut polls);
            assert!(m.poll_flag(g, 0));
        }
        assert_eq!(polls, 1);
    }

    #[test]
    fn relaxed_store_is_invisible_until_fence() {
        let mut dev = DeviceMemory::new();
        let f = dev.alloc_f64(&[0.0; 4]);
        dev.set_relaxed(1_000, false);
        let (mut acc, mut sops, mut polls) = (Vec::new(), 0, 0u32);
        let mut shared = [0.0f64; 0];
        {
            let mut m = lane_mem_as(&mut dev, &mut shared, &mut acc, &mut sops, &mut polls, 1, 0);
            m.store_f64(f, 2, 7.0);
        }
        acc.clear();
        {
            // Another owner reads DRAM: still 0 (and counted stale).
            let mut m = lane_mem_as(&mut dev, &mut shared, &mut acc, &mut sops, &mut polls, 2, 1);
            assert_eq!(m.load_f64(f, 2), 0.0);
        }
        acc.clear();
        {
            // The owner itself forwards its own buffered store.
            let mut m = lane_mem_as(&mut dev, &mut shared, &mut acc, &mut sops, &mut polls, 1, 1);
            assert_eq!(m.load_f64(f, 2), 7.0);
        }
        dev.fence_drain(1, 1, 2);
        acc.clear();
        {
            let mut m = lane_mem_as(&mut dev, &mut shared, &mut acc, &mut sops, &mut polls, 2, 2);
            assert_eq!(m.load_f64(f, 2), 7.0);
        }
        let (stale, drained) = dev.finish_relaxed(u64::MAX);
        assert_eq!(stale, 1);
        assert_eq!(drained, 1);
    }

    #[test]
    fn relaxed_store_drains_on_its_own_after_the_delay() {
        let mut dev = DeviceMemory::new();
        let g = dev.alloc_flags(2);
        dev.set_relaxed(10, false);
        let (mut acc, mut sops, mut polls) = (Vec::new(), 0, 0u32);
        let mut shared = [0.0f64; 0];
        {
            let mut m = lane_mem_as(&mut dev, &mut shared, &mut acc, &mut sops, &mut polls, 1, 0);
            m.store_flag(g, 0, true);
        }
        dev.drain_due(5, 0);
        acc.clear();
        {
            let mut m = lane_mem_as(&mut dev, &mut shared, &mut acc, &mut sops, &mut polls, 2, 5);
            assert!(!m.poll_flag(g, 0), "not yet drained");
        }
        dev.drain_due(100, 0); // past due + any skew
        acc.clear();
        {
            let mut m = lane_mem_as(
                &mut dev,
                &mut shared,
                &mut acc,
                &mut sops,
                &mut polls,
                2,
                100,
            );
            assert!(m.poll_flag(g, 0), "drained by delay expiry");
        }
    }

    #[test]
    fn racecheck_flags_unpublished_cross_owner_data_reads() {
        let mut dev = DeviceMemory::new();
        let f = dev.alloc_f64(&[0.0; 2]);
        dev.set_relaxed(10, true);
        let (mut acc, mut sops, mut polls) = (Vec::new(), 0, 0u32);
        let mut shared = [0.0f64; 0];
        {
            let mut m = lane_mem_as(&mut dev, &mut shared, &mut acc, &mut sops, &mut polls, 1, 0);
            m.store_f64(f, 0, 3.0);
        }
        dev.drain_due(1_000, 0); // value reaches DRAM — but was never fenced
        acc.clear();
        {
            let mut m = lane_mem_as(
                &mut dev,
                &mut shared,
                &mut acc,
                &mut sops,
                &mut polls,
                2,
                1_000,
            );
            assert_eq!(m.load_f64(f, 0), 3.0, "drained value is readable");
        }
        let race = dev.take_race().expect("unpublished read must race");
        assert_eq!((race.buf, race.idx), (f.0, 0));
        assert_eq!(race.producer_warp, 1);
        assert_eq!(race.consumer_warp, 2);
        assert!(dev.take_race().is_none(), "race is taken once");
    }

    #[test]
    fn racecheck_passes_fence_published_reads_and_atomics() {
        let mut dev = DeviceMemory::new();
        let f = dev.alloc_f64(&[0.0; 2]);
        let u = dev.alloc_u32(&[2]);
        dev.set_relaxed(10, true);
        let (mut acc, mut sops, mut polls) = (Vec::new(), 0, 0u32);
        let mut shared = [0.0f64; 0];
        {
            let mut m = lane_mem_as(&mut dev, &mut shared, &mut acc, &mut sops, &mut polls, 1, 0);
            m.store_f64(f, 0, 3.0);
        }
        dev.fence_drain(1, 1, 1);
        acc.clear();
        {
            let mut m = lane_mem_as(&mut dev, &mut shared, &mut acc, &mut sops, &mut polls, 2, 1);
            assert_eq!(m.load_f64(f, 0), 3.0);
        }
        acc.clear();
        {
            // Atomically-updated words are published by the atomic itself.
            let mut m = lane_mem_as(&mut dev, &mut shared, &mut acc, &mut sops, &mut polls, 1, 2);
            m.atomic_add_f64(f, 1, 4.0);
        }
        acc.clear();
        {
            let mut m = lane_mem_as(&mut dev, &mut shared, &mut acc, &mut sops, &mut polls, 2, 3);
            assert_eq!(m.load_f64(f, 1), 4.0);
        }
        acc.clear();
        {
            // Sync polls (in-degree countdown) are exempt as well.
            let mut m = lane_mem_as(&mut dev, &mut shared, &mut acc, &mut sops, &mut polls, 2, 4);
            assert!(!m.poll_zero_u32(u, 0));
        }
        assert!(dev.take_race().is_none(), "no false positives");
    }

    #[test]
    fn store_buffer_capacity_evicts_oldest_without_publishing() {
        let mut dev = DeviceMemory::new();
        let f = dev.alloc_f64(&[0.0; 64]);
        dev.set_relaxed(1_000_000, true);
        let (mut acc, mut sops, mut polls) = (Vec::new(), 0, 0u32);
        let mut shared = [0.0f64; 0];
        for i in 0..STORE_BUFFER_CAP + 1 {
            let mut m = lane_mem_as(&mut dev, &mut shared, &mut acc, &mut sops, &mut polls, 1, 0);
            m.store_f64(f, i, i as f64 + 1.0);
            acc.clear();
        }
        // The first store was force-drained to DRAM...
        assert_eq!(dev.read_f64(f)[0], 1.0);
        // ...but it was never published, so a cross-owner read still races.
        {
            let mut m = lane_mem_as(&mut dev, &mut shared, &mut acc, &mut sops, &mut polls, 2, 0);
            assert_eq!(m.load_f64(f, 0), 1.0);
        }
        assert!(dev.take_race().is_some(), "eviction is not a fence");
    }

    #[test]
    fn finish_relaxed_flushes_everything_for_host_readback() {
        let mut dev = DeviceMemory::new();
        let f = dev.alloc_f64(&[0.0; 2]);
        dev.set_relaxed(1_000_000, false);
        let (mut acc, mut sops, mut polls) = (Vec::new(), 0, 0u32);
        let mut shared = [0.0f64; 0];
        {
            let mut m = lane_mem_as(&mut dev, &mut shared, &mut acc, &mut sops, &mut polls, 1, 0);
            m.store_f64(f, 1, 9.0);
        }
        let (_, drained) = dev.finish_relaxed(u64::MAX);
        assert_eq!(drained, 1);
        assert_eq!(dev.read_f64(f), &[0.0, 9.0]);
    }

    /// Watch records as `(tick, buf, idx, op)`, and queued wakes.
    type Writes = (Vec<(u64, u32, u32, ExtOp)>, Vec<SpinWake>);

    /// Takes the watch records (field by field) and the queued wakes, then
    /// re-arms the watch on the same buffers.
    fn take_writes(dev: &mut DeviceMemory, watched: &[u32]) -> Writes {
        let recs = dev
            .take_watch()
            .iter()
            .map(|r| (r.tick, r.buf, r.idx, r.op))
            .collect();
        dev.set_watch(watched);
        let mut wakes = Vec::new();
        dev.take_spin_wakes(&mut wakes);
        (recs, wakes)
    }

    /// The write contract: which tick each kind of write is published at in
    /// the watch, and which scheduler key it wakes a parked warp with.
    #[test]
    fn each_write_kind_publishes_and_wakes_by_its_own_rule() {
        use ExtOp::{AddF64, StoreF64, StoreFlag, SubU32};
        let mut dev = DeviceMemory::new();
        let x = dev.alloc_f64(&[0.0; 16]);
        let g = dev.alloc_flags(4);
        let c = dev.alloc_u32(&[5, 5]);
        let y = dev.alloc_f64(&[0.0; 2]);
        let (xr, gr, cr, yr) = (x.raw(), g.raw(), c.raw(), y.raw());
        let watched = [xr, gr, cr];
        dev.set_watch(&watched);
        // Warp 9 parks on every word of every buffer, the unwatched one too.
        let words: Vec<(u32, u32)> = [(xr, 16), (gr, 4), (cr, 2), (yr, 2)]
            .iter()
            .flat_map(|&(b, n)| (0..n).map(move |i| (b, i)))
            .collect();
        park(&mut dev, 9, &words);
        let (mut acc, mut sops, mut polls) = (Vec::new(), 0, 0u32);
        let mut shared = [0.0f64; 0];
        macro_rules! lane {
            ($warp:expr, $now:expr) => {
                lane_mem_as(
                    &mut dev,
                    &mut shared,
                    &mut acc,
                    &mut sops,
                    &mut polls,
                    $warp,
                    $now,
                )
            };
        }

        // SC writes publish at execution and wake with (now, warp + 1).
        lane!(1, 10).store_f64(x, 0, 1.5);
        lane!(2, 11).store_flag(g, 0, true);
        assert_eq!(lane!(3, 12).atomic_add_f64(x, 1, 0.25), 0.0);
        assert_eq!(lane!(4, 13).atomic_sub_u32(c, 0, 2), 5);
        lane!(5, 14).store_f64(y, 0, 7.0);
        assert_eq!(
            take_writes(&mut dev, &watched),
            (
                vec![
                    (10, xr, 0, StoreF64(1.5)),
                    (11, gr, 0, StoreFlag(true)),
                    (12, xr, 1, AddF64(0.25)),
                    (13, cr, 0, SubU32(2)),
                ],
                vec![(9, 10, 2), (9, 11, 3), (9, 12, 4), (9, 13, 5), (9, 14, 6)],
            )
        );

        // A relaxed store publishes nothing but wakes at execution; its
        // delay drain publishes at the due tick and wakes with (due, 0).
        dev.set_relaxed(100, false);
        lane!(1, 20).store_f64(x, 2, 2.5);
        assert_eq!(take_writes(&mut dev, &watched), (vec![], vec![(9, 20, 2)]));
        let due = 20 + 100 + drain_skew(xr, 2, 100);
        assert_eq!(dev.next_drain(), Some(due));
        dev.drain_due(due - 1, 0);
        assert_eq!(take_writes(&mut dev, &watched), (vec![], vec![]));
        dev.drain_due(due + 5, 0);
        assert_eq!(
            take_writes(&mut dev, &watched),
            (vec![(due, xr, 2, StoreF64(2.5))], vec![(9, due, 0)])
        );
        assert_eq!(dev.next_drain(), None);

        // A fence publishes the owner's stores in program order at the
        // fence tick and wakes with (now, warp + 1).
        lane!(2, 200).store_f64(x, 3, 3.5);
        lane!(2, 201).store_flag(g, 1, true);
        dev.fence_drain(2, 2, 205);
        assert_eq!(
            take_writes(&mut dev, &watched),
            (
                vec![(205, xr, 3, StoreF64(3.5)), (205, gr, 1, StoreFlag(true))],
                vec![(9, 200, 3), (9, 201, 3), (9, 205, 3), (9, 205, 3)],
            )
        );

        // A capacity eviction publishes the oldest store at the evicting
        // store's tick and wakes with (now, warp + 1), like the new store.
        for i in 0..=STORE_BUFFER_CAP {
            lane!(3, 300 + i as u64).store_f64(x, 4 + i, 4.0 + i as f64);
        }
        let cap = STORE_BUFFER_CAP as u64;
        let mut wakes: Vec<SpinWake> = (0..cap).map(|i| (9, 300 + i, 4)).collect();
        wakes.extend([(9, 300 + cap, 4), (9, 300 + cap, 4)]);
        assert_eq!(
            take_writes(&mut dev, &watched),
            (vec![(300 + cap, xr, 4, StoreF64(4.0))], wakes)
        );

        // An atomic on a buffered word first drains it at the atomic's tick
        // (no wake), then commits like any SC write.
        lane!(4, 400).store_f64(x, 13, 13.5);
        assert_eq!(lane!(5, 405).atomic_add_f64(x, 13, 0.5), 13.5);
        assert_eq!(
            take_writes(&mut dev, &watched),
            (
                vec![(405, xr, 13, StoreF64(13.5)), (405, xr, 13, AddF64(0.5))],
                vec![(9, 400, 5), (9, 405, 6)],
            )
        );

        // A link event syncs the word like an atomic, is not published
        // itself, and wakes with (tick, 0).
        lane!(6, 500).store_f64(x, 14, 14.5);
        dev.ext_apply(&ExtEvent {
            tick: 505,
            buf: xr,
            idx: 14,
            op: StoreF64(-1.0),
        });
        assert_eq!(
            take_writes(&mut dev, &watched),
            (
                vec![(505, xr, 14, StoreF64(14.5))],
                vec![(9, 500, 7), (9, 505, 0)],
            )
        );

        // The launch-end flush publishes what is left, in program order, at
        // the flush tick and wakes nobody; the unwatched store is silent.
        lane!(7, 510).store_f64(y, 1, 8.0);
        assert_eq!(take_writes(&mut dev, &watched), (vec![], vec![(9, 510, 8)]));
        let (stale, drained) = dev.finish_relaxed(600);
        assert_eq!((stale, drained), (0, 15));
        let flushed: Vec<_> = (5..=12).map(|i| (600, xr, i, StoreF64(i as f64))).collect();
        assert_eq!(take_writes(&mut dev, &watched), (flushed, vec![]));

        // A link event outside the relaxed model: unpublished, (tick, 0).
        dev.ext_apply(&ExtEvent {
            tick: 700,
            buf: cr,
            idx: 1,
            op: SubU32(1),
        });
        assert_eq!(take_writes(&mut dev, &watched), (vec![], vec![(9, 700, 0)]));
        assert_eq!(dev.read_f64(x)[..4], [1.5, 0.25, 2.5, 3.5]);
        assert_eq!(dev.read_f64(x)[12..], [12.0, 14.0, -1.0, 0.0]);
        assert_eq!(dev.read_flags(g), &[1, 1, 0, 0]);
        assert_eq!(dev.read_u32(c), &[3, 4]);
        assert_eq!(dev.read_f64(y), &[7.0, 8.0]);
    }

    /// Parks `warp` on `words`, with no loop-body reads; returns its
    /// registrations.
    fn park(dev: &mut DeviceMemory, warp: u32, words: &[(u32, u32)]) -> Vec<u32> {
        let mut nodes = Vec::new();
        dev.spin_park(warp, words, &mut nodes);
        nodes
    }

    /// Wakes queued by an SC flag store of `warp` to word `idx` of `g`.
    fn wakes_of_store(dev: &mut DeviceMemory, g: BufFlag, idx: usize, warp: u32) -> Vec<SpinWake> {
        let (mut acc, mut sops, mut polls) = (Vec::new(), 0, 0u32);
        let mut shared = [0.0f64; 0];
        lane_mem_as(dev, &mut shared, &mut acc, &mut sops, &mut polls, warp, 50)
            .store_flag(g, idx, true);
        let mut wakes = Vec::new();
        dev.take_spin_wakes(&mut wakes);
        wakes
    }

    /// Parks, unparks and wakes across two watched buffers: a write wakes
    /// exactly the warps parked on its word, in park order, and an unpark
    /// removes only the unparking warp.
    #[test]
    fn registry_parks_unparks_and_wakes_across_two_buffers() {
        let mut dev = DeviceMemory::new();
        let _unwatched = dev.alloc_f64(&[0.0; 4]);
        let (f, g) = (dev.alloc_flags(8), dev.alloc_flags(3));
        let (fr, gr) = (f.raw(), g.raw());
        // A capture's polled words, one polled twice.
        let mut watch = vec![(fr, 5), (gr, 1), (fr, 5), (fr, 2)];
        assert!(dev.spin_watch_holds(&watch, &watch.clone()));
        assert!(dev.spin_watch_holds(&watch, &[(gr, 1), (fr, 2), (fr, 5)]));
        assert!(!dev.spin_watch_holds(&watch, &[(fr, 5), (gr, 2)]));

        // Closing the capture drops the repeat and appends the new
        // loop-body reads, in first-seen order, across both buffers.
        dev.spin_watch_dedupe(&mut watch, &[(gr, 1), (gr, 2), (gr, 2)]);
        assert_eq!(watch, [(fr, 5), (gr, 1), (fr, 2), (gr, 2)]);
        let mut n3 = park(&mut dev, 3, &watch);
        assert_eq!(n3.len(), 4);
        assert_eq!(dev.spin_node(n3[3]), Some((3, (gr, 2))));
        let mut n7 = park(&mut dev, 7, &[(gr, 1), (fr, 5)]);
        let mut n9 = park(&mut dev, 9, &[(fr, 5)]);
        assert_eq!(dev.spin_registered(), 7);
        assert_eq!(dev.spin_node(n7[1]), Some((7, (fr, 5))));
        assert_eq!(
            wakes_of_store(&mut dev, f, 5, 1),
            [(3, 50, 2), (7, 50, 2), (9, 50, 2)]
        );
        assert_eq!(wakes_of_store(&mut dev, g, 1, 1), [(3, 50, 2), (7, 50, 2)]);
        assert_eq!(wakes_of_store(&mut dev, f, 0, 1), []);

        // Unparking the middle, the first and the last waiter of one word.
        dev.spin_unpark(&mut n7);
        assert!(n7.is_empty());
        assert_eq!(wakes_of_store(&mut dev, f, 5, 1), [(3, 50, 2), (9, 50, 2)]);
        dev.spin_unpark(&mut n3);
        assert_eq!(wakes_of_store(&mut dev, f, 5, 1), [(9, 50, 2)]);
        assert_eq!(wakes_of_store(&mut dev, g, 2, 1), []);
        n3 = park(&mut dev, 3, &[(fr, 5)]);
        dev.spin_unpark(&mut n9);
        assert_eq!(wakes_of_store(&mut dev, f, 5, 1), [(3, 50, 2)]);
        dev.spin_unpark(&mut n3);
        assert_eq!(dev.spin_registered(), 0);
        assert_eq!(wakes_of_store(&mut dev, f, 5, 1), []);
    }

    /// Unparked registrations are reused before the slab grows.
    #[test]
    fn registry_reuses_freed_registrations() {
        let mut dev = DeviceMemory::new();
        let g = dev.alloc_flags(6);
        let words: Vec<(u32, u32)> = (0..6).map(|i| (g.raw(), i)).collect();
        let mut a = park(&mut dev, 1, &words);
        park(&mut dev, 2, &words[..2]);
        assert_eq!(dev.spin.nodes.len(), 8);
        let mut freed = a.clone();
        dev.spin_unpark(&mut a);
        let mut c = park(&mut dev, 4, &words[1..]);
        let d = park(&mut dev, 5, &words[..1]);
        assert_eq!(
            dev.spin.nodes.len(),
            8,
            "a freed registration was not reused"
        );
        c.extend(&d);
        c.sort_unstable();
        freed.sort_unstable();
        assert_eq!(c, freed);
        assert_eq!(dev.spin_registered(), 8);
        assert_eq!(wakes_of_store(&mut dev, g, 0, 0), [(2, 50, 1), (5, 50, 1)]);
    }

    /// A launch that fails leaves warps parked; clearing the registry drops
    /// every registration and releases its memory, and the next launch
    /// parks on a fresh registry.
    #[test]
    fn spin_clear_drops_registrations_left_by_a_failed_launch() {
        let mut dev = DeviceMemory::new();
        let g = dev.alloc_flags(4);
        park(&mut dev, 1, &[(g.raw(), 0), (g.raw(), 1)]);
        let mut b = park(&mut dev, 2, &[(g.raw(), 1)]);
        dev.spin_clear();
        assert_eq!(dev.spin_registered(), 0);
        assert_eq!(dev.spin.nodes.capacity() + dev.spin.slots.capacity(), 0);
        assert_eq!(wakes_of_store(&mut dev, g, 1, 0), []);
        // The stale ids in `b` are dropped by the next park.
        dev.spin_park(2, &[(g.raw(), 3)], &mut b);
        assert_eq!(b, [0]);
        assert_eq!(wakes_of_store(&mut dev, g, 3, 0), [(2, 50, 1)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "at most one memory access")]
    fn two_global_accesses_in_one_exec_panic() {
        let mut dev = DeviceMemory::new();
        let f = dev.alloc_f64(&[0.0; 4]);
        let mut acc = Vec::new();
        let mut sops = 0;
        let mut polls = 0u32;
        let mut shared = [0.0f64; 0];
        let mut m = lane_mem(&mut dev, &mut shared, &mut acc, &mut sops, &mut polls);
        let _ = m.load_f64(f, 0);
        let _ = m.load_f64(f, 1);
    }
}
