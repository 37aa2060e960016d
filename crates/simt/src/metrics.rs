//! Launch statistics: the simulator's equivalent of the `nvprof` counters
//! the paper reports (instructions executed, dependency-stall percentage,
//! DRAM read+write bandwidth) plus wall-clock-equivalent cycle counts.

use crate::config::DeviceConfig;

/// Saturating in-place add for one counter. Every accumulation path in the
/// engine — per-instruction bumps and fast-forward closed forms — goes
/// through this helper, and multi-launch totals go through
/// [`LaunchStats::accumulate`], so that counters are *order-independent*:
/// a saturating sum of saturating partial sums equals the saturating sum of
/// the interleaved increments (both are `min(u64::MAX, Σ)` for non-negative
/// addends). Mixing wrapping and saturating adds would break that identity
/// at overflow.
#[inline]
pub(crate) fn sat_add(counter: &mut u64, v: u64) {
    *counter = counter.saturating_add(v);
}

/// Counters collected over one kernel launch (or accumulated over several,
/// e.g. the per-level launches of Level-Set SpTRSV).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LaunchStats {
    /// Total simulated cycles from launch to last warp retirement,
    /// including per-launch overhead.
    pub cycles: u64,
    /// Warp-level instructions issued (one per lock-step group step) — the
    /// `inst_executed` counter of Figure 8a.
    pub warp_instructions: u64,
    /// Thread-level instructions (warp instructions × active lanes).
    pub thread_instructions: u64,
    /// Floating-point operations performed by kernel code.
    pub flops: u64,
    /// DRAM bytes read (first-touch sectors × 32).
    pub dram_read_bytes: u64,
    /// DRAM bytes written.
    pub dram_write_bytes: u64,
    /// DRAM transactions (sector misses).
    pub dram_transactions: u64,
    /// Memory transactions served by L2 (previously-touched sectors).
    pub l2_hits: u64,
    /// Per-warp shared-memory operations.
    pub shared_ops: u64,
    /// Atomic read-modify-write operations (coalesced, per sector).
    pub atomic_ops: u64,
    /// `__threadfence()` instructions executed.
    pub fences: u64,
    /// Issue slots used (one per warp instruction).
    pub issue_ticks: u64,
    /// Issue slots in which an SM had live warps but none ready.
    pub stall_ticks: u64,
    /// Completion-flag polls that returned "not ready" (spin retries) —
    /// the dependency-stall events behind Figure 8b.
    pub failed_polls: u64,
    /// Warps launched.
    pub warps_launched: u64,
    /// Lanes retired.
    pub lanes_retired: u64,
    /// Number of kernel launches accumulated into this value.
    pub launches: u64,
    /// Relaxed memory model only: data loads that observed DRAM while
    /// another owner still had an undrained store to the same word (the
    /// reads a racecheck would flag; always 0 under sequential consistency).
    pub stale_reads: u64,
    /// Relaxed memory model only: buffered stores drained to DRAM (by
    /// fence, delay expiry, capacity eviction, or end-of-launch flush).
    pub drained_stores: u64,
    /// Cache model only ([`DeviceConfig::with_cache`]): data loads served by
    /// the issuing SM's L1. Always 0 with the cache model off.
    pub l1_hits: u64,
    /// Cache model only: data loads that missed the issuing SM's L1.
    pub l1_misses: u64,
    /// Cache model only: data loads that missed both L1 and the shared L2
    /// (and therefore paid the full DRAM path). Always 0 with the model off;
    /// with it on, `l2_hits` counts L1-miss/L2-hit transactions instead of
    /// the legacy first-touch hits.
    pub l2_misses: u64,
    /// Cache model only: valid lines evicted from L1 or L2 sets by
    /// allocation pressure — the capacity/conflict traffic a locality
    /// permutation is trying to reduce.
    pub sector_evictions: u64,
}

/// Host-work counters of one launch: where the engine's event loop and
/// spin fast-forwarding spent their steps. Kept beside [`LaunchStats`] and
/// never inside it, so Replay and FastForward stats stay directly
/// comparable; no simulated result reads them. Read through
/// [`crate::GpuDevice::last_launch_counters`].
///
/// The scheduler is one issue arbiter per SM: one timed slot per resident
/// warp (its issue-ready tick, its start or its wake kick) and a waiting set
/// of the SM's warps that found the issue slot taken, under a tree that
/// selects the earliest event over the SMs. The names say "heap" and
/// "re-key" because they count the same decisions one global event heap
/// made, where a busy warp was pushed back at its SM's cursor and popped
/// again.
///
/// Two identities hold. For a launch that completes, `issues`,
/// `busy_rekeys` and `rekicks` sum to `heap_events`. For every launch,
/// `issues` and the two virtual counts sum to
/// [`LaunchStats::warp_instructions`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Scheduler events selected: timed events and selections of an SM's
    /// lowest waiting warp.
    pub heap_events: u64,
    /// Events that issued a warp instruction.
    pub issues: u64,
    /// Events whose warp found its SM's issue slot taken: a timed event's
    /// warp joins the SM's waiting set, and a selected waiting warp that a
    /// lower-id parked warp's virtual issue beat to the slot stays in it.
    pub busy_rekeys: u64,
    /// Selected wake kicks of a parked warp whose anchor poll had moved
    /// later, so the warp was kicked again.
    pub rekicks: u64,
    /// Parked warps' virtual warp instructions reconstructed one at a time.
    pub virtual_single: u64,
    /// Virtual warp instructions walked by crowd plans.
    pub virtual_crowd: u64,
    /// Parked warps put on an SM's ready row.
    pub ready_inserts: u64,
    /// Warps parked.
    pub parks: u64,
    /// Crowd plans built.
    pub plans_built: u64,
    /// Crowd plans dissolved back into per-visit state.
    pub plans_dissolved: u64,
    /// 1 if the launch replayed the device's cached grid plan for its warp
    /// count instead of computing the initial residency, else 0.
    pub grid_reuses: u64,
    /// Warps started on a retired warp's allocations: drawn from the
    /// device's pool of earlier launches' warps, or recycled within the
    /// launch from a warp that finished.
    pub warp_reuses: u64,
}

impl LaunchStats {
    /// Accumulates another launch (used by multi-launch algorithms).
    /// Saturating: a Level-Set solve accumulates thousands of launches and
    /// an overflow must clamp, not wrap into a bogus small counter.
    pub fn accumulate(&mut self, other: &LaunchStats) {
        self.cycles = self.cycles.saturating_add(other.cycles);
        self.warp_instructions = self
            .warp_instructions
            .saturating_add(other.warp_instructions);
        self.thread_instructions = self
            .thread_instructions
            .saturating_add(other.thread_instructions);
        self.flops = self.flops.saturating_add(other.flops);
        self.dram_read_bytes = self.dram_read_bytes.saturating_add(other.dram_read_bytes);
        self.dram_write_bytes = self.dram_write_bytes.saturating_add(other.dram_write_bytes);
        self.dram_transactions = self
            .dram_transactions
            .saturating_add(other.dram_transactions);
        self.l2_hits = self.l2_hits.saturating_add(other.l2_hits);
        self.shared_ops = self.shared_ops.saturating_add(other.shared_ops);
        self.atomic_ops = self.atomic_ops.saturating_add(other.atomic_ops);
        self.fences = self.fences.saturating_add(other.fences);
        self.issue_ticks = self.issue_ticks.saturating_add(other.issue_ticks);
        self.stall_ticks = self.stall_ticks.saturating_add(other.stall_ticks);
        self.failed_polls = self.failed_polls.saturating_add(other.failed_polls);
        self.warps_launched = self.warps_launched.saturating_add(other.warps_launched);
        self.lanes_retired = self.lanes_retired.saturating_add(other.lanes_retired);
        self.launches = self.launches.saturating_add(other.launches);
        self.stale_reads = self.stale_reads.saturating_add(other.stale_reads);
        self.drained_stores = self.drained_stores.saturating_add(other.drained_stores);
        self.l1_hits = self.l1_hits.saturating_add(other.l1_hits);
        self.l1_misses = self.l1_misses.saturating_add(other.l1_misses);
        self.l2_misses = self.l2_misses.saturating_add(other.l2_misses);
        self.sector_evictions = self.sector_evictions.saturating_add(other.sector_evictions);
    }

    /// Execution time in seconds at the given device's clock.
    pub fn time_seconds(&self, config: &DeviceConfig) -> f64 {
        config.cycles_to_seconds(self.cycles)
    }

    /// Execution time in milliseconds.
    pub fn time_ms(&self, config: &DeviceConfig) -> f64 {
        self.time_seconds(config) * 1e3
    }

    /// GFLOPS/s for a solve of `useful_flops` (the paper's 2·nnz convention).
    /// Returns 0.0 (never inf/NaN) when no cycles elapsed.
    pub fn gflops(&self, config: &DeviceConfig, useful_flops: u64) -> f64 {
        let t = self.time_seconds(config);
        if t <= 0.0 {
            0.0
        } else {
            useful_flops as f64 / t / 1e9
        }
    }

    /// DRAM read+write bandwidth in GB/s (Figure 7's metric).
    /// Returns 0.0 (never inf/NaN) when no cycles elapsed.
    pub fn bandwidth_gbs(&self, config: &DeviceConfig) -> f64 {
        let t = self.time_seconds(config);
        if t <= 0.0 {
            0.0
        } else {
            self.dram_read_bytes.saturating_add(self.dram_write_bytes) as f64 / t / 1e9
        }
    }

    /// DRAM bandwidth utilization: achieved read+write bandwidth as a
    /// percentage of the device's peak (Figure 9's metric). Returns 0.0
    /// when no cycles elapsed or the config declares no bandwidth.
    pub fn bandwidth_utilization_pct(&self, config: &DeviceConfig) -> f64 {
        let peak = config.dram_bw_gbps;
        if peak <= 0.0 || !peak.is_finite() {
            0.0
        } else {
            100.0 * self.bandwidth_gbs(config) / peak
        }
    }

    /// Occupancy proxy: average resident-issue utilization — issue slots
    /// actually used over all issue opportunities (used + stalled).
    /// Returns 0.0 on an empty launch.
    pub fn issue_utilization_pct(&self) -> f64 {
        let total = self.issue_ticks.saturating_add(self.stall_ticks);
        if total == 0 {
            0.0
        } else {
            100.0 * self.issue_ticks as f64 / total as f64
        }
    }

    /// Issue-slot stall percentage: the share of issue opportunities lost
    /// while resident warps wait on memory (supplementary metric).
    pub fn issue_stall_pct(&self) -> f64 {
        let total = self.issue_ticks.saturating_add(self.stall_ticks);
        if total == 0 {
            0.0
        } else {
            100.0 * self.stall_ticks as f64 / total as f64
        }
    }

    /// Instruction-dependency stall percentage (Figure 8b's metric): the
    /// share of thread instructions that are spin retries — polls of a
    /// `get_value` flag that found the dependency unsolved.
    pub fn stall_pct(&self) -> f64 {
        if self.thread_instructions == 0 {
            0.0
        } else {
            100.0 * self.failed_polls as f64 / self.thread_instructions as f64
        }
    }

    /// L1 hit rate over all cache-probed data loads (cache model only;
    /// 0.0 with the model off, where `l1_hits`/`l1_misses` stay zero).
    pub fn l1_hit_rate(&self) -> f64 {
        let total = self.l1_hits.saturating_add(self.l1_misses);
        if total == 0 {
            0.0
        } else {
            self.l1_hits as f64 / total as f64
        }
    }

    /// L2 hit rate over all memory transactions.
    pub fn l2_hit_rate(&self) -> f64 {
        let total = self.dram_transactions.saturating_add(self.l2_hits);
        if total == 0 {
            0.0
        } else {
            self.l2_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let cfg = DeviceConfig::pascal_like(); // 1.6 GHz
        let s = LaunchStats {
            cycles: 1_600_000, // 1 ms
            dram_read_bytes: 3_000_000,
            dram_write_bytes: 1_000_000,
            issue_ticks: 75,
            stall_ticks: 25,
            thread_instructions: 200,
            failed_polls: 50,
            ..Default::default()
        };
        assert!((s.time_ms(&cfg) - 1.0).abs() < 1e-9);
        assert!((s.gflops(&cfg, 2_000_000) - 2.0).abs() < 1e-9);
        assert!((s.bandwidth_gbs(&cfg) - 4.0).abs() < 1e-9);
        assert!((s.issue_stall_pct() - 25.0).abs() < 1e-9);
        assert!((s.stall_pct() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn accumulate_sums_everything() {
        let mut a = LaunchStats {
            cycles: 10,
            warp_instructions: 5,
            launches: 1,
            ..Default::default()
        };
        let b = LaunchStats {
            cycles: 7,
            warp_instructions: 3,
            launches: 1,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.cycles, 17);
        assert_eq!(a.warp_instructions, 8);
        assert_eq!(a.launches, 2);
    }

    #[test]
    fn cache_counters_accumulate_and_derive() {
        let mut a = LaunchStats {
            l1_hits: 6,
            l1_misses: 2,
            l2_misses: 1,
            sector_evictions: 1,
            ..Default::default()
        };
        let b = LaunchStats {
            l1_hits: 0,
            l1_misses: 2,
            l2_misses: 1,
            sector_evictions: 3,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.l1_hits, 6);
        assert_eq!(a.l1_misses, 4);
        assert_eq!(a.l2_misses, 2);
        assert_eq!(a.sector_evictions, 4);
        assert!((a.l1_hit_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn zero_division_guards() {
        // Every ratio helper must return finite 0.0 on an all-zero launch
        // (cycles == 0 makes time 0, dram counters 0, etc.) — never NaN or
        // infinity.
        let cfg = DeviceConfig::pascal_like();
        let s = LaunchStats::default();
        assert_eq!(s.stall_pct(), 0.0);
        assert_eq!(s.l2_hit_rate(), 0.0);
        assert_eq!(s.l1_hit_rate(), 0.0);
        assert_eq!(s.issue_stall_pct(), 0.0);
        assert_eq!(s.issue_utilization_pct(), 0.0);
        assert_eq!(s.gflops(&cfg, 2_000_000), 0.0);
        assert_eq!(s.bandwidth_gbs(&cfg), 0.0);
        assert_eq!(s.bandwidth_utilization_pct(&cfg), 0.0);
        // A degenerate config (no declared bandwidth) is also guarded.
        let mut no_bw = cfg.clone();
        no_bw.dram_bw_gbps = 0.0;
        let busy = LaunchStats {
            cycles: 100,
            dram_read_bytes: 640,
            ..Default::default()
        };
        assert_eq!(busy.bandwidth_utilization_pct(&no_bw), 0.0);
        assert!(busy.bandwidth_utilization_pct(&cfg).is_finite());
    }

    #[test]
    fn partial_sum_merges_match_serial_accumulation_at_overflow() {
        // Level-set, session and shard solves sum per-launch partial stats
        // through `LaunchStats::accumulate`; one launch accumulates the
        // same increments in interleaved order. With saturating adds
        // everywhere both orders give min(u64::MAX, Σ); a single wrapping
        // add in either path would break this near the top of the range.
        let increments: [u64; 5] = [u64::MAX / 2, 7, u64::MAX / 2, 40, 3];
        let mut serial = 0u64;
        for v in increments {
            sat_add(&mut serial, v);
        }
        // Split [a, b | c, d, e] across two launches, then merge.
        let (mut part_a, mut part_b) = (0u64, 0u64);
        for v in &increments[..2] {
            sat_add(&mut part_a, *v);
        }
        for v in &increments[2..] {
            sat_add(&mut part_b, *v);
        }
        let mut merged = part_a;
        sat_add(&mut merged, part_b);
        assert_eq!(merged, serial);
        assert_eq!(serial, u64::MAX);
        // Same property through the struct-level merge helper.
        let mut s = LaunchStats {
            failed_polls: u64::MAX / 2 + 7,
            ..Default::default()
        };
        let part = LaunchStats {
            failed_polls: u64::MAX / 2 + 43,
            ..Default::default()
        };
        s.accumulate(&part);
        assert_eq!(s.failed_polls, u64::MAX);
    }

    #[test]
    fn accumulate_saturates_instead_of_wrapping() {
        let mut a = LaunchStats {
            cycles: u64::MAX - 1,
            failed_polls: u64::MAX,
            stall_ticks: u64::MAX,
            ..Default::default()
        };
        let b = LaunchStats {
            cycles: 10,
            failed_polls: 3,
            stall_ticks: 1,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.cycles, u64::MAX);
        assert_eq!(a.failed_polls, u64::MAX);
        assert_eq!(a.stall_ticks, u64::MAX);
        // Saturated counters still yield finite ratios.
        assert!(a.issue_stall_pct().is_finite());
        assert!(a.stall_pct().is_finite());
    }
}
