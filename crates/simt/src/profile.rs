//! The profiling subsystem: an nvprof-style, time-resolved account of where
//! every per-SM issue slot went during a launch.
//!
//! The aggregate [`LaunchStats`](crate::LaunchStats) counters answer *how
//! much* (instructions, stall slots, DRAM bytes); a [`Profile`] answers
//! *when and why*: each SM's issue slots are attributed to a
//! [`StallReason`] and bucketed on a configurable sample interval, each
//! warp's lifetime is recorded as a span, and issued instructions are
//! histogrammed per kernel phase (program counter). Profiling is armed by
//! [`ProfileMode`](crate::ProfileMode) on the device configuration; when it
//! is `Off` (the default) the engine records nothing and simulated results
//! are bit-exact with pre-profiling builds.
//!
//! Slot accounting model: the engine counts time in *ticks* of
//! `1/schedulers_per_sm` cycles, and each SM issues at most one warp
//! instruction per tick — so one tick on one SM is one issue slot. A slot
//! that issued an instruction is classified by what the instruction did
//! (useful work, a failed spin poll, a serialized divergent group, a store
//! drain); a slot in which the SM sat idle is classified by what the warp
//! that *ended* the idle gap had been waiting on (memory latency vs. the
//! DRAM bandwidth queue vs. a fence drain), or as [`StallReason::NoWarp`]
//! when nothing was resident to issue.

use std::collections::BTreeMap;

use crate::kernel::Pc;

/// Why an issue slot was spent the way it was. The taxonomy mirrors the
/// stall-reason breakdown of `nvprof`'s issue-slot utilization metrics,
/// restricted to the causes this simulator actually models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StallReason {
    /// The slot issued a useful (converged, non-spinning) instruction.
    Executing,
    /// Idle: the unblocking warp was waiting on L2/DRAM/shared latency.
    MemLatency,
    /// The slot issued a completion-flag poll that found the dependency
    /// unsolved — the spin retries behind Figure 8b.
    SpinPoll,
    /// The slot issued one serialized group of a divergent warp.
    Divergence,
    /// Idle: the unblocking warp's memory result was delayed past raw DRAM
    /// latency by the bandwidth queue (the launch is bandwidth-throttled).
    Bandwidth,
    /// The slot issued a fence, or idle waiting for a store-buffer drain.
    StoreDrain,
    /// Idle with no resident warp ready to issue on this SM at all.
    NoWarp,
    /// Cache model only ([`crate::DeviceConfig::with_cache`]): idle because
    /// the unblocking warp's data load missed in L1 (served by L2 or DRAM).
    /// Never emitted with the cache model off; appended after `NoWarp` so
    /// pre-cache reason indices (and CSV columns) are unchanged.
    CacheMiss,
}

/// Number of [`StallReason`] variants (array-indexing helper).
pub const N_STALL_REASONS: usize = 8;

impl StallReason {
    /// All reasons, in display/CSV column order.
    pub const ALL: [StallReason; N_STALL_REASONS] = [
        StallReason::Executing,
        StallReason::MemLatency,
        StallReason::SpinPoll,
        StallReason::Divergence,
        StallReason::Bandwidth,
        StallReason::StoreDrain,
        StallReason::NoWarp,
        StallReason::CacheMiss,
    ];

    /// Stable snake_case label (CSV headers, Chrome-trace counter keys).
    pub fn label(self) -> &'static str {
        match self {
            StallReason::Executing => "executing",
            StallReason::MemLatency => "mem_latency",
            StallReason::SpinPoll => "spin_poll",
            StallReason::Divergence => "divergence",
            StallReason::Bandwidth => "bandwidth",
            StallReason::StoreDrain => "store_drain",
            StallReason::NoWarp => "no_warp",
            StallReason::CacheMiss => "cache_miss",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// Issue-slot attribution for one SM over one sample interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallBucket {
    /// First cycle covered by this bucket (multiple of the interval).
    pub cycle_start: u64,
    /// SM index.
    pub sm: usize,
    /// Issue slots per [`StallReason`], indexed in [`StallReason::ALL`]
    /// order. Sums to the SM's slot capacity over the interval.
    pub slots: [u64; N_STALL_REASONS],
}

/// One warp's lifetime within a launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarpSpan {
    /// Global warp id.
    pub warp: u32,
    /// SM the warp was resident on.
    pub sm: usize,
    /// Cycle of the warp's first issued instruction.
    pub start_cycle: u64,
    /// Cycle by which the warp's last instruction completed.
    pub end_cycle: u64,
    /// Warp instructions the warp issued.
    pub instructions: u64,
}

/// Issued-instruction count for one kernel phase (program counter).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseCount {
    /// Program counter.
    pub pc: Pc,
    /// Kernel-supplied instruction label (`WarpKernel::pc_name`).
    pub label: &'static str,
    /// Warp instructions issued at this pc.
    pub warp_instructions: u64,
}

/// The time-resolved profile of one launch. Produced by the engine when the
/// device's [`ProfileMode`](crate::ProfileMode) is not `Off`; purely
/// observational — the simulated schedule and [`LaunchStats`](crate::LaunchStats) are identical
/// with profiling on or off.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Kernel name.
    pub kernel: &'static str,
    /// Sample interval in cycles (bucket width).
    pub interval_cycles: u64,
    /// SMs on the device.
    pub sm_count: usize,
    /// Issue slots per SM per cycle (`schedulers_per_sm`).
    pub schedulers_per_sm: usize,
    /// Cycles from launch to last completion, *excluding* the fixed
    /// per-launch overhead (which has no issue slots to attribute).
    pub total_cycles: u64,
    /// Slots that issued a warp instruction (as opposed to idling). Equals
    /// the launch's `warp_instructions`. Not derivable from the bucket
    /// totals: an idle gap behind a compute-bound warp is attributed to
    /// [`StallReason::Executing`] too.
    pub issued_slots: u64,
    /// Per-interval, per-SM issue-slot attribution, ordered by
    /// `(cycle_start, sm)`.
    pub buckets: Vec<StallBucket>,
    /// Per-warp lifetimes, ordered by warp id.
    pub warp_spans: Vec<WarpSpan>,
    /// Issued instructions per kernel phase, ordered by pc.
    pub phases: Vec<PhaseCount>,
}

impl Profile {
    /// Total issue slots attributed to each reason, summed over all SMs and
    /// intervals, in [`StallReason::ALL`] order.
    pub fn totals(&self) -> [u64; N_STALL_REASONS] {
        let mut sums = [0u64; N_STALL_REASONS];
        for b in &self.buckets {
            for (s, v) in sums.iter_mut().zip(b.slots) {
                *s = s.saturating_add(v);
            }
        }
        sums
    }

    /// Total issue slots accounted (device slot capacity over the launch).
    pub fn total_slots(&self) -> u64 {
        self.totals().iter().fold(0u64, |a, &v| a.saturating_add(v))
    }

    /// Share of all issue slots attributed to `reason`, in percent.
    /// Returns 0.0 (never NaN) on an empty profile.
    pub fn reason_pct(&self, reason: StallReason) -> f64 {
        let total = self.total_slots();
        if total == 0 {
            0.0
        } else {
            100.0 * self.totals()[reason.idx()] as f64 / total as f64
        }
    }
}

/// In-flight profiling state owned by the engine during one launch.
/// All methods are only reached when profiling is armed, so the `Off` hot
/// path pays nothing beyond an `Option` check.
pub(crate) struct Profiler {
    kernel: &'static str,
    sm_count: usize,
    tpc: u64,
    interval_cycles: u64,
    interval_ticks: u64,
    /// Flattened `[bucket][sm] -> [reason]` slot counts, grown on demand.
    buckets: Vec<[u64; N_STALL_REASONS]>,
    /// Per-warp: what the warp is currently blocked on (labels the idle gap
    /// the warp ends when it next issues).
    wait: Vec<StallReason>,
    /// Per-warp: (first issue tick, last completion tick, instructions).
    spans: Vec<Option<(u64, u64, u64)>>,
    /// Which SM each profiled warp ran on.
    span_sm: Vec<usize>,
    phases: BTreeMap<Pc, (&'static str, u64)>,
    issued: u64,
}

impl Profiler {
    pub(crate) fn new(
        kernel: &'static str,
        sm_count: usize,
        n_warps: usize,
        interval_cycles: u64,
        tpc: u64,
    ) -> Self {
        let interval_cycles = interval_cycles.max(1);
        Profiler {
            kernel,
            sm_count,
            tpc,
            interval_cycles,
            interval_ticks: interval_cycles.saturating_mul(tpc).max(1),
            buckets: Vec::new(),
            wait: vec![StallReason::NoWarp; n_warps],
            spans: vec![None; n_warps],
            span_sm: vec![0; n_warps],
            phases: BTreeMap::new(),
            issued: 0,
        }
    }

    fn slot(&mut self, sm: usize, bucket: usize) -> &mut [u64; N_STALL_REASONS] {
        let need = (bucket + 1) * self.sm_count;
        if self.buckets.len() < need {
            self.buckets.resize(need, [0; N_STALL_REASONS]);
        }
        &mut self.buckets[bucket * self.sm_count + sm]
    }

    fn add_tick(&mut self, sm: usize, tick: u64, reason: StallReason) {
        let bucket = (tick / self.interval_ticks) as usize;
        self.slot(sm, bucket)[reason.idx()] += 1;
    }

    /// Attributes the inclusive tick range `[t0, t1]` on `sm` to `reason`,
    /// splitting across sample buckets.
    fn add_range(&mut self, sm: usize, t0: u64, t1: u64, reason: StallReason) {
        let iv = self.interval_ticks;
        let mut t = t0;
        while t <= t1 {
            let bucket = t / iv;
            let bucket_end = (bucket + 1) * iv - 1;
            let run = t1.min(bucket_end) - t + 1;
            self.slot(sm, bucket as usize)[reason.idx()] += run;
            t = match bucket_end.checked_add(1) {
                Some(next) => next,
                None => break,
            };
        }
    }

    /// Records one issued warp instruction and the idle gap (if any) that
    /// preceded it on the same SM.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_issue(
        &mut self,
        sm: usize,
        t: u64,
        gap: u64,
        wid: usize,
        pc: Pc,
        pc_label: &'static str,
        issue: StallReason,
        wait: StallReason,
        t_done: u64,
    ) {
        if gap > 0 {
            // The SM idled over (t-gap ..= t-1); the warp issuing now is the
            // first to unblock, so its wait reason labels the gap.
            let prev = self.wait[wid];
            self.add_range(sm, t - gap, t - 1, prev);
        }
        self.add_tick(sm, t, issue);
        self.issued = self.issued.saturating_add(1);
        self.wait[wid] = wait;
        self.span_sm[wid] = sm;
        let span = self.spans[wid].get_or_insert((t, t_done, 0));
        span.1 = span.1.max(t_done);
        span.2 += 1;
        let e = self.phases.entry(pc).or_insert((pc_label, 0));
        e.1 += 1;
    }

    /// Closes the profile: fills every unattributed slot up to `end_tick`
    /// with [`StallReason::NoWarp`] (so each bucket sums to its SM slot
    /// capacity) and freezes the collected data.
    pub(crate) fn finish(mut self, end_tick: u64) -> Profile {
        let total_ticks = end_tick.saturating_add(1);
        let n_buckets = (total_ticks.div_ceil(self.interval_ticks) as usize).max(1);
        if self.buckets.len() < n_buckets * self.sm_count {
            self.buckets
                .resize(n_buckets * self.sm_count, [0; N_STALL_REASONS]);
        }
        let iv = self.interval_ticks;
        for b in 0..n_buckets {
            let covered = (total_ticks - (b as u64 * iv).min(total_ticks)).min(iv);
            for sm in 0..self.sm_count {
                let slots = &mut self.buckets[b * self.sm_count + sm];
                let recorded: u64 = slots.iter().sum();
                slots[StallReason::NoWarp.idx()] += covered.saturating_sub(recorded);
            }
        }
        let buckets = self
            .buckets
            .chunks(self.sm_count)
            .enumerate()
            .flat_map(|(b, per_sm)| {
                let cycle_start = b as u64 * self.interval_cycles;
                per_sm
                    .iter()
                    .enumerate()
                    .map(move |(sm, slots)| StallBucket {
                        cycle_start,
                        sm,
                        slots: *slots,
                    })
            })
            .collect();
        let tpc = self.tpc;
        let warp_spans = self
            .spans
            .iter()
            .enumerate()
            .filter_map(|(wid, s)| {
                s.map(|(start, end, instructions)| WarpSpan {
                    warp: wid as u32,
                    sm: self.span_sm[wid],
                    start_cycle: start / tpc,
                    end_cycle: end.div_ceil(tpc),
                    instructions,
                })
            })
            .collect();
        let phases = self
            .phases
            .iter()
            .map(|(&pc, &(label, warp_instructions))| PhaseCount {
                pc,
                label,
                warp_instructions,
            })
            .collect();
        Profile {
            kernel: self.kernel,
            interval_cycles: self.interval_cycles,
            sm_count: self.sm_count,
            schedulers_per_sm: tpc as usize,
            total_cycles: end_tick.div_ceil(tpc),
            issued_slots: self.issued,
            buckets,
            warp_spans,
            phases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_attribution_splits_across_buckets() {
        let mut p = Profiler::new("k", 2, 4, 2, 2); // interval = 4 ticks
        p.add_range(1, 2, 9, StallReason::MemLatency); // ticks 2..=9
        let prof = p.finish(9);
        // Buckets cover ticks [0,3], [4,7], [8,9]; sm 1 mem-latency slots
        // are 2 + 4 + 2.
        let mem: Vec<u64> = prof
            .buckets
            .iter()
            .filter(|b| b.sm == 1)
            .map(|b| b.slots[StallReason::MemLatency as usize])
            .collect();
        assert_eq!(mem, vec![2, 4, 2]);
        // Everything unattributed is NoWarp and each bucket sums to its
        // capacity: full buckets 4 slots, the tail bucket 2.
        for b in &prof.buckets {
            let sum: u64 = b.slots.iter().sum();
            let cap = if b.cycle_start == 4 { 2 } else { 4 };
            assert_eq!(sum, cap, "bucket at cycle {} sm {}", b.cycle_start, b.sm);
        }
    }

    #[test]
    fn issue_updates_spans_phases_and_wait() {
        let mut p = Profiler::new("k", 1, 2, 1, 1);
        p.on_issue(
            0,
            0,
            0,
            1,
            7,
            "poll",
            StallReason::SpinPoll,
            StallReason::MemLatency,
            5,
        );
        p.on_issue(
            0,
            8,
            7,
            1,
            7,
            "poll",
            StallReason::SpinPoll,
            StallReason::Executing,
            9,
        );
        let prof = p.finish(9);
        assert_eq!(prof.warp_spans.len(), 1);
        let span = &prof.warp_spans[0];
        assert_eq!((span.warp, span.instructions), (1, 2));
        assert_eq!(prof.phases.len(), 1);
        assert_eq!(prof.phases[0].label, "poll");
        assert_eq!(prof.phases[0].warp_instructions, 2);
        // The 7-tick gap is labelled with the warp's first wait reason.
        let totals = prof.totals();
        assert_eq!(totals[StallReason::SpinPoll as usize], 2);
        assert_eq!(totals[StallReason::MemLatency as usize], 7);
        assert_eq!(prof.issued_slots, 2);
        assert_eq!(prof.total_slots(), 10); // ticks 0..=9
        assert!(prof.reason_pct(StallReason::MemLatency) > 69.0);
    }

    #[test]
    fn empty_profile_percentages_are_finite() {
        let prof = Profiler::new("k", 1, 0, 8, 2).finish(0);
        for r in StallReason::ALL {
            assert!(prof.reason_pct(r).is_finite());
        }
        assert_eq!(prof.issued_slots, 0);
    }
}
