//! Multi-device plumbing: the inter-device link model and the cross-device
//! deadlock merge (DESIGN.md §15).
//!
//! A sharded solve partitions the triangular system across up to
//! [`MAX_DEVICES`] simulated [`crate::GpuDevice`]s by contiguous row
//! blocks. All shards launch at t = 0 on a *common* tick timeline; because
//! rows only depend on earlier rows, dependencies flow strictly from lower
//! shards to higher ones, so the coordinator can co-simulate the devices
//! exactly by running them in shard order:
//!
//! 1. A producer shard runs with a publication watch armed on its boundary
//!    buffers ([`crate::mem::DeviceMemory::set_watch`]), capturing each
//!    boundary `x` value / completion flag / atomic delta as a
//!    [`crate::ExtEvent`] stamped with the tick it became DRAM-visible.
//! 2. Each captured publication a downstream shard imports is pushed
//!    through the directed [`Link`] between the two devices, yielding its
//!    arrival tick on the consumer (latency floor + bandwidth token
//!    bucket, the DRAM idiom of `mem.rs`).
//! 3. The consumer shard then launches with the arrivals pre-scheduled as
//!    external events (`GpuDevice::launch_with_events`): each event writes
//!    the consumer's device-local mirror word at its arrival tick and
//!    wakes any warp parked on it, so the PR 4 waiter/wake machinery works
//!    unchanged across device boundaries.
//!
//! The sharded makespan is the max of the per-device end cycles — what a
//! real multi-GPU run would report, since every device started at t = 0.
//!
//! When shards fail instead of finishing (an injected cross-device
//! dependency cycle), each stuck device reports its own structured
//! [`SimtError::Deadlock`] with a local waiter graph; [`merge_deadlock`]
//! fuses them into *one* deadlock whose warp snapshots are device-tagged —
//! the cross-device waiter graph the tests pin.

use crate::error::{SimtError, WarpSnapshot};

/// Maximum number of devices a sharded solve may span.
pub const MAX_DEVICES: usize = 8;

/// Inter-device link parameters, in device cycles (converted to engine
/// ticks by [`Link::new`], mirroring how `DeviceConfig` DRAM parameters
/// are scaled by `schedulers_per_sm`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Fixed propagation latency of one message, in cycles. Every transfer
    /// arrives no earlier than `ready + latency`.
    pub latency_cycles: u64,
    /// Link bandwidth: payload bytes the link moves per device cycle.
    pub bytes_per_cycle: f64,
}

impl LinkConfig {
    /// PCIe-generation interconnect: high latency, modest bandwidth.
    pub fn pcie_like() -> Self {
        LinkConfig {
            latency_cycles: 600,
            bytes_per_cycle: 16.0,
        }
    }

    /// NVLink-generation interconnect: low latency, high bandwidth.
    pub fn nvlink_like() -> Self {
        LinkConfig {
            latency_cycles: 120,
            bytes_per_cycle: 150.0,
        }
    }

    /// Rejects non-physical parameters.
    pub fn validate(&self) -> Result<(), SimtError> {
        if self.bytes_per_cycle <= 0.0 || !self.bytes_per_cycle.is_finite() {
            return Err(SimtError::Config(format!(
                "link bytes_per_cycle must be positive and finite, got {}",
                self.bytes_per_cycle
            )));
        }
        Ok(())
    }
}

/// One *directed* producer → consumer link: a latency floor plus a
/// bandwidth token bucket, the same occupancy idiom as the DRAM queue in
/// the engine (`dram_busy`). Messages must be offered in non-decreasing
/// `ready` order (the coordinator feeds publications sorted by visibility
/// tick), and each occupies the link for `bytes × service_per_byte` ticks.
#[derive(Debug, Clone)]
pub struct Link {
    latency_ticks: u64,
    service_per_byte: f64,
    /// Tick up to which the link's bandwidth is committed.
    busy: f64,
    msgs: u64,
    bytes: u64,
}

impl Link {
    /// Builds a link from its cycle-domain config; `tpc` is the engine's
    /// ticks-per-cycle factor (`schedulers_per_sm`, clamped to ≥ 1).
    pub fn new(cfg: &LinkConfig, tpc: u64) -> Self {
        let tpc = tpc.max(1);
        Link {
            latency_ticks: cfg.latency_cycles.saturating_mul(tpc),
            service_per_byte: tpc as f64 / cfg.bytes_per_cycle,
            busy: 0.0,
            msgs: 0,
            bytes: 0,
        }
    }

    /// Transfers one `bytes`-byte message that is ready on the producer at
    /// tick `ready`; returns the tick at which it is applied on the
    /// consumer. Serialization (the token bucket) delays back-to-back
    /// messages; the latency floor delays even an idle link.
    pub fn transfer(&mut self, ready: u64, bytes: u64) -> u64 {
        self.busy = self.busy.max(ready as f64) + bytes as f64 * self.service_per_byte;
        self.msgs += 1;
        self.bytes += bytes;
        (self.busy.ceil() as u64).max(ready.saturating_add(self.latency_ticks))
    }

    /// Messages moved so far.
    pub fn messages(&self) -> u64 {
        self.msgs
    }

    /// Payload bytes moved so far.
    pub fn total_bytes(&self) -> u64 {
        self.bytes
    }
}

/// Fuses per-device failures into one structured error with a cross-device
/// waiter graph:
///
/// * any [`SimtError::RaceDetected`] wins (a race is a correctness bug
///   regardless of which shard tripped it);
/// * otherwise all [`SimtError::Deadlock`]s merge into a single deadlock —
///   summed live warps, max cycle, device-tagged warp snapshots;
/// * otherwise the first failure is returned unchanged.
///
/// Panics if `failures` is empty (the coordinator only calls it on error).
pub fn merge_deadlock(failures: Vec<(usize, SimtError)>) -> SimtError {
    assert!(!failures.is_empty(), "no failures to merge");
    if let Some((_, race)) = failures
        .iter()
        .find(|(_, e)| matches!(e, SimtError::RaceDetected { .. }))
    {
        return race.clone();
    }
    let n_deadlocks = failures
        .iter()
        .filter(|(_, e)| matches!(e, SimtError::Deadlock { .. }))
        .count();
    if n_deadlocks == 0 {
        return failures.into_iter().next().expect("non-empty").1;
    }
    let mut kernel_name: &'static str = "";
    let mut max_cycle = 0u64;
    let mut total_live = 0usize;
    let mut max_progress = 0u64;
    let mut merged: Vec<WarpSnapshot> = Vec::new();
    for (dev, e) in failures {
        if let SimtError::Deadlock {
            kernel,
            cycle,
            live_warps,
            last_progress_cycle,
            warps,
        } = e
        {
            if kernel_name.is_empty() {
                kernel_name = kernel;
            }
            max_cycle = max_cycle.max(cycle);
            total_live += live_warps;
            max_progress = max_progress.max(last_progress_cycle);
            merged.extend(warps.into_iter().map(|mut w| {
                w.device = dev;
                w
            }));
        }
    }
    SimtError::Deadlock {
        kernel: kernel_name,
        cycle: max_cycle,
        live_warps: total_live,
        last_progress_cycle: max_progress,
        warps: merged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_idle_transfer_pays_the_latency_floor() {
        let mut link = Link::new(&LinkConfig::nvlink_like(), 2);
        // 16 bytes over 150 B/cycle serializes in well under the 120-cycle
        // (240-tick) latency floor.
        assert_eq!(link.transfer(1000, 16), 1000 + 240);
        assert_eq!(link.messages(), 1);
        assert_eq!(link.total_bytes(), 16);
    }

    #[test]
    fn link_back_to_back_messages_serialize_on_bandwidth() {
        let cfg = LinkConfig {
            latency_cycles: 0,
            bytes_per_cycle: 1.0,
        };
        let mut link = Link::new(&cfg, 1);
        // Each 16-byte message occupies the link for 16 ticks.
        assert_eq!(link.transfer(0, 16), 16);
        assert_eq!(link.transfer(0, 16), 32);
        // A later-ready message starts from its own ready tick.
        assert_eq!(link.transfer(100, 16), 116);
        assert_eq!(link.total_bytes(), 48);
    }

    #[test]
    fn link_config_rejects_zero_bandwidth() {
        let bad = LinkConfig {
            latency_cycles: 10,
            bytes_per_cycle: 0.0,
        };
        assert!(matches!(bad.validate(), Err(SimtError::Config(_))));
        assert!(LinkConfig::pcie_like().validate().is_ok());
    }

    fn deadlock_on(dev_warp: &[(u32, u32)]) -> SimtError {
        SimtError::Deadlock {
            kernel: "k",
            cycle: 100,
            live_warps: dev_warp.len(),
            last_progress_cycle: 40,
            warps: dev_warp
                .iter()
                .map(|&(warp, buf)| WarpSnapshot {
                    device: 0,
                    warp,
                    sm: 0,
                    pc: 4,
                    active_mask: 1,
                    waiting_on: vec![(buf, 0)],
                })
                .collect(),
        }
    }

    #[test]
    fn merge_produces_one_deadlock_with_device_tagged_waiters() {
        let merged = merge_deadlock(vec![
            (0, deadlock_on(&[(0, 7)])),
            (1, deadlock_on(&[(3, 9)])),
        ]);
        let SimtError::Deadlock {
            live_warps, warps, ..
        } = &merged
        else {
            panic!("expected a deadlock, got {merged:?}");
        };
        assert_eq!(*live_warps, 2);
        assert_eq!(warps[0].device, 0);
        assert_eq!(warps[1].device, 1);
        let s = merged.to_string();
        assert!(s.contains("device 1 warp 3"), "{s}");
        assert!(!s.contains("device 0"), "device 0 stays untagged: {s}");
    }

    #[test]
    fn merge_prefers_a_race_over_deadlocks() {
        let race = SimtError::RaceDetected {
            kernel: "k",
            buffer: 1,
            index: 2,
            producer_warp: 0,
            consumer_warp: 1,
            pc: 3,
        };
        let merged = merge_deadlock(vec![(0, deadlock_on(&[(0, 7)])), (1, race.clone())]);
        assert_eq!(merged, race);
    }
}
