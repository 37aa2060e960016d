//! Device configurations: the simulator's counterpart of the paper's
//! Table 3. Each configuration carries the published shape parameters of the
//! corresponding card (SM count, clock, DRAM bandwidth, resident-warp limit)
//! plus the microarchitectural constants of the timing model.

/// Which unit of execution owns a store buffer under the relaxed model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreScope {
    /// One store buffer per warp: a store is invisible to *every* other
    /// warp (even co-resident ones) until drained. The strictest audit.
    Warp,
    /// One store buffer per SM: warps on the same SM see each other's
    /// stores immediately (they share an L1), only cross-SM visibility is
    /// delayed — closer to real-hardware incoherent L1 behaviour.
    Sm,
}

/// Global-memory visibility model of the simulated device.
///
/// The default, [`MemoryModel::SequentiallyConsistent`], makes every store
/// instantly visible to every warp — the historical behaviour, under which
/// `__threadfence` is pure latency. [`MemoryModel::Relaxed`] gives each
/// warp (or SM, see [`StoreScope`]) a bounded store buffer that drains to
/// DRAM only after a delay or at a fence, so a kernel that publishes its
/// ready flag *before* (or without) fencing its data store becomes
/// observably wrong — the bug class `__threadfence` exists to prevent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoryModel {
    /// Every global store is immediately visible device-wide (default).
    #[default]
    SequentiallyConsistent,
    /// Stores buffer locally and drain after a delay or at a fence.
    Relaxed {
        /// Engine ticks a buffered store waits before draining on its own
        /// (ticks are cycles × `schedulers_per_sm`). Large values make a
        /// missing fence near-certain to be observed; small values make
        /// races intermittent, as on real hardware.
        drain_ticks: u64,
        /// Whether buffers are per-warp or per-SM.
        scope: StoreScope,
        /// When set, data loads of a word whose producing store has not
        /// been fence-published by another owner fail the launch with
        /// [`crate::SimtError::RaceDetected`] instead of silently reading
        /// whatever has drained — the `compute-sanitizer --tool racecheck`
        /// analogue. Flag polls are exempt (they are the sync protocol).
        racecheck: bool,
    },
}

/// Whether (and how densely) the engine records a time-resolved
/// [`Profile`](crate::Profile) during launches.
///
/// `Off` (the default) is guaranteed zero-overhead and bit-exact: the
/// engine records nothing and the simulated schedule, results, and
/// [`LaunchStats`](crate::LaunchStats) are identical to a build without the
/// profiling subsystem. `Sampled` buckets per-SM issue-slot attribution on
/// the given interval; `Sampled { interval_cycles: 1 }` is a per-cycle
/// timeline. Profiling is observational only — it never changes timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProfileMode {
    /// No profiling (default).
    #[default]
    Off,
    /// Record a profile, aggregating issue slots per SM over buckets of
    /// `interval_cycles` cycles.
    Sampled {
        /// Bucket width in cycles (clamped to at least 1).
        interval_cycles: u64,
    },
}

impl ProfileMode {
    /// Sampled profiling with the given bucket width in cycles.
    pub fn sampled(interval_cycles: u64) -> Self {
        ProfileMode::Sampled {
            interval_cycles: interval_cycles.max(1),
        }
    }

    /// True for any mode that records a profile.
    pub fn is_on(&self) -> bool {
        !matches!(self, ProfileMode::Off)
    }
}

/// How the engine simulates busy-wait spin loops (the `get_value` polls of
/// every synchronization-free SpTRSV variant).
///
/// Both models produce **bit-exact** `LaunchStats`, solutions, and
/// profiles; they differ only in how many scheduler heap events it takes to
/// get there. [`SpinModel::Replay`] re-enqueues the warp for every poll
/// round-trip — the reference semantics. [`SpinModel::FastForward`] (the
/// default) parks a warp whose poll loop is declared pure
/// ([`crate::WarpKernel::spin_pure`]) on a per-word waiter list, wakes it
/// at the exact tick the satisfying store becomes visible, and
/// reconstructs the skipped iterations' accounting in closed form. A
/// traced launch ([`crate::GpuDevice::launch_traced`]) replays under either
/// model, so its trace is Replay's by construction.
/// `tests/spin_fastforward.rs` pins the equivalence differentially.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpinModel {
    /// Execute every spin-poll iteration as its own scheduler event.
    Replay,
    /// Park spinning warps and fast-forward their accounting (default).
    #[default]
    FastForward,
}

impl MemoryModel {
    /// Relaxed visibility with the given drain delay, per-warp buffers,
    /// and no racecheck: missing fences show up as wrong results.
    pub fn relaxed(drain_ticks: u64) -> Self {
        MemoryModel::Relaxed {
            drain_ticks,
            scope: StoreScope::Warp,
            racecheck: false,
        }
    }

    /// Relaxed visibility with racecheck: unpublished cross-owner data
    /// reads fail the launch with a structured race report.
    pub fn racecheck(drain_ticks: u64) -> Self {
        MemoryModel::Relaxed {
            drain_ticks,
            scope: StoreScope::Warp,
            racecheck: true,
        }
    }

    /// True for any `Relaxed` variant.
    pub fn is_relaxed(&self) -> bool {
        matches!(self, MemoryModel::Relaxed { .. })
    }
}

/// Geometry and latency of the opt-in finite cache model (see DESIGN.md
/// §13). Off by default on every preset: without it the simulator keeps the
/// historical flat-latency + infinite-L2 first-touch traffic model, and all
/// golden traces and racecheck verdicts stay bit-exact. With a `CacheConfig` armed, non-volatile loads probe a per-SM
/// sector/tag L1 (a read-only path — `x`/`val` style data loads; flag polls
/// and atomics bypass it, they are the sync protocol) and a shared L2, both
/// set-associative with deterministic LRU replacement, and DRAM traffic
/// becomes cache *misses* instead of first touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Sets in each SM's private L1 (sector-granular lines).
    pub l1_sets: usize,
    /// Ways per L1 set.
    pub l1_ways: usize,
    /// L1 hit latency in cycles (must undercut `l2_latency` to matter).
    pub l1_latency: u64,
    /// Sets in the device-wide shared L2.
    pub l2_sets: usize,
    /// Ways per L2 set.
    pub l2_ways: usize,
}

impl CacheConfig {
    /// A small, eviction-prone geometry sized for the scaled-down suite
    /// matrices: 8 KB per-SM L1 (64 sets × 4 ways × 32 B sectors) and a
    /// 128 KB shared L2 (512 sets × 8 ways). Small enough that reordering
    /// a matrix visibly moves the hit rate, which is the point of the
    /// `repro locality` experiment.
    pub fn small() -> Self {
        CacheConfig {
            l1_sets: 64,
            l1_ways: 4,
            l1_latency: 30,
            l2_sets: 512,
            l2_ways: 8,
        }
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::small()
    }
}

/// Parameters of a simulated GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Human-readable name (shown in Table 3 output).
    pub name: &'static str,
    /// Marketing name of the card this configuration models.
    pub model: &'static str,
    /// Memory technology label (Table 3 "Memory Type").
    pub memory_type: &'static str,
    /// Number of streaming multiprocessors.
    pub sm_count: usize,
    /// Lanes per warp (32 on all NVIDIA GPUs; 3 in the paper's Figure 2 toy).
    pub warp_size: usize,
    /// Maximum warps resident per SM (occupancy limit).
    pub max_warps_per_sm: usize,
    /// Warp schedulers per SM — instructions issued per SM per cycle.
    pub schedulers_per_sm: usize,
    /// Core clock in GHz (converts cycles to seconds).
    pub clock_ghz: f64,
    /// Peak DRAM bandwidth in GB/s (drives the memory service model).
    pub dram_bw_gbps: f64,
    /// DRAM access latency in cycles (first touch of a sector).
    pub dram_latency: u64,
    /// L2 hit latency in cycles (sector already touched).
    pub l2_latency: u64,
    /// Shared-memory access latency in cycles.
    pub shared_latency: u64,
    /// Cost of an ALU/branch instruction in cycles (pipelined issue).
    pub alu_latency: u64,
    /// Cost of a store instruction in cycles (fire-and-forget).
    pub store_latency: u64,
    /// Cost of `__threadfence()` in cycles.
    pub fence_latency: u64,
    /// Fixed host-side cost of one kernel launch, in cycles (matters for the
    /// per-level launches of Level-Set SpTRSV).
    pub launch_overhead_cycles: u64,
    /// Cycles without any store or lane retirement before the deadlock
    /// detector fires.
    pub deadlock_window: u64,
    /// Hard cycle budget per launch.
    pub max_cycles: u64,
    /// Global-memory visibility model (see [`MemoryModel`]).
    pub memory_model: MemoryModel,
    /// Profiling mode (see [`ProfileMode`]). `Off` by default; purely
    /// observational, never changes simulated results.
    pub profile: ProfileMode,
    /// Spin-loop simulation strategy (see [`SpinModel`]). `FastForward` by
    /// default; `Replay` is the differential reference.
    pub spin_model: SpinModel,
    /// Finite cache model (see [`CacheConfig`]). `None` (the default) keeps
    /// the flat-latency + infinite-L2 first-touch model bit-exact with
    /// pre-cache builds; `Some` arms the per-SM L1 / shared L2 hierarchy.
    pub cache: Option<CacheConfig>,
}

impl DeviceConfig {
    /// Pascal-generation configuration (GTX 1080-shaped; Table 3 column 1).
    pub fn pascal_like() -> Self {
        DeviceConfig {
            name: "Pascal",
            model: "GTX 1080 (simulated)",
            memory_type: "GDDR5X",
            sm_count: 20,
            warp_size: 32,
            max_warps_per_sm: 64,
            schedulers_per_sm: 4,
            clock_ghz: 1.6,
            dram_bw_gbps: 320.0,
            dram_latency: 400,
            l2_latency: 130,
            shared_latency: 25,
            alu_latency: 2,
            store_latency: 4,
            fence_latency: 40,
            launch_overhead_cycles: 8_000,
            deadlock_window: 2_000_000,
            max_cycles: 2_000_000_000,
            memory_model: MemoryModel::SequentiallyConsistent,
            profile: ProfileMode::Off,
            spin_model: SpinModel::FastForward,
            cache: None,
        }
    }

    /// Volta-generation configuration (V100-shaped; Table 3 column 2).
    pub fn volta_like() -> Self {
        DeviceConfig {
            name: "Volta",
            model: "V100 (simulated)",
            memory_type: "HBM2",
            sm_count: 80,
            warp_size: 32,
            max_warps_per_sm: 64,
            schedulers_per_sm: 4,
            clock_ghz: 1.37,
            dram_bw_gbps: 900.0,
            dram_latency: 430,
            l2_latency: 140,
            shared_latency: 22,
            alu_latency: 2,
            store_latency: 4,
            fence_latency: 40,
            launch_overhead_cycles: 7_000,
            deadlock_window: 2_000_000,
            max_cycles: 2_000_000_000,
            memory_model: MemoryModel::SequentiallyConsistent,
            profile: ProfileMode::Off,
            spin_model: SpinModel::FastForward,
            cache: None,
        }
    }

    /// Turing-generation configuration (RTX 2080 Ti-shaped; Table 3 column 3).
    pub fn turing_like() -> Self {
        DeviceConfig {
            name: "Turing",
            model: "RTX 2080 Ti (simulated)",
            memory_type: "GDDR6",
            sm_count: 68,
            warp_size: 32,
            max_warps_per_sm: 32,
            schedulers_per_sm: 4,
            clock_ghz: 1.35,
            dram_bw_gbps: 616.0,
            dram_latency: 420,
            l2_latency: 120,
            shared_latency: 22,
            alu_latency: 2,
            store_latency: 4,
            fence_latency: 40,
            launch_overhead_cycles: 7_500,
            deadlock_window: 2_000_000,
            max_cycles: 2_000_000_000,
            memory_model: MemoryModel::SequentiallyConsistent,
            profile: ProfileMode::Off,
            spin_model: SpinModel::FastForward,
            cache: None,
        }
    }

    /// The paper's Figure 2 toy machine: "the GPU device can launch two
    /// warps at the same time, and each warp can support three threads".
    /// Unit latencies make the cycle-by-cycle schedule legible.
    pub fn toy() -> Self {
        DeviceConfig {
            name: "Toy",
            model: "Figure-2 example machine",
            memory_type: "ideal",
            sm_count: 1,
            warp_size: 3,
            max_warps_per_sm: 2,
            schedulers_per_sm: 2,
            clock_ghz: 1.0,
            dram_bw_gbps: 1e9,
            dram_latency: 1,
            l2_latency: 1,
            shared_latency: 1,
            alu_latency: 1,
            store_latency: 1,
            fence_latency: 1,
            // Each Level-Set launch still pays a host round trip, which is
            // what makes Figure 2a the slowest schedule.
            launch_overhead_cycles: 15,
            deadlock_window: 100_000,
            max_cycles: 10_000_000,
            memory_model: MemoryModel::SequentiallyConsistent,
            profile: ProfileMode::Off,
            spin_model: SpinModel::FastForward,
            cache: None,
        }
    }

    /// Returns a proportionally scaled-down device: SM count and DRAM
    /// bandwidth divided by `factor`, everything per-SM unchanged.
    ///
    /// Occupancy behaviour — the paper's central mechanism — depends on the
    /// *ratio* of work items to resident-warp slots, so an `f`-times smaller
    /// device with `f`-times smaller matrices reproduces the same contrast
    /// while keeping a single-core cycle-level simulation tractable
    /// (EXPERIMENTS.md documents the scaling).
    pub fn scaled_down(self, factor: usize) -> Self {
        self.try_scaled_down(factor)
            .expect("scale factor must be >= 1")
    }

    /// Fallible form of [`DeviceConfig::scaled_down`] for factors that come
    /// from user input: `factor == 0` would divide the SM count and DRAM
    /// bandwidth by zero (a NaN/inf-bandwidth device that poisons every
    /// downstream timing ratio), so it is rejected with a structured
    /// [`crate::SimtError::Config`] instead.
    pub fn try_scaled_down(mut self, factor: usize) -> Result<Self, crate::SimtError> {
        if factor == 0 {
            return Err(crate::SimtError::Config(
                "scale-down factor must be a positive integer (got 0)".into(),
            ));
        }
        self.sm_count = (self.sm_count / factor).max(1);
        self.dram_bw_gbps /= factor as f64;
        Ok(self)
    }

    /// Returns this configuration with the given memory model (builder
    /// style, for `DeviceConfig::toy().with_memory_model(...)` chains).
    pub fn with_memory_model(mut self, model: MemoryModel) -> Self {
        self.memory_model = model;
        self
    }

    /// Returns this configuration with the given profiling mode (builder
    /// style, like [`DeviceConfig::with_memory_model`]).
    pub fn with_profile(mut self, profile: ProfileMode) -> Self {
        self.profile = profile;
        self
    }

    /// Returns this configuration with the given spin-loop model (builder
    /// style, like [`DeviceConfig::with_memory_model`]).
    pub fn with_spin_model(mut self, spin_model: SpinModel) -> Self {
        self.spin_model = spin_model;
        self
    }

    /// Returns this configuration with the finite cache model armed
    /// (builder style, like [`DeviceConfig::with_memory_model`]). Without
    /// this call the cache stays off and simulated results are bit-exact
    /// with pre-cache builds.
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The three evaluation platforms, in Table 3 order.
    pub fn evaluation_platforms() -> Vec<DeviceConfig> {
        vec![Self::pascal_like(), Self::volta_like(), Self::turing_like()]
    }

    /// The evaluation platforms scaled down 4× — the configuration the
    /// harness actually simulates (see [`DeviceConfig::scaled_down`]).
    pub fn evaluation_platforms_scaled() -> Vec<DeviceConfig> {
        Self::evaluation_platforms()
            .into_iter()
            .map(|c| c.scaled_down(4))
            .collect()
    }

    /// Peak DRAM bytes transferable per core cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.dram_bw_gbps / self.clock_ghz
    }

    /// Converts a cycle count to seconds at this device's clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_ghz * 1e9)
    }

    /// Maximum concurrently resident warps on the whole device.
    pub fn max_resident_warps(&self) -> usize {
        self.sm_count * self.max_warps_per_sm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_trio_matches_table3_shape() {
        let ps = DeviceConfig::evaluation_platforms();
        assert_eq!(ps.len(), 3);
        assert_eq!(ps[0].name, "Pascal");
        assert_eq!(ps[1].name, "Volta");
        assert_eq!(ps[2].name, "Turing");
        // Volta has the most SMs and the most bandwidth.
        assert!(ps[1].sm_count > ps[0].sm_count);
        assert!(ps[1].dram_bw_gbps > ps[2].dram_bw_gbps);
        // Turing's occupancy limit is half of Pascal/Volta's.
        assert_eq!(ps[2].max_warps_per_sm, 32);
    }

    #[test]
    fn unit_conversions() {
        let c = DeviceConfig::pascal_like();
        assert!((c.bytes_per_cycle() - 200.0).abs() < 1e-9);
        assert!((c.cycles_to_seconds(1_600_000_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scaled_down_divides_sms_and_bandwidth() {
        let c = DeviceConfig::pascal_like().scaled_down(4);
        assert_eq!(c.sm_count, 5);
        assert!((c.dram_bw_gbps - 80.0).abs() < 1e-9);
        assert_eq!(c.max_warps_per_sm, 64); // per-SM properties unchanged
        let trio = DeviceConfig::evaluation_platforms_scaled();
        assert_eq!(trio[1].sm_count, 20);
        assert_eq!(trio[2].sm_count, 17);
    }

    #[test]
    fn memory_model_defaults_to_sequential_consistency() {
        for cfg in DeviceConfig::evaluation_platforms() {
            assert_eq!(cfg.memory_model, MemoryModel::SequentiallyConsistent);
            assert!(!cfg.memory_model.is_relaxed());
        }
        assert_eq!(DeviceConfig::toy().memory_model, MemoryModel::default());
        let relaxed = DeviceConfig::toy().with_memory_model(MemoryModel::relaxed(64));
        assert!(relaxed.memory_model.is_relaxed());
        match MemoryModel::racecheck(64) {
            MemoryModel::Relaxed {
                drain_ticks,
                scope,
                racecheck,
            } => {
                assert_eq!(drain_ticks, 64);
                assert_eq!(scope, StoreScope::Warp);
                assert!(racecheck);
            }
            other => panic!("expected relaxed, got {other:?}"),
        }
    }

    #[test]
    fn profiling_defaults_to_off() {
        for cfg in DeviceConfig::evaluation_platforms() {
            assert_eq!(cfg.profile, ProfileMode::Off);
            assert!(!cfg.profile.is_on());
        }
        assert_eq!(DeviceConfig::toy().profile, ProfileMode::default());
        let on = DeviceConfig::toy().with_profile(ProfileMode::sampled(0));
        assert!(on.profile.is_on());
        // The interval clamps to >= 1 so a zero request cannot divide by 0.
        assert_eq!(on.profile, ProfileMode::Sampled { interval_cycles: 1 });
    }

    #[test]
    fn spin_model_defaults_to_fast_forward() {
        for cfg in DeviceConfig::evaluation_platforms() {
            assert_eq!(cfg.spin_model, SpinModel::FastForward);
        }
        assert_eq!(DeviceConfig::toy().spin_model, SpinModel::default());
        let replay = DeviceConfig::toy().with_spin_model(SpinModel::Replay);
        assert_eq!(replay.spin_model, SpinModel::Replay);
    }

    #[test]
    fn cache_defaults_to_off() {
        for cfg in DeviceConfig::evaluation_platforms() {
            assert_eq!(cfg.cache, None);
        }
        assert_eq!(DeviceConfig::toy().cache, None);
        let on = DeviceConfig::pascal_like().with_cache(CacheConfig::small());
        assert_eq!(on.cache, Some(CacheConfig::small()));
        // Builder-set cache survives the other builders and scaling.
        assert_eq!(
            on.with_spin_model(SpinModel::Replay).scaled_down(4).cache,
            Some(CacheConfig::default())
        );
    }

    #[test]
    fn scaled_down_zero_is_a_structured_config_error() {
        // Regression: a zero factor must not produce a NaN/inf-bandwidth
        // device (or panic through the fallible path) — it is a config
        // error a caller can render.
        let err = DeviceConfig::pascal_like().try_scaled_down(0).unwrap_err();
        match &err {
            crate::SimtError::Config(msg) => {
                assert!(msg.contains("positive integer"), "{msg}")
            }
            other => panic!("expected Config error, got {other:?}"),
        }
        assert!(err.to_string().contains("invalid configuration"));
        // Valid factors still work through the fallible path.
        let ok = DeviceConfig::pascal_like().try_scaled_down(4).unwrap();
        assert_eq!(ok.sm_count, 5);
        assert!(ok.dram_bw_gbps.is_finite());
    }

    #[test]
    fn toy_is_tiny_and_deterministic() {
        let t = DeviceConfig::toy();
        assert_eq!(t.warp_size, 3);
        assert_eq!(t.max_resident_warps(), 2);
    }
}
