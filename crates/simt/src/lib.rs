//! # capellini-simt
//!
//! A deterministic, cycle-accounted SIMT GPU simulator — the execution
//! substrate of the CapelliniSpTRSV reproduction (DESIGN.md §1 explains the
//! substitution of real GPUs by this model).
//!
//! What it models, because the paper's argument depends on it:
//!
//! * **Lock-step warps** with a reconvergence stack and *serialized*
//!   divergent paths (pre-Volta semantics), including kernel-controlled
//!   branch order. This is what makes naive intra-warp busy-waiting deadlock
//!   (§3.3 Challenge 1) while CapelliniSpTRSV's control flow stays live.
//! * **Occupancy**: SMs hold a bounded number of resident warps; one warp
//!   per component (warp-level SpTRSV) exhausts residency on wide levels,
//!   one *thread* per component (CapelliniSpTRSV) multiplies the usable
//!   parallelism by the warp width — the paper's core claim.
//! * **Memory**: per-warp coalescing into 32-byte sectors, DRAM latency and
//!   a global bandwidth queue, an infinite-L2 first-touch traffic model,
//!   fire-and-forget stores, and `__threadfence()`. An opt-in relaxed
//!   visibility model ([`MemoryModel`]) buffers global stores per warp until
//!   a fence publishes them, with a racecheck mode that reports unpublished
//!   cross-warp reads as structured [`SimtError::RaceDetected`] errors —
//!   making the paper's fence placement load-bearing instead of decorative.
//! * **Counters**: instructions, dependency-stall slots, DRAM bytes — the
//!   `nvprof` metrics of the paper's Figures 7–8 and Table 6.
//!
//! ```
//! use capellini_simt::prelude::*;
//!
//! struct Fill { out: BufF64 }
//! impl WarpKernel for Fill {
//!     type Lane = ();
//!     fn name(&self) -> &'static str { "fill" }
//!     fn make_lane(&self, _tid: u32) {}
//!     fn exec(&self, _pc: Pc, _l: &mut (), tid: u32, mem: &mut LaneMem<'_>) -> Effect {
//!         mem.store_f64(self.out, tid as usize, tid as f64);
//!         Effect::exit()
//!     }
//!     fn reconv(&self, _pc: Pc) -> Pc { unreachable!() }
//! }
//!
//! let mut dev = GpuDevice::new(DeviceConfig::pascal_like());
//! let out = dev.mem().alloc_f64_zeroed(64);
//! let stats = dev.launch(&Fill { out }, 2).unwrap();
//! assert_eq!(dev.mem_ref().read_f64(out)[63], 63.0);
//! assert_eq!(stats.warps_launched, 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod engine;
pub mod error;
pub mod host;
pub mod kernel;
pub mod mem;
pub mod metrics;
pub mod multidev;
pub mod profile;
pub mod trace;

pub use config::{CacheConfig, DeviceConfig, MemoryModel, ProfileMode, SpinModel, StoreScope};
pub use engine::GpuDevice;
pub use error::{SimtError, WarpSnapshot};
pub use host::HostCostModel;
pub use kernel::{Effect, Pc, WarpKernel, PC_EXIT};
pub use mem::{BufF64, BufFlag, BufU32, ExtEvent, ExtOp, LaneMem, SECTOR_BYTES};
pub use metrics::{EngineCounters, LaunchStats};
pub use multidev::{merge_deadlock, Link, LinkConfig, MAX_DEVICES};
pub use profile::{PhaseCount, Profile, StallBucket, StallReason, WarpSpan, N_STALL_REASONS};
pub use trace::{Trace, TraceEvent};

/// Convenient glob import.
pub mod prelude {
    pub use crate::config::{
        CacheConfig, DeviceConfig, MemoryModel, ProfileMode, SpinModel, StoreScope,
    };
    pub use crate::engine::GpuDevice;
    pub use crate::error::{SimtError, WarpSnapshot};
    pub use crate::host::HostCostModel;
    pub use crate::kernel::{Effect, Pc, WarpKernel, PC_EXIT};
    pub use crate::mem::{BufF64, BufFlag, BufU32, LaneMem};
    pub use crate::metrics::LaunchStats;
    pub use crate::profile::{Profile, StallReason};
    pub use crate::trace::Trace;
}
