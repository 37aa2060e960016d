//! The kernel programming model: per-lane state machines over an abstract
//! program counter.
//!
//! A kernel is written as a control-flow graph of numbered instructions
//! (`Pc` values). Each call to [`WarpKernel::exec`] executes exactly one
//! instruction for one lane: it may perform at most one memory access
//! through [`crate::mem::LaneMem`], mutate the lane's registers, and returns
//! an [`Effect`] naming the next `Pc` (or [`PC_EXIT`]).
//!
//! The engine runs all active lanes of a warp in lock-step at the same `Pc`.
//! When lanes disagree on the next `Pc`, the warp *diverges*: the engine
//! serializes the divergent paths on a reconvergence stack, exactly like
//! pre-Volta NVIDIA hardware. Two kernel-supplied callbacks steer this:
//!
//! * [`WarpKernel::reconv`] — the reconvergence point (immediate
//!   post-dominator) of each potentially-divergent branch;
//! * [`WarpKernel::branch_order`] — which side of the branch executes
//!   first. This models the compiled fall-through path: on real hardware,
//!   a `while (!flag) {}` spin compiles so the *spinning* side runs first
//!   (hence the intra-warp deadlocks of §3.3 Challenge 1), while
//!   `if (col == i) { ...; break; }` runs the *finalize* side first.

/// Abstract program counter within a kernel's control-flow graph.
pub type Pc = u32;

/// Sentinel `Pc`: the lane has finished.
pub const PC_EXIT: Pc = u32::MAX;

/// The result of executing one instruction on one lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Effect {
    /// Where this lane goes next ([`PC_EXIT`] to retire).
    pub next: Pc,
    /// Floating-point operations performed by this instruction.
    pub flops: u16,
    /// True if this instruction is a `__threadfence()`.
    pub fence: bool,
}

impl Effect {
    /// Plain instruction: go to `next`.
    #[inline]
    pub fn to(next: Pc) -> Self {
        Effect {
            next,
            flops: 0,
            fence: false,
        }
    }

    /// Instruction performing `flops` floating-point operations.
    #[inline]
    pub fn flops(next: Pc, flops: u16) -> Self {
        Effect {
            next,
            flops,
            fence: false,
        }
    }

    /// A memory fence.
    #[inline]
    pub fn fence(next: Pc) -> Self {
        Effect {
            next,
            flops: 0,
            fence: true,
        }
    }

    /// Retire this lane.
    #[inline]
    pub fn exit() -> Self {
        Effect {
            next: PC_EXIT,
            flops: 0,
            fence: false,
        }
    }
}

/// A GPU kernel expressed as a per-lane state machine.
pub trait WarpKernel: Sync {
    /// Per-lane register state.
    type Lane: Send;

    /// Kernel name for traces and diagnostics.
    fn name(&self) -> &'static str;

    /// Words of per-warp shared memory (`f64`) this kernel needs.
    fn shared_per_warp(&self) -> usize {
        0
    }

    /// Creates the register state of the lane with global thread id `tid`.
    fn make_lane(&self, tid: u32) -> Self::Lane;

    /// Executes the instruction at `pc` for one lane. The engine runs an
    /// instruction's active lanes in ascending lane order through one
    /// [`crate::mem::LaneMem`], which carries at most one memory access per
    /// call. It runs once per active lane of every issued warp instruction,
    /// so the kernels mark it `#[inline(always)]` to inline it into the
    /// engine's step: with plain `#[inline]` the larger kernels stayed out
    /// of line and solved about 2% slower.
    fn exec(
        &self,
        pc: Pc,
        lane: &mut Self::Lane,
        tid: u32,
        mem: &mut crate::mem::LaneMem<'_>,
    ) -> Effect;

    /// The reconvergence point (immediate post-dominator) of a divergent
    /// branch at `pc`. Called only when lanes actually diverge there.
    fn reconv(&self, pc: Pc) -> Pc;

    /// Execution priority of the divergent group headed to `target` from the
    /// branch at `pc`: lower runs first (the compiled fall-through path).
    /// The default runs lower-`Pc` targets first, which makes bare backward
    /// spin loops starve their siblings — the pre-Volta pitfall.
    fn branch_order(&self, _pc: Pc, target: Pc) -> u8 {
        // PC_EXIT groups sort last by default.
        if target == PC_EXIT {
            u8::MAX
        } else {
            u8::try_from(target.min(254)).unwrap_or(254)
        }
    }

    /// Human-readable name of a `Pc`, for traces (Figure 2).
    fn pc_name(&self, _pc: Pc) -> &'static str {
        "?"
    }

    /// Declares the busy-wait loop anchored at the poll instruction `pc`
    /// *pure*, opting it into [`crate::SpinModel::FastForward`] parking.
    ///
    /// Returning `true` for a poll `pc` is a contract: as long as every
    /// global word the loop reads (including the polled words themselves)
    /// is unchanged and no store to them becomes visible, re-executing the
    /// loop from `pc` performs exactly the same instruction sequence with
    /// the same memory accesses and no architectural side effects — no
    /// stores, atomics, fences, shared-memory traffic, lane retirement, or
    /// per-iteration register mutation (a bounded spin that counts
    /// iterations is *not* pure). The poll itself must be idempotent:
    /// re-polling early is allowed to fail and try again.
    ///
    /// The engine still verifies each captured iteration structurally
    /// (uniform control, L2-resident accesses, no side effects) and falls
    /// back to replaying when a loop misbehaves, but it cannot detect
    /// hidden register mutation — hence the opt-in. The default `false`
    /// replays every spin iteration, which is always safe.
    fn spin_pure(&self, _pc: Pc) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effect_constructors() {
        assert_eq!(
            Effect::to(3),
            Effect {
                next: 3,
                flops: 0,
                fence: false
            }
        );
        assert_eq!(
            Effect::flops(4, 2),
            Effect {
                next: 4,
                flops: 2,
                fence: false
            }
        );
        assert!(Effect::fence(1).fence);
        assert_eq!(Effect::exit().next, PC_EXIT);
    }
}
