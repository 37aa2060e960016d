//! Native multithreaded CPU solvers — the real-hardware counterparts of the
//! GPU kernels, used by `Solver::solve_cpu` and as an independent
//! correctness oracle. The thread-level busy-wait solver is the
//! CPU analog of CapelliniSpTRSV: self-scheduled rows, release/acquire
//! completion flags, no barriers.

pub mod levelset;
pub mod selfsched;

pub use levelset::solve_levelset_parallel;
pub use selfsched::{solve_selfsched, Distribution};
