//! # capellini-core
//!
//! The CapelliniSpTRSV algorithm library: a faithful reproduction of the
//! paper's Algorithms 1–5 plus the cuSPARSE-like baseline, the §3.3
//! deadlocking straw man, and the §4.4 warp/thread hybrid — all as kernels
//! for the [`capellini_simt`] SIMT simulator — along with native
//! multithreaded CPU solvers and a high-level [`Solver`] facade.
//!
//! ```
//! use capellini_core::prelude::*;
//! use capellini_sparse::gen;
//!
//! // An LP-factor-shaped system in the high-granularity regime.
//! let l = gen::ultra_sparse_wide(2_000, 8, 1, 7);
//! let b = vec![1.0; l.n()];
//! let solver = Solver::new(l);
//! assert_eq!(solver.recommend(), Algorithm::CapelliniWritingFirst);
//!
//! let report = solver
//!     .solve_simulated(&DeviceConfig::pascal_like(), &b)
//!     .expect("writing-first never deadlocks");
//! let x_ref = solver.solve_serial(&b).expect("rhs matches the matrix");
//! capellini_sparse::linalg::assert_solutions_close(&report.x, &x_ref, 1e-11);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod buffers;
pub mod cpu;
pub mod iterative;
pub mod kernels;
pub mod reference;
pub mod select;
pub mod service;
pub mod session;
pub mod shard;
pub mod solver;
pub mod upper;

pub use buffers::{DeviceCsr, MultiSolveBuffers, PooledSolveBuffers, RhsLayout, SolveBuffers};
pub use iterative::{gauss_seidel, pcg_ssor, sor, IterResult, SsorPreconditioner};
pub use kernels::SimSolve;
pub use reference::{solve_serial_csc, solve_serial_csr};
pub use select::{
    algorithm_traits, recommend, recommend_for_reuse, Algorithm, CostAwareChoice, TraitRow,
    GRANULARITY_THRESHOLD, NOMINAL_CYCLES_PER_MS,
};
pub use service::{
    MatrixHandle, ServiceConfig, ServiceError, ServiceMetrics, ServiceResponse, SolverService,
    TenantMetrics,
};
pub use session::SolverSession;
pub use shard::{
    solve_sharded, solve_sharded_with_partition, ShardConfig, ShardedReport, MSG_BYTES,
};
pub use solver::{solve_multi_simulated, solve_simulated, MultiSolveReport, SolveReport, Solver};
pub use upper::solve_upper_simulated;

/// Convenient glob import.
pub mod prelude {
    pub use crate::cpu::{solve_levelset_parallel, solve_selfsched, Distribution};
    pub use crate::iterative::{gauss_seidel, pcg_ssor, sor, IterResult};
    pub use crate::reference::{solve_serial_csc, solve_serial_csr};
    pub use crate::select::{recommend, Algorithm};
    pub use crate::service::{
        MatrixHandle, ServiceConfig, ServiceError, ServiceResponse, SolverService,
    };
    pub use crate::session::SolverSession;
    pub use crate::shard::{solve_sharded, ShardConfig, ShardedReport};
    pub use crate::solver::{
        solve_multi_simulated, solve_simulated, MultiSolveReport, SolveReport, Solver,
    };
    pub use crate::upper::solve_upper_simulated;
    pub use capellini_simt::DeviceConfig;
}
