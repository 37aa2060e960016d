//! # capellini-sparse
//!
//! Sparse-matrix substrate for the CapelliniSpTRSV reproduction: storage
//! formats (CSR — the paper's native format — plus CSC and COO), validated
//! lower-triangular systems, level-set analysis, the *parallel granularity*
//! indicator of Equation 1, Matrix Market I/O, synthetic matrix generators,
//! and the deterministic evaluation dataset standing in for the University
//! of Florida collection.
//!
//! ```
//! use capellini_sparse::prelude::*;
//!
//! // Generate a graph-shaped lower-triangular system and inspect the two
//! // statistics that drive the paper's analysis.
//! let l = gen::powerlaw(10_000, 3.0, 42);
//! let stats = MatrixStats::compute(&l);
//! assert!(stats.granularity > 0.7); // the regime CapelliniSpTRSV targets
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod coo;
pub mod csc;
pub mod csr;
pub mod dataset;
pub mod diagnostics;
pub mod error;
pub mod fingerprint;
pub mod gen;
pub mod io;
pub mod levels;
pub mod linalg;
pub mod partition;
pub mod permute;
pub mod schedule;
pub mod stats;
pub mod triangular;

pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use error::SparseError;
pub use fingerprint::{fingerprint, fingerprint_csr, Fingerprinter};
pub use levels::LevelSets;
pub use partition::{GhostShard, RowPartition};
pub use schedule::{Schedule, ScheduleParams, ScheduleStats, UnitKind};
pub use stats::{parallel_granularity, GranularityParams, MatrixStats};
pub use triangular::{solve_serial_upper, LowerTriangularCsr, UpperTriangularCsr};

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::dataset::{self, DatasetEntry, Scale};
    pub use crate::diagnostics;
    pub use crate::fingerprint::{fingerprint, fingerprint_csr, Fingerprinter};
    pub use crate::gen;
    pub use crate::levels::LevelSets;
    pub use crate::linalg;
    pub use crate::permute;
    pub use crate::schedule::{Schedule, ScheduleParams, ScheduleStats, UnitKind};
    pub use crate::stats::{parallel_granularity, MatrixStats};
    pub use crate::{
        CooMatrix, CscMatrix, CsrMatrix, LowerTriangularCsr, SparseError, UpperTriangularCsr,
    };
}

/// The 8×8 lower-triangular example of Figure 1, used throughout the paper
/// (and this codebase) as the running example.
pub fn paper_example() -> LowerTriangularCsr {
    let triplets = [
        (0u32, 0u32, 1.0),
        (1, 1, 1.0),
        (2, 1, 0.5),
        (2, 2, 1.0),
        (3, 1, 0.25),
        (3, 3, 1.0),
        (4, 0, 0.5),
        (4, 1, -0.25),
        (4, 4, 1.0),
        (5, 2, 0.75),
        (5, 5, 1.0),
        (6, 3, -0.5),
        (6, 4, 0.25),
        (6, 6, 1.0),
        (7, 4, 0.5),
        (7, 5, -0.75),
        (7, 7, 1.0),
    ];
    let coo = CooMatrix::from_triplets(8, 8, triplets).expect("static triplets are in range");
    LowerTriangularCsr::try_new(CsrMatrix::from_coo(&coo)).expect("example is unit lower")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_structure_matches_figure_1() {
        let l = paper_example();
        assert_eq!(l.n(), 8);
        assert_eq!(l.nnz(), 17);
        assert_eq!(l.csr().row_ptr(), &[0, 1, 2, 4, 6, 9, 11, 14, 17]);
        let ls = LevelSets::analyze(&l);
        assert_eq!(ls.n_levels(), 4);
    }
}
