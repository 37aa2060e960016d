//! Matrix statistics and the paper's *parallel granularity* indicator
//! (§3.2, Equation 1):
//!
//! ```text
//! parallel_granularity = log_c1( log_c2(n_level) / log_c3(nnz_row + b1) + b2 )
//! ```
//!
//! where `n_level` is the average number of components per level, `nnz_row`
//! the average number of nonzeros per row, and by default all bases are 10
//! and `b1 = b2 = 0.01`.

use crate::diagnostics::count_analysis;
use crate::levels::LevelSets;
use crate::triangular::LowerTriangularCsr;

/// Tunable parameters of Equation 1. The paper notes the bases and biases
/// "can be adjusted by users; by default, we use common logarithm where all
/// the bases are 10, and b1 and b2 are 0.01".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GranularityParams {
    /// Outer logarithm base (`c1`).
    pub c1: f64,
    /// Numerator logarithm base (`c2`).
    pub c2: f64,
    /// Denominator logarithm base (`c3`).
    pub c3: f64,
    /// Bias added to `nnz_row` (`b1`).
    pub b1: f64,
    /// Bias added to the ratio (`b2`).
    pub b2: f64,
}

impl Default for GranularityParams {
    fn default() -> Self {
        GranularityParams {
            c1: 10.0,
            c2: 10.0,
            c3: 10.0,
            b1: 0.01,
            b2: 0.01,
        }
    }
}

/// Evaluates Equation 1 for the two aggregate statistics.
pub fn parallel_granularity_with(n_level: f64, nnz_row: f64, p: GranularityParams) -> f64 {
    let num = n_level.log(p.c2);
    let den = (nnz_row + p.b1).log(p.c3);
    (num / den + p.b2).log(p.c1)
}

/// Equation 1 with the paper's default parameters.
pub fn parallel_granularity(n_level: f64, nnz_row: f64) -> f64 {
    parallel_granularity_with(n_level, nnz_row, GranularityParams::default())
}

/// Aggregate statistics of a lower-triangular system, as reported throughout
/// the paper's evaluation (Table 6 uses δ = granularity, α = nnz per row,
/// β = components per level).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixStats {
    /// Matrix dimension.
    pub n: usize,
    /// Stored nonzeros (including the diagonal).
    pub nnz: usize,
    /// Number of levels in the dependency DAG.
    pub n_levels: usize,
    /// α: average nonzeros per row, `nnz / n`.
    pub nnz_row: f64,
    /// β: average components per level, `n / n_levels`.
    pub n_level: f64,
    /// δ: parallel granularity (Equation 1, default parameters).
    pub granularity: f64,
    /// Width of the largest level.
    pub max_level_width: usize,
}

impl MatrixStats {
    /// Computes all statistics, running level-set analysis internally.
    pub fn compute(l: &LowerTriangularCsr) -> Self {
        count_analysis(|c| c.stats += 1);
        let levels = LevelSets::analyze(l);
        Self::from_levels(l, &levels)
    }

    /// Computes statistics reusing an existing level-set analysis.
    pub fn from_levels(l: &LowerTriangularCsr, levels: &LevelSets) -> Self {
        let n = l.n();
        let nnz = l.nnz();
        let nnz_row = nnz as f64 / n.max(1) as f64;
        let n_level = levels.avg_components_per_level();
        // Equation 1 is undefined on an empty system (log of 0): report a
        // finite zero granularity instead of NaN/-inf.
        let granularity = if n == 0 {
            0.0
        } else {
            parallel_granularity(n_level, nnz_row)
        };
        MatrixStats {
            n,
            nnz,
            n_levels: levels.n_levels(),
            nnz_row,
            n_level,
            granularity,
            max_level_width: levels.max_level_width(),
        }
    }

    /// Nominal floating-point operation count of one triangular solve:
    /// a multiply+add per strictly-lower nonzero and a subtract+divide per
    /// row, i.e. `2·nnz` for a matrix storing its diagonal. This matches the
    /// convention used to report GFLOPS in the SpTRSV literature.
    pub fn solve_flops(&self) -> u64 {
        2 * self.nnz as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::csr::CsrMatrix;

    fn lower(trips: &[(u32, u32, f64)], n: usize) -> LowerTriangularCsr {
        let coo = CooMatrix::from_triplets(n, n, trips.iter().copied()).unwrap();
        LowerTriangularCsr::try_new(CsrMatrix::from_coo(&coo)).unwrap()
    }

    #[test]
    fn equation_one_matches_hand_computation() {
        // n_level = 1000, nnz_row = 3:
        // log10(1000)=3, log10(3.01)=0.47856...,
        // ratio = 6.2688...; +0.01 → log10 = 0.7979...
        let g = parallel_granularity(1000.0, 3.0);
        let expect = (3.0f64 / 3.01f64.log10() + 0.01).log10();
        assert!((g - expect).abs() < 1e-12);
        assert!(g > 0.79 && g < 0.81);
    }

    #[test]
    fn granularity_monotone_in_n_level() {
        let lo = parallel_granularity(10.0, 3.0);
        let hi = parallel_granularity(100_000.0, 3.0);
        assert!(hi > lo);
    }

    #[test]
    fn granularity_decreases_with_denser_rows() {
        let sparse = parallel_granularity(10_000.0, 2.5);
        let dense = parallel_granularity(10_000.0, 50.0);
        assert!(sparse > dense);
    }

    #[test]
    fn custom_params_change_the_value() {
        let p = GranularityParams {
            c1: 2.0,
            ..Default::default()
        };
        let a = parallel_granularity(1000.0, 3.0);
        let b = parallel_granularity_with(1000.0, 3.0, p);
        assert!(a != b);
        // Same sign/ordering trend.
        let b2 = parallel_granularity_with(100_000.0, 3.0, p);
        assert!(b2 > b);
    }

    #[test]
    fn empty_system_stats_are_finite() {
        let l = LowerTriangularCsr::try_new(CsrMatrix::new(0, 0, vec![0], vec![], vec![]).unwrap())
            .unwrap();
        let s = MatrixStats::compute(&l);
        assert_eq!((s.n, s.nnz, s.n_levels, s.max_level_width), (0, 0, 0, 0));
        assert!(s.nnz_row.is_finite());
        assert!(s.n_level.is_finite());
        assert_eq!(s.granularity, 0.0);
        assert_eq!(s.solve_flops(), 0);
    }

    #[test]
    fn stats_on_paper_example() {
        let l = lower(
            &[
                (0, 0, 1.0),
                (1, 1, 1.0),
                (2, 1, 2.0),
                (2, 2, 1.0),
                (3, 1, 3.0),
                (3, 3, 1.0),
                (4, 0, 4.0),
                (4, 1, 5.0),
                (4, 4, 1.0),
                (5, 2, 6.0),
                (5, 5, 1.0),
                (6, 3, 7.0),
                (6, 4, 8.0),
                (6, 6, 1.0),
                (7, 4, 9.0),
                (7, 5, 10.0),
                (7, 7, 1.0),
            ],
            8,
        );
        let s = MatrixStats::compute(&l);
        assert_eq!(s.n, 8);
        assert_eq!(s.nnz, 17);
        assert_eq!(s.n_levels, 4);
        assert_eq!(s.n_level, 2.0);
        assert!((s.nnz_row - 17.0 / 8.0).abs() < 1e-12);
        assert_eq!(s.solve_flops(), 34);
        assert_eq!(s.max_level_width, 3);
    }
}
