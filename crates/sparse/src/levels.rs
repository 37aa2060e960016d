//! Level-set analysis (paper §2.2): partition the components of `x` into
//! levels such that every component's dependencies live in strictly earlier
//! levels. This is the preprocessing step of the classic Level-Set SpTRSV
//! (Anderson & Saad \[1\], Saltz \[35\]) and the source of the `n_level`
//! statistic in the parallel-granularity indicator (Eq. 1).

use std::cell::Cell;

use crate::triangular::LowerTriangularCsr;

thread_local! {
    static ANALYZE_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Number of [`LevelSets::analyze`] runs performed by the current thread.
///
/// A diagnostic for the amortization contract of cached sessions: a test can
/// snapshot this counter, perform warm solves, and assert it did not move —
/// i.e. no level-set analysis was silently re-run. Thread-local (rather than
/// process-global) so concurrently running tests cannot perturb each other's
/// deltas.
pub fn analyze_invocations() -> u64 {
    ANALYZE_CALLS.with(Cell::get)
}

/// The result of level-set analysis of a lower-triangular system.
///
/// Mirrors the paper's preprocessing outputs: `layer` (the number of levels),
/// `layer_num` (here `level_ptr`: prefix offsets of each level inside
/// `order`), and `order` (rows rearranged by level).
#[derive(Debug, Clone, PartialEq)]
pub struct LevelSets {
    /// `level_of[i]` = level of row/component `i` (0-based).
    level_of: Vec<u32>,
    /// Prefix offsets: rows of level `l` are `order[level_ptr[l]..level_ptr[l+1]]`.
    level_ptr: Vec<u32>,
    /// Row indices sorted by (level, row).
    order: Vec<u32>,
}

impl LevelSets {
    /// Runs the level-set analysis: `level(i) = 1 + max level(j)` over the
    /// dependencies `j < i` of row `i` (0 if the row only has its diagonal).
    /// Single forward sweep — `O(nnz)` — because dependencies always point to
    /// earlier rows in a lower-triangular matrix.
    pub fn analyze(l: &LowerTriangularCsr) -> Self {
        ANALYZE_CALLS.with(|c| c.set(c.get() + 1));
        let n = l.n();
        let mut level_of = vec![0u32; n];
        let mut max_level = 0u32;
        for i in 0..n {
            let mut lvl = 0u32;
            for &dep in l.row_deps(i) {
                lvl = lvl.max(level_of[dep as usize] + 1);
            }
            level_of[i] = lvl;
            max_level = max_level.max(lvl);
        }
        let n_levels = if n == 0 { 0 } else { max_level as usize + 1 };

        // Counting sort of rows by level (stable: preserves row order within a
        // level, matching the paper's `order` array).
        let mut level_ptr = vec![0u32; n_levels + 1];
        for &lvl in &level_of {
            level_ptr[lvl as usize + 1] += 1;
        }
        for l in 0..n_levels {
            level_ptr[l + 1] += level_ptr[l];
        }
        let mut order = vec![0u32; n];
        let mut next = level_ptr.clone();
        for (i, &lvl) in level_of.iter().enumerate() {
            order[next[lvl as usize] as usize] = i as u32;
            next[lvl as usize] += 1;
        }
        LevelSets {
            level_of,
            level_ptr,
            order,
        }
    }

    /// Number of levels (the dependency-DAG depth).
    pub fn n_levels(&self) -> usize {
        self.level_ptr.len().saturating_sub(1)
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.level_of.len()
    }

    /// The level of row `i`.
    pub fn level_of(&self, i: usize) -> u32 {
        self.level_of[i]
    }

    /// All per-row levels.
    pub fn levels(&self) -> &[u32] {
        &self.level_of
    }

    /// Prefix offsets into [`LevelSets::order`] (the paper's `layer_num`).
    pub fn level_ptr(&self) -> &[u32] {
        &self.level_ptr
    }

    /// Rows rearranged by level (the paper's `order`).
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// The rows belonging to level `l`.
    pub fn rows_in_level(&self, l: usize) -> &[u32] {
        let (lo, hi) = (self.level_ptr[l] as usize, self.level_ptr[l + 1] as usize);
        &self.order[lo..hi]
    }

    /// Size of the largest level.
    pub fn max_level_width(&self) -> usize {
        (0..self.n_levels())
            .map(|l| self.rows_in_level(l).len())
            .max()
            .unwrap_or(0)
    }

    /// Average number of components per level — the paper's `n_level`
    /// statistic used in Equation 1.
    pub fn avg_components_per_level(&self) -> f64 {
        if self.n_levels() == 0 {
            0.0
        } else {
            self.n_rows() as f64 / self.n_levels() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::csr::CsrMatrix;
    use crate::triangular::LowerTriangularCsr;

    fn lower(trips: &[(u32, u32, f64)], n: usize) -> LowerTriangularCsr {
        let coo = CooMatrix::from_triplets(n, n, trips.iter().copied()).unwrap();
        LowerTriangularCsr::try_new(CsrMatrix::from_coo(&coo)).unwrap()
    }

    /// Figure 1(b): the 8x8 example has four level-sets:
    /// {x0, x1}, {x2, x3, x4}, {x5, x6}, {x7}.
    #[test]
    fn paper_example_has_four_levels() {
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
        let ls = LevelSets::analyze(&l);
        assert_eq!(ls.n_levels(), 4);
        assert_eq!(ls.rows_in_level(0), &[0, 1]);
        assert_eq!(ls.rows_in_level(1), &[2, 3, 4]);
        assert_eq!(ls.rows_in_level(2), &[5, 6]);
        assert_eq!(ls.rows_in_level(3), &[7]);
        assert_eq!(ls.avg_components_per_level(), 2.0);
        assert_eq!(ls.max_level_width(), 3);
    }

    #[test]
    fn diagonal_matrix_is_one_level() {
        let l = lower(&[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)], 3);
        let ls = LevelSets::analyze(&l);
        assert_eq!(ls.n_levels(), 1);
        assert_eq!(ls.rows_in_level(0), &[0, 1, 2]);
    }

    #[test]
    fn chain_matrix_has_n_levels() {
        let l = lower(
            &[
                (0, 0, 1.0),
                (1, 0, 0.5),
                (1, 1, 1.0),
                (2, 1, 0.5),
                (2, 2, 1.0),
            ],
            3,
        );
        let ls = LevelSets::analyze(&l);
        assert_eq!(ls.n_levels(), 3);
        assert_eq!(ls.levels(), &[0, 1, 2]);
    }

    #[test]
    fn levels_strictly_dominate_dependencies() {
        let l = lower(
            &[
                (0, 0, 1.0),
                (1, 1, 1.0),
                (2, 0, 1.0),
                (2, 2, 1.0),
                (3, 2, 1.0),
                (3, 3, 1.0),
                (4, 1, 1.0),
                (4, 3, 1.0),
                (4, 4, 1.0),
            ],
            5,
        );
        let ls = LevelSets::analyze(&l);
        for i in 0..5 {
            for &dep in l.row_deps(i) {
                assert!(ls.level_of(i) > ls.level_of(dep as usize));
            }
        }
    }

    #[test]
    fn order_partitions_rows() {
        let l = lower(
            &[
                (0, 0, 1.0),
                (1, 0, 1.0),
                (1, 1, 1.0),
                (2, 2, 1.0),
                (3, 1, 1.0),
                (3, 3, 1.0),
            ],
            4,
        );
        let ls = LevelSets::analyze(&l);
        let mut seen: Vec<u32> = ls.order().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert_eq!(*ls.level_ptr().last().unwrap() as usize, 4);
    }
}
