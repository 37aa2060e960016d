//! CPU Level-Set SpTRSV (Algorithm 2 on threads + barriers): levels are
//! processed in order; within a level, rows are striped across a persistent
//! thread team; a barrier separates levels. This is the classic
//! Anderson-Saad/Saltz execution model and the baseline whose
//! synchronization cost the sync-free family removes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use capellini_simt::SimtError;
use capellini_sparse::{LevelSets, LowerTriangularCsr};

use crate::buffers::check_rhs_len;

/// Solves `Lx = b` level by level with `n_threads` workers and a barrier
/// between levels. The level analysis must come from
/// [`LevelSets::analyze`] on the same matrix. A wrong-length rhs is the
/// same [`SimtError::Launch`] as on the simulated paths, and a level
/// analysis of another row count is a [`SimtError::Launch`] too.
pub fn solve_levelset_parallel(
    l: &LowerTriangularCsr,
    levels: &LevelSets,
    b: &[f64],
    n_threads: usize,
) -> Result<Vec<f64>, SimtError> {
    let n = l.n();
    check_rhs_len(b, n)?;
    if levels.n_rows() != n {
        return Err(SimtError::Launch(format!(
            "level analysis of {} rows does not match the matrix of {n} rows",
            levels.n_rows()
        )));
    }
    let n_threads = n_threads.clamp(1, n.max(1));
    if n_threads == 1 || n < 2 {
        return Ok(crate::reference::solve_serial_csr(l, b));
    }

    // x is written before the barrier and read only after it, so Relaxed
    // atomics (with the barrier providing the happens-before edge) suffice.
    let x_bits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let row_ptr = l.csr().row_ptr();
    let col_idx = l.csr().col_idx();
    let values = l.csr().values();
    let barrier = Barrier::new(n_threads);

    std::thread::scope(|s| {
        for t in 0..n_threads {
            let x_bits = &x_bits;
            let barrier = &barrier;
            s.spawn(move || {
                for lvl in 0..levels.n_levels() {
                    let rows = levels.rows_in_level(lvl);
                    // Stripe the level's rows over the team.
                    let mut k = t;
                    while k < rows.len() {
                        let i = rows[k] as usize;
                        let (lo, hi) = (row_ptr[i] as usize, row_ptr[i + 1] as usize);
                        let mut left_sum = 0.0f64;
                        for j in lo..hi - 1 {
                            let col = col_idx[j] as usize;
                            left_sum +=
                                values[j] * f64::from_bits(x_bits[col].load(Ordering::Relaxed));
                        }
                        let xi = (b[i] - left_sum) / values[hi - 1];
                        x_bits[i].store(xi.to_bits(), Ordering::Relaxed);
                        k += n_threads;
                    }
                    // Inter-level synchronization: the cost this algorithm
                    // pays once per level.
                    barrier.wait();
                }
            });
        }
    });

    Ok(x_bits
        .iter()
        .map(|v| f64::from_bits(v.load(Ordering::Relaxed)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use capellini_sparse::linalg::assert_solutions_close;
    use capellini_sparse::{gen, paper_example};

    use crate::reference::solve_serial_csr;

    fn check(l: &LowerTriangularCsr, threads: usize) {
        let n = l.n();
        let b: Vec<f64> = (0..n).map(|i| ((i * 13 + 3) % 29) as f64 - 14.0).collect();
        let levels = LevelSets::analyze(l);
        let x_ref = solve_serial_csr(l, &b);
        let x = solve_levelset_parallel(l, &levels, &b, threads).unwrap();
        assert_solutions_close(&x, &x_ref, 1e-11);
    }

    #[test]
    fn matches_reference_across_matrices() {
        for l in [
            paper_example(),
            gen::random_k(1500, 3, 1500, 31),
            gen::stencil2d(40, 40, 32),
            gen::dense_band(500, 16, 33),
            gen::diagonal(100),
        ] {
            for threads in [2, 4, 8] {
                check(&l, threads);
            }
        }
    }

    #[test]
    fn chain_is_sequential_but_correct() {
        check(&gen::chain(800, 1, 34), 4);
    }

    #[test]
    fn mismatched_levels_are_a_launch_error() {
        let l = gen::diagonal(10);
        let levels = LevelSets::analyze(&gen::diagonal(11));
        let err = solve_levelset_parallel(&l, &levels, &[1.0; 10], 2).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid launch: level analysis of 11 rows does not match the matrix of 10 rows"
        );
    }

    #[test]
    fn wrong_rhs_length_is_a_launch_error() {
        let l = gen::diagonal(10);
        let levels = LevelSets::analyze(&l);
        let err = solve_levelset_parallel(&l, &levels, &[1.0; 9], 2).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid launch: rhs length 9 does not match matrix dimension 10"
        );
    }
}
