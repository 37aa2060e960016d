//! The CPU analog of CapelliniSpTRSV: every row is solved by exactly one
//! thread, rows are distributed statically, and dependencies are awaited by
//! spinning on per-row completion flags — no level analysis, no barriers.
//!
//! Memory ordering: a solver thread publishes `x[i]` with a `Relaxed` store
//! of the bits followed by a `Release` store of the flag; consumers pair it
//! with an `Acquire` load of the flag before reading the bits (the CPU
//! equivalent of the kernel's `x[i] = xi; __threadfence(); get_value[i] = 1`).
//!
//! Liveness: threads process their assigned rows in increasing row order,
//! so the owner of the globally minimal unsolved row is always working on
//! it (its earlier rows are already solved), and that row's dependencies
//! are all solved — progress is guaranteed for any distribution.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use capellini_simt::SimtError;
use capellini_sparse::LowerTriangularCsr;

use crate::buffers::check_rhs_len;

/// How rows are assigned to threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// Row `i` goes to thread `i mod T` (good load balance on chains).
    Cyclic,
    /// Contiguous blocks of `n/T` rows per thread (better locality).
    Blocked,
}

/// Solves `Lx = b` with `n_threads` self-scheduled busy-waiting threads.
/// A wrong-length rhs is the same [`SimtError::Launch`] as on the simulated
/// paths.
pub fn solve_selfsched(
    l: &LowerTriangularCsr,
    b: &[f64],
    n_threads: usize,
    dist: Distribution,
) -> Result<Vec<f64>, SimtError> {
    let n = l.n();
    check_rhs_len(b, n)?;
    let n_threads = n_threads.clamp(1, n.max(1));
    if n_threads == 1 || n < 2 {
        return Ok(crate::reference::solve_serial_csr(l, b));
    }

    let x_bits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let flags: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
    let row_ptr = l.csr().row_ptr();
    let col_idx = l.csr().col_idx();
    let values = l.csr().values();

    let solve_row = |i: usize| {
        let (lo, hi) = (row_ptr[i] as usize, row_ptr[i + 1] as usize);
        let mut left_sum = 0.0f64;
        for j in lo..hi - 1 {
            let col = col_idx[j] as usize;
            // Spin until the dependency is published.
            let mut spins = 0u32;
            while flags[col].load(Ordering::Acquire) == 0 {
                spins += 1;
                if spins.is_multiple_of(64) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
            let xv = f64::from_bits(x_bits[col].load(Ordering::Relaxed));
            left_sum += values[j] * xv;
        }
        let xi = (b[i] - left_sum) / values[hi - 1];
        x_bits[i].store(xi.to_bits(), Ordering::Relaxed);
        flags[i].store(1, Ordering::Release);
    };

    std::thread::scope(|s| {
        for t in 0..n_threads {
            let solve_row = &solve_row;
            s.spawn(move || match dist {
                Distribution::Cyclic => {
                    let mut i = t;
                    while i < n {
                        solve_row(i);
                        i += n_threads;
                    }
                }
                Distribution::Blocked => {
                    let chunk = n.div_ceil(n_threads);
                    let lo = t * chunk;
                    let hi = ((t + 1) * chunk).min(n);
                    for i in lo..hi {
                        solve_row(i);
                    }
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

    fn check(l: &LowerTriangularCsr, threads: usize, dist: Distribution) {
        let n = l.n();
        let b: Vec<f64> = (0..n).map(|i| ((i * 31 + 7) % 19) as f64 - 9.0).collect();
        let x_ref = solve_serial_csr(l, &b);
        let x = solve_selfsched(l, &b, threads, dist).unwrap();
        assert_solutions_close(&x, &x_ref, 1e-11);
    }

    #[test]
    fn matches_reference_across_matrices_and_threads() {
        let mats = [
            paper_example(),
            gen::random_k(2000, 3, 2000, 21),
            gen::powerlaw(1500, 3.0, 22),
            gen::dense_band(600, 24, 23),
            gen::diagonal(257),
        ];
        for l in &mats {
            for threads in [2, 4, 8] {
                check(l, threads, Distribution::Cyclic);
                check(l, threads, Distribution::Blocked);
            }
        }
    }

    #[test]
    fn chain_matrix_completes_under_contention() {
        // Fully sequential dependency chain: the hardest liveness case.
        let l = gen::chain(4000, 1, 24);
        check(&l, 8, Distribution::Cyclic);
        check(&l, 8, Distribution::Blocked);
    }

    #[test]
    fn single_thread_falls_back_to_serial() {
        let l = gen::random_k(300, 2, 300, 25);
        check(&l, 1, Distribution::Cyclic);
    }

    #[test]
    fn more_threads_than_rows_is_fine() {
        let l = gen::chain(5, 1, 26);
        check(&l, 64, Distribution::Cyclic);
    }

    #[test]
    fn repeated_runs_are_deterministic_in_value() {
        // Each row's sum is accumulated in row order by one thread, so the
        // result is bitwise identical across runs despite racing schedules.
        let l = gen::random_k(1000, 4, 1000, 27);
        let b: Vec<f64> = (0..1000).map(|i| (i % 13) as f64).collect();
        let a = solve_selfsched(&l, &b, 8, Distribution::Cyclic).unwrap();
        let c = solve_selfsched(&l, &b, 8, Distribution::Cyclic).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn wrong_rhs_length_is_a_launch_error() {
        let l = gen::chain(5, 1, 26);
        let err = solve_selfsched(&l, &[1.0; 4], 2, Distribution::Cyclic).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid launch: rhs length 4 does not match matrix dimension 5"
        );
    }
}
