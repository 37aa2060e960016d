//! Iterative solvers built on SpTRSV — the paper's motivating application
//! ("preconditioners of sparse iterative solvers", §1): every Gauss–Seidel
//! or SOR sweep *is* one sparse triangular solve, and the SSOR
//! preconditioner of conjugate gradients applies one forward and one
//! backward sweep per iteration.
//!
//! The triangular sweeps run on the self-scheduled busy-wait CPU solver
//! (the thread-level CapelliniSpTRSV analog), so the cost profile matches
//! what a GPU deployment of the paper's kernel would accelerate.

use capellini_sparse::triangular::solve_serial_upper;
use capellini_sparse::{linalg, CsrMatrix, LowerTriangularCsr, SparseError, UpperTriangularCsr};

use crate::cpu::{solve_selfsched, Distribution};

/// Outcome of an iterative solve.
#[derive(Debug, Clone)]
pub struct IterResult {
    /// The final iterate.
    pub x: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final residual `‖A·x − b‖∞`.
    pub residual: f64,
    /// True if the tolerance was met within the iteration budget.
    pub converged: bool,
}

/// The Gauss–Seidel splitting of a square matrix with nonzero diagonal:
/// `A = (D + L_strict) + U_strict`, with the first factor as a validated
/// lower-triangular system (the SpTRSV input) and the second as a general
/// CSR matrix.
pub fn gauss_seidel_split(a: &CsrMatrix) -> Result<(LowerTriangularCsr, CsrMatrix), SparseError> {
    if a.n_rows() != a.n_cols() {
        return Err(SparseError::InvalidStructure(
            "splitting requires a square matrix".into(),
        ));
    }
    let n = a.n_rows();
    let mut lower = capellini_sparse::CooMatrix::new(n, n);
    let mut upper = capellini_sparse::CooMatrix::new(n, n);
    let mut has_diag = vec![false; n];
    for (r, c, v) in a.iter() {
        if c <= r {
            lower.push(r, c, v);
            if c == r && v != 0.0 {
                has_diag[r as usize] = true;
            }
        } else {
            upper.push(r, c, v);
        }
    }
    if let Some(row) = has_diag.iter().position(|&d| !d) {
        return Err(SparseError::BadDiagonal { row });
    }
    Ok((
        LowerTriangularCsr::try_new(CsrMatrix::from_coo(&lower))?,
        CsrMatrix::from_coo(&upper),
    ))
}

/// Gauss–Seidel iteration `(D+L)·x_{k+1} = b − U·x_k`, each sweep one
/// thread-level SpTRSV.
pub fn gauss_seidel(
    a: &CsrMatrix,
    b: &[f64],
    tol: f64,
    max_iters: usize,
    threads: usize,
) -> Result<IterResult, SparseError> {
    let (lower, upper) = gauss_seidel_split(a)?;
    let n = a.n_rows();
    check_rhs_len(b, n)?;
    let mut x = vec![0.0f64; n];
    for it in 1..=max_iters {
        let ux = linalg::spmv(&upper, &x);
        let rhs: Vec<f64> = b.iter().zip(&ux).map(|(bi, ui)| bi - ui).collect();
        x = solve_selfsched(&lower, &rhs, threads, Distribution::Cyclic);
        let res = residual_general(a, &x, b);
        if res <= tol {
            return Ok(IterResult {
                x,
                iterations: it,
                residual: res,
                converged: true,
            });
        }
    }
    let residual = residual_general(a, &x, b);
    Ok(IterResult {
        x,
        iterations: max_iters,
        residual,
        converged: false,
    })
}

/// Successive over-relaxation: `(D/ω + L)·x_{k+1} = b − (U + (1−1/ω)·D)·x_k`.
pub fn sor(
    a: &CsrMatrix,
    b: &[f64],
    omega: f64,
    tol: f64,
    max_iters: usize,
    threads: usize,
) -> Result<IterResult, SparseError> {
    if !(omega > 0.0 && omega < 2.0) {
        return Err(SparseError::InvalidStructure(format!(
            "SOR requires 0 < omega < 2 (got {omega})"
        )));
    }
    let n = a.n_rows();
    check_rhs_len(b, n)?;
    // Build (D/ω + L) and (U + (1 − 1/ω)·D).
    let mut lower = capellini_sparse::CooMatrix::new(n, n);
    let mut rest = capellini_sparse::CooMatrix::new(n, n);
    for (r, c, v) in a.iter() {
        if c < r {
            lower.push(r, c, v);
        } else if c == r {
            lower.push(r, c, v / omega);
            rest.push(r, c, v * (1.0 - 1.0 / omega));
        } else {
            rest.push(r, c, v);
        }
    }
    let lower = LowerTriangularCsr::try_new(CsrMatrix::from_coo(&lower))?;
    let rest = CsrMatrix::from_coo(&rest);
    let mut x = vec![0.0f64; n];
    for it in 1..=max_iters {
        let rx = linalg::spmv(&rest, &x);
        let rhs: Vec<f64> = b.iter().zip(&rx).map(|(bi, ri)| bi - ri).collect();
        x = solve_selfsched(&lower, &rhs, threads, Distribution::Cyclic);
        let res = residual_general(a, &x, b);
        if res <= tol {
            return Ok(IterResult {
                x,
                iterations: it,
                residual: res,
                converged: true,
            });
        }
    }
    let residual = residual_general(a, &x, b);
    Ok(IterResult {
        x,
        iterations: max_iters,
        residual,
        converged: false,
    })
}

/// The SSOR preconditioner `M = (D+L)·D⁻¹·(D+U)` of a symmetric matrix:
/// applying `M⁻¹ r` is one forward SpTRSV, a diagonal scale, and one
/// backward SpTRSV — the exact workload the paper accelerates.
pub struct SsorPreconditioner {
    lower: LowerTriangularCsr,
    upper: UpperTriangularCsr,
    diag: Vec<f64>,
    threads: usize,
}

impl SsorPreconditioner {
    /// Builds the preconditioner from a symmetric matrix with nonzero
    /// diagonal (symmetry is the caller's responsibility).
    pub fn new(a: &CsrMatrix, threads: usize) -> Result<Self, SparseError> {
        let (lower, _) = gauss_seidel_split(a)?;
        let n = a.n_rows();
        let diag: Vec<f64> = (0..n).map(|i| lower.diag(i)).collect();
        // (D + U) = (D + L)ᵀ for symmetric A.
        let upper = UpperTriangularCsr::transpose_of(&lower);
        Ok(SsorPreconditioner {
            lower,
            upper,
            diag,
            threads,
        })
    }

    /// Applies `M⁻¹ r`. A residual whose length is not the matrix
    /// dimension is [`SparseError::InvalidStructure`].
    pub fn apply(&self, r: &[f64]) -> Result<Vec<f64>, SparseError> {
        check_rhs_len(r, self.diag.len())?;
        let y = solve_selfsched(&self.lower, r, self.threads, Distribution::Cyclic);
        let scaled: Vec<f64> = y.iter().zip(&self.diag).map(|(yi, di)| yi * di).collect();
        Ok(solve_serial_upper(&self.upper, &scaled))
    }
}

/// Preconditioned conjugate gradients with the SSOR preconditioner.
/// `a` must be symmetric positive definite.
pub fn pcg_ssor(
    a: &CsrMatrix,
    b: &[f64],
    tol: f64,
    max_iters: usize,
    threads: usize,
) -> Result<IterResult, SparseError> {
    let n = a.n_rows();
    check_rhs_len(b, n)?;
    let m = SsorPreconditioner::new(a, threads)?;
    let mut x = vec![0.0f64; n];
    let mut r = b.to_vec();
    let mut z = m.apply(&r)?;
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    for it in 1..=max_iters {
        let ap = linalg::spmv(a, &p);
        let alpha = rz / dot(&p, &ap);
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let res = linalg::norm_inf(&r);
        if res <= tol {
            return Ok(IterResult {
                x,
                iterations: it,
                residual: res,
                converged: true,
            });
        }
        z = m.apply(&r)?;
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    let residual = residual_general(a, &x, b);
    Ok(IterResult {
        x,
        iterations: max_iters,
        residual,
        converged: false,
    })
}

/// The rhs length check of every iterative solver, worded like the one the
/// simulated solve entry points share.
fn check_rhs_len(b: &[f64], n: usize) -> Result<(), SparseError> {
    if b.len() == n {
        return Ok(());
    }
    Err(SparseError::InvalidStructure(format!(
        "rhs length {} does not match matrix dimension {n}",
        b.len()
    )))
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn residual_general(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
    let ax = linalg::spmv(a, x);
    ax.iter()
        .zip(b)
        .map(|(p, q)| (p - q).abs())
        .fold(0.0f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use capellini_sparse::{gen, CooMatrix};

    /// A symmetric, strictly diagonally dominant (hence SPD) test system
    /// assembled from a generated sparsity pattern.
    fn spd_system(n: usize, seed: u64) -> (CsrMatrix, Vec<f64>, Vec<f64>) {
        let pattern = gen::powerlaw(n, 3.0, seed);
        let mut coo = CooMatrix::new(n, n);
        for (r, c, v) in pattern.csr().iter() {
            if c < r {
                coo.push(r, c, 0.4 * v);
                coo.push(c, r, 0.4 * v);
            }
        }
        // Strict diagonal dominance by construction: a_ii = 1 + sum|a_ij|.
        coo.compress();
        let off = CsrMatrix::from_coo(&coo);
        let mut coo = off.to_coo();
        for i in 0..n {
            let (_, vals) = off.row(i);
            let row_sum: f64 = vals.iter().map(|v| v.abs()).sum();
            coo.push(i as u32, i as u32, 1.0 + row_sum);
        }
        let a = CsrMatrix::from_coo(&coo);
        let x_true: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
        let b = linalg::spmv(&a, &x_true);
        (a, b, x_true)
    }

    #[test]
    fn split_partitions_the_matrix() {
        let (a, _, _) = spd_system(200, 90);
        let (lower, upper) = gauss_seidel_split(&a).unwrap();
        assert_eq!(lower.nnz() + upper.nnz(), a.nnz());
        assert!(upper.iter().all(|(r, c, _)| c > r));
    }

    #[test]
    fn split_rejects_zero_diagonal() {
        let coo = CooMatrix::from_triplets(2, 2, [(0u32, 0u32, 1.0), (1, 0, 1.0)]).unwrap();
        let a = CsrMatrix::from_coo(&coo);
        assert!(matches!(
            gauss_seidel_split(&a),
            Err(SparseError::BadDiagonal { row: 1 })
        ));
    }

    #[test]
    fn gauss_seidel_converges_on_dominant_systems() {
        let (a, b, x_true) = spd_system(1_500, 91);
        let out = gauss_seidel(&a, &b, 1e-10, 200, 4).unwrap();
        assert!(
            out.converged,
            "residual {} after {}",
            out.residual, out.iterations
        );
        let err = out
            .x
            .iter()
            .zip(&x_true)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-8, "error {err}");
    }

    #[test]
    fn sor_accelerates_or_matches_gauss_seidel() {
        let (a, b, _) = spd_system(1_500, 92);
        let gs = gauss_seidel(&a, &b, 1e-10, 300, 2).unwrap();
        let sr = sor(&a, &b, 1.2, 1e-10, 300, 2).unwrap();
        assert!(sr.converged);
        assert!(
            sr.iterations <= gs.iterations + 5,
            "SOR {} vs GS {}",
            sr.iterations,
            gs.iterations
        );
    }

    #[test]
    fn pcg_ssor_converges_fast() {
        let (a, b, x_true) = spd_system(2_000, 93);
        let out = pcg_ssor(&a, &b, 1e-10, 60, 4).unwrap();
        assert!(
            out.converged,
            "residual {} after {}",
            out.residual, out.iterations
        );
        let err = out
            .x
            .iter()
            .zip(&x_true)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-7, "error {err}");
        // The preconditioner should beat unpreconditioned-style sweep counts.
        let gs = gauss_seidel(&a, &b, 1e-10, 300, 4).unwrap();
        assert!(
            out.iterations < gs.iterations,
            "PCG {} vs GS {}",
            out.iterations,
            gs.iterations
        );
    }

    #[test]
    fn sor_rejects_bad_omega() {
        let (a, b, _) = spd_system(50, 94);
        for omega in [2.5, 2.0, 0.0, -1.0, f64::NAN] {
            match sor(&a, &b, omega, 1e-8, 10, 1) {
                Err(SparseError::InvalidStructure(msg)) => {
                    assert_eq!(msg, format!("SOR requires 0 < omega < 2 (got {omega})"))
                }
                other => panic!("omega {omega}: {other:?}"),
            }
        }
    }

    #[test]
    fn rhs_length_mismatch_is_an_error() {
        let (a, b, _) = spd_system(50, 95);
        let want = "rhs length 49 does not match matrix dimension 50";
        let short = &b[..49];
        for (name, res) in [
            ("gauss_seidel", gauss_seidel(&a, short, 1e-8, 10, 1)),
            ("sor", sor(&a, short, 1.2, 1e-8, 10, 1)),
            ("pcg_ssor", pcg_ssor(&a, short, 1e-8, 10, 1)),
        ] {
            match res {
                Err(SparseError::InvalidStructure(msg)) => assert_eq!(msg, want, "{name}"),
                other => panic!("{name}: {other:?}"),
            }
        }
    }

    #[test]
    fn ssor_apply_checks_the_residual_length() {
        // A = [[2, 1], [1, 2]]: every step of M⁻¹ r below is exact.
        let coo = CooMatrix::from_triplets(
            2,
            2,
            [(0u32, 0u32, 2.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 2.0)],
        )
        .unwrap();
        let m = SsorPreconditioner::new(&CsrMatrix::from_coo(&coo), 1).unwrap();
        assert_eq!(
            m.apply(&[1.0]),
            Err(SparseError::InvalidStructure(
                "rhs length 1 does not match matrix dimension 2".into()
            ))
        );
        assert_eq!(m.apply(&[2.0, 4.0]), Ok(vec![0.25, 1.5]));
    }
}
