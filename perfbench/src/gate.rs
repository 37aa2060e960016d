//! The correctness gate: every solution is compared with the serial
//! reference (`capellini_core::solve_serial_csr`) for its own right-hand
//! side, computed before timing starts.

use capellini_core::Algorithm;
use capellini_sparse::linalg::norm_inf;

/// Relative infinity-norm tolerance for kernels whose lane reductions
/// reorder the row sum (the repo's `linalg::assert_solutions_close` bound).
pub const REDUCTION_TOL: f64 = 1e-10;

/// Thread-per-row kernels sum each row in the serial order, so they must
/// reproduce the reference bit for bit.
fn bit_exact(algo: Algorithm) -> bool {
    matches!(
        algo,
        Algorithm::CapelliniWritingFirst | Algorithm::Scheduled
    )
}

/// Checks `x` against the reference `want`; the error names the first
/// offending component.
pub fn check(algo: Algorithm, x: &[f64], want: &[f64]) -> Result<(), String> {
    if x.len() != want.len() {
        return Err(format!(
            "{}: solution has {} components, reference {}",
            algo.label(),
            x.len(),
            want.len()
        ));
    }
    if bit_exact(algo) {
        if let Some(i) = x
            .iter()
            .zip(want)
            .position(|(a, b)| a.to_bits() != b.to_bits())
        {
            return Err(format!(
                "{}: component {i} is {:e}, reference {:e} (bitwise gate)",
                algo.label(),
                x[i],
                want[i]
            ));
        }
        return Ok(());
    }
    let scale = norm_inf(want).max(1.0);
    let (worst, err) = x
        .iter()
        .zip(want)
        .map(|(a, b)| (a - b).abs())
        .enumerate()
        .fold((0, 0.0f64), |acc, (i, e)| {
            // NaN must fail the gate, so it wins every comparison.
            if e.is_nan() || e > acc.1 {
                (i, e)
            } else {
                acc
            }
        });
    let rel = err / scale;
    if rel.is_nan() || rel > REDUCTION_TOL {
        return Err(format!(
            "{}: component {worst} is {:e}, reference {:e} (rel err {rel:.3e} > {REDUCTION_TOL:.0e})",
            algo.label(),
            x[worst],
            want[worst]
        ));
    }
    Ok(())
}
