//! Matrix Market interoperability: write a generated system to `.mtx`,
//! read it back, extract the unit-lower-triangular factor exactly as the
//! paper prepares SuiteSparse matrices (§5.1), and solve.
//!
//! ```text
//! cargo run --release --example matrix_market
//! ```

use capellini_sptrsv::prelude::*;
use capellini_sptrsv::sparse::io;
use capellini_sptrsv::sparse::CsrMatrix;

fn main() {
    // A general (non-triangular) matrix: symmetrized graph adjacency.
    let lower = gen::powerlaw(4_000, 3.0, 11);
    let mut coo = CooMatrix::new(lower.n(), lower.n());
    for (r, c, v) in lower.csr().iter() {
        coo.push(r, c, v);
        if r != c {
            coo.push(c, r, v * 0.5);
        }
    }
    let general = CsrMatrix::from_coo(&coo);

    // Round-trip through the Matrix Market format.
    let mtx = io::to_matrix_market_string(&general);
    println!("matrix market header + size line:");
    for line in mtx.lines().take(3) {
        println!("  {line}");
    }
    let parsed = CsrMatrix::from_coo(&io::parse_matrix_market(&mtx).expect("own output parses"));
    assert_eq!(parsed, general);
    println!(
        "round trip: {} rows, {} nonzeros, bit-identical\n",
        parsed.n_rows(),
        parsed.nnz()
    );

    // The paper's dataset rule: keep the lower-left entries, unit diagonal.
    let l = LowerTriangularCsr::unit_lower_from(&parsed).expect("square matrix");
    let stats = MatrixStats::compute(&l);
    println!(
        "unit-lower factor: nnz = {}, levels = {}, granularity = {:.3}",
        stats.nnz, stats.n_levels, stats.granularity
    );

    let b: Vec<f64> = (0..l.n()).map(|i| (i % 9) as f64 - 4.0).collect();
    let solver = Solver::new(l);
    let report = solver
        .solve_simulated(&DeviceConfig::turing_like().scaled_down(4), &b)
        .expect("solve succeeds");
    let x_ref = solver.solve_serial(&b).expect("rhs matches the matrix");
    linalg::assert_solutions_close(&report.x, &x_ref, 1e-11);
    println!(
        "solved with {} in {:.3} ms (simulated Turing), verified against Algorithm 1",
        report.algorithm.label(),
        report.exec_ms
    );
}
