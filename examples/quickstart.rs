//! Quickstart: build a sparse lower-triangular system, inspect the paper's
//! matrix statistics, pick an algorithm, solve on a simulated GPU, and
//! verify the answer.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use capellini_sptrsv::prelude::*;

fn main() {
    // 1. A graph-shaped system: 20k unknowns, power-law dependencies —
    //    the high-granularity regime the paper targets.
    let l = gen::powerlaw(20_000, 3.0, 42);
    let stats = MatrixStats::compute(&l);
    println!("matrix: n = {}, nnz = {}", stats.n, stats.nnz);
    println!(
        "stats:  nnz/row = {:.2}, components/level = {:.1}, levels = {}, granularity = {:.3}",
        stats.nnz_row, stats.n_level, stats.n_levels, stats.granularity
    );

    // 2. A right-hand side with a known exact solution.
    let x_true: Vec<f64> = (0..l.n()).map(|i| (i % 10) as f64 - 4.5).collect();
    let b = linalg::rhs_for_solution(&l, &x_true);

    // 3. The Solver facade recommends an algorithm from the granularity
    //    (Figure 6's decision rule) and runs it on a simulated GPU.
    let solver = Solver::new(l);
    let algo = solver.recommend();
    println!("recommended algorithm: {}", algo.label());

    let device = DeviceConfig::pascal_like().scaled_down(4);
    let report = solver.solve_simulated(&device, &b).expect("solve succeeds");
    println!(
        "simulated solve: {:.3} ms, {:.2} GFLOPS, {:.1} GB/s, {} warp instructions",
        report.exec_ms, report.gflops, report.bandwidth_gbs, report.stats.warp_instructions
    );

    // 4. Verify against the exact solution and the serial reference.
    let worst = report
        .x
        .iter()
        .zip(&x_true)
        .map(|(a, e)| (a - e).abs())
        .fold(0.0f64, f64::max);
    println!("max abs error vs exact solution: {worst:.3e}");
    assert!(worst < 1e-9);

    // 5. The same solve natively on CPU threads (the busy-wait analog).
    let x_cpu = solver.solve_cpu(&b, 4).expect("rhs matches the matrix");
    linalg::assert_solutions_close(&x_cpu, &report.x, 1e-10);
    println!("CPU self-scheduled solve agrees with the simulated GPU solve.");
}
