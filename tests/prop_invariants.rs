//! Randomized-input tests (seeded, fully deterministic) over the core
//! invariants:
//!
//! * every solver agrees with Algorithm 1 on arbitrary unit-lower systems,
//! * level-set analysis strictly dominates dependencies and partitions rows,
//! * format conversions round-trip bit-exactly,
//! * Equation 1 is monotone in its two drivers,
//! * Matrix Market serialization round-trips.
//!
//! Formerly written with proptest; rewritten as explicit seeded loops so the
//! workspace builds with no external dev-dependencies. Every case is derived
//! from a fixed `SmallRng` seed, so failures reproduce exactly.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use capellini_sptrsv::core::prelude::*;
use capellini_sptrsv::core::Algorithm;
use capellini_sptrsv::prelude::*;
use capellini_sptrsv::sparse::io;
use capellini_sptrsv::sparse::{parallel_granularity, CsrMatrix};

/// An arbitrary unit-lower-triangular system of 1..=96 rows, each row
/// drawing up to 6 dependencies from arbitrary earlier rows.
fn arb_lower(rng: &mut SmallRng) -> LowerTriangularCsr {
    let n = rng.gen_range(1..=96usize);
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        let deps = rng.gen_range(0..=6.min(i));
        let k = deps.max(1) as f64;
        for _ in 0..deps {
            let c = rng.gen_range(0..i as u32); // strictly earlier row
            let v = rng.gen_range(-1.0..=1.0f64);
            coo.push(i as u32, c, v / k);
        }
        coo.push(i as u32, i as u32, 1.0);
    }
    coo.compress();
    LowerTriangularCsr::try_new(CsrMatrix::from_coo(&coo))
        .expect("constructed system is unit lower")
}

fn arb_rhs(rng: &mut SmallRng, n: usize, amp: f64) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(-amp..=amp)).collect()
}

#[test]
fn every_algorithm_matches_the_reference() {
    let mut rng = SmallRng::seed_from_u64(0xA110_0001);
    for _ in 0..48 {
        let l = arb_lower(&mut rng);
        let b = arb_rhs(&mut rng, l.n(), 8.0);
        let x_ref = solve_serial_csr(&l, &b);
        let mut cfg = DeviceConfig::pascal_like().scaled_down(4);
        cfg.deadlock_window = 500_000;
        for algo in Algorithm::all_live() {
            let rep = solve_simulated(&cfg, &l, &b, algo).unwrap();
            linalg::assert_solutions_close(&rep.x, &x_ref, 1e-10);
        }
        let x_cpu = solve_selfsched(&l, &b, 3, Distribution::Cyclic).unwrap();
        linalg::assert_solutions_close(&x_cpu, &x_ref, 1e-10);
    }
}

#[test]
fn level_analysis_invariants() {
    let mut rng = SmallRng::seed_from_u64(0xA110_0002);
    for _ in 0..48 {
        let l = arb_lower(&mut rng);
        let levels = LevelSets::analyze(&l);
        // Levels strictly dominate dependencies.
        for i in 0..l.n() {
            for &dep in l.row_deps(i) {
                assert!(levels.level_of(i) > levels.level_of(dep as usize));
            }
        }
        // Rows are partitioned.
        let mut seen: Vec<u32> = levels.order().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..l.n() as u32).collect::<Vec<_>>());
        // Width x depth accounting.
        let total: usize = (0..levels.n_levels())
            .map(|k| levels.rows_in_level(k).len())
            .sum();
        assert_eq!(total, l.n());
        // Level 0 rows have no dependencies, and some row is at level 0.
        assert!(!levels.rows_in_level(0).is_empty());
        for &r in levels.rows_in_level(0) {
            assert!(l.row_deps(r as usize).is_empty());
        }
    }
}

#[test]
fn format_round_trips() {
    let mut rng = SmallRng::seed_from_u64(0xA110_0003);
    for _ in 0..48 {
        let l = arb_lower(&mut rng);
        let csr = l.csr();
        assert_eq!(&csr.to_csc().to_csr(), csr);
        assert_eq!(&CsrMatrix::from_coo(&csr.to_coo()), csr);
        let mtx = io::to_matrix_market_string(csr);
        let back = CsrMatrix::from_coo(&io::parse_matrix_market(&mtx).unwrap());
        assert_eq!(&back, csr);
    }
}

#[test]
fn csc_solver_matches_csr_solver() {
    let mut rng = SmallRng::seed_from_u64(0xA110_0004);
    for _ in 0..48 {
        let l = arb_lower(&mut rng);
        let b = arb_rhs(&mut rng, l.n(), 4.0);
        let x_csr = solve_serial_csr(&l, &b);
        let x_csc = solve_serial_csc(&l.csr().to_csc(), &b);
        linalg::assert_solutions_close(&x_csc, &x_csr, 1e-10);
    }
}

#[test]
fn spmv_of_solution_reproduces_rhs() {
    let mut rng = SmallRng::seed_from_u64(0xA110_0005);
    for _ in 0..48 {
        let l = arb_lower(&mut rng);
        let b = arb_rhs(&mut rng, l.n(), 4.0);
        let x = solve_serial_csr(&l, &b);
        assert!(linalg::residual_inf(&l, &x, &b) < 1e-9);
    }
}

#[test]
fn granularity_monotone() {
    let mut rng = SmallRng::seed_from_u64(0xA110_0006);
    for _ in 0..48 {
        let n_level = rng.gen_range(2.0..=1e6f64);
        let nnz_row = rng.gen_range(1.5..=200.0f64);
        let g = parallel_granularity(n_level, nnz_row);
        assert!(g.is_finite());
        // More components per level => higher granularity.
        assert!(parallel_granularity(n_level * 4.0, nnz_row) > g);
        // Denser rows => lower granularity.
        assert!(parallel_granularity(n_level, nnz_row + 8.0) < g);
    }
}

#[test]
fn stats_are_consistent() {
    let mut rng = SmallRng::seed_from_u64(0xA110_0007);
    for _ in 0..48 {
        let l = arb_lower(&mut rng);
        let s = MatrixStats::compute(&l);
        assert_eq!(s.n, l.n());
        assert_eq!(s.nnz, l.nnz());
        assert!((s.nnz_row - s.nnz as f64 / s.n as f64).abs() < 1e-12);
        assert!((s.n_level - s.n as f64 / s.n_levels as f64).abs() < 1e-12);
        assert!(s.max_level_width <= s.n);
        assert_eq!(s.solve_flops(), 2 * s.nnz as u64);
    }
}

// Simulator determinism deserves more cases than the expensive all-solver
// comparison: same input, same cycle count, bit-identical solution.
#[test]
fn simulation_is_deterministic() {
    let mut rng = SmallRng::seed_from_u64(0xA110_0008);
    for _ in 0..16 {
        let l = arb_lower(&mut rng);
        let b = vec![1.0; l.n()];
        let cfg = DeviceConfig::turing_like().scaled_down(4);
        let a = solve_simulated(&cfg, &l, &b, Algorithm::CapelliniWritingFirst).unwrap();
        let c = solve_simulated(&cfg, &l, &b, Algorithm::CapelliniWritingFirst).unwrap();
        assert_eq!(a.x, c.x);
        assert_eq!(a.stats, c.stats);
    }
}
