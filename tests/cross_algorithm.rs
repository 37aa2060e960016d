//! Cross-crate integration: every solver in the library — six simulated-GPU
//! algorithms, three CPU solvers, two serial references — produces the same
//! solution on matrices from every structural family, on every platform.

use capellini_sptrsv::core::prelude::*;
use capellini_sptrsv::core::Algorithm;
use capellini_sptrsv::prelude::*;

fn matrices() -> Vec<(&'static str, LowerTriangularCsr)> {
    vec![
        ("paper", capellini_sptrsv::sparse::paper_example()),
        ("graph", gen::powerlaw(1_200, 3.0, 21)),
        ("lp", gen::ultra_sparse_wide(1_000, 8, 2, 22)),
        ("circuit", gen::circuit_like(1_000, 4, 128, 23)),
        ("stencil", gen::stencil3d(9, 9, 9, 24)),
        ("band", gen::dense_band(400, 24, 25)),
        ("chain", gen::chain(300, 1, 26)),
        ("layered", gen::layered(900, 3, 4, 27)),
        ("diagonal", gen::diagonal(500)),
    ]
}

fn problem(l: &LowerTriangularCsr) -> (Vec<f64>, Vec<f64>) {
    let x_true: Vec<f64> = (0..l.n())
        .map(|i| ((i * 7 + 3) % 17) as f64 - 8.0)
        .collect();
    let b = linalg::rhs_for_solution(l, &x_true);
    (b, x_true)
}

#[test]
fn all_simulated_algorithms_agree_on_all_families() {
    let cfg = DeviceConfig::pascal_like().scaled_down(4);
    for (name, l) in matrices() {
        let (b, _) = problem(&l);
        let x_ref = solve_serial_csr(&l, &b);
        for algo in Algorithm::all_live() {
            let rep = solve_simulated(&cfg, &l, &b, algo)
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", algo.label()));
            linalg::assert_solutions_close(&rep.x, &x_ref, 1e-10);
        }
    }
}

#[test]
fn all_platforms_give_identical_numerics() {
    // Timing differs across platforms; the arithmetic must not.
    let l = gen::powerlaw(2_000, 3.0, 31);
    let (b, _) = problem(&l);
    let mut solutions = Vec::new();
    for cfg in DeviceConfig::evaluation_platforms_scaled() {
        let rep = solve_simulated(&cfg, &l, &b, Algorithm::CapelliniWritingFirst).unwrap();
        solutions.push(rep.x);
    }
    assert_eq!(solutions[0], solutions[1]);
    assert_eq!(solutions[1], solutions[2]);
}

#[test]
fn cpu_solvers_agree_with_gpu_simulation() {
    let cfg = DeviceConfig::turing_like().scaled_down(4);
    for (name, l) in matrices() {
        let (b, _) = problem(&l);
        let gpu = solve_simulated(&cfg, &l, &b, Algorithm::CapelliniWritingFirst)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let levels = LevelSets::analyze(&l);
        for x_cpu in [
            solve_selfsched(&l, &b, 4, Distribution::Cyclic).unwrap(),
            solve_selfsched(&l, &b, 3, Distribution::Blocked).unwrap(),
            solve_levelset_parallel(&l, &levels, &b, 4).unwrap(),
            solve_serial_csc(&l.csr().to_csc(), &b),
        ] {
            linalg::assert_solutions_close(&x_cpu, &gpu.x, 1e-10);
        }
    }
}

#[test]
fn solutions_recover_the_exact_answer_on_unit_lower_systems() {
    // Generator value scaling keeps the systems perfectly conditioned, so
    // solvers must recover x_true to ~1e-12.
    let cfg = DeviceConfig::volta_like().scaled_down(4);
    for (name, l) in matrices() {
        let (b, x_true) = problem(&l);
        let rep = solve_simulated(&cfg, &l, &b, Algorithm::CapelliniWritingFirst)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let err = rep
            .x
            .iter()
            .zip(&x_true)
            .map(|(a, e)| (a - e).abs())
            .fold(0.0f64, f64::max);
        assert!(err < 1e-9, "{name}: max abs error {err:.3e}");
    }
}

#[test]
fn multiple_rhs_reuse_the_same_matrix() {
    let l = gen::circuit_like(2_000, 4, 256, 41);
    let solver = Solver::new(l);
    let cfg = DeviceConfig::pascal_like().scaled_down(4);
    for seed in 0..4 {
        let b: Vec<f64> = (0..solver.matrix().n())
            .map(|i| ((i + seed * 97) % 23) as f64 - 11.0)
            .collect();
        let rep = solver.solve_simulated(&cfg, &b).unwrap();
        let x_ref = solver.solve_serial(&b).unwrap();
        linalg::assert_solutions_close(&rep.x, &x_ref, 1e-10);
    }
}
