//! Schedule-kernel bench: host ns per solve for `Algorithm::Scheduled`
//! (level-coarsened work units) against the SyncFree warp-level baseline.
//! The throughput claim lives in the wall-clock numbers; the *correctness*
//! claims are enforced during calibration before any timing happens: on
//! every matrix the scheduled solution must be bit-identical to the serial
//! reference (exact CSR accumulation order), on the chain it must also
//! match SyncFree bit-for-bit (with one off-diagonal per row SyncFree's
//! tree reduction degenerates to the same order — on fatter rows the
//! reduction legitimately re-associates, so the reference is the anchor),
//! and FastForward spin parking must reproduce the Replay cycle count
//! bit-for-bit.
//!
//! On the deep chain matrix the calibration additionally asserts the
//! structural point of the schedule: coarsening must cut simulated cycles
//! versus SyncFree (the kernel's reason to exist), deterministically.
//!
//! `--quick` shrinks the matrices and time budgets to a CI smoke run; the
//! calibration equality checks run at every size.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use capellini_core::{solve_simulated, Algorithm};
use capellini_simt::{DeviceConfig, SpinModel};
use capellini_sparse::gen;
use capellini_sparse::LowerTriangularCsr;

fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// One deep chain (the coarsening sweet spot) and one stencil factor (many
/// narrow levels, cross-unit dependencies in every direction).
fn matrices() -> Vec<(&'static str, LowerTriangularCsr)> {
    if quick() {
        vec![
            ("chain(600)", gen::chain(600, 1, 70)),
            ("stencil3d(8^3)", gen::stencil3d(8, 8, 8, 7)),
        ]
    } else {
        vec![
            ("chain(4000)", gen::chain(4_000, 1, 70)),
            ("stencil3d(16^3)", gen::stencil3d(16, 16, 16, 7)),
        ]
    }
}

fn bench_engine_schedule(c: &mut Criterion) {
    let cfg = DeviceConfig::pascal_like()
        .scaled_down(4)
        .with_spin_model(SpinModel::FastForward);
    let (warm, meas) = if quick() {
        (Duration::from_millis(100), Duration::from_millis(300))
    } else {
        (Duration::from_millis(500), Duration::from_secs(2))
    };

    for (mname, l) in matrices() {
        let b: Vec<f64> = (0..l.n()).map(|i| (i % 13) as f64 - 6.0).collect();

        // Calibration 1: the scheduled kernel's accumulation follows exact
        // CSR column order, so it must agree with the serial reference
        // bit-for-bit — coarsening reshapes scheduling, never arithmetic.
        // On the chain (one off-diagonal per row) SyncFree's tree reduction
        // collapses to the same order, so the kernels must agree directly.
        let base = solve_simulated(&cfg, &l, &b, Algorithm::SyncFree).expect("syncfree solve");
        let sched = solve_simulated(&cfg, &l, &b, Algorithm::Scheduled).expect("scheduled solve");
        let x_ref = capellini_core::solve_serial_csr(&l, &b);
        for (i, (sv, rv)) in sched.x.iter().zip(&x_ref).enumerate() {
            assert_eq!(
                sv.to_bits(),
                rv.to_bits(),
                "{mname}: scheduled x[{i}] diverged from the serial reference"
            );
        }
        if mname.starts_with("chain") {
            for (i, (sv, bv)) in sched.x.iter().zip(&base.x).enumerate() {
                assert_eq!(
                    sv.to_bits(),
                    bv.to_bits(),
                    "{mname}: scheduled x[{i}] diverged from SyncFree"
                );
            }
        }

        // Calibration 2: FastForward (`cfg`'s spin model) parks the
        // unit-boundary spins without moving the cycle count or the
        // solution of a Replay run.
        let replay = solve_simulated(
            &cfg.clone().with_spin_model(SpinModel::Replay),
            &l,
            &b,
            Algorithm::Scheduled,
        )
        .expect("replay scheduled solve");
        assert_eq!(
            sched.stats.cycles, replay.stats.cycles,
            "{mname}: FastForward moved the scheduled cycle count"
        );
        for (i, (fv, sv)) in sched.x.iter().zip(&replay.x).enumerate() {
            assert_eq!(
                fv.to_bits(),
                sv.to_bits(),
                "{mname}: FastForward moved scheduled x[{i}]"
            );
        }

        // Calibration 3: on the deep chain the whole point of the schedule
        // is fewer simulated cycles than the warp-per-row baseline.
        if mname.starts_with("chain") {
            assert!(
                sched.stats.cycles < base.stats.cycles,
                "{mname}: scheduled ({}) did not beat SyncFree ({}) cycles",
                sched.stats.cycles,
                base.stats.cycles
            );
        }
        println!(
            "[engine_schedule] {mname}: bitwise == serial reference, FastForward-stable; \
             cycles {} vs SyncFree {}",
            sched.stats.cycles, base.stats.cycles
        );

        let mut g = c.benchmark_group("engine_schedule");
        g.warm_up_time(warm);
        g.measurement_time(meas);
        for algo in [Algorithm::SyncFree, Algorithm::Scheduled] {
            g.bench_with_input(BenchmarkId::new(mname, algo.label()), &l, |bch, l| {
                bch.iter(|| solve_simulated(&cfg, l, &b, algo).unwrap())
            });
        }
        g.finish();
    }
}

criterion_group!(benches, bench_engine_schedule);
criterion_main!(benches);
