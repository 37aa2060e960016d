//! Integration tests of the paper's *mechanisms* on the simulator: the
//! Challenge-1 deadlock, the occupancy-driven crossover between thread-level
//! and warp-level execution, the Figure-6 boundary, preprocessing orderings,
//! and metric sanity.

use capellini_sptrsv::core::kernels::{naive, syncfree, writing_first};
use capellini_sptrsv::core::{solve_simulated, Algorithm};
use capellini_sptrsv::prelude::*;
use capellini_sptrsv::simt::SimtError;

fn scaled(cfg: DeviceConfig) -> DeviceConfig {
    cfg.scaled_down(4)
}

#[test]
fn challenge1_naive_busywait_deadlocks_but_capellini_does_not() {
    // Chain: nearly every dependency is intra-warp.
    let l = gen::chain(256, 1, 9);
    let b = vec![1.0; l.n()];
    let mut cfg = scaled(DeviceConfig::pascal_like());
    cfg.deadlock_window = 200_000;

    let mut dev = capellini_sptrsv::simt::GpuDevice::new(cfg.clone());
    let err = naive::solve(&mut dev, &l, &b).unwrap_err();
    assert!(
        matches!(err, SimtError::Deadlock { .. }),
        "expected deadlock, got {err:?}"
    );

    let mut dev = capellini_sptrsv::simt::GpuDevice::new(cfg);
    let ok = writing_first::solve(&mut dev, &l, &b).expect("two-phase-free design stays live");
    let x_ref = capellini_sptrsv::core::solve_serial_csr(&l, &b);
    linalg::assert_solutions_close(&ok.x, &x_ref, 1e-10);
}

#[test]
fn exhausted_cycle_budget_is_a_deterministic_timeout() {
    // A launch that runs out of `max_cycles` fails with a structured
    // Timeout naming the budget, under both spin models, and reruns give
    // the same text (same cycle counts, same live-warp census).
    let l = gen::chain(256, 1, 7);
    let b = vec![1.0; l.n()];
    for spin in [SpinModel::Replay, SpinModel::FastForward] {
        let mut cfg = scaled(DeviceConfig::pascal_like()).with_spin_model(spin);
        cfg.max_cycles = 1_000; // far below the chain's dependency depth
        let run = || {
            let mut dev = GpuDevice::new(cfg.clone());
            syncfree::solve(&mut dev, &l, &b).unwrap_err()
        };
        let err = run();
        assert!(
            matches!(err, SimtError::Timeout { .. }),
            "{spin:?}: expected a timeout, got {err:?}"
        );
        let text = err.to_string();
        assert!(
            text.contains("cycle budget of 1000"),
            "{spin:?}: timeout text should name the budget: {text}"
        );
        assert_eq!(run().to_string(), text, "{spin:?}: timeout text changed");
    }
}

#[test]
fn capellini_dominates_on_high_granularity_matrices() {
    // The paper's headline claim, at our scale: clear speedup on wide-level,
    // sparse-row matrices on every platform.
    let l = gen::ultra_sparse_wide(24_000, 16, 1, 10);
    let b = vec![1.0; l.n()];
    for cfg in DeviceConfig::evaluation_platforms_scaled() {
        let cap = solve_simulated(&cfg, &l, &b, Algorithm::CapelliniWritingFirst).unwrap();
        let sf = solve_simulated(&cfg, &l, &b, Algorithm::SyncFree).unwrap();
        let speedup = cap.gflops / sf.gflops;
        assert!(
            speedup > 1.5,
            "{}: Capellini {:.2} vs SyncFree {:.2} (speedup {speedup:.2})",
            cfg.name,
            cap.gflops,
            sf.gflops
        );
    }
}

#[test]
fn syncfree_wins_on_dense_rows_with_wide_levels() {
    // The other half of Figure 6's boundary.
    let l = gen::layered(12_000, 32, 16, 11);
    let b = vec![1.0; l.n()];
    let cfg = scaled(DeviceConfig::pascal_like());
    let cap = solve_simulated(&cfg, &l, &b, Algorithm::CapelliniWritingFirst).unwrap();
    let sf = solve_simulated(&cfg, &l, &b, Algorithm::SyncFree).unwrap();
    assert!(
        sf.gflops > cap.gflops,
        "SyncFree {:.2} should beat Capellini {:.2} at nnz_row = 33",
        sf.gflops,
        cap.gflops
    );
}

#[test]
fn capellini_reduces_instructions_and_raises_bandwidth() {
    // Figures 7-8 direction on a circuit-shaped matrix.
    let l = gen::layered(20_000, 4, 3, 12);
    let b = vec![1.0; l.n()];
    let cfg = scaled(DeviceConfig::pascal_like());
    let cap = solve_simulated(&cfg, &l, &b, Algorithm::CapelliniWritingFirst).unwrap();
    let sf = solve_simulated(&cfg, &l, &b, Algorithm::SyncFree).unwrap();
    assert!(cap.stats.warp_instructions * 2 < sf.stats.warp_instructions);
    assert!(cap.bandwidth_gbs > 2.0 * sf.bandwidth_gbs);
    // Dependency-poll share stays moderate for Capellini (the paper reports
    // 12.55%); the baselines' poll rates are a documented model divergence
    // (EXPERIMENTS.md): FIFO warp activation resolves their dependencies
    // before the first poll, so their share is near zero here.
    assert!(cap.stats.stall_pct() < 30.0, "{}", cap.stats.stall_pct());
}

#[test]
fn writing_first_beats_two_phase() {
    // §5.3 optimization analysis direction.
    let l = gen::powerlaw(16_000, 3.0, 13);
    let b = vec![1.0; l.n()];
    let cfg = scaled(DeviceConfig::pascal_like());
    let wf = solve_simulated(&cfg, &l, &b, Algorithm::CapelliniWritingFirst).unwrap();
    let tp = solve_simulated(&cfg, &l, &b, Algorithm::CapelliniTwoPhase).unwrap();
    assert!(
        wf.gflops > 1.5 * tp.gflops,
        "writing-first {:.2} vs two-phase {:.2}",
        wf.gflops,
        tp.gflops
    );
}

#[test]
fn scheduled_beats_syncfree_on_a_deep_chain() {
    // The scheduled kernel's reason to exist: on a deep serial chain,
    // coarsened work units cut simulated cycles against SyncFree's
    // warp-per-row spinning. With one off-diagonal per row SyncFree's tree
    // reduction collapses to CSR order, so the two agree bit-for-bit.
    let l = gen::chain(600, 1, 70);
    let b: Vec<f64> = (0..l.n()).map(|i| (i % 13) as f64 - 6.0).collect();
    let cfg = scaled(DeviceConfig::pascal_like());
    let sched = solve_simulated(&cfg, &l, &b, Algorithm::Scheduled).unwrap();
    let sf = solve_simulated(&cfg, &l, &b, Algorithm::SyncFree).unwrap();
    assert!(
        sched.stats.cycles < sf.stats.cycles,
        "scheduled {} cycles vs syncfree {}",
        sched.stats.cycles,
        sf.stats.cycles
    );
    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&sched.x), bits(&sf.x));
}

#[test]
fn preprocessing_ordering_is_stable_across_matrices() {
    // Table 1 / Table 2: none < low < low(x2) < high, for every matrix.
    let cfg = scaled(DeviceConfig::volta_like());
    for l in [
        gen::powerlaw(8_000, 3.0, 14),
        gen::stencil3d(16, 16, 16, 15),
    ] {
        let b = vec![1.0; l.n()];
        let pre = |algo| {
            solve_simulated(&cfg, &l, &b, algo)
                .unwrap()
                .preprocessing_ms
        };
        let cap = pre(Algorithm::CapelliniWritingFirst);
        let sf = pre(Algorithm::SyncFree);
        let cu = pre(Algorithm::CusparseLike);
        let lv = pre(Algorithm::LevelSet);
        assert!(cap < sf && sf < cu && cu < lv, "{cap} {sf} {cu} {lv}");
        assert!(
            lv / sf > 5.0,
            "level-set analysis must dominate: {lv} vs {sf}"
        );
    }
}

#[test]
fn levelset_pays_per_level_launch_overhead() {
    let deep = gen::chain(2_000, 1, 16); // 2000 levels
    let wide = gen::diagonal(2_000); // 1 level
    let cfg = scaled(DeviceConfig::pascal_like());
    let b = vec![1.0; 2_000];
    let d = solve_simulated(&cfg, &deep, &b, Algorithm::LevelSet).unwrap();
    let w = solve_simulated(&cfg, &wide, &b, Algorithm::LevelSet).unwrap();
    assert_eq!(d.stats.launches, 2_000);
    assert_eq!(w.stats.launches, 1);
    assert!(d.exec_ms > 50.0 * w.exec_ms);
}

#[test]
fn hybrid_tracks_the_better_pure_algorithm_on_homogeneous_inputs() {
    let cfg = scaled(DeviceConfig::pascal_like());
    // Sparse homogeneous input: hybrid should behave like thread-level.
    let sparse = gen::layered(10_000, 2, 4, 17);
    let b = vec![1.0; sparse.n()];
    let hy = solve_simulated(&cfg, &sparse, &b, Algorithm::Hybrid).unwrap();
    let cap = solve_simulated(&cfg, &sparse, &b, Algorithm::CapelliniWritingFirst).unwrap();
    assert!(
        hy.gflops > 0.8 * cap.gflops,
        "hybrid {:.2} vs capellini {:.2}",
        hy.gflops,
        cap.gflops
    );
    // Dense homogeneous input: hybrid should behave like warp-level.
    let dense = gen::layered(8_000, 32, 8, 18);
    let b = vec![1.0; dense.n()];
    let hy = solve_simulated(&cfg, &dense, &b, Algorithm::Hybrid).unwrap();
    let sf = solve_simulated(&cfg, &dense, &b, Algorithm::SyncFree).unwrap();
    assert!(
        hy.gflops > 0.8 * sf.gflops,
        "hybrid {:.2} vs syncfree {:.2}",
        hy.gflops,
        sf.gflops
    );
}

#[test]
fn metrics_are_internally_consistent() {
    let l = gen::powerlaw(6_000, 3.0, 19);
    let b = vec![1.0; l.n()];
    let cfg = scaled(DeviceConfig::turing_like());
    let rep = solve_simulated(&cfg, &l, &b, Algorithm::CapelliniWritingFirst).unwrap();
    let s = &rep.stats;
    assert!(s.thread_instructions >= s.warp_instructions);
    assert!(s.cycles > 0 && s.issue_ticks > 0);
    assert_eq!(s.warps_launched, (l.n() as u64).div_ceil(32));
    assert_eq!(s.lanes_retired, s.warps_launched * 32);
    // Traffic never exceeds footprint under the first-touch model (x is
    // both read and written; every count is rounded up to 32-byte sectors).
    let footprint = (l.nnz() * 12 + l.n() * 40) as u64;
    assert!(
        s.dram_read_bytes + s.dram_write_bytes <= footprint + 8192,
        "traffic {} exceeds footprint bound {footprint}",
        s.dram_read_bytes + s.dram_write_bytes
    );
    // ... and the derived rates agree with the raw counters.
    let t = s.cycles as f64 / (cfg.clock_ghz * 1e9);
    let bw = (s.dram_read_bytes + s.dram_write_bytes) as f64 / t / 1e9;
    assert!((bw - rep.bandwidth_gbs).abs() < 1e-9);
}

#[test]
fn empty_system_is_a_wellformed_noop_for_every_live_algorithm() {
    // n == 0 must not panic, divide by zero, or launch phantom warps: every
    // live algorithm returns an empty solution with finite metrics.
    let l = LowerTriangularCsr::try_new(
        capellini_sptrsv::sparse::CsrMatrix::new(0, 0, vec![0], vec![], vec![]).unwrap(),
    )
    .unwrap();
    let b: Vec<f64> = vec![];
    for cfg in DeviceConfig::evaluation_platforms_scaled() {
        for algo in Algorithm::all_live() {
            let rep = solve_simulated(&cfg, &l, &b, algo)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", algo.label(), cfg.name));
            assert!(rep.x.is_empty(), "{}: phantom solution", algo.label());
            assert_eq!(rep.stats.warps_launched, 0, "{}", algo.label());
            assert_eq!(rep.stats.lanes_retired, 0, "{}", algo.label());
            assert_eq!(rep.stats.thread_instructions, 0, "{}", algo.label());
            assert_eq!(rep.stats.dram_read_bytes + rep.stats.dram_write_bytes, 0);
            for v in [
                rep.exec_ms,
                rep.gflops,
                rep.bandwidth_gbs,
                rep.preprocessing_ms,
                rep.stats.issue_stall_pct(),
                rep.stats.l2_hit_rate(),
            ] {
                assert!(v.is_finite(), "{}: non-finite metric", algo.label());
            }
        }
    }
}

/// Degenerate schedules (the coarsening satellite): a 0-row system builds a
/// well-formed *empty* schedule, a diagonal-only system coalesces into
/// balanced one-level parallel units, and the Scheduled solve handles both
/// without panicking.
#[test]
fn degenerate_inputs_build_wellformed_schedules() {
    use capellini_sptrsv::sparse::{LevelSets, Schedule, UnitKind};
    let cfg = scaled(DeviceConfig::pascal_like());

    // 0 rows: empty schedule, zero units, zero warps launched.
    let empty = LowerTriangularCsr::try_new(
        capellini_sptrsv::sparse::CsrMatrix::new(0, 0, vec![0], vec![], vec![]).unwrap(),
    )
    .unwrap();
    let levels = LevelSets::analyze(&empty);
    let sched = Schedule::build_default(&empty, &levels, cfg.warp_size);
    assert_eq!(sched.n_units(), 0);
    assert_eq!(sched.n_rows(), 0);
    assert_eq!(sched.stats().depth, 0);
    let rep = solve_simulated(&cfg, &empty, &[], Algorithm::Scheduled).unwrap();
    assert!(rep.x.is_empty());
    assert_eq!(rep.stats.warps_launched, 0);

    // Diagonal-only: one level, split into lane-parallel units that cover
    // every row exactly once; the solve is exact. Rows with no off-diagonal
    // dependencies coarsen into dependency-parallel units (never Seq).
    let diag = gen::diagonal(97);
    let levels = LevelSets::analyze(&diag);
    let sched = Schedule::build_default(&diag, &levels, cfg.warp_size);
    assert_eq!(sched.stats().depth, 1, "diagonal has a single level");
    assert!(sched.n_units() >= 1);
    assert!((0..sched.n_units()).all(|u| sched.kind(u) != UnitKind::Seq));
    let mut seen: Vec<u32> = sched.rows().to_vec();
    seen.sort_unstable();
    assert_eq!(seen, (0..97).collect::<Vec<u32>>());
    let b: Vec<f64> = (0..97).map(|i| (i % 11) as f64 - 5.0).collect();
    let rep = solve_simulated(&cfg, &diag, &b, Algorithm::Scheduled).unwrap();
    let x_ref = capellini_sptrsv::core::solve_serial_csr(&diag, &b);
    for (x, r) in rep.x.iter().zip(&x_ref) {
        assert_eq!(x.to_bits(), r.to_bits());
    }
}

#[test]
fn empty_system_zero_warp_kernel_launch_is_accounted() {
    // The naive kernel is not in `all_live`; drive it directly to cover the
    // zero-warp grid path of the raw launch API too.
    let l = LowerTriangularCsr::try_new(
        capellini_sptrsv::sparse::CsrMatrix::new(0, 0, vec![0], vec![], vec![]).unwrap(),
    )
    .unwrap();
    let cfg = scaled(DeviceConfig::pascal_like());
    let mut dev = capellini_sptrsv::simt::GpuDevice::new(cfg.clone());
    let sol = naive::solve(&mut dev, &l, &[]).expect("zero-warp launch must succeed");
    assert!(sol.x.is_empty());
    assert_eq!(sol.stats.warps_launched, 0);
    assert!(sol.stats.launches >= 1, "launch overhead still accounted");
    assert_eq!(sol.stats.cycles % cfg.launch_overhead_cycles, 0);
}

#[test]
fn every_solve_entry_point_validates_rhs_length_identically() {
    // Validation parity: the cold free functions, the `Solver` wrappers
    // (simulated, CPU and serial), the cached session, both sharded entry
    // points, every public kernel `solve*` wrapper and the service must all
    // reject a wrong-length right-hand side with the same recoverable error
    // — no panics, no silent misreads.
    use capellini_sptrsv::core::kernels::{
        cusparse_like, cusparse_like_multi, hybrid, levelset, scheduled, syncfree, syncfree_csc,
        syncfree_multi, two_phase, writing_first, writing_first_multi, SimSolve,
    };
    use capellini_sptrsv::core::{
        solve_multi_simulated, solve_sharded, solve_upper_simulated, MatrixHandle, RhsLayout,
        ServiceConfig, ServiceError, ShardConfig, Solver, SolverService, SolverSession,
    };
    use capellini_sptrsv::simt::{GpuDevice, Trace};
    use capellini_sptrsv::sparse::UpperTriangularCsr;
    let l = gen::powerlaw(64, 2.6, 7);
    let n = l.n();
    let cfg = scaled(DeviceConfig::pascal_like());
    let bad = vec![1.0; n - 3];

    let assert_launch = |r: Result<(), SimtError>, what: &str| {
        let err = r.expect_err(&format!("{what} must reject a short rhs"));
        assert!(
            matches!(err, SimtError::Launch(_)),
            "{what}: expected Launch, got {err}"
        );
        assert!(
            err.to_string().contains(&(n - 3).to_string()),
            "{what}: message should name the bad length: {err}"
        );
    };

    for algo in Algorithm::all_live() {
        assert_launch(
            solve_simulated(&cfg, &l, &bad, algo).map(|_| ()),
            algo.label(),
        );
    }
    let solver = Solver::new(l.clone());
    assert_launch(solver.solve_simulated(&cfg, &bad).map(|_| ()), "Solver");
    assert_launch(
        solver.solve_multi_simulated(&cfg, &bad, 1).map(|_| ()),
        "Solver::solve_multi",
    );
    let mut session = SolverSession::new(&cfg, l.clone());
    assert_launch(session.solve(&bad).map(|_| ()), "SolverSession");
    let shard = ShardConfig::pcie(2);
    assert_launch(
        solve_sharded(&cfg, &l, &bad, Algorithm::SyncFree, &shard).map(|_| ()),
        "shard::solve_sharded",
    );
    assert_launch(
        session.solve_sharded(&bad, &shard).map(|_| ()),
        "SolverSession::solve_sharded",
    );
    assert_launch(solver.solve_cpu(&bad, 2).map(|_| ()), "Solver::solve_cpu");
    assert_launch(
        solver.solve_serial(&bad).map(|_| ()),
        "Solver::solve_serial",
    );
    assert_launch(
        solve_upper_simulated(
            &cfg,
            &UpperTriangularCsr::transpose_of(&l),
            &bad,
            Algorithm::SyncFree,
        )
        .map(|_| ()),
        "solve_upper_simulated",
    );

    // Every public kernel wrapper, single-rhs and batched, on a fresh device.
    type Solve = fn(&mut GpuDevice, &LowerTriangularCsr, &[f64]) -> Result<SimSolve, SimtError>;
    let wrappers: [(&str, Solve); 13] = [
        ("levelset::solve", levelset::solve),
        ("syncfree::solve", syncfree::solve),
        ("syncfree::solve_traced", |d, l, b| {
            syncfree::solve_traced(d, l, b, &mut Trace::new())
        }),
        ("syncfree_csc::solve", syncfree_csc::solve),
        ("cusparse_like::solve", cusparse_like::solve),
        ("two_phase::solve", two_phase::solve),
        ("writing_first::solve", writing_first::solve),
        (
            "writing_first::solve_with_explicit_last_check",
            writing_first::solve_with_explicit_last_check,
        ),
        ("writing_first::solve_traced", |d, l, b| {
            writing_first::solve_traced(d, l, b, &mut Trace::new())
        }),
        ("naive::solve", naive::solve),
        ("hybrid::solve", hybrid::solve),
        ("hybrid::solve_with_threshold", |d, l, b| {
            hybrid::solve_with_threshold(d, l, b, 0.5)
        }),
        ("scheduled::solve", scheduled::solve),
    ];
    for (what, solve) in wrappers {
        assert_launch(
            solve(&mut GpuDevice::new(cfg.clone()), &l, &bad).map(|_| ()),
            what,
        );
    }
    type SolveMulti =
        fn(&mut GpuDevice, &LowerTriangularCsr, &[f64], usize) -> Result<SimSolve, SimtError>;
    let multi_wrappers: [(&str, SolveMulti); 5] = [
        ("syncfree_multi::solve_multi", syncfree_multi::solve_multi),
        ("syncfree_multi::solve_multi_layout", |d, l, b, k| {
            syncfree_multi::solve_multi_layout(d, l, b, k, RhsLayout::ColMajor)
        }),
        (
            "cusparse_like_multi::solve_multi",
            cusparse_like_multi::solve_multi,
        ),
        (
            "writing_first_multi::solve_multi",
            writing_first_multi::solve_multi,
        ),
        ("writing_first_multi::solve_multi_layout", |d, l, b, k| {
            writing_first_multi::solve_multi_layout(d, l, b, k, RhsLayout::ColMajor)
        }),
    ];
    for (what, solve_multi) in multi_wrappers {
        assert_launch(
            solve_multi(&mut GpuDevice::new(cfg.clone()), &l, &bad, 1).map(|_| ()),
            what,
        );
    }

    // The service rejects before queueing, with the same message text.
    let service = SolverService::new(ServiceConfig::new(cfg.clone()));
    let want = session.solve(&bad).unwrap_err();
    match service.solve("t0", &MatrixHandle::new(l.clone()), &bad) {
        Err(ServiceError::BadRequest(msg)) => {
            assert_eq!(want, SimtError::Launch(msg), "SolverService::solve")
        }
        other => panic!("SolverService::solve: expected BadRequest, got {other:?}"),
    }

    // The overflow guard is part of the same parity sweep: absurd nrhs is a
    // structured error on both multi entry points, never an overflow panic.
    let assert_overflow = |r: Result<(), SimtError>, what: &str| {
        let err = r.expect_err(&format!("{what} must reject an absurd nrhs"));
        assert!(
            matches!(err, SimtError::Launch(_)),
            "{what}: expected Launch, got {err}"
        );
        assert!(
            err.to_string().contains("overflows"),
            "{what}: message should name the overflow: {err}"
        );
    };
    for nrhs in [usize::MAX, usize::MAX / 2] {
        assert_overflow(
            solve_multi_simulated(&cfg, &l, &bad, nrhs, Algorithm::SyncFree).map(|_| ()),
            "solve_multi_simulated overflow",
        );
        assert_overflow(
            session.solve_multi(&bad, nrhs).map(|_| ()),
            "SolverSession::solve_multi overflow",
        );
    }
}

#[test]
fn zero_rhs_batch_is_an_empty_success_on_every_live_algorithm() {
    // nrhs == 0 with an empty block is a degenerate but well-formed batch:
    // every live algorithm returns an empty solution with default stats and
    // zero derived metrics, launching nothing. A *non-empty* block with
    // nrhs == 0 is still a shape error — the bugfix must not swallow it.
    use capellini_sptrsv::core::solve_multi_simulated;
    use capellini_sptrsv::simt::LaunchStats;
    let l = gen::powerlaw(64, 2.6, 7);
    let cfg = scaled(DeviceConfig::pascal_like());
    for algo in Algorithm::all_live() {
        let rep = solve_multi_simulated(&cfg, &l, &[], 0, algo)
            .unwrap_or_else(|e| panic!("{}: nrhs == 0 must succeed: {e}", algo.label()));
        assert!(rep.x.is_empty(), "{}: phantom solution", algo.label());
        assert_eq!(rep.nrhs, 0, "{}", algo.label());
        assert_eq!(
            format!("{:?}", rep.stats),
            format!("{:?}", LaunchStats::default()),
            "{}: empty batch must not launch",
            algo.label()
        );
        for v in [rep.exec_ms, rep.gflops, rep.bandwidth_gbs] {
            assert_eq!(v, 0.0, "{}: nonzero derived metric", algo.label());
        }
        let err = solve_multi_simulated(&cfg, &l, &[1.0; 64], 0, algo)
            .map(|_| ())
            .expect_err("a non-empty block with nrhs == 0 is a shape error");
        assert!(
            matches!(err, SimtError::Launch(_)),
            "{}: expected Launch, got {err}",
            algo.label()
        );
    }
}

/// Runs `f` on a thread of its own and fails if it does not answer within
/// `secs` seconds, so a hang fails the test instead of stalling the suite.
/// A panic inside `f` is re-raised here with its own message.
fn within_secs<T: Send + 'static>(
    secs: u64,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)));
    });
    let answer = rx
        .recv_timeout(std::time::Duration::from_secs(secs))
        .unwrap_or_else(|_| panic!("{what}: no answer within {secs} s"));
    worker.join().expect("the worker catches its own panic");
    answer.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

#[test]
fn a_device_with_no_warp_slots_is_a_config_error() {
    // Regression: with no SM, or no warp slot per SM, the residency fill
    // placed no warp and the empty schedule counted as a finished launch,
    // so solves "succeeded" with x = 0 and no instruction issued. A warp
    // size of 0 divided by zero in the warp-count helpers (the sharded
    // launches too), and Hybrid's task planner never advanced. Every live
    // algorithm, and the naive kernel wrapper, must refuse such a device
    // with a structured error; so must every sharded entry point, for the
    // live algorithms and Naive.
    let l = gen::powerlaw(64, 2.6, 7);
    let b = vec![1.0; l.n()];
    let mut no_sms = DeviceConfig::toy();
    no_sms.sm_count = 0;
    let mut no_slots = DeviceConfig::toy();
    no_slots.max_warps_per_sm = 0;
    let mut no_lanes = DeviceConfig::toy();
    no_lanes.warp_size = 0;
    let mut too_wide = DeviceConfig::toy();
    too_wide.warp_size = 65;
    let cases = [
        ("sm_count = 0", no_sms, "no warp slots"),
        ("max_warps_per_sm = 0", no_slots, "no warp slots"),
        (
            "warp_size = 0",
            no_lanes,
            "warp size must be 1 to 64 lanes (got 0)",
        ),
        (
            "warp_size = 65",
            too_wide,
            "warp size must be 1 to 64 lanes (got 65)",
        ),
    ];
    for (what, cfg, expected) in cases {
        let check = |what: &str, got: Result<(), SimtError>| match got {
            Err(SimtError::Config(msg)) => assert!(msg.contains(expected), "{what}: {msg}"),
            other => panic!("{what}: expected a Config error, got {other:?}"),
        };
        for algo in Algorithm::all_live() {
            let what = format!("{what}, {}", algo.label());
            let (cfg, l, b) = (cfg.clone(), l.clone(), b.clone());
            check(
                &what,
                within_secs(60, &what, move || {
                    solve_simulated(&cfg, &l, &b, algo).map(|_| ())
                }),
            );
        }
        for algo in Algorithm::all_live()
            .into_iter()
            .chain([Algorithm::NaiveThread])
        {
            for (entry, solve) in sharded_entry_points() {
                let what = format!("{what}, {}, {entry}", algo.label());
                let (cfg, l, b) = (cfg.clone(), l.clone(), b.clone());
                check(
                    &what,
                    within_secs(60, &what, move || solve(&cfg, &l, &b, algo)),
                );
            }
        }
        let what = format!("{what}, naive");
        let (l, b) = (l.clone(), b.clone());
        check(
            &what,
            within_secs(60, &what, move || {
                let mut dev = capellini_sptrsv::simt::GpuDevice::new(cfg);
                naive::solve(&mut dev, &l, &b).map(|_| ())
            }),
        );
    }
}

type ShardedEntry =
    fn(&DeviceConfig, &LowerTriangularCsr, &[f64], Algorithm) -> Result<(), SimtError>;

/// The two sharded solve entry points, each at `pcie(2)`.
fn sharded_entry_points() -> [(&'static str, ShardedEntry); 2] {
    [
        ("solve_sharded", |cfg, l, b, algo| {
            solve_sharded(cfg, l, b, algo, &ShardConfig::pcie(2)).map(|_| ())
        }),
        ("SolverSession::solve_sharded", |cfg, l, b, algo| {
            SolverSession::with_algorithm(cfg, l.clone(), algo)
                .solve_sharded(b, &ShardConfig::pcie(2))
                .map(|_| ())
        }),
    ]
}
