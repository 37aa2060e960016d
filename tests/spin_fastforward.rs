//! Differential suite: `SpinModel::FastForward` must be observationally
//! equivalent to `SpinModel::Replay` — identical `LaunchStats`, solutions,
//! traces, and profiles on every live kernel, across memory models — while
//! doing far fewer scheduler heap events. The closed-form spin accounting
//! of DESIGN.md §9 is pinned here.

use capellini_sptrsv::core::kernels::{
    cusparse_like, cusparse_like_multi, hybrid, levelset, naive, scheduled, syncfree, syncfree_csc,
    syncfree_multi, two_phase, writing_first, writing_first_multi, SimSolve,
};
use capellini_sptrsv::core::solve_serial_csr;
use capellini_sptrsv::prelude::*;
use capellini_sptrsv::simt::config::StoreScope;
use capellini_sptrsv::simt::{EngineCounters, GpuDevice, ProfileMode, Trace};
use capellini_sptrsv::sparse::{gen, paper_example};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

type Solve =
    fn(
        &mut GpuDevice,
        &LowerTriangularCsr,
        &[f64],
    ) -> Result<capellini_sptrsv::core::kernels::SimSolve, capellini_sptrsv::simt::SimtError>;

fn kernels() -> Vec<(&'static str, Solve)> {
    vec![
        ("writing_first", writing_first::solve as Solve),
        ("syncfree", syncfree::solve as Solve),
        ("syncfree_csc", syncfree_csc::solve as Solve),
        ("two_phase", two_phase::solve as Solve),
        ("levelset", levelset::solve as Solve),
        ("cusparse_like", cusparse_like::solve as Solve),
        ("hybrid", hybrid::solve as Solve),
        ("scheduled", scheduled::solve as Solve),
    ]
}

/// A miniature of the evaluation dataset: the paper's 8×8 example, a
/// serial chain (worst-case spin depth), a random DAG, a banded matrix
/// (mixed level widths), and a dense band (a steady crowd: every row waits
/// on the 24 before it, so each SM holds parked warps sharing one spin
/// period).
fn matrices() -> Vec<(&'static str, LowerTriangularCsr)> {
    vec![
        ("paper8", paper_example()),
        ("chain256", gen::chain(256, 1, 7)),
        ("randomk", gen::random_k(600, 3, 600, 42)),
        ("banded", gen::banded(400, 5, 0.6, 7)),
        ("dense_band", dense_band()),
    ]
}

fn dense_band() -> LowerTriangularCsr {
    gen::dense_band(200, 24, 62)
}

/// The kernels whose spin the dense band turns into crowds.
fn crowd_kernels() -> Vec<(&'static str, Solve, Algorithm)> {
    vec![
        ("syncfree", syncfree::solve as Solve, Algorithm::SyncFree),
        (
            "cusparse_like",
            cusparse_like::solve as Solve,
            Algorithm::CusparseLike,
        ),
        (
            "writing_first",
            writing_first::solve as Solve,
            Algorithm::CapelliniWritingFirst,
        ),
    ]
}

fn base_cfg() -> DeviceConfig {
    DeviceConfig::pascal_like().scaled_down(4)
}

fn rhs(l: &LowerTriangularCsr) -> (Vec<f64>, Vec<f64>) {
    let x_true: Vec<f64> = (0..l.n()).map(|i| (i % 13) as f64 - 6.0).collect();
    let b = linalg::rhs_for_solution(l, &x_true);
    (x_true, b)
}

/// Runs `solve` under Replay and FastForward, asserts equal `LaunchStats`
/// and solution bits, and returns the solution.
fn diff_one(
    name: &str,
    mname: &str,
    solve: Solve,
    l: &LowerTriangularCsr,
    cfg: &DeviceConfig,
) -> Vec<f64> {
    let (_, b) = rhs(l);
    let run = |model: SpinModel| {
        let mut dev = GpuDevice::new(cfg.clone().with_spin_model(model));
        let out = solve(&mut dev, l, &b)?;
        // The last launch completed: its heap pops split exactly, and a
        // single launch's issues, real and virtual, are its instructions.
        let c = dev.last_launch_counters();
        assert_eq!(
            c.issues + c.busy_rekeys + c.rekicks,
            c.heap_events,
            "{name} on {mname} under {model:?}: heap pops do not split"
        );
        if out.stats.launches == 1 {
            assert_eq!(
                c.issues + c.virtual_single + c.virtual_crowd,
                out.stats.warp_instructions,
                "{name} on {mname} under {model:?}: issues do not sum"
            );
        }
        Ok::<_, capellini_sptrsv::simt::SimtError>((format!("{:?}", out.stats), out.x))
    };
    let replay = run(SpinModel::Replay);
    let ff = run(SpinModel::FastForward);
    match (replay, ff) {
        (Ok((rs, rx)), Ok((fs, fx))) => {
            assert_eq!(rs, fs, "{name} on {mname}: stats diverged");
            assert_eq!(rx, fx, "{name} on {mname}: solution diverged");
            fx
        }
        (r, f) => panic!("{name} on {mname}: outcome diverged: replay={r:?} ff={f:?}"),
    }
}

fn diff_all(cfg: &DeviceConfig) {
    for (mname, l) in &matrices() {
        for (name, solve) in &kernels() {
            diff_one(name, mname, *solve, l, cfg);
        }
    }
}

/// The issue arbiter's shapes: 1, 3, 20 (unscaled `pascal_like`) and 33
/// SMs, with one or 64 resident warps each, on random matrices small
/// enough that some grids have fewer warps than SMs (24 rows give
/// Writing-First one warp) and large enough that one warp slot per SM
/// leaves most warps pending (300 rows), at warp sizes 3, 32 and 64 (the
/// only width whose lane walk reaches bit 63). FastForward must equal
/// Replay, and both the serial reference.
#[test]
fn every_arbiter_shape_matches_replay_and_the_reference() {
    let solves = [
        ("syncfree", syncfree::solve as Solve),
        ("cusparse_like", cusparse_like::solve as Solve),
        ("writing_first", writing_first::solve as Solve),
        ("scheduled", scheduled::solve as Solve),
    ];
    for (mname, l) in [
        ("randomk24", gen::random_k(24, 3, 24, 5)),
        ("randomk300", gen::random_k(300, 3, 300, 9)),
    ] {
        let (_, b) = rhs(&l);
        let x_ref = solve_serial_csr(&l, &b);
        for sm_count in [1, 3, 20, 33] {
            for max_warps_per_sm in [1, 64] {
                for warp_size in [3, 32, 64] {
                    let cfg = DeviceConfig {
                        sm_count,
                        max_warps_per_sm,
                        warp_size,
                        ..DeviceConfig::pascal_like()
                    };
                    let shape = format!(
                        "{mname} on {sm_count} SMs x {max_warps_per_sm} warps of {warp_size} lanes"
                    );
                    for (name, solve) in solves {
                        let x = diff_one(name, &shape, solve, &l, &cfg);
                        linalg::assert_solutions_close(&x, &x_ref, 1e-9);
                    }
                }
            }
        }
    }
}

#[test]
fn stats_bit_exact_sc() {
    diff_all(&base_cfg());
}

#[test]
fn stats_bit_exact_relaxed_warp_scope() {
    diff_all(&base_cfg().with_memory_model(MemoryModel::relaxed(2_000)));
}

#[test]
fn stats_bit_exact_relaxed_sm_scope() {
    diff_all(&base_cfg().with_memory_model(MemoryModel::Relaxed {
        drain_ticks: 2_000,
        scope: StoreScope::Sm,
        racecheck: false,
    }));
}

#[test]
fn stats_bit_exact_racecheck() {
    diff_all(&base_cfg().with_memory_model(MemoryModel::racecheck(2_000)));
}

type SolveMulti = fn(
    &mut GpuDevice,
    &LowerTriangularCsr,
    &[f64],
    usize,
) -> Result<SimSolve, capellini_sptrsv::simt::SimtError>;

/// How one cell of the relaxed sweep solves.
#[derive(Clone, Copy)]
enum SweepRun {
    Single(Solve),
    /// Three right-hand sides in one launch.
    Multi(SolveMulti),
    /// Sharded over `pcie(devices)`.
    Sharded(Algorithm, usize),
}

/// One relaxed cell: a kernel on `random_k(n, 3, n, seed)` under one store
/// scope (or racecheck) and drain delay.
struct SweepCell {
    kernel: &'static str,
    run: SweepRun,
    scope: &'static str,
    drain_ticks: u64,
    n: usize,
    seed: u64,
}

impl SweepCell {
    fn model(&self) -> MemoryModel {
        match self.scope {
            "warp" => MemoryModel::relaxed(self.drain_ticks),
            "sm" => MemoryModel::Relaxed {
                drain_ticks: self.drain_ticks,
                scope: StoreScope::Sm,
                racecheck: false,
            },
            _ => MemoryModel::racecheck(self.drain_ticks),
        }
    }

    /// Stats (per device when sharded) and solution bits under `spin`, or
    /// the error.
    fn outcome(&self, spin: SpinModel) -> Result<(String, Vec<u64>), String> {
        let l = gen::random_k(self.n, 3, self.n, self.seed);
        let x_true: Vec<f64> = (0..l.n()).map(|i| (i % 17) as f64 - 8.0).collect();
        let b = linalg::rhs_for_solution(&l, &x_true);
        let cfg = base_cfg()
            .with_memory_model(self.model())
            .with_spin_model(spin);
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        match self.run {
            SweepRun::Single(solve) => solve(&mut GpuDevice::new(cfg), &l, &b)
                .map(|out| (format!("{:?}", out.stats), bits(&out.x))),
            SweepRun::Multi(solve) => {
                let bs: Vec<f64> = (0..3 * l.n())
                    .map(|k| b[k / 3] * (k % 3 + 1) as f64)
                    .collect();
                solve(&mut GpuDevice::new(cfg), &l, &bs, 3)
                    .map(|out| (format!("{:?}", out.stats), bits(&out.x)))
            }
            SweepRun::Sharded(algo, devices) => {
                solve_sharded(&cfg, &l, &b, algo, &ShardConfig::pcie(devices)).map(|r| {
                    let stats = format!("{:?} makespan {}", r.per_device, r.makespan_cycles);
                    (stats, bits(&r.x))
                })
            }
        }
        .map_err(|e| format!("{e:?}"))
    }
}

/// FastForward against Replay under the relaxed model, where autonomous
/// store-buffer drains make values visible with no instruction executing:
/// a seeded sweep over the evaluation trio, their three-RHS variants and
/// sharded solves, every store scope, racecheck and three drain delays.
/// The named cells are the ones where a wake scheduled at park time, from
/// the warp's undisplaced cursor, landed one spin period after Replay's
/// poll first saw the drained value.
#[test]
fn relaxed_sweep_matches_replay() {
    let cell = |kernel, run, scope, drain_ticks, n, seed| SweepCell {
        kernel,
        run,
        scope,
        drain_ticks,
        n,
        seed,
    };
    let sf_multi = SweepRun::Multi(syncfree_multi::solve_multi as SolveMulti);
    let mut cells = vec![
        cell("syncfree_multi", sf_multi, "sm", 2_000, 224, 1002),
        cell("syncfree_multi", sf_multi, "warp", 2_000, 298, 1004),
        cell(
            "syncfree",
            SweepRun::Single(syncfree::solve as Solve),
            "warp",
            7_000,
            150,
            1000,
        ),
        cell(
            "syncfree",
            SweepRun::Sharded(Algorithm::SyncFree, 2),
            "sm",
            2_000,
            372,
            1006,
        ),
        cell(
            "syncfree",
            SweepRun::Sharded(Algorithm::SyncFree, 3),
            "sm",
            2_000,
            381,
            1013,
        ),
    ];
    let named = cells.len();
    let runs = [
        ("syncfree", SweepRun::Single(syncfree::solve as Solve)),
        ("cusparse_like", SweepRun::Single(cusparse_like::solve)),
        ("writing_first", SweepRun::Single(writing_first::solve)),
        ("syncfree_multi", sf_multi),
        (
            "cusparse_like_multi",
            SweepRun::Multi(cusparse_like_multi::solve_multi),
        ),
        (
            "writing_first_multi",
            SweepRun::Multi(writing_first_multi::solve_multi),
        ),
        ("syncfree", SweepRun::Sharded(Algorithm::SyncFree, 2)),
        (
            "cusparse_like",
            SweepRun::Sharded(Algorithm::CusparseLike, 3),
        ),
        (
            "writing_first",
            SweepRun::Sharded(Algorithm::CapelliniWritingFirst, 2),
        ),
    ];
    let mut rng = SmallRng::seed_from_u64(0x5EED_D8A1);
    for (kernel, run) in runs {
        for scope in ["warp", "sm", "racecheck"] {
            for drain_ticks in [500, 2_000, 7_000] {
                let n = rng.gen_range(120..320);
                cells.push(cell(
                    kernel,
                    run,
                    scope,
                    drain_ticks,
                    n,
                    rng.gen_range(0..1 << 20),
                ));
            }
        }
    }
    let diverged: Vec<String> = cells
        .iter()
        .enumerate()
        .filter_map(|(i, c)| {
            let (replay, ff) = (c.outcome(SpinModel::Replay), c.outcome(SpinModel::FastForward));
            let how = match c.run {
                SweepRun::Single(_) => String::new(),
                SweepRun::Multi(_) => " x3 rhs".into(),
                SweepRun::Sharded(_, d) => format!(" on pcie({d})"),
            };
            (replay != ff).then(|| {
                format!(
                    "{}{} {}{how}, {} scope, drain {}, random_k({n}, 3, {n}, {}): replay {:?} ff {:?}",
                    if i < named { "named " } else { "" },
                    i,
                    c.kernel,
                    c.scope,
                    c.drain_ticks,
                    c.seed,
                    replay.as_ref().map(|o| &o.0),
                    ff.as_ref().map(|o| &o.0),
                    n = c.n,
                )
            })
        })
        .collect();
    assert!(
        diverged.is_empty(),
        "{} of {} relaxed cells diverged:\n{}",
        diverged.len(),
        cells.len(),
        diverged.join("\n")
    );
}

/// The fixture that caught the lazy-SM wake-projection bug: on a lazily
/// advanced SM, the anchor-visit lattice can lag behind a displacement
/// that pushed the real poll to-or-past the store, so a naive projection
/// kicks a full period late. `golden_traces.rs` pins Replay against the
/// pre-optimization engine; this pins FastForward against Replay at the
/// same size.
#[test]
fn stats_bit_exact_on_golden_fixture() {
    let l = gen::random_k(3000, 3, 3000, 42);
    diff_one(
        "syncfree",
        "randomk3000",
        syncfree::solve as Solve,
        &l,
        &base_cfg(),
    );
    diff_one(
        "writing_first",
        "randomk3000",
        writing_first::solve as Solve,
        &l,
        &base_cfg(),
    );
}

/// A traced launch replays every spin poll under either spin model: its
/// trace, and its host work, are Replay's.
#[test]
fn traces_bit_exact() {
    type SolveTraced =
        fn(&mut GpuDevice, &LowerTriangularCsr, &[f64], &mut Trace) -> Result<SimSolve, SimtError>;
    let l = gen::random_k(600, 3, 600, 42);
    let (_, b) = rhs(&l);
    let traced: [(&str, SolveTraced); 2] = [
        ("syncfree", syncfree::solve_traced),
        ("writing_first", writing_first::solve_traced),
    ];
    for (name, solve) in traced {
        let run = |model: SpinModel| {
            let mut dev = GpuDevice::new(base_cfg().with_spin_model(model));
            let mut tr = Trace::new();
            solve(&mut dev, &l, &b, &mut tr).unwrap();
            (tr.render(), dev.last_launch_counters())
        };
        let (replay, ff) = (run(SpinModel::Replay), run(SpinModel::FastForward));
        assert_eq!(replay.0, ff.0, "{name} trace diverged");
        assert_eq!(replay.1, ff.1, "{name}: a traced launch fast-forwarded");
    }
}

/// Sampled stall-attribution profiles must also be reconstructed
/// bit-exactly (per-bucket `spin_poll` slots included).
#[test]
fn profiles_bit_exact() {
    let l = gen::random_k(600, 3, 600, 42);
    let (_, b) = rhs(&l);
    let run = |model: SpinModel| {
        let mut dev = GpuDevice::new(
            base_cfg()
                .with_profile(ProfileMode::sampled(64))
                .with_spin_model(model),
        );
        syncfree::solve(&mut dev, &l, &b).unwrap();
        format!("{:?}", dev.take_profiles())
    };
    assert_eq!(
        run(SpinModel::Replay),
        run(SpinModel::FastForward),
        "profile diverged"
    );
}

/// The point of the optimization: a serial chain makes every warp spin for
/// a long time, and parking must turn those poll round-trips into O(1)
/// wakes. The ≥5× floor here is deliberately far below the typical
/// reduction (the issue's acceptance criterion).
#[test]
fn fast_forward_slashes_heap_events() {
    let l = gen::chain(2048, 1, 7);
    let (_, b) = rhs(&l);
    let run = |model: SpinModel| {
        let mut dev = GpuDevice::new(base_cfg().with_spin_model(model));
        let out = syncfree::solve(&mut dev, &l, &b).unwrap();
        (dev.last_launch_heap_events(), out.stats.cycles)
    };
    let (replay_events, replay_cycles) = run(SpinModel::Replay);
    let (ff_events, ff_cycles) = run(SpinModel::FastForward);
    assert_eq!(replay_cycles, ff_cycles, "simulated time must not change");
    assert!(
        ff_events * 5 <= replay_events,
        "expected >=5x heap-event reduction, got {replay_events} -> {ff_events}"
    );
}

/// Parked warps that nothing can wake are a provable deadlock: FastForward
/// reports it the moment the scheduler heap drains, with the waiter graph
/// attached, instead of burning the deadlock window like Replay.
#[test]
fn naive_intra_warp_cycle_deadlocks_immediately() {
    // A bidiagonal chain makes 31 of every 32 dependencies intra-warp, so
    // the naive kernel's warps all end up spinning on flags that no
    // runnable warp can ever set.
    let l = gen::chain(64, 1, 1);
    let (_, b) = rhs(&l);
    let cfg = DeviceConfig::pascal_like(); // deadlock_window = 2_000_000
    let mut dev = GpuDevice::new(cfg.clone().with_spin_model(SpinModel::FastForward));
    let err = naive::solve(&mut dev, &l, &b).unwrap_err();
    match err {
        SimtError::Deadlock {
            cycle,
            last_progress_cycle,
            warps,
            ..
        } => {
            assert!(
                cycle.saturating_sub(last_progress_cycle) < cfg.deadlock_window,
                "FastForward should not wait out the deadlock window \
                 (cycle {cycle}, last progress {last_progress_cycle})"
            );
            assert!(
                warps.iter().any(|w| !w.waiting_on.is_empty()),
                "deadlock snapshot should carry the waiter graph: {warps:?}"
            );
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

/// A cycle budget that runs out mid-solve on the dense band: FastForward
/// reports the same timeout as Replay (its warp snapshots differ by
/// design, DESIGN.md §9).
#[test]
fn crowd_timeouts_match_replay() {
    let l = dense_band();
    let (_, b) = rhs(&l);
    for budget in [150_000, 200_000] {
        for (name, solve, _) in crowd_kernels() {
            let run = |model: SpinModel| {
                let mut cfg = base_cfg().with_spin_model(model);
                cfg.max_cycles = budget;
                match solve(&mut GpuDevice::new(cfg), &l, &b) {
                    Err(SimtError::Timeout {
                        kernel,
                        max_cycles,
                        live_warps,
                        last_progress_cycle,
                        ..
                    }) => (kernel, max_cycles, live_warps, last_progress_cycle),
                    other => panic!("{name} at {budget} cycles under {model:?}: {other:?}"),
                }
            };
            assert_eq!(
                run(SpinModel::Replay),
                run(SpinModel::FastForward),
                "{name} at {budget} cycles: timeouts diverged"
            );
        }
    }
}

/// Link events wake crowd members: a sharded dense-band solve keeps its
/// per-device stats, makespan and solution bits.
#[test]
fn crowd_sharded_matches_replay() {
    let l = dense_band();
    let (_, b) = rhs(&l);
    for (name, _, algo) in crowd_kernels() {
        let run = |model: SpinModel| {
            let cfg = base_cfg().with_spin_model(model);
            let r = solve_sharded(&cfg, &l, &b, algo, &ShardConfig::pcie(2))
                .unwrap_or_else(|e| panic!("{name} sharded under {model:?}: {e}"));
            let bits: Vec<u64> = r.x.iter().map(|v| v.to_bits()).collect();
            (format!("{:?}", r.per_device), r.makespan_cycles, bits)
        };
        assert_eq!(
            run(SpinModel::Replay),
            run(SpinModel::FastForward),
            "{name} sharded: outcome diverged"
        );
    }
}

/// The crowd plan is what advances the dense band's parked warps: the
/// counters are pinned, and plans walk more than the 58% of virtual issues
/// the per-call crowd batch they replaced reached on SyncFree.
#[test]
fn crowd_plans_carry_the_dense_band() {
    let l = dense_band();
    let (_, b) = rhs(&l);
    let pinned = [
        (
            "syncfree",
            syncfree::solve as Solve,
            EngineCounters {
                heap_events: 30_288,
                issues: 29_705,
                busy_rekeys: 583,
                rekicks: 0,
                virtual_single: 24_978,
                virtual_crowd: 407_202,
                ready_inserts: 19_729,
                parks: 4_500,
                plans_built: 342,
                plans_dissolved: 222,
                grid_reuses: 0,
                warp_reuses: 0,
            },
        ),
        (
            "cusparse_like",
            cusparse_like::solve as Solve,
            EngineCounters {
                heap_events: 37_876,
                issues: 37_111,
                busy_rekeys: 765,
                rekicks: 0,
                virtual_single: 24_197,
                virtual_crowd: 566_473,
                ready_inserts: 19_172,
                parks: 4_500,
                plans_built: 333,
                plans_dissolved: 213,
                grid_reuses: 0,
                warp_reuses: 0,
            },
        ),
    ];
    for (name, solve, want) in pinned {
        let mut dev = GpuDevice::new(base_cfg());
        solve(&mut dev, &l, &b).unwrap_or_else(|e| panic!("{name}: {e}"));
        let c = dev.last_launch_counters();
        assert_eq!(c, want, "{name}: engine counters moved");
        let virtual_issues = c.virtual_single + c.virtual_crowd;
        assert!(
            c.virtual_crowd * 100 > virtual_issues * 58,
            "{name}: crowd plans walked {} of {virtual_issues} virtual issues",
            c.virtual_crowd
        );
    }
}
