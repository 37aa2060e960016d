//! Golden regression tests: exact cycle/instruction counts of each kernel
//! on the paper's 8×8 example over the deterministic toy device. These pin
//! the simulator's semantics — any change to the divergence stack, the
//! scheduler, or a kernel's control-flow graph shows up as a diff here and
//! must be reviewed against Figure 2's schedule.

use capellini_sptrsv::core::kernels::{levelset, syncfree, syncfree_csc, two_phase, writing_first};
use capellini_sptrsv::prelude::*;
use capellini_sptrsv::simt::GpuDevice;
use capellini_sptrsv::sparse::paper_example;

fn toy() -> DeviceConfig {
    DeviceConfig::toy()
}

fn problem() -> (LowerTriangularCsr, Vec<f64>, Vec<f64>) {
    let l = paper_example();
    let x_true: Vec<f64> = (0..8).map(|i| i as f64 - 3.5).collect();
    let b = linalg::rhs_for_solution(&l, &x_true);
    (l, b, x_true)
}

#[test]
fn writing_first_golden() {
    let (l, b, x_true) = problem();
    let mut dev = GpuDevice::new(toy());
    let out = writing_first::solve(&mut dev, &l, &b).unwrap();
    linalg::assert_solutions_close(&out.x, &x_true, 1e-12);
    // 8 rows over 3-lane warps = 3 warps; the Figure-2c schedule.
    assert_eq!(out.stats.warps_launched, 3);
    assert_eq!(out.stats.cycles, 92, "writing-first cycle count changed");
    assert_eq!(
        out.stats.warp_instructions, 129,
        "writing-first instruction count changed"
    );
}

#[test]
fn syncfree_golden() {
    let (l, b, x_true) = problem();
    let mut dev = GpuDevice::new(toy());
    let out = syncfree::solve(&mut dev, &l, &b).unwrap();
    linalg::assert_solutions_close(&out.x, &x_true, 1e-12);
    // One warp per component: Figure 2b.
    assert_eq!(out.stats.warps_launched, 8);
    assert_eq!(out.stats.cycles, 109, "syncfree cycle count changed");
    assert_eq!(
        out.stats.warp_instructions, 186,
        "syncfree instruction count changed"
    );
}

#[test]
fn two_phase_golden() {
    let (l, b, x_true) = problem();
    let mut dev = GpuDevice::new(toy());
    let out = two_phase::solve(&mut dev, &l, &b).unwrap();
    linalg::assert_solutions_close(&out.x, &x_true, 1e-12);
    let wf_cycles = 92;
    assert!(
        out.stats.cycles >= wf_cycles,
        "two-phase ({}) should not beat writing-first ({wf_cycles}) on the example",
        out.stats.cycles
    );
}

#[test]
fn levelset_golden() {
    let (l, b, x_true) = problem();
    let mut dev = GpuDevice::new(toy());
    let out = levelset::solve(&mut dev, &l, &b).unwrap();
    linalg::assert_solutions_close(&out.x, &x_true, 1e-12);
    // Four launches (one per level, Figure 2a) with per-launch overhead.
    assert_eq!(out.stats.launches, 4);
    assert_eq!(out.stats.cycles, 116, "level-set cycle count changed");
}

#[test]
fn figure2_ordering_holds() {
    // The paper's Figure 2: (a) Level-Set slowest, (b) warp-level SyncFree
    // middle, (c) thread-level Capellini fastest.
    let (l, b, _) = problem();
    let cycles = |f: &dyn Fn(&mut GpuDevice) -> u64| {
        let mut dev = GpuDevice::new(toy());
        f(&mut dev)
    };
    let a = cycles(&|d| levelset::solve(d, &l, &b).unwrap().stats.cycles);
    let bb = cycles(&|d| syncfree::solve(d, &l, &b).unwrap().stats.cycles);
    let c = cycles(&|d| writing_first::solve(d, &l, &b).unwrap().stats.cycles);
    assert!(a > bb, "level-set {a} must exceed syncfree {bb}");
    assert!(bb > c, "syncfree {bb} must exceed capellini {c}");
}

#[test]
fn csc_formulation_solves_the_example() {
    let (l, b, x_true) = problem();
    let mut dev = GpuDevice::new(toy());
    let out = syncfree_csc::solve(&mut dev, &l, &b).unwrap();
    linalg::assert_solutions_close(&out.x, &x_true, 1e-12);
    assert!(
        out.stats.atomic_ops > 0,
        "the scatter form must use atomics"
    );
}

#[test]
fn traces_are_bitwise_reproducible() {
    let (l, b, _) = problem();
    let run = || {
        let mut dev = GpuDevice::new(toy());
        let mut tr = capellini_sptrsv::simt::Trace::new();
        writing_first::solve_traced(&mut dev, &l, &b, &mut tr).unwrap();
        tr.render()
    };
    assert_eq!(run(), run());
}

/// Every counter of every kernel, bit-exact, on two fixtures: the paper's
/// 8×8 example over the toy device and a 3000-row random DAG over a
/// scaled-down Pascal. The engine hot path is optimized under the contract
/// that simulated *results* never change; this test is that contract.
/// (Values captured from the pre-optimization engine.) Every row is run
/// twice: through the kernel's own cold wrapper and through
/// `solve_simulated` (a fresh session's first solve); both must hit the
/// stored string.
#[test]
fn launch_stats_bit_exact() {
    use capellini_sptrsv::core::kernels::cusparse_like;
    use capellini_sptrsv::sparse::gen;

    type Solve =
        fn(
            &mut GpuDevice,
            &LowerTriangularCsr,
            &[f64],
        )
            -> Result<capellini_sptrsv::core::kernels::SimSolve, capellini_sptrsv::simt::SimtError>;
    let kernels: &[(&str, Solve, Algorithm)] = &[
        (
            "writing_first",
            writing_first::solve as Solve,
            Algorithm::CapelliniWritingFirst,
        ),
        ("syncfree", syncfree::solve as Solve, Algorithm::SyncFree),
        (
            "syncfree_csc",
            syncfree_csc::solve as Solve,
            Algorithm::SyncFreeCsc,
        ),
        (
            "two_phase",
            two_phase::solve as Solve,
            Algorithm::CapelliniTwoPhase,
        ),
        ("levelset", levelset::solve as Solve, Algorithm::LevelSet),
        (
            "cusparse_like",
            cusparse_like::solve as Solve,
            Algorithm::CusparseLike,
        ),
    ];

    let expected_paper = [
        "LaunchStats { cycles: 92, warp_instructions: 129, thread_instructions: 214, flops: 34, dram_read_bytes: 480, dram_write_bytes: 96, dram_transactions: 18, l2_hits: 67, shared_ops: 0, atomic_ops: 0, fences: 6, issue_ticks: 129, stall_ticks: 24, failed_polls: 19, warps_launched: 3, lanes_retired: 9, launches: 1, stale_reads: 0, drained_stores: 0, l1_hits: 0, l1_misses: 0, l2_misses: 0, sector_evictions: 0 }",
        "LaunchStats { cycles: 109, warp_instructions: 186, thread_instructions: 399, flops: 50, dram_read_bytes: 448, dram_write_bytes: 96, dram_transactions: 17, l2_hits: 57, shared_ops: 64, atomic_ops: 0, fences: 8, issue_ticks: 186, stall_ticks: 0, failed_polls: 0, warps_launched: 8, lanes_retired: 24, launches: 1, stale_reads: 0, drained_stores: 0, l1_hits: 0, l1_misses: 0, l2_misses: 0, sector_evictions: 0 }",
        "LaunchStats { cycles: 75, warp_instructions: 118, thread_instructions: 229, flops: 34, dram_read_bytes: 448, dram_write_bytes: 160, dram_transactions: 19, l2_hits: 64, shared_ops: 24, atomic_ops: 13, fences: 8, issue_ticks: 118, stall_ticks: 0, failed_polls: 0, warps_launched: 8, lanes_retired: 24, launches: 1, stale_reads: 0, drained_stores: 0, l1_hits: 0, l1_misses: 0, l2_misses: 0, sector_evictions: 0 }",
        "LaunchStats { cycles: 109, warp_instructions: 159, thread_instructions: 327, flops: 34, dram_read_bytes: 480, dram_write_bytes: 96, dram_transactions: 18, l2_hits: 74, shared_ops: 0, atomic_ops: 0, fences: 4, issue_ticks: 159, stall_ticks: 28, failed_polls: 58, warps_launched: 3, lanes_retired: 9, launches: 1, stale_reads: 0, drained_stores: 0, l1_hits: 0, l1_misses: 0, l2_misses: 0, sector_evictions: 0 }",
        "LaunchStats { cycles: 116, warp_instructions: 56, thread_instructions: 104, flops: 34, dram_read_bytes: 448, dram_write_bytes: 64, dram_transactions: 16, l2_hits: 32, shared_ops: 0, atomic_ops: 0, fences: 0, issue_ticks: 56, stall_ticks: 52, failed_polls: 0, warps_launched: 4, lanes_retired: 12, launches: 4, stale_reads: 0, drained_stores: 0, l1_hits: 0, l1_misses: 0, l2_misses: 0, sector_evictions: 0 }",
        "LaunchStats { cycles: 97, warp_instructions: 162, thread_instructions: 327, flops: 82, dram_read_bytes: 480, dram_write_bytes: 96, dram_transactions: 18, l2_hits: 64, shared_ops: 56, atomic_ops: 0, fences: 8, issue_ticks: 162, stall_ticks: 0, failed_polls: 0, warps_launched: 8, lanes_retired: 24, launches: 1, stale_reads: 0, drained_stores: 0, l1_hits: 0, l1_misses: 0, l2_misses: 0, sector_evictions: 0 }",
    ];
    let expected_randomk = [
        "LaunchStats { cycles: 88185, warp_instructions: 86433, thread_instructions: 1861577, flops: 23988, dram_read_bytes: 205088, dram_write_bytes: 27008, dram_transactions: 7253, l2_hits: 429322, shared_ops: 0, atomic_ops: 0, fences: 1009, issue_ticks: 86433, stall_ticks: 1497796, failed_polls: 356721, warps_launched: 94, lanes_retired: 3008, launches: 1, stale_reads: 0, drained_stores: 0, l1_hits: 0, l1_misses: 0, l2_misses: 0, sector_evictions: 0 }",
        "LaunchStats { cycles: 62990, warp_instructions: 271641, thread_instructions: 2445894, flops: 116988, dram_read_bytes: 205056, dram_write_bytes: 27008, dram_transactions: 7252, l2_hits: 190317, shared_ops: 282000, atomic_ops: 0, fences: 3000, issue_ticks: 271641, stall_ticks: 818396, failed_polls: 174468, warps_launched: 3000, lanes_retired: 96000, launches: 1, stale_reads: 0, drained_stores: 0, l1_hits: 0, l1_misses: 0, l2_misses: 0, sector_evictions: 0 }",
        "LaunchStats { cycles: 80765, warp_instructions: 303064, thread_instructions: 8919298, flops: 23988, dram_read_bytes: 215392, dram_write_bytes: 60000, dram_transactions: 8606, l2_hits: 166593, shared_ops: 96000, atomic_ops: 17743, fences: 3000, issue_ticks: 303064, stall_ticks: 1143767, failed_polls: 4141664, warps_launched: 3000, lanes_retired: 96000, launches: 1, stale_reads: 0, drained_stores: 0, l1_hits: 0, l1_misses: 0, l2_misses: 0, sector_evictions: 0 }",
        "LaunchStats { cycles: 230048, warp_instructions: 205608, thread_instructions: 3101676, flops: 23988, dram_read_bytes: 205088, dram_write_bytes: 27008, dram_transactions: 7253, l2_hits: 1007319, shared_ops: 0, atomic_ops: 0, fences: 191, issue_ticks: 205608, stall_ticks: 4189012, failed_polls: 1488737, warps_launched: 94, lanes_retired: 3008, launches: 1, stale_reads: 0, drained_stores: 0, l1_hits: 0, l1_misses: 0, l2_misses: 0, sector_evictions: 0 }",
        "LaunchStats { cycles: 499672, warp_instructions: 2356, thread_instructions: 60784, flops: 23988, dram_read_bytes: 214080, dram_write_bytes: 24000, dram_transactions: 7440, l2_hits: 30705, shared_ops: 0, atomic_ops: 0, fences: 0, issue_ticks: 2356, stall_ticks: 1507792, failed_polls: 0, warps_launched: 119, lanes_retired: 3808, launches: 42, stale_reads: 0, drained_stores: 0, l1_hits: 0, l1_misses: 0, l2_misses: 0, sector_evictions: 0 }",
        "LaunchStats { cycles: 58845, warp_instructions: 295457, thread_instructions: 1688793, flops: 503988, dram_read_bytes: 217056, dram_write_bytes: 27008, dram_transactions: 7627, l2_hits: 173152, shared_ops: 282000, atomic_ops: 0, fences: 3000, issue_ticks: 295457, stall_ticks: 713517, failed_polls: 151945, warps_launched: 3000, lanes_retired: 96000, launches: 1, stale_reads: 0, drained_stores: 0, l1_hits: 0, l1_misses: 0, l2_misses: 0, sector_evictions: 0 }",
    ];

    let fixtures = [
        (paper_example(), DeviceConfig::toy(), &expected_paper),
        (
            gen::random_k(3000, 3, 3000, 42),
            DeviceConfig::pascal_like().scaled_down(4),
            &expected_randomk,
        ),
    ];
    for (l, cfg, expected) in &fixtures {
        let x_true: Vec<f64> = (0..l.n()).map(|i| (i % 17) as f64 - 8.0).collect();
        let b = linalg::rhs_for_solution(l, &x_true);
        for ((name, solve, algo), want) in kernels.iter().zip(expected.iter()) {
            let mut dev = GpuDevice::new(cfg.clone());
            let out = solve(&mut dev, l, &b).unwrap();
            let cold = solve_simulated(cfg, l, &b, *algo).unwrap();
            for (path, x, stats) in [
                ("kernel wrapper", &out.x, &out.stats),
                ("solve_simulated", &cold.x, &cold.stats),
            ] {
                linalg::assert_solutions_close(x, &x_true, 1e-9);
                assert_eq!(
                    format!("{stats:?}"),
                    *want,
                    "{name} LaunchStats changed via {path} (n={})",
                    l.n()
                );
            }
        }
    }
}

/// The cold entry points are a fresh `SolverSession`'s first solve. This
/// pins them to the kernels' own cold wrappers on fresh devices for the
/// algorithms `launch_stats_bit_exact` does not cover: Hybrid, Scheduled,
/// NaiveThread (on the paper example) and the batched trio
/// (`solve_multi_simulated` against `*_multi::solve_multi`). Under the
/// configurations of every documented number, solution bits and
/// `LaunchStats` (or the error text) must be identical. Under the relaxed,
/// racecheck and cache models, buffer ids feed the drain skew and the cache
/// set hash, and the session allocates its analysis buffers before `b` and
/// `x`; there only the solution bits must agree.
#[test]
fn cold_entry_points_match_the_kernel_wrappers() {
    use capellini_sptrsv::core::kernels::{
        cusparse_like_multi, hybrid, naive, scheduled, syncfree_multi, writing_first_multi,
        SimSolve,
    };
    use capellini_sptrsv::sparse::gen;

    type Solve = fn(&mut GpuDevice, &LowerTriangularCsr, &[f64]) -> Result<SimSolve, SimtError>;
    type SolveMulti =
        fn(&mut GpuDevice, &LowerTriangularCsr, &[f64], usize) -> Result<SimSolve, SimtError>;
    const NRHS: usize = 3;

    let pascal = DeviceConfig::pascal_like().scaled_down(4);
    let configs = [
        (
            "pascal-fastforward",
            true,
            pascal.clone().with_spin_model(SpinModel::FastForward),
        ),
        (
            "pascal-replay",
            true,
            pascal.clone().with_spin_model(SpinModel::Replay),
        ),
        ("toy", true, toy()),
        (
            "relaxed",
            false,
            pascal
                .clone()
                .with_memory_model(MemoryModel::relaxed(2_000)),
        ),
        (
            "racecheck",
            false,
            pascal
                .clone()
                .with_memory_model(MemoryModel::racecheck(2_000)),
        ),
        (
            "cache",
            false,
            pascal.clone().with_cache(CacheConfig::small()),
        ),
    ];
    let matrices = [
        ("paper", paper_example()),
        ("randomk", gen::random_k(300, 3, 300, 42)),
        ("chain", gen::chain(128, 1, 7)),
        ("banded", gen::banded(200, 5, 0.6, 7)),
        ("powerlaw", gen::powerlaw(200, 3.0, 61)),
    ];
    let singles: [(Algorithm, Solve); 3] = [
        (Algorithm::Hybrid, hybrid::solve),
        (Algorithm::Scheduled, scheduled::solve),
        (Algorithm::NaiveThread, naive::solve),
    ];
    let multis: [(Algorithm, SolveMulti); 3] = [
        (Algorithm::SyncFree, syncfree_multi::solve_multi),
        (Algorithm::CusparseLike, cusparse_like_multi::solve_multi),
        (
            Algorithm::CapelliniWritingFirst,
            writing_first_multi::solve_multi,
        ),
    ];

    let compare = |what: String,
                   exact: bool,
                   kernel: Result<(Vec<f64>, LaunchStats), SimtError>,
                   cold: Result<(Vec<f64>, LaunchStats), SimtError>| {
        match (kernel, cold) {
            (Ok((kx, ks)), Ok((cx, cs))) => {
                let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&kx), bits(&cx), "{what}: solution bits differ");
                if exact {
                    assert_eq!(format!("{ks:?}"), format!("{cs:?}"), "{what}: stats differ");
                }
            }
            (Err(ke), Err(ce)) => {
                if exact {
                    assert_eq!(ke.to_string(), ce.to_string(), "{what}: errors differ");
                }
            }
            (k, c) => panic!("{what}: outcome differs: kernel={k:?} cold={c:?}"),
        }
    };

    for (cname, exact, cfg) in &configs {
        for (mname, l) in &matrices {
            let n = l.n();
            let x_true: Vec<f64> = (0..n).map(|i| (i % 17) as f64 - 8.0).collect();
            let b = linalg::rhs_for_solution(l, &x_true);
            for (algo, solve) in &singles {
                if *algo == Algorithm::NaiveThread && *mname != "paper" {
                    continue;
                }
                let kernel = solve(&mut GpuDevice::new(cfg.clone()), l, &b).map(|o| (o.x, o.stats));
                let cold = solve_simulated(cfg, l, &b, *algo).map(|r| (r.x, r.stats));
                compare(
                    format!("{cname}/{mname}/{}", algo.label()),
                    *exact,
                    kernel,
                    cold,
                );
            }
            let bs: Vec<f64> = (0..n * NRHS)
                .map(|k| b[k / NRHS] * (k % NRHS + 1) as f64)
                .collect();
            for (algo, solve_multi) in &multis {
                let kernel = solve_multi(&mut GpuDevice::new(cfg.clone()), l, &bs, NRHS)
                    .map(|o| (o.x, o.stats));
                let cold = solve_multi_simulated(cfg, l, &bs, NRHS, *algo).map(|r| (r.x, r.stats));
                compare(
                    format!("{cname}/{mname}/{} x{NRHS}", algo.label()),
                    *exact,
                    kernel,
                    cold,
                );
            }
        }
    }
}

#[test]
fn upper_triangular_golden() {
    // Backward substitution rides the same kernels through index reversal
    // (`upper.rs`); pin its schedule on the transposed paper example so the
    // reversal path cannot drift independently of the lower solves.
    use capellini_sptrsv::core::Algorithm;
    use capellini_sptrsv::sparse::UpperTriangularCsr;

    let u = UpperTriangularCsr::transpose_of(&paper_example());
    let x_true: Vec<f64> = (0..8).map(|i| i as f64 - 3.5).collect();
    let b = linalg::spmv(u.csr(), &x_true);

    let expected = [
        (Algorithm::CapelliniWritingFirst, "LaunchStats { cycles: 92, warp_instructions: 129, thread_instructions: 214, flops: 34, dram_read_bytes: 480, dram_write_bytes: 96, dram_transactions: 18, l2_hits: 68, shared_ops: 0, atomic_ops: 0, fences: 6, issue_ticks: 129, stall_ticks: 24, failed_polls: 19, warps_launched: 3, lanes_retired: 9, launches: 1, stale_reads: 0, drained_stores: 0, l1_hits: 0, l1_misses: 0, l2_misses: 0, sector_evictions: 0 }"),
        (Algorithm::SyncFree, "LaunchStats { cycles: 109, warp_instructions: 186, thread_instructions: 399, flops: 50, dram_read_bytes: 448, dram_write_bytes: 96, dram_transactions: 17, l2_hits: 57, shared_ops: 64, atomic_ops: 0, fences: 8, issue_ticks: 186, stall_ticks: 0, failed_polls: 0, warps_launched: 8, lanes_retired: 24, launches: 1, stale_reads: 0, drained_stores: 0, l1_hits: 0, l1_misses: 0, l2_misses: 0, sector_evictions: 0 }"),
        (Algorithm::LevelSet, "LaunchStats { cycles: 116, warp_instructions: 56, thread_instructions: 104, flops: 34, dram_read_bytes: 448, dram_write_bytes: 64, dram_transactions: 16, l2_hits: 34, shared_ops: 0, atomic_ops: 0, fences: 0, issue_ticks: 56, stall_ticks: 52, failed_polls: 0, warps_launched: 4, lanes_retired: 12, launches: 4, stale_reads: 0, drained_stores: 0, l1_hits: 0, l1_misses: 0, l2_misses: 0, sector_evictions: 0 }"),
    ];
    for (algo, want) in expected {
        let rep = solve_upper_simulated(&toy(), &u, &b, algo).unwrap();
        linalg::assert_solutions_close(&rep.x, &x_true, 1e-12);
        assert_eq!(
            format!("{:?}", rep.stats),
            want,
            "{} upper-solve LaunchStats changed",
            algo.label()
        );
    }
}

/// 64-bit FNV-1a: a stable, dependency-free digest for pinning bulky
/// outputs (solution bits, profiles, trace renders) on one fixture line.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn x_hash(x: &[f64]) -> u64 {
    fnv1a(x.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// Compares `actual` with the committed fixture `name` line by line,
/// failing on the first line that differs. The regenerated text is written
/// to `CARGO_TARGET_TMPDIR/<name>.actual.txt` for diffing.
fn assert_fixture(name: &str, actual: &str, want: &str) {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.actual.txt"));
    std::fs::write(&path, actual).unwrap();
    for (i, (a, w)) in actual.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            a,
            w,
            "{name} drifted at fixture line {} (actual text: {})",
            i + 1,
            path.display()
        );
    }
    assert_eq!(
        actual.lines().count(),
        want.lines().count(),
        "{name} line count differs (actual text: {})",
        path.display()
    );
}

/// Every engine-visible output, in absolute terms, under every engine
/// model: `LaunchStats`, solution bits and the error text (warp snapshots
/// included), plus profile and trace digests and sharded per-device
/// results. Other suites compare models with each other, so a change that
/// moved both sides alike would pass them; this one fails on the first
/// line that differs from `fixtures/engine_golden.txt`. Host work is
/// pinned apart from it, on the same keys: each single-device cell's last
/// launch's `EngineCounters` are one line of
/// `fixtures/engine_counters.txt`, so a change that moves only host work
/// changes only that fixture.
#[test]
fn engine_outputs_match_the_golden_fixture() {
    use capellini_sptrsv::core::kernels::writing_first::FenceMode;
    use capellini_sptrsv::core::kernels::{
        cusparse_like, cusparse_like_multi, hybrid, naive, scheduled, syncfree_multi,
        writing_first_multi, SimSolve,
    };
    use capellini_sptrsv::core::shard::{solve_sharded, ShardConfig};
    use capellini_sptrsv::simt::{StoreScope, Trace};
    use capellini_sptrsv::sparse::gen;
    use std::fmt::Write as _;

    type Solve = fn(&mut GpuDevice, &LowerTriangularCsr, &[f64]) -> Result<SimSolve, SimtError>;
    type SolveMulti =
        fn(&mut GpuDevice, &LowerTriangularCsr, &[f64], usize) -> Result<SimSolve, SimtError>;
    type SolveTraced =
        fn(&mut GpuDevice, &LowerTriangularCsr, &[f64], &mut Trace) -> Result<SimSolve, SimtError>;
    const NRHS: usize = 3;

    let pascal = DeviceConfig::pascal_like().scaled_down(4);
    let mut budget = pascal.clone();
    budget.max_cycles = 20_000;
    budget.deadlock_window = 3_000;
    let configs = [
        (
            "fastforward",
            pascal.clone().with_spin_model(SpinModel::FastForward),
        ),
        ("replay", pascal.clone().with_spin_model(SpinModel::Replay)),
        (
            "relaxed",
            pascal
                .clone()
                .with_memory_model(MemoryModel::relaxed(2_000)),
        ),
        (
            "relaxed-sm",
            pascal.clone().with_memory_model(MemoryModel::Relaxed {
                drain_ticks: 2_000,
                scope: StoreScope::Sm,
                racecheck: false,
            }),
        ),
        (
            "racecheck",
            pascal
                .clone()
                .with_memory_model(MemoryModel::racecheck(2_000)),
        ),
        ("cache", pascal.clone().with_cache(CacheConfig::small())),
        (
            "profile",
            pascal.clone().with_profile(ProfileMode::sampled(64)),
        ),
        // Tight hang bounds, so timeouts and windowed deadlocks are pinned
        // under both spin models too.
        ("budget", budget.clone()),
        ("budget-replay", budget.with_spin_model(SpinModel::Replay)),
    ];
    let matrices = [
        ("paper", paper_example()),
        ("randomk", gen::random_k(300, 3, 300, 42)),
        ("chain", gen::chain(128, 1, 7)),
    ];
    let singles: [(&str, Solve); 13] = [
        ("levelset", levelset::solve),
        ("syncfree", syncfree::solve),
        ("syncfree_csc", syncfree_csc::solve),
        ("cusparse_like", cusparse_like::solve),
        ("two_phase", two_phase::solve),
        ("writing_first", writing_first::solve),
        (
            "writing_first_last_check",
            writing_first::solve_with_explicit_last_check,
        ),
        ("writing_first_nofence", |d, l, b| {
            writing_first::solve_with_fence_mode(d, l, b, FenceMode::NoFence)
        }),
        ("writing_first_flagfirst", |d, l, b| {
            writing_first::solve_with_fence_mode(d, l, b, FenceMode::FlagFirst)
        }),
        ("naive", naive::solve),
        ("hybrid", hybrid::solve),
        ("hybrid_threshold", |d, l, b| {
            hybrid::solve_with_threshold(d, l, b, 0.5)
        }),
        ("scheduled", scheduled::solve),
    ];
    let multis: [(&str, SolveMulti); 3] = [
        ("syncfree_multi", syncfree_multi::solve_multi),
        ("cusparse_like_multi", cusparse_like_multi::solve_multi),
        ("writing_first_multi", writing_first_multi::solve_multi),
    ];
    let traced: [(&str, SolveTraced); 2] = [
        ("writing_first_traced", writing_first::solve_traced),
        ("syncfree_traced", syncfree::solve_traced),
    ];

    // One line per cell: outcome, a digest of any profiles the launch
    // recorded, then `extra`; and the counters of the device's last launch
    // on the counters fixture.
    let mut counters = String::new();
    let mut cell = |out: &mut String,
                    key: String,
                    dev: &mut GpuDevice,
                    res: Result<SimSolve, SimtError>,
                    extra: String| {
        writeln!(counters, "{key} {:?}", dev.last_launch_counters()).unwrap();
        match res {
            Ok(s) => write!(out, "{key} ok {:?} x={:016x}", s.stats, x_hash(&s.x)),
            Err(e) => write!(out, "{key} err {:?}", e.to_string()),
        }
        .unwrap();
        let profiles = dev.take_profiles();
        if !profiles.is_empty() {
            let text = format!("{profiles:?}");
            write!(out, " profile={:016x}", fnv1a(text.bytes())).unwrap();
        }
        writeln!(out, "{extra}").unwrap();
    };

    let mut actual = String::new();
    for (mname, l) in &matrices {
        let n = l.n();
        let x_true: Vec<f64> = (0..n).map(|i| (i % 17) as f64 - 8.0).collect();
        let b = linalg::rhs_for_solution(l, &x_true);
        let bs: Vec<f64> = (0..n * NRHS)
            .map(|k| b[k / NRHS] * (k % NRHS + 1) as f64)
            .collect();
        for (cname, cfg) in &configs {
            for (wname, solve) in &singles {
                let mut dev = GpuDevice::new(cfg.clone());
                let res = solve(&mut dev, l, &b);
                let key = format!("{cname}/{mname}/{wname}");
                cell(&mut actual, key, &mut dev, res, String::new());
            }
            for (wname, solve_multi) in &multis {
                let mut dev = GpuDevice::new(cfg.clone());
                let res = solve_multi(&mut dev, l, &bs, NRHS);
                let key = format!("{cname}/{mname}/{wname}x{NRHS}");
                cell(&mut actual, key, &mut dev, res, String::new());
            }
            for algo in Algorithm::all_live() {
                let key = format!("{cname}/{mname}/sharded-pcie2/{}", algo.label());
                match solve_sharded(cfg, l, &b, algo, &ShardConfig::pcie(2)) {
                    Ok(r) => writeln!(
                        actual,
                        "{key} ok x={:016x} makespan={} link_messages={} per_device={:?}",
                        x_hash(&r.x),
                        r.makespan_cycles,
                        r.link_messages,
                        r.per_device
                    ),
                    Err(e) => writeln!(actual, "{key} err {:?}", e.to_string()),
                }
                .unwrap();
            }
        }
        for (wname, solve_traced) in &traced {
            let mut dev = GpuDevice::new(toy());
            let mut tr = Trace::new();
            let res = solve_traced(&mut dev, l, &b, &mut tr);
            let extra = format!(" trace={:016x}", fnv1a(tr.render().bytes()));
            cell(
                &mut actual,
                format!("toy/{mname}/{wname}"),
                &mut dev,
                res,
                extra,
            );
        }
    }

    assert_fixture(
        "engine_golden",
        &actual,
        include_str!("fixtures/engine_golden.txt"),
    );
    assert_fixture(
        "engine_counters",
        &counters,
        include_str!("fixtures/engine_counters.txt"),
    );
}
