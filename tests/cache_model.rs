//! Differential suite for the finite L1/L2 sector cache model
//! (`DeviceConfig::with_cache`, DESIGN.md §13). Two contracts:
//!
//! 1. **Off is invisible.** The model defaults to off (`cache: None`); a
//!    default config must count zero cache-probe events, and arming the
//!    model must never move a solution bit on the CSR-family kernels — the
//!    cache reshapes *timing*, the FLOP order per row is fixed by the
//!    kernel. (The CSC scatter kernel's atomic-add order is timing-
//!    dependent, so it promises closeness instead.)
//! 2. **On is deterministic.** With the cache armed, every observable —
//!    stats (hit counters included), solution bits, error text — must be
//!    bit-identical across two runs on fresh devices, under every memory
//!    model × spin model combination.

use capellini_sptrsv::core::kernels::{
    cusparse_like, hybrid, levelset, syncfree, syncfree_csc, two_phase, writing_first,
};
use capellini_sptrsv::prelude::*;
use capellini_sptrsv::simt::{CacheConfig, GpuDevice};
use capellini_sptrsv::sparse::{gen, paper_example};

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
    ]
}

fn matrices() -> Vec<(&'static str, LowerTriangularCsr)> {
    vec![
        ("paper8", paper_example()),
        ("chain256", gen::chain(256, 1, 7)),
        ("randomk", gen::random_k(600, 3, 600, 42)),
        ("banded", gen::banded(400, 5, 0.6, 7)),
    ]
}

fn base_cfg() -> DeviceConfig {
    DeviceConfig::pascal_like().scaled_down(4)
}

fn cached_cfg() -> DeviceConfig {
    base_cfg().with_cache(CacheConfig::small())
}

fn rhs(l: &LowerTriangularCsr) -> Vec<f64> {
    let x_true: Vec<f64> = (0..l.n()).map(|i| (i % 13) as f64 - 6.0).collect();
    linalg::rhs_for_solution(l, &x_true)
}

/// Renders everything observable about one run on a fresh device into a
/// comparable string: stats, solution bits, error text, and heap events.
fn observe(solve: Solve, l: &LowerTriangularCsr, b: &[f64], cfg: &DeviceConfig) -> String {
    let mut dev = GpuDevice::new(cfg.clone());
    let body = match solve(&mut dev, l, b) {
        Ok(o) => {
            let bits: Vec<u64> = o.x.iter().map(|v| v.to_bits()).collect();
            format!("ok stats={:?} xbits={bits:?}", o.stats)
        }
        Err(e) => format!("err={e}"),
    };
    format!("{body} heap_events={}", dev.last_launch_heap_events())
}

// ------------------------------------------------------ contract 1: off

/// A config that never called `with_cache` must count zero cache-probe
/// events on every kernel (`l2_hits` is shared with the legacy infinite-L2
/// accounting and is exempt).
#[test]
fn default_config_counts_no_cache_probes() {
    let cfg = base_cfg();
    for (mname, l) in &matrices() {
        let b = rhs(l);
        for (name, solve) in &kernels() {
            let mut dev = GpuDevice::new(cfg.clone());
            let sol = solve(&mut dev, l, &b).unwrap_or_else(|e| panic!("{name}/{mname}: {e}"));
            assert_eq!(
                (
                    sol.stats.l1_hits,
                    sol.stats.l1_misses,
                    sol.stats.l2_misses,
                    sol.stats.sector_evictions,
                ),
                (0, 0, 0, 0),
                "{name}/{mname}: cache-off run counted cache-probe events"
            );
        }
    }
}

/// Arming the cache changes latencies and counters, never answers: every
/// CSR-family kernel reads its dependencies in a row-fixed order, so the
/// solution bits must match the cache-off run exactly. The CSC kernel
/// scatters partial sums with atomic adds whose *order* is timing-
/// dependent, so there the contract is numerical closeness, not bit
/// equality. Either way the armed model must actually probe.
#[test]
fn arming_the_cache_never_moves_solution_bits() {
    let (off, on) = (base_cfg(), cached_cfg());
    for (mname, l) in &matrices() {
        let b = rhs(l);
        for (name, solve) in &kernels() {
            let mut dev_off = GpuDevice::new(off.clone());
            let mut dev_on = GpuDevice::new(on.clone());
            let sol_off =
                solve(&mut dev_off, l, &b).unwrap_or_else(|e| panic!("{name}/{mname}: {e}"));
            let sol_on =
                solve(&mut dev_on, l, &b).unwrap_or_else(|e| panic!("{name}/{mname}: {e}"));
            if *name == "syncfree_csc" {
                linalg::assert_solutions_close(&sol_on.x, &sol_off.x, 1e-11);
            } else {
                assert_eq!(
                    sol_on.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    sol_off.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{name}/{mname}: arming the cache moved solution bits"
                );
            }
            assert!(
                sol_on.stats.l1_hits + sol_on.stats.l1_misses > 0,
                "{name}/{mname}: armed cache model probed nothing"
            );
        }
    }
}

/// The hit-rate helpers stay inert with the model off and report sane
/// rates with it on.
#[test]
fn hit_rate_helpers_are_sane() {
    let l = gen::random_k(600, 3, 600, 42);
    let b = rhs(&l);
    let mut dev = GpuDevice::new(base_cfg());
    let off = syncfree::solve(&mut dev, &l, &b).unwrap();
    assert_eq!(off.stats.l1_hit_rate(), 0.0);
    let mut dev = GpuDevice::new(cached_cfg());
    let on = syncfree::solve(&mut dev, &l, &b).unwrap();
    let rate = on.stats.l1_hit_rate();
    assert!((0.0..=1.0).contains(&rate), "hit rate {rate} out of range");
    assert!(rate > 0.0, "a CSR walk should hit L1 at least once");
}

// ------------------------------------------------ contract 2: determinism

/// Solves every kernel on every matrix twice, each time on a fresh device
/// under `cfg`, and asserts the two runs' observables are identical: the
/// probe sequence (and hence LRU state and every hit counter) is a pure
/// function of the launch.
fn diff_all(cfg: &DeviceConfig) {
    for (mname, l) in &matrices() {
        let b = rhs(l);
        for (name, solve) in &kernels() {
            let first = observe(*solve, l, &b, cfg);
            assert_eq!(
                observe(*solve, l, &b, cfg),
                first,
                "{name} on {mname} ({:?}, {:?}): two cached runs diverged",
                cfg.memory_model,
                cfg.spin_model
            );
        }
    }
}

// One test per memory model x spin model combination. The `clusters` in the
// names is historical: these once compared runs across engine clusters.

#[test]
fn cached_clusters_bit_exact_sc_replay() {
    diff_all(&cached_cfg().with_spin_model(SpinModel::Replay));
}

#[test]
fn cached_clusters_bit_exact_sc_fastforward() {
    diff_all(&cached_cfg().with_spin_model(SpinModel::FastForward));
}

#[test]
fn cached_clusters_bit_exact_relaxed_replay() {
    diff_all(
        &cached_cfg()
            .with_memory_model(MemoryModel::relaxed(2_000))
            .with_spin_model(SpinModel::Replay),
    );
}

#[test]
fn cached_clusters_bit_exact_relaxed_fastforward() {
    diff_all(
        &cached_cfg()
            .with_memory_model(MemoryModel::relaxed(2_000))
            .with_spin_model(SpinModel::FastForward),
    );
}

#[test]
fn cached_clusters_bit_exact_racecheck() {
    diff_all(
        &cached_cfg()
            .with_memory_model(MemoryModel::racecheck(2_000))
            .with_spin_model(SpinModel::FastForward),
    );
}

/// Two identical solves on fresh devices report identical stats — the
/// probe sequence (and hence LRU state and every hit counter) is a pure
/// function of the launch.
#[test]
fn repeated_launches_report_identical_hit_rates() {
    let l = gen::random_k(600, 3, 600, 42);
    let b = rhs(&l);
    let run = || {
        let mut dev = GpuDevice::new(cached_cfg());
        let sol = syncfree::solve(&mut dev, &l, &b).unwrap();
        format!("{:?}", sol.stats)
    };
    assert_eq!(run(), run(), "two identical cached solves diverged");
}
