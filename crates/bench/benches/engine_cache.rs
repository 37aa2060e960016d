//! Cache-model bench: host ns per solve with the finite L1/L2 sector cache
//! off (the default, `cache: None`) vs armed (`DeviceConfig::with_cache`).
//! The overhead claim lives in the wall-clock ratio; the *correctness*
//! claims are enforced during calibration before any timing happens: the
//! off run must count zero cache events, and the armed run must compute a
//! bit-identical solution (the model reshapes timing, never values).
//!
//! `--quick` shrinks the matrix and time budgets to a CI smoke run; the
//! calibration equality checks run at every size.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use capellini_core::{solve_simulated, Algorithm};
use capellini_simt::{CacheConfig, DeviceConfig};
use capellini_sparse::dataset::{wiki_talk_like, Scale};
use capellini_sparse::gen;
use capellini_sparse::LowerTriangularCsr;

fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

fn matrix() -> (&'static str, LowerTriangularCsr) {
    if quick() {
        ("random_k(800)", gen::random_k(800, 3, 800, 2395))
    } else {
        let e = wiki_talk_like(Scale::Small);
        ("wiki_talk_like(small)", e.spec.build(e.seed))
    }
}

fn bench_engine_cache(c: &mut Criterion) {
    let off = DeviceConfig::pascal_like().scaled_down(4);
    let on = off.clone().with_cache(CacheConfig::small());
    let (warm, meas) = if quick() {
        (Duration::from_millis(100), Duration::from_millis(300))
    } else {
        (Duration::from_millis(500), Duration::from_secs(2))
    };
    let (mname, l) = matrix();
    let b: Vec<f64> = (0..l.n()).map(|i| (i % 13) as f64 - 6.0).collect();

    for algo in [Algorithm::SyncFree, Algorithm::CapelliniWritingFirst] {
        // Calibration 1: the default (off) model counts nothing, and arming
        // it reshapes timing only — the solution bits must not move.
        let off_run = solve_simulated(&off, &l, &b, algo).expect("cache-off solve");
        // (`l2_hits` is shared with the legacy infinite-L2 accounting, so
        // only the probe-only counters must stay zero here.)
        assert_eq!(
            (
                off_run.stats.l1_hits,
                off_run.stats.l1_misses,
                off_run.stats.l2_misses,
                off_run.stats.sector_evictions,
            ),
            (0, 0, 0, 0),
            "{}/{mname}: cache-off config counted cache-probe events",
            algo.label()
        );
        let on_serial = solve_simulated(&on, &l, &b, algo).expect("cache-on solve");
        assert!(
            on_serial.stats.l1_hits + on_serial.stats.l1_misses > 0,
            "{}/{mname}: armed cache model probed nothing",
            algo.label()
        );
        for (i, (ov, bv)) in on_serial.x.iter().zip(&off_run.x).enumerate() {
            assert_eq!(
                ov.to_bits(),
                bv.to_bits(),
                "{}/{mname}: x[{i}] moved when the cache model was armed",
                algo.label()
            );
        }

        println!(
            "[engine_cache] {}/{mname}: solution bits cache-invariant, L1 hit rate {:.1}%",
            algo.label(),
            100.0 * on_serial.stats.l1_hit_rate()
        );

        let mut g = c.benchmark_group("engine_cache");
        g.warm_up_time(warm);
        g.measurement_time(meas);
        for (label, cfg) in [("off", &off), ("on", &on)] {
            g.bench_with_input(
                BenchmarkId::new(
                    format!("{}/{mname}", algo.label()),
                    format!("cache={label}"),
                ),
                &l,
                |bch, l| bch.iter(|| solve_simulated(cfg, l, &b, algo).unwrap()),
            );
        }
        g.finish();
    }
}

criterion_group!(benches, bench_engine_cache);
criterion_main!(benches);
