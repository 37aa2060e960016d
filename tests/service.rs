//! Service-layer differential suite: everything the multi-tenant serving
//! layer returns must be **bit-identical** to what a fresh serial
//! [`SolverSession`] would have produced for the same (matrix, rhs) — no
//! matter how requests raced, which batches they coalesced into, or whether
//! their session was evicted and re-admitted in between.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

use capellini_sptrsv::core::{
    Algorithm, MatrixHandle, ServiceConfig, ServiceError, SolverService, SolverSession,
};
use capellini_sptrsv::prelude::*;
use capellini_sptrsv::sparse::gen;

fn device() -> DeviceConfig {
    DeviceConfig::pascal_like().scaled_down(4)
}

/// A deterministic rhs unique to (matrix index, request index).
fn rhs(n: usize, matrix: usize, req: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * (2 * matrix + 3) + 7 * req + 1) % 29) as f64 - 14.0)
        .collect()
}

/// The mixed matrix population: three different shapes, one of which
/// recommends Writing-First and one SyncFree, so the service exercises both
/// dedicated multi-RHS kernels.
fn population() -> Vec<MatrixHandle> {
    vec![
        MatrixHandle::new(gen::ultra_sparse_wide(600, 6, 1, 71)),
        MatrixHandle::new(gen::dense_band(220, 12, 72)),
        MatrixHandle::new(gen::powerlaw(400, 2.6, 73)),
    ]
}

/// Reference bits: a fresh serial session per matrix, solving each request's
/// rhs one at a time.
fn reference_solutions(
    mats: &[MatrixHandle],
    requests: &[(usize, usize)],
) -> HashMap<(usize, usize), Vec<f64>> {
    let mut out = HashMap::new();
    for (mi, handle) in mats.iter().enumerate() {
        let mut session = SolverSession::new(&device(), handle.matrix().clone());
        for &(m, r) in requests.iter().filter(|&&(m, _)| m == mi) {
            let b = rhs(handle.matrix().n(), m, r);
            out.insert((m, r), session.solve(&b).expect("reference solve").x);
        }
    }
    out
}

/// The tentpole differential: N concurrent tenants hammering a mixed matrix
/// population through one coalescing service. Every response must carry
/// exactly the bits of the fresh serial session solves, and the shared-hot-
/// matrix contention must actually coalesce.
#[test]
fn concurrent_tenants_are_bit_identical_to_serial_sessions() {
    let mats = population();
    // 6 tenants x 8 requests; matrix skewed hot towards index 0 so batches
    // form on it under contention.
    let mut requests: Vec<(usize, usize)> = Vec::new();
    for t in 0..6usize {
        for k in 0..8usize {
            let m = if (t + k) % 3 == 0 {
                (t + k) % mats.len()
            } else {
                0
            };
            requests.push((m, t * 8 + k));
        }
    }
    let expected = reference_solutions(&mats, &requests);

    let service = SolverService::new(
        ServiceConfig::new(device())
            .with_coalesce_window(Duration::from_millis(2))
            .with_max_batch(8),
    );
    let mismatches = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for t in 0..6usize {
            let service = &service;
            let mats = &mats;
            let expected = &expected;
            let mismatches = &mismatches;
            let my_requests: Vec<(usize, usize)> = requests[t * 8..(t + 1) * 8].to_vec();
            scope.spawn(move || {
                let tenant = format!("tenant-{t}");
                for (m, r) in my_requests {
                    let b = rhs(mats[m].matrix().n(), m, r);
                    let resp = service
                        .solve(&tenant, &mats[m], &b)
                        .expect("no rejects at this depth bound");
                    let want = &expected[&(m, r)];
                    let ok = resp.x.len() == want.len()
                        && resp
                            .x
                            .iter()
                            .zip(want)
                            .all(|(a, e)| a.to_bits() == e.to_bits());
                    if !ok {
                        mismatches.lock().unwrap().push((m, r, resp.batch_size));
                    }
                }
            });
        }
    });
    assert!(
        mismatches.lock().unwrap().is_empty(),
        "service responses diverged from serial sessions: {:?}",
        mismatches.lock().unwrap()
    );
    let m = service.metrics();
    assert_eq!(m.solves, 48);
    assert_eq!(m.rejects, 0);
    assert!(m.launches <= m.solves);
    assert!(
        m.largest_batch >= 2,
        "hot-matrix contention should coalesce at least once (largest batch {})",
        m.largest_batch
    );
    // Per-tenant accounting adds up to the global view.
    let per_tenant: u64 = (0..6)
        .map(|t| {
            service
                .tenant_metrics(&format!("tenant-{t}"))
                .expect("tenant seen")
                .solves
        })
        .sum();
    assert_eq!(per_tenant, 48);
}

/// Eviction and re-admission must be invisible to correctness: force a
/// 1-shard, 1-session registry so every matrix switch evicts, then replay
/// the whole population twice and compare bits.
#[test]
fn eviction_and_readmission_stay_bit_identical() {
    let mats = population();
    let requests: Vec<(usize, usize)> = (0..2)
        .flat_map(|round| (0..mats.len()).map(move |m| (m, round * 10 + m)))
        .collect();
    let expected = reference_solutions(&mats, &requests);

    let service = SolverService::new(
        ServiceConfig::new(device())
            .with_shards(1)
            .with_sessions_per_shard(1),
    );
    for &(m, r) in &requests {
        let b = rhs(mats[m].matrix().n(), m, r);
        let resp = service.solve("cycler", &mats[m], &b).expect("served");
        let want = &expected[&(m, r)];
        for (i, (a, e)) in resp.x.iter().zip(want).enumerate() {
            assert_eq!(
                a.to_bits(),
                e.to_bits(),
                "matrix {m} request {r} row {i} diverged after eviction churn"
            );
        }
    }
    let metrics = service.metrics();
    assert!(
        metrics.evictions >= mats.len() as u64,
        "a capacity-1 registry cycling {} matrices twice must evict repeatedly (saw {})",
        mats.len(),
        metrics.evictions
    );
    assert!(metrics.sessions_created > mats.len() as u64);
    assert_eq!(metrics.resident_sessions, 1);
}

/// Eviction while requests are queued: four tenants cycle the population
/// concurrently through a 1-shard, 1-session registry, so each admission
/// evicts a matrix other callers may be waiting on. Every response must
/// still carry the serial bits.
#[test]
fn concurrent_eviction_churn_stays_bit_identical() {
    let mats = population();
    let requests: Vec<(usize, usize)> = (0..4usize)
        .flat_map(|t| (0..12usize).map(move |k| ((t + k) % 3, t * 12 + k)))
        .collect();
    let expected = reference_solutions(&mats, &requests);

    let service = SolverService::new(
        ServiceConfig::new(device())
            .with_shards(1)
            .with_sessions_per_shard(1)
            .with_coalesce_window(Duration::from_millis(1))
            .with_max_batch(4),
    );
    let mismatches = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let service = &service;
            let mats = &mats;
            let expected = &expected;
            let mismatches = &mismatches;
            let my_requests = &requests[t * 12..(t + 1) * 12];
            scope.spawn(move || {
                let tenant = format!("churn-{t}");
                for &(m, r) in my_requests {
                    let b = rhs(mats[m].matrix().n(), m, r);
                    let resp = service.solve(&tenant, &mats[m], &b).expect("served");
                    let want = &expected[&(m, r)];
                    let ok = resp.x.len() == want.len()
                        && resp
                            .x
                            .iter()
                            .zip(want)
                            .all(|(a, e)| a.to_bits() == e.to_bits());
                    if !ok {
                        mismatches.lock().unwrap().push((m, r, resp.batch_size));
                    }
                }
            });
        }
    });
    assert!(
        mismatches.lock().unwrap().is_empty(),
        "responses diverged from serial sessions under eviction churn: {:?}",
        mismatches.lock().unwrap()
    );
    let m = service.metrics();
    assert_eq!(m.solves, 48);
    assert!(m.evictions >= 1, "a capacity-1 registry must evict");
    assert!(m.resident_sessions <= 1);
}

/// Admission control: a depth-bounded queue under a long coalesce window
/// rejects the overflow with the structured error, serves the rest, and
/// accounts both per tenant.
#[test]
fn overload_is_a_structured_reject() {
    let l = gen::powerlaw(200, 2.6, 74);
    let handle = MatrixHandle::new(l.clone());
    let service = SolverService::new(
        ServiceConfig::new(device())
            .with_coalesce_window(Duration::from_millis(150))
            .with_max_batch(2)
            .with_max_queue_depth(1),
    );
    let barrier = std::sync::Barrier::new(4);
    let outcomes = Mutex::new((0u64, 0u64)); // (served, overloaded)
    std::thread::scope(|scope| {
        for t in 0..4 {
            let service = &service;
            let handle = &handle;
            let barrier = &barrier;
            let outcomes = &outcomes;
            scope.spawn(move || {
                let b = rhs(handle.matrix().n(), 0, t);
                barrier.wait();
                match service.solve(&format!("burst-{t}"), handle, &b) {
                    Ok(resp) => {
                        assert!(!resp.x.is_empty());
                        outcomes.lock().unwrap().0 += 1;
                    }
                    Err(ServiceError::Overloaded { fingerprint, depth }) => {
                        assert_eq!(fingerprint, handle.fingerprint());
                        assert_eq!(depth, 1);
                        outcomes.lock().unwrap().1 += 1;
                    }
                    Err(other) => panic!("unexpected error: {other}"),
                }
            });
        }
    });
    let (served, overloaded) = *outcomes.lock().unwrap();
    assert_eq!(served + overloaded, 4);
    assert!(
        overloaded >= 1,
        "4 simultaneous arrivals against depth bound 1 must reject at least one"
    );
    let m = service.metrics();
    assert_eq!(m.rejects, overloaded);
    assert_eq!(m.solves, served);
}

/// The coalesce window actually merges near-simultaneous arrivals: a burst
/// on one matrix through a generous window must produce at least one launch
/// serving multiple right-hand sides, with (still) bit-exact answers.
#[test]
fn bursts_coalesce_into_multi_rhs_launches() {
    let l = gen::ultra_sparse_wide(500, 6, 1, 75);
    let handle = MatrixHandle::new(l.clone());
    let requests: Vec<(usize, usize)> = (0..12).map(|r| (0usize, r)).collect();
    let expected = reference_solutions(std::slice::from_ref(&handle), &requests);

    let service = SolverService::new(
        ServiceConfig::new(device())
            .with_coalesce_window(Duration::from_millis(40))
            .with_max_batch(8),
    );
    // Warm the session first so the burst below races only the queue, not
    // the one-time analysis.
    let warm = rhs(l.n(), 0, 999);
    service.solve("warmer", &handle, &warm).expect("warm-up");

    let mismatches = Mutex::new(0usize);
    std::thread::scope(|scope| {
        for &(m, r) in &requests {
            let service = &service;
            let handle = &handle;
            let expected = &expected;
            let mismatches = &mismatches;
            scope.spawn(move || {
                let b = rhs(handle.matrix().n(), m, r);
                let resp = service.solve("burst", handle, &b).expect("served");
                let want = &expected[&(m, r)];
                if !resp
                    .x
                    .iter()
                    .zip(want)
                    .all(|(a, e)| a.to_bits() == e.to_bits())
                {
                    *mismatches.lock().unwrap() += 1;
                }
            });
        }
    });
    assert_eq!(*mismatches.lock().unwrap(), 0);
    let m = service.metrics();
    assert_eq!(m.solves, 13);
    assert!(
        m.largest_batch > 1,
        "a 12-request burst through a 40 ms window must coalesce (largest batch {})",
        m.largest_batch
    );
    assert!(m.mean_batch() > 1.0 || m.largest_batch > 1);
}

/// The algorithm override pins every session to one kernel; responses stay
/// bit-identical to serial sessions of that same algorithm.
#[test]
fn forced_algorithm_round_trips_bit_exact() {
    let l = gen::dense_band(180, 10, 76);
    let handle = MatrixHandle::new(l.clone());
    for algo in [Algorithm::CusparseLike, Algorithm::CapelliniWritingFirst] {
        let service = SolverService::new(ServiceConfig::new(device()).with_algorithm(algo));
        let b = rhs(l.n(), 0, 3);
        let resp = service.solve("pinned", &handle, &b).expect("served");
        assert_eq!(resp.algorithm, algo);
        let mut reference = SolverSession::with_algorithm(&device(), l.clone(), algo);
        let expect = reference.solve(&b).expect("reference");
        for (a, e) in resp.x.iter().zip(&expect.x) {
            assert_eq!(a.to_bits(), e.to_bits(), "{}", algo.label());
        }
    }
}
