//! The `serve-closed` workload: closed-loop clients with zero think time
//! send single right-hand sides to one `SolverService`, drawing matrices
//! wiki-Talk-like 60%, lp1-like 20%, nlpkkt160-like 20%. Three matrices
//! compete for two resident sessions, so some requests re-admit a matrix.

use std::time::{Duration, Instant};

use capellini_core::{recommend, MatrixHandle, ServiceConfig, ServiceMetrics, SolverService};
use capellini_simt::DeviceConfig;
use capellini_sparse::dataset::DatasetEntry;
use capellini_sparse::MatrixStats;

use crate::gate;
use crate::report::{median, peak_rss_mb, percentile, Report, Rng};
use crate::sessions::{self, Deck, Decomposed, Matrix, RHS_POOL, SHARD_METRICS};
use crate::spans::{layer_times, Recorder};
use crate::Size;

/// Closed-loop client threads.
pub const CLIENTS: usize = 2;
/// Length of one closed-loop round of an untraced run; a fresh service is
/// set up before each round.
const ROUND_SECS: f64 = 3.0;
/// Each client draws matrices (indices in `entries` order) in blocks of
/// five, shuffled by the seed: exactly 60/20/20 within every block, so the
/// mix, and with it the re-admission rate, varies less between seeds than
/// with independent draws.
const MIX_BLOCK: [usize; 5] = [0, 0, 0, 1, 2];

pub const SERVICE_METRICS: [(&str, &str); 8] = [
    ("service.queue_ms_p50", "ms"),
    ("service.queue_ms_p90", "ms"),
    ("service.after_queue_ms_p50", "ms"),
    ("service.mean_batch", "rhs"),
    ("service.launches", "count"),
    ("service.sessions_created", "count"),
    ("service.evictions", "count"),
    ("service.rejects", "count"),
];

/// Per-layer metrics of work that runs on the service's worker threads,
/// which no public call exposes.
const INSIDE_WORKERS: [(&str, &str); 14] = [
    ("buffers.upload_rhs_ms", "ms"),
    ("buffers.readback_ms", "ms"),
    ("buffers.bytes", "bytes"),
    ("engine.launch_ms", "ms"),
    ("engine.heap_events", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.winst_per_s", "1/s"),
    ("engine.grid_reuses", "count"),
    ("sim.cycles_cold", "cycles"),
    ("sim.warp_instructions", "count"),
    ("sim.dram_bytes", "bytes"),
    ("sim.failed_polls", "count"),
    ("sim.stall_ticks", "count"),
    ("session.solve_self_ms", "ms"),
];

/// wiki-Talk-like, lp1-like and nlpkkt160-like.
fn entries(size: Size) -> Vec<DatasetEntry> {
    let shallow = sessions::entries(Deck::Shallow, size);
    [1, 3, 0].iter().map(|&i| shallow[i].clone()).collect()
}

fn service_config() -> ServiceConfig {
    ServiceConfig::new(DeviceConfig::pascal_like())
        .with_shards(1)
        .with_sessions_per_shard(2)
}

/// One completed request.
struct Served {
    rtt_ms: f64,
    queue_ms: f64,
}

struct ClientRun {
    served: Vec<Served>,
    outcomes: Vec<Result<(), String>>,
    rec: Recorder,
}

fn client(
    svc: &SolverService,
    mats: &[Matrix],
    handles: &[MatrixHandle],
    c: usize,
    mut rng: Rng,
    deadline: Instant,
    rec: Recorder,
) -> ClientRun {
    let tenant = format!("client-{c}");
    let mut run = ClientRun {
        served: Vec::new(),
        outcomes: Vec::new(),
        rec,
    };
    let mut block = MIX_BLOCK;
    loop {
        rng.shuffle(&mut block);
        for &m in &block {
            let (b, want) = &mats[m].inputs[rng.below(RHS_POOL)];
            run.rec.next_request();
            let span = run.rec.open("service.solve");
            let t0 = Instant::now();
            let result = svc.solve(&tenant, &handles[m], b);
            let rtt_ms = t0.elapsed().as_secs_f64() * 1e3;
            run.rec.close(span);
            let outcome = match result {
                Ok(r) => {
                    run.served.push(Served {
                        rtt_ms,
                        queue_ms: r.queue_ms,
                    });
                    gate::check(r.algorithm, &r.x, want)
                }
                Err(e) => Err(e.to_string()),
            };
            run.outcomes
                .push(outcome.map_err(|e| format!("served {}: {e}", mats[m].name)));
            if Instant::now() >= deadline {
                return run;
            }
        }
    }
}

/// A closed-loop phase: every client runs until `seconds` have passed and
/// its last request returns.
struct Phase {
    served: Vec<Served>,
    secs: f64,
    delta: ServiceMetrics,
}

impl Phase {
    fn solves_per_s(&self) -> f64 {
        self.served.len() as f64 / self.secs
    }

    fn latency_ms(&self, p: f64) -> f64 {
        let rtt: Vec<f64> = self.served.iter().map(|s| s.rtt_ms).collect();
        percentile(&rtt, p)
    }
}

/// Runs the clients for `seconds`; each client's request stream derives from
/// `streams`.
fn closed_loop(
    svc: &SolverService,
    mats: &[Matrix],
    handles: &[MatrixHandle],
    streams: &Rng,
    seconds: f64,
    rec: &mut Recorder,
    report: &mut Report,
) -> Phase {
    let traced = rec.enabled();
    let before = svc.metrics();
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(seconds);
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let crec = Recorder::new(traced, origin).with_request_base((c as u64 + 1) << 40);
                let rng = Rng::new(streams.clone().next_u64(), c as u64);
                scope.spawn(move || client(svc, mats, handles, c, rng, deadline, crec))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let secs = origin.elapsed().as_secs_f64();
    let after = svc.metrics();
    let mut served = Vec::new();
    for run in runs {
        served.extend(run.served);
        for o in run.outcomes {
            report.record(o);
        }
        rec.absorb(run.rec);
    }
    Phase {
        served,
        secs,
        delta: ServiceMetrics {
            solves: after.solves - before.solves,
            launches: after.launches - before.launches,
            rejects: after.rejects - before.rejects,
            solve_errors: after.solve_errors - before.solve_errors,
            sessions_created: after.sessions_created - before.sessions_created,
            evictions: after.evictions - before.evictions,
            ..after
        },
    }
}

/// `SolverService::new` plus the first request per matrix; returns the
/// service and the seconds of each step: the first step includes
/// `SolverService::new`.
fn setup(
    mats: &[Matrix],
    handles: &[MatrixHandle],
    report: &mut Report,
) -> (SolverService, Vec<f64>) {
    let mut t = Instant::now();
    let svc = SolverService::new(service_config());
    let mut secs = Vec::with_capacity(handles.len());
    let results: Vec<_> = handles
        .iter()
        .zip(mats)
        .map(|(h, m)| {
            let r = svc.solve("setup", h, &m.inputs[0].0);
            secs.push(t.elapsed().as_secs_f64());
            t = Instant::now();
            r
        })
        .collect();
    for (r, m) in results.into_iter().zip(mats) {
        let checked = r
            .map_err(|e| e.to_string())
            .and_then(|r| gate::check(r.algorithm, &r.x, &m.inputs[0].1));
        report.record(checked.map_err(|e| format!("first request on {}: {e}", m.name)));
    }
    (svc, secs)
}

/// Simulated cycles of one warm request per matrix, on a fresh service with
/// one request in flight at a time, so no batching or eviction history can
/// change the device state the request sees.
fn probe_cycles(mats: &[Matrix], handles: &[MatrixHandle], report: &mut Report) -> f64 {
    let svc = SolverService::new(service_config());
    let clock_ghz = svc.config().device.clock_ghz;
    let mut cycles = 0.0;
    for (h, m) in handles.iter().zip(mats) {
        for round in 0..2 {
            let (b, want) = &m.inputs[round];
            match svc.solve("probe", h, b) {
                Ok(r) => {
                    report.record(gate::check(r.algorithm, &r.x, want));
                    if round == 1 {
                        cycles += (r.exec_ms * clock_ghz * 1e6).round();
                    }
                }
                Err(e) => report.record(Err(format!("probe on {}: {e}", m.name))),
            }
        }
    }
    cycles
}

pub fn run(size: Size, seed: u64, seconds: f64, trace: bool, report: &mut Report) -> Recorder {
    let mut rng = Rng::new(seed, 0);
    let mats: Vec<Matrix> = entries(size)
        .iter()
        .map(|e| Matrix::build(e, &mut rng))
        .collect();
    let handles: Vec<MatrixHandle> = mats
        .iter()
        .map(|m| MatrixHandle::new(m.l.clone()))
        .collect();
    report.note(format!(
        "{CLIENTS} closed-loop clients; matrices: {}",
        mats.iter()
            .map(|m| format!("{} (n={}, nnz={})", m.name, m.l.n(), m.l.nnz()))
            .collect::<Vec<_>>()
            .join(", ")
    ));

    if !trace {
        // Rounds of a fresh service and a closed loop on it, until
        // `seconds` have elapsed: the set-ups spread over the whole run.
        let mut off = Recorder::disabled();
        let mut steps: Vec<Vec<f64>> = Vec::new();
        let mut rounds: Vec<Phase> = Vec::new();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        loop {
            let (svc, secs) = setup(&mats, &handles, report);
            steps.push(secs);
            let left = deadline.saturating_duration_since(Instant::now());
            let slice = ROUND_SECS.min(left.as_secs_f64());
            let streams = Rng::new(seed, 10 + rounds.len() as u64);
            rounds.push(closed_loop(
                &svc, &mats, &handles, &streams, slice, &mut off, report,
            ));
            drop(svc);
            if Instant::now() >= deadline {
                break;
            }
        }
        report.note(format!(
            "{} rounds; set-up s: {}; rhs/s: {}",
            rounds.len(),
            steps
                .iter()
                .map(|s| format!("{:.4}", s.iter().sum::<f64>()))
                .collect::<Vec<_>>()
                .join(" "),
            rounds
                .iter()
                .map(|p| format!("{:.1}", p.solves_per_s()))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        // Each step's fastest set-up across the rounds; see `best_op_secs`
        // in the session workloads.
        let mut best_steps = vec![f64::INFINITY; handles.len()];
        for secs in &steps {
            for (b, &t) in best_steps.iter_mut().zip(secs) {
                *b = b.min(t);
            }
        }
        report.num("setup_s", "s", best_steps.iter().sum());
        // Throughput and latency pool every round's requests.
        let phase = Phase {
            secs: rounds.iter().map(|p| p.secs).sum(),
            served: rounds.into_iter().flat_map(|p| p.served).collect(),
            delta: ServiceMetrics::default(),
        };
        report.note(format!(
            "{} requests served in {:.3} s",
            phase.served.len(),
            phase.secs
        ));
        report.num("solves_per_s", "rhs/s", phase.solves_per_s());
        if phase.served.is_empty() {
            report.missing("latency_ms_p50", "ms", "no request was served");
            report.missing("latency_ms_p90", "ms", "no request was served");
        } else {
            report.num("latency_ms_p50", "ms", phase.latency_ms(0.5));
            report.num("latency_ms_p90", "ms", phase.latency_ms(0.9));
        }
        let cycles = probe_cycles(&mats, &handles, report);
        report.num("sim_cycles", "cycles", cycles);
        match peak_rss_mb() {
            Some(mb) => report.num("peak_rss_mb", "MiB", mb),
            None => report.missing("peak_rss_mb", "MiB", "no /proc/self/status on this host"),
        }
        return off;
    }

    // Traced run: an untraced half, then a traced half on a fresh service.
    let mut off = Recorder::disabled();
    let (svc, _) = setup(&mats, &handles, report);
    let plain = closed_loop(
        &svc,
        &mats,
        &handles,
        &Rng::new(seed, 10),
        seconds / 2.0,
        &mut off,
        report,
    );
    drop(svc);
    let mut rec = Recorder::new(true, Instant::now());
    let (svc, _) = setup(&mats, &handles, report);
    let traced = closed_loop(
        &svc,
        &mats,
        &handles,
        &Rng::new(seed, 10),
        seconds / 2.0,
        &mut rec,
        report,
    );
    drop(svc);

    // What a (re-)admission pays, timed outside the service on the same
    // matrices with the algorithm the service would pick.
    let config = DeviceConfig::pascal_like();
    let admit_start = rec.len();
    for m in &mats {
        let algo = recommend(&MatrixStats::compute(&m.l));
        rec.next_request();
        let root = rec.open("admission");
        std::hint::black_box(Decomposed::new(&config, m.l.clone(), algo, &mut rec));
        rec.close(root);
    }
    let admit = layer_times(rec.spans(), admit_start..rec.len());
    let ms = |ns: u64| ns as f64 / 1e6;
    for (metric, span) in [
        ("sparse.fingerprint_ms", "sparse.fingerprint"),
        ("sparse.stats_ms", "sparse.stats"),
        ("sparse.levels_ms", "sparse.levels"),
        ("sparse.schedule_ms", "sparse.schedule"),
        ("sparse.partition_ms", "sparse.partition"),
        ("buffers.upload_matrix_ms", "buffers.upload_matrix"),
    ] {
        match admit.get(span) {
            Some(t) => report.num(metric, "ms", ms(t.total_ns)),
            None => report.missing(
                metric,
                "ms",
                "no session this workload admits runs this step",
            ),
        }
    }
    let new = admit.get("session.new").copied().unwrap_or_default();
    report.num("session.new_ms", "ms", ms(new.total_ns));
    report.num("session.new_self_ms", "ms", ms(new.self_ns));
    for (name, unit) in INSIDE_WORKERS {
        report.missing(
            name,
            unit,
            "runs on the service's worker threads, which no public call exposes",
        );
    }
    for (name, unit) in SHARD_METRICS {
        report.missing(name, unit, "no sharded ops in this workload");
    }

    let queue: Vec<f64> = traced.served.iter().map(|s| s.queue_ms).collect();
    let after: Vec<f64> = traced
        .served
        .iter()
        .map(|s| s.rtt_ms - s.queue_ms)
        .collect();
    if queue.is_empty() {
        for (name, unit) in &SERVICE_METRICS[..3] {
            report.missing(name, unit, "no request was served");
        }
    } else {
        report.num("service.queue_ms_p50", "ms", percentile(&queue, 0.5));
        report.num("service.queue_ms_p90", "ms", percentile(&queue, 0.9));
        report.num("service.after_queue_ms_p50", "ms", median(&after));
    }
    let d = &traced.delta;
    report.num("service.mean_batch", "rhs", d.mean_batch());
    report.num("service.launches", "count", d.launches as f64);
    report.num(
        "service.sessions_created",
        "count",
        d.sessions_created as f64,
    );
    report.num("service.evictions", "count", d.evictions as f64);
    report.num("service.rejects", "count", d.rejects as f64);
    report.num(
        "trace.overhead_frac",
        "ratio",
        1.0 - traced.solves_per_s() / plain.solves_per_s(),
    );
    rec
}
