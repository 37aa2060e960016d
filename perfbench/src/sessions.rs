//! The two session workloads, `paper-shallow` and `paper-deep`: one
//! closed-loop client runs warm `SolverSession` solves (and, on the deep
//! deck, sharded solves) over a fixed set of (algorithm, matrix) sessions.
//!
//! The untraced path drives `SolverSession` itself. The traced path drives
//! [`Decomposed`], which makes the same public calls a session makes, in
//! the same order, with a span around each; its solution bits and
//! `LaunchStats` are checked against the untraced path's.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::time::{Duration, Instant};

use capellini_core::kernels::{
    cusparse_like, cusparse_like_multi, scheduled, syncfree, writing_first,
};
use capellini_core::{
    solve_serial_csr, solve_sharded_with_partition, Algorithm, DeviceCsr, PooledSolveBuffers,
    ShardConfig, ShardedReport, SolverSession,
};
use capellini_simt::{BufU32, DeviceConfig, GpuDevice, LaunchStats, SimtError};
use capellini_sparse::dataset::{self, DatasetEntry, Scale};
use capellini_sparse::gen::GenSpec;
use capellini_sparse::linalg::rhs_for_solution;
use capellini_sparse::{
    fingerprint, LevelSets, LowerTriangularCsr, MatrixStats, RowPartition, Schedule, ScheduleParams,
};

use crate::gate;
use crate::report::{median, peak_rss_mb, percentile, Report, Rng};
use crate::spans::{layer_times, Recorder};
use crate::Size;

/// Right-hand sides per matrix; a pass draws one per op from this pool, so
/// every reference solve happens before timing.
pub const RHS_POOL: usize = 8;
/// Warm passes after each set-up round of an untraced run.
pub const PASSES_PER_SETUP: usize = 2;
/// Devices of every sharded op (`ShardConfig::pcie(4)`).
pub const SHARD_DEVICES: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deck {
    Shallow,
    Deep,
}

/// One matrix with its pool of right-hand sides and reference solutions.
pub struct Matrix {
    pub name: String,
    pub l: LowerTriangularCsr,
    pub inputs: Vec<(Vec<f64>, Vec<f64>)>,
}

impl Matrix {
    /// Builds the matrix and `RHS_POOL` inputs `b = L x_true` with `x_true`
    /// uniform in [-1, 1), each with its serial reference solution.
    pub fn build(entry: &DatasetEntry, rng: &mut Rng) -> Self {
        let l = entry.build();
        let inputs = (0..RHS_POOL)
            .map(|_| {
                let x_true: Vec<f64> = (0..l.n()).map(|_| rng.unit() * 2.0 - 1.0).collect();
                let b = rhs_for_solution(&l, &x_true);
                let want = solve_serial_csr(&l, &b);
                (b, want)
            })
            .collect();
        Matrix {
            name: entry.name.clone(),
            l,
            inputs,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Single(usize),
    Sharded(usize),
}

struct Plan {
    matrices: Vec<Matrix>,
    /// One session per (matrix index, algorithm).
    pairs: Vec<(usize, Algorithm)>,
    ops: Vec<Op>,
}

fn entry(name: &str, spec: GenSpec, seed: u64) -> DatasetEntry {
    DatasetEntry {
        name: name.to_string(),
        spec,
        seed,
    }
}

/// The deck's matrices: the repo's stand-ins at `Scale::Small`, or
/// same-shaped tiny recipes for the smoke test.
pub fn entries(deck: Deck, size: Size) -> Vec<DatasetEntry> {
    let s = Scale::Small;
    match (deck, size) {
        (Deck::Shallow, Size::Small) => vec![
            dataset::nlpkkt160_like(s),
            dataset::wiki_talk_like(s),
            dataset::rajat29_like(s),
            dataset::lp1_like(s),
        ],
        (Deck::Shallow, Size::Tiny) => vec![
            entry(
                "nlpkkt160-tiny",
                GenSpec::Stencil3D {
                    nx: 5,
                    ny: 5,
                    nz: 5,
                }
                .shuffled(),
                160,
            ),
            entry(
                "wiki-Talk-tiny",
                GenSpec::PowerLaw {
                    n: 300,
                    avg_deg: 2.6,
                }
                .shuffled(),
                2394,
            ),
            entry(
                "rajat29-tiny",
                GenSpec::Layered {
                    n: 300,
                    k: 5,
                    layers: 4,
                }
                .shuffled(),
                29,
            ),
            entry(
                "lp1-tiny",
                GenSpec::UltraSparseWide {
                    n: 300,
                    heads: 8,
                    deps: 1,
                }
                .shuffled(),
                534,
            ),
        ],
        // The chain recipe `repro schedule` uses at Small (not relabelled).
        (Deck::Deep, Size::Small) => vec![
            entry("chain-like", GenSpec::Chain { n: 750, k: 1 }, 70),
            dataset::cant_like(s),
        ],
        (Deck::Deep, Size::Tiny) => vec![
            entry("chain-tiny", GenSpec::Chain { n: 100, k: 1 }, 70),
            entry(
                "cant-tiny",
                GenSpec::DenseBand { n: 128, band: 30 }.shuffled(),
                62,
            ),
        ],
    }
}

fn plan(deck: Deck, size: Size, rng: &mut Rng) -> Plan {
    let matrices: Vec<Matrix> = entries(deck, size)
        .iter()
        .map(|e| Matrix::build(e, rng))
        .collect();
    let algos: &[Algorithm] = match deck {
        Deck::Shallow => &[
            Algorithm::SyncFree,
            Algorithm::CusparseLike,
            Algorithm::CapelliniWritingFirst,
            Algorithm::Scheduled,
        ],
        Deck::Deep => &[
            Algorithm::SyncFree,
            Algorithm::CapelliniWritingFirst,
            Algorithm::Scheduled,
        ],
    };
    let mut pairs = Vec::new();
    for &algo in algos {
        for m in 0..matrices.len() {
            pairs.push((m, algo));
        }
    }
    let mut ops: Vec<Op> = (0..pairs.len()).map(Op::Single).collect();
    if deck == Deck::Deep {
        for (s, &(_, algo)) in pairs.iter().enumerate() {
            if matches!(algo, Algorithm::SyncFree | Algorithm::CapelliniWritingFirst) {
                ops.push(Op::Sharded(s));
            }
        }
    }
    Plan {
        matrices,
        pairs,
        ops,
    }
}

/// Analysis products the decomposed session keeps, for the algorithms the
/// decks use.
enum Analysis {
    Plain,
    Info(BufU32),
    Sched(scheduled::DeviceSchedule),
}

/// `SolverSession` taken apart: the public calls `SolverSession::with_algorithm`
/// and `SolverSession::{solve, solve_sharded}` make, in the same order, so
/// device allocations, solution bits and `LaunchStats` all match.
pub struct Decomposed {
    config: DeviceConfig,
    dev: GpuDevice,
    l: LowerTriangularCsr,
    algorithm: Algorithm,
    dm: DeviceCsr,
    pool: PooledSolveBuffers,
    analysis: Analysis,
    partition: Option<RowPartition>,
}

impl Decomposed {
    pub fn new(
        config: &DeviceConfig,
        l: LowerTriangularCsr,
        algorithm: Algorithm,
        rec: &mut Recorder,
    ) -> Self {
        let span = rec.open("session.new");
        std::hint::black_box(rec.timed("sparse.stats", || MatrixStats::compute(&l)));
        let mut dev = GpuDevice::new(config.clone());
        std::hint::black_box(rec.timed("sparse.fingerprint", || fingerprint(&l)));
        let dm = rec.timed("buffers.upload_matrix", || DeviceCsr::upload(&mut dev, &l));
        let analysis = match algorithm {
            Algorithm::SyncFree | Algorithm::CapelliniWritingFirst => Analysis::Plain,
            Algorithm::CusparseLike => {
                Analysis::Info(cusparse_like_multi::build_info(&mut dev, dm))
            }
            Algorithm::Scheduled => {
                let levels = rec.timed("sparse.levels", || LevelSets::analyze(&l));
                let params = ScheduleParams::for_warp(config.warp_size);
                let schedule =
                    rec.timed("sparse.schedule", || Schedule::build(&l, &levels, params));
                Analysis::Sched(scheduled::upload_schedule(&mut dev, &schedule))
            }
            other => panic!("the decks never run {}", other.label()),
        };
        let n = l.n();
        let pool = PooledSolveBuffers::new(&mut dev, n, n);
        rec.close(span);
        Decomposed {
            config: config.clone(),
            dev,
            l,
            algorithm,
            dm,
            pool,
            analysis,
            partition: None,
        }
    }

    fn launch(&mut self) -> Result<LaunchStats, SimtError> {
        let sb = self.pool.view();
        match (&self.analysis, self.algorithm) {
            (Analysis::Info(info), _) => {
                cusparse_like::launch_with_info(&mut self.dev, self.dm, sb, *info)
            }
            (Analysis::Sched(ds), _) => {
                scheduled::launch_with_schedule(&mut self.dev, self.dm, sb, *ds)
            }
            (Analysis::Plain, Algorithm::SyncFree) => syncfree::launch(&mut self.dev, self.dm, sb),
            (Analysis::Plain, _) => writing_first::launch(&mut self.dev, self.dm, sb),
        }
    }

    /// Returns the solution, the launch statistics and the launch's host
    /// time in ns.
    fn solve(
        &mut self,
        b: &[f64],
        rec: &mut Recorder,
    ) -> Result<(Vec<f64>, LaunchStats, u64), SimtError> {
        let n = self.l.n();
        if b.len() != n {
            return Err(SimtError::Launch(format!(
                "rhs length {} does not match matrix dimension {n}",
                b.len()
            )));
        }
        let span = rec.open("session.solve");
        rec.timed("buffers.upload_rhs", || {
            self.pool.prepare(&mut self.dev, b, n)
        });
        let launch = rec.open("engine.launch");
        let launched = self.launch();
        rec.close(launch);
        let engine_ns = rec.dur_ns(launch);
        let out = launched.map(|stats| {
            let x = rec.timed("buffers.readback", || self.pool.read_x(&self.dev));
            (x, stats, engine_ns)
        });
        self.dev.take_profiles();
        rec.close(span);
        out
    }

    fn solve_sharded(
        &mut self,
        b: &[f64],
        shard: &ShardConfig,
        rec: &mut Recorder,
    ) -> Result<ShardedReport, SimtError> {
        shard.validate()?;
        if self.partition.is_none() {
            let ws = self.config.warp_size;
            let l = &self.l;
            self.partition = Some(rec.timed("sparse.partition", || {
                RowPartition::build(l, shard.devices, ws)
            }));
        }
        let part = self.partition.clone().expect("partition built above");
        rec.timed("shard.solve", || {
            solve_sharded_with_partition(&self.config, &self.l, b, self.algorithm, shard, part)
        })
    }
}

/// A session as the run drives it: the real one, or its decomposition.
enum Session {
    Real(SolverSession),
    Traced(Decomposed),
}

/// What one op returned, reduced to what the metrics and checks need.
struct Outcome {
    x: Vec<f64>,
    /// Summed per-device stats for a sharded op.
    stats: LaunchStats,
    /// `stats.cycles`, or the makespan for a sharded op.
    cycles: u64,
    /// Heap events of the launch, when the op is exactly one launch on a
    /// device the benchmark can reach.
    heap_events: Option<u64>,
    /// Host time of the launch span (traced single solves only).
    engine_ns: u64,
    link: (u64, u64),
    digest: u64,
}

fn digest(x: &[f64], stats: &str) -> u64 {
    let mut h = DefaultHasher::new();
    for v in x {
        v.to_bits().hash(&mut h);
    }
    stats.hash(&mut h);
    h.finish()
}

impl Session {
    fn device(&self) -> &GpuDevice {
        match self {
            Session::Real(s) => s.device(),
            Session::Traced(d) => &d.dev,
        }
    }

    fn solve(&mut self, b: &[f64], rec: &mut Recorder) -> Result<Outcome, SimtError> {
        let (x, stats, engine_ns) = match self {
            Session::Real(s) => s.solve(b).map(|r| (r.x, r.stats, 0))?,
            Session::Traced(d) => d.solve(b, rec)?,
        };
        let heap_events = (stats.launches == 1).then(|| self.device().last_launch_heap_events());
        Ok(Outcome {
            digest: digest(&x, &format!("{stats:?}")),
            cycles: stats.cycles,
            x,
            stats,
            heap_events,
            engine_ns,
            link: (0, 0),
        })
    }

    fn solve_sharded(&mut self, b: &[f64], rec: &mut Recorder) -> Result<Outcome, SimtError> {
        let shard = ShardConfig::pcie(SHARD_DEVICES);
        let r = match self {
            Session::Real(s) => s.solve_sharded(b, &shard)?,
            Session::Traced(d) => d.solve_sharded(b, &shard, rec)?,
        };
        let mut stats = LaunchStats::default();
        for s in &r.per_device {
            stats.accumulate(s);
        }
        let key = format!(
            "{:?} {} {} {}",
            r.per_device, r.makespan_cycles, r.link_messages, r.link_bytes
        );
        Ok(Outcome {
            digest: digest(&r.x, &key),
            cycles: r.makespan_cycles,
            x: r.x,
            stats,
            heap_events: None,
            engine_ns: 0,
            link: (r.link_messages, r.link_bytes),
        })
    }
}

/// One op of a timed pass.
struct OpRecord {
    /// Index into the plan's op list.
    index: usize,
    op: Op,
    host_ns: u64,
    outcome: Option<Outcome>,
}

#[derive(Default)]
struct Pass {
    secs: f64,
    ops: Vec<OpRecord>,
    spans: Range<usize>,
}

impl Pass {
    fn sim_cycles(&self) -> u64 {
        self.ops
            .iter()
            .filter_map(|o| o.outcome.as_ref())
            .map(|o| o.cycles)
            .sum()
    }

    fn stats(&self) -> LaunchStats {
        let mut total = LaunchStats::default();
        for o in self.ops.iter().filter_map(|o| o.outcome.as_ref()) {
            total.accumulate(&o.stats);
        }
        total
    }
}

struct Setup {
    sessions: Vec<Session>,
    secs: f64,
    /// Per session: its construction plus its cold solve.
    session_secs: Vec<f64>,
    cold_cycles: u64,
    digests: Vec<u64>,
    spans: Range<usize>,
}

struct Phase {
    /// The last set-up round (the only one in a traced half).
    setup: Setup,
    /// Per set-up round: whole set-up and per-session seconds.
    setups: Vec<(f64, Vec<f64>)>,
    passes: Vec<Pass>,
    digests: Vec<u64>,
    grid_reuses: u64,
}

impl Phase {
    /// Sum over sessions of each session's fastest set-up (construction
    /// plus cold solve) across the run's rounds; see `best_op_secs`.
    fn setup_secs(&self) -> f64 {
        let mut best = vec![f64::INFINITY; self.setup.session_secs.len()];
        for (_, per_session) in &self.setups {
            for (b, &t) in best.iter_mut().zip(per_session) {
                *b = b.min(t);
            }
        }
        best.iter().sum()
    }

    /// Each op's host time in seconds: the fastest of its warm repeats.
    /// Speed phases of a shared host only ever slow an op down, so the
    /// minimum is the steadiest estimate of the program's own cost.
    fn best_op_secs(&self) -> Vec<f64> {
        let mut best = vec![f64::INFINITY; self.passes[0].ops.len()];
        for o in self.passes.iter().flat_map(|p| &p.ops) {
            best[o.index] = best[o.index].min(o.host_ns as f64 / 1e9);
        }
        best
    }

    /// One solve per op divided by the ops' summed best host times.
    fn solves_per_s(&self) -> f64 {
        let best = self.best_op_secs();
        best.len() as f64 / best.iter().sum::<f64>()
    }
}

/// Builds every session and runs its cold solve: the `setup_s` interval.
fn setup(plan: &Plan, traced: bool, seed: u64, rec: &mut Recorder, report: &mut Report) -> Setup {
    let config = DeviceConfig::pascal_like();
    let owned: Vec<LowerTriangularCsr> = plan
        .pairs
        .iter()
        .map(|&(m, _)| plan.matrices[m].l.clone())
        .collect();
    let mut rng = Rng::new(seed, 1);
    let picks: Vec<usize> = plan.pairs.iter().map(|_| rng.below(RHS_POOL)).collect();
    let span_start = rec.len();
    let mut session_secs = Vec::with_capacity(plan.pairs.len());
    let t0 = Instant::now();
    rec.next_request();
    let root = rec.open("setup");
    let mut sessions: Vec<Session> = plan
        .pairs
        .iter()
        .zip(owned)
        .map(|(&(_, algo), l)| {
            let t = Instant::now();
            let session = if traced {
                Session::Traced(Decomposed::new(&config, l, algo, rec))
            } else {
                Session::Real(SolverSession::with_algorithm(&config, l, algo))
            };
            session_secs.push(t.elapsed().as_secs_f64());
            session
        })
        .collect();
    let mut outcomes = Vec::with_capacity(sessions.len());
    for (s, session) in sessions.iter_mut().enumerate() {
        let (b, _) = &plan.matrices[plan.pairs[s].0].inputs[picks[s]];
        let t = Instant::now();
        outcomes.push(session.solve(b, rec));
        session_secs[s] += t.elapsed().as_secs_f64();
    }
    rec.close(root);
    let secs = t0.elapsed().as_secs_f64();

    let mut cold_cycles = 0;
    let mut digests = Vec::new();
    for (s, outcome) in outcomes.into_iter().enumerate() {
        let (m, algo) = plan.pairs[s];
        let want = &plan.matrices[m].inputs[picks[s]].1;
        let checked = outcome.map_err(|e| e.to_string()).and_then(|o| {
            cold_cycles += o.cycles;
            digests.push(o.digest);
            gate::check(algo, &o.x, want)
        });
        report.record(checked.map_err(|e| format!("cold solve on {}: {e}", plan.matrices[m].name)));
    }
    Setup {
        sessions,
        secs,
        session_secs,
        cold_cycles,
        digests,
        spans: span_start..rec.len(),
    }
}

/// One warm pass over every op of the plan, in a seeded order.
fn warm_pass(
    plan: &Plan,
    sessions: &mut [Session],
    rng: &mut Rng,
    rec: &mut Recorder,
    report: &mut Report,
    digests: &mut Vec<u64>,
) -> Pass {
    let mut order: Vec<usize> = (0..plan.ops.len()).collect();
    rng.shuffle(&mut order);
    let picks: Vec<usize> = order.iter().map(|_| rng.below(RHS_POOL)).collect();
    let mut pass = Pass {
        spans: rec.len()..rec.len(),
        ..Pass::default()
    };
    for (&o, &r) in order.iter().zip(&picks) {
        let op = plan.ops[o];
        let (Op::Single(s) | Op::Sharded(s)) = op;
        let (m, algo) = plan.pairs[s];
        let (b, want) = &plan.matrices[m].inputs[r];
        rec.next_request();
        let root = rec.open("op");
        let t0 = Instant::now();
        let result = match op {
            Op::Single(_) => sessions[s].solve(b, rec),
            Op::Sharded(_) => sessions[s].solve_sharded(b, rec),
        };
        let host_ns = t0.elapsed().as_nanos() as u64;
        rec.close(root);
        pass.secs += host_ns as f64 / 1e9;
        let outcome = match result {
            Ok(o) => {
                let name = &plan.matrices[m].name;
                report.record(gate::check(algo, &o.x, want).map_err(|e| format!("{name}: {e}")));
                digests.push(o.digest);
                Some(o)
            }
            Err(e) => {
                report.record(Err(format!("{}: {e}", plan.matrices[m].name)));
                None
            }
        };
        pass.ops.push(OpRecord {
            index: o,
            op,
            host_ns,
            outcome,
        });
    }
    pass.spans.end = rec.len();
    pass
}

fn grid_reuses(sessions: &[Session]) -> u64 {
    sessions.iter().map(|s| s.device().grid_reuses()).sum()
}

/// Rounds of one set-up followed by up to `passes_per_setup` warm passes on
/// the sessions it built, until `seconds` have elapsed; always at least one
/// round and one pass. Spreading the set-ups over the run lets each
/// session's set-up, like each warm op, meet the host's fast phases.
fn run_phase(
    plan: &Plan,
    traced: bool,
    seed: u64,
    seconds: f64,
    passes_per_setup: usize,
    rec: &mut Recorder,
    report: &mut Report,
) -> Phase {
    let mut rng = Rng::new(seed, 2);
    let mut setups = Vec::new();
    let mut passes = Vec::new();
    let mut digests = Vec::new();
    let mut grid = 0;
    let mut last: Option<Setup> = None;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    'rounds: loop {
        // Drop the previous set of sessions before building the next, so
        // peak memory holds one set.
        drop(last.take());
        let mut setup = setup(plan, traced, seed, rec, report);
        setups.push((setup.secs, setup.session_secs.clone()));
        let grid_before = grid_reuses(&setup.sessions);
        for _ in 0..passes_per_setup {
            passes.push(warm_pass(
                plan,
                &mut setup.sessions,
                &mut rng,
                rec,
                report,
                &mut digests,
            ));
            if Instant::now() >= deadline {
                grid += grid_reuses(&setup.sessions) - grid_before;
                last = Some(setup);
                break 'rounds;
            }
        }
        grid += grid_reuses(&setup.sessions) - grid_before;
        last = Some(setup);
    }
    let mut setup = last.expect("at least one round");
    // The timed phase ends here; dropping sessions is not measured.
    setup.sessions.clear();
    Phase {
        setup,
        setups,
        passes,
        digests,
        grid_reuses: grid,
    }
}

/// The sim-cycle figure of a set of warm passes: every warm pass must
/// simulate the same cycles; if they differ the median is reported and the
/// spread noted.
fn warm_cycles(phase: &Phase, report: &mut Report) -> f64 {
    let cycles: Vec<f64> = phase.passes.iter().map(|p| p.sim_cycles() as f64).collect();
    let lo = cycles.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = cycles.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if lo != hi {
        report.note(format!(
            "warm passes simulated between {lo} and {hi} cycles"
        ));
    }
    median(&cycles)
}

/// Runs a session workload and reports its metrics: end-to-end metrics
/// untraced, or per-layer metrics from a traced run.
pub fn run(
    deck: Deck,
    size: Size,
    seed: u64,
    seconds: f64,
    trace: bool,
    report: &mut Report,
) -> Recorder {
    let mut rng = Rng::new(seed, 0);
    let plan = plan(deck, size, &mut rng);
    report.note(format!(
        "{} sessions, {} ops per pass, matrices: {}",
        plan.pairs.len(),
        plan.ops.len(),
        plan.matrices
            .iter()
            .map(|m| format!("{} (n={}, nnz={})", m.name, m.l.n(), m.l.nnz()))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    if !trace {
        let mut rec = Recorder::disabled();
        let phase = run_phase(
            &plan,
            false,
            seed,
            seconds,
            PASSES_PER_SETUP,
            &mut rec,
            report,
        );
        let pass_ms: Vec<f64> = phase.passes.iter().map(|p| p.secs * 1e3).collect();
        report.note(format!(
            "{} warm passes, ms: {}",
            phase.passes.len(),
            pass_ms
                .iter()
                .map(|t| format!("{t:.0}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        report.note(format!(
            "{} set-ups, s: {}",
            phase.setups.len(),
            phase
                .setups
                .iter()
                .map(|(t, _)| format!("{t:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        report.num("setup_s", "s", phase.setup_secs());
        report.num("solves_per_s", "rhs/s", phase.solves_per_s());
        let op_ms: Vec<f64> = phase.best_op_secs().iter().map(|s| s * 1e3).collect();
        report.num("latency_ms_p50", "ms", percentile(&op_ms, 0.5));
        report.num("latency_ms_p90", "ms", percentile(&op_ms, 0.9));
        let cycles = warm_cycles(&phase, report);
        report.num("sim_cycles", "cycles", cycles);
        match peak_rss_mb() {
            Some(mb) => report.num("peak_rss_mb", "MiB", mb),
            None => report.missing("peak_rss_mb", "MiB", "no /proc/self/status on this host"),
        }
        return rec;
    }

    // Traced run: an untraced half, then a traced half over the same seed,
    // so both halves make the same ops on the same inputs.
    let mut off = Recorder::disabled();
    let plain = run_phase(
        &plan,
        false,
        seed,
        seconds / 2.0,
        usize::MAX,
        &mut off,
        report,
    );
    let mut rec = Recorder::new(true, Instant::now());
    let traced = run_phase(
        &plan,
        true,
        seed,
        seconds / 2.0,
        usize::MAX,
        &mut rec,
        report,
    );

    let cold_ok = plain.setup.digests == traced.setup.digests;
    let common = plain.digests.len().min(traced.digests.len());
    let warm_ok = plain.digests[..common] == traced.digests[..common];
    report.record(if cold_ok && warm_ok {
        Ok(())
    } else {
        Err(
            "the traced decomposition diverged from SolverSession (solution bits or LaunchStats)"
                .to_string(),
        )
    });
    report.note(format!(
        "traced decomposition matched SolverSession on {} cold and {common} warm ops: {}",
        traced.setup.digests.len(),
        cold_ok && warm_ok
    ));
    layer_metrics(deck, &plan, &plain, &traced, &rec, report);
    rec
}

fn layer_metrics(
    deck: Deck,
    plan: &Plan,
    plain: &Phase,
    traced: &Phase,
    rec: &Recorder,
    report: &mut Report,
) {
    let spans = rec.spans();
    let ms = |ns: u64| ns as f64 / 1e6;
    let setup = layer_times(spans, traced.setup.spans.clone());
    let whole = layer_times(spans, 0..spans.len());
    let per_pass: Vec<_> = traced
        .passes
        .iter()
        .map(|p| layer_times(spans, p.spans.clone()))
        .collect();
    let pass_median = |name: &str, self_time: bool| {
        let v: Vec<f64> = per_pass
            .iter()
            .map(|t| {
                t.get(name)
                    .map_or(0, |l| if self_time { l.self_ns } else { l.total_ns })
            })
            .map(ms)
            .collect();
        median(&v)
    };

    // Analysis, per set-up (the partition is built by each sharded
    // session's first sharded solve).
    for (metric, span) in [
        ("sparse.fingerprint_ms", "sparse.fingerprint"),
        ("sparse.stats_ms", "sparse.stats"),
        ("sparse.levels_ms", "sparse.levels"),
        ("sparse.schedule_ms", "sparse.schedule"),
        ("sparse.partition_ms", "sparse.partition"),
    ] {
        match whole.get(span) {
            Some(t) => report.num(metric, "ms", ms(t.total_ns)),
            None => report.missing(
                metric,
                "ms",
                "no session of this workload runs this analysis",
            ),
        }
    }

    // Upload and read-back.
    let setup_ms = |name: &str| setup.get(name).map_or(0.0, |t| ms(t.total_ns));
    report.num(
        "buffers.upload_matrix_ms",
        "ms",
        setup_ms("buffers.upload_matrix"),
    );
    report.num(
        "buffers.upload_rhs_ms",
        "ms",
        pass_median("buffers.upload_rhs", false),
    );
    report.num(
        "buffers.readback_ms",
        "ms",
        pass_median("buffers.readback", false),
    );
    let matrix_bytes: usize = plan
        .pairs
        .iter()
        .map(|&(m, _)| {
            let l = &plan.matrices[m].l;
            4 * (l.n() + 1) + 12 * l.nnz()
        })
        .sum();
    let rhs_bytes: usize = plan
        .ops
        .iter()
        .filter_map(|op| match op {
            Op::Single(s) => Some(16 * plan.matrices[plan.pairs[*s].0].l.n()),
            Op::Sharded(_) => None,
        })
        .sum();
    report.num("buffers.bytes", "bytes", (matrix_bytes + rhs_bytes) as f64);

    // Engine: only ops that are one launch on a reachable device carry a
    // heap-event count; sharded ops' per-shard devices are out of reach.
    let mut engine_ns = 0u64;
    let mut events = 0u64;
    let mut winst = 0u64;
    let mut event_ops = 0usize;
    let mut other_ops = 0usize;
    for o in traced.passes.iter().flat_map(|p| &p.ops) {
        match &o.outcome {
            Some(out) if out.heap_events.is_some() => {
                engine_ns += out.engine_ns;
                events += out.heap_events.unwrap_or(0);
                winst += out.stats.warp_instructions;
                event_ops += 1;
            }
            _ => other_ops += 1,
        }
    }
    report.num(
        "engine.launch_ms",
        "ms",
        pass_median("engine.launch", false),
    );
    if events > 0 {
        report.num(
            "engine.heap_events",
            "count",
            events as f64 / traced.passes.len() as f64,
        );
        report.num(
            "engine.ns_per_event",
            "ns",
            engine_ns as f64 / events as f64,
        );
    } else {
        report.missing("engine.heap_events", "count", "no single-launch op");
        report.missing("engine.ns_per_event", "ns", "no single-launch op");
    }
    if other_ops > 0 {
        report.note(format!(
            "engine.heap_events and engine.ns_per_event cover {event_ops} single-launch ops; \
             {other_ops} sharded ops are missing: their per-shard devices are not reachable from outside"
        ));
    }
    report.num(
        "engine.winst_per_s",
        "1/s",
        winst as f64 / (engine_ns as f64 / 1e9),
    );
    report.num(
        "engine.grid_reuses",
        "count",
        traced.grid_reuses as f64 / traced.passes.len() as f64,
    );

    // Simulated device, per warm pass (cold in set-up).
    let warm = traced.passes[0].stats();
    report.num("sim.cycles_cold", "cycles", traced.setup.cold_cycles as f64);
    report.num(
        "sim.warp_instructions",
        "count",
        warm.warp_instructions as f64,
    );
    report.num(
        "sim.dram_bytes",
        "bytes",
        (warm.dram_read_bytes + warm.dram_write_bytes) as f64,
    );
    report.num("sim.failed_polls", "count", warm.failed_polls as f64);
    report.num("sim.stall_ticks", "count", warm.stall_ticks as f64);

    // Session.
    let new = setup.get("session.new").copied().unwrap_or_default();
    report.num("session.new_ms", "ms", ms(new.total_ns));
    report.num("session.new_self_ms", "ms", ms(new.self_ns));
    report.num(
        "session.solve_self_ms",
        "ms",
        pass_median("session.solve", true),
    );

    // Shard.
    if deck == Deck::Deep {
        let mut sharded_ns = 0u64;
        let mut single_ns = 0u64;
        let sharded_sessions: Vec<usize> = plan
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::Sharded(s) => Some(*s),
                Op::Single(_) => None,
            })
            .collect();
        for o in traced.passes.iter().flat_map(|p| &p.ops) {
            match o.op {
                Op::Sharded(_) => sharded_ns += o.host_ns,
                Op::Single(s) if sharded_sessions.contains(&s) => single_ns += o.host_ns,
                Op::Single(_) => {}
            }
        }
        let (msgs, bytes, makespan) = traced.passes[0]
            .ops
            .iter()
            .filter(|o| matches!(o.op, Op::Sharded(_)))
            .filter_map(|o| o.outcome.as_ref())
            .fold((0, 0, 0), |(m, b, c), o| {
                (m + o.link.0, b + o.link.1, c + o.cycles)
            });
        report.num("shard.solve_ms", "ms", pass_median("shard.solve", false));
        report.num(
            "shard.host_ratio",
            "ratio",
            sharded_ns as f64 / single_ns as f64,
        );
        report.num("shard.link_messages", "count", msgs as f64);
        report.num("shard.link_bytes", "bytes", bytes as f64);
        report.num("shard.makespan_cycles", "cycles", makespan as f64);
    } else {
        for (name, unit) in SHARD_METRICS {
            report.missing(name, unit, "no sharded ops in this workload");
        }
    }
    for (name, unit) in crate::serve::SERVICE_METRICS {
        report.missing(name, unit, "no SolverService in this workload");
    }
    report.num(
        "trace.overhead_frac",
        "ratio",
        1.0 - traced.solves_per_s() / plain.solves_per_s(),
    );
}

pub const SHARD_METRICS: [(&str, &str); 5] = [
    ("shard.solve_ms", "ms"),
    ("shard.host_ratio", "ratio"),
    ("shard.link_messages", "count"),
    ("shard.link_bytes", "bytes"),
    ("shard.makespan_cycles", "cycles"),
];
