//! Multi-tenant solver service with continuous batching: the productionized
//! form of [`SolverSession`].
//!
//! A [`SolverSession`] amortizes analysis for exactly one caller. This
//! module turns it into a serving layer for many concurrent callers:
//!
//! * **Sharded, LRU-bounded session registry.** Sessions are keyed by the
//!   matrix content fingerprint ([`capellini_sparse::fingerprint`](fn@capellini_sparse::fingerprint)) and
//!   spread over [`ServiceConfig::shards`] independently-locked shards.
//!   Each shard retains at most [`ServiceConfig::sessions_per_shard`]
//!   sessions in LRU order; evicting an entry retires its worker, which
//!   drops the whole [`capellini_simt::GpuDevice`] — bounding simulated
//!   device memory no matter how many distinct matrices tenants submit.
//!   A later request for an evicted matrix is re-admitted and re-analyzed
//!   transparently.
//!
//! * **Continuous batching.** Each resident session is owned by one worker
//!   thread that receives its matrix's requests over a bounded
//!   [`std::sync::mpsc::sync_channel`]; each request carries a one-shot
//!   reply channel its caller blocks on. Concurrently-arriving
//!   right-hand sides for the *same* matrix coalesce into a single
//!   [`SolverSession::solve_multi`] launch: under backlog the worker takes
//!   up to [`ServiceConfig::max_batch`] pending vectors the moment the
//!   previous launch retires (batch formation is free at saturation); at
//!   low load it lingers up to the bounded
//!   [`ServiceConfig::coalesce_window`] so near-simultaneous arrivals still
//!   share a launch. A zero window disables coalescing entirely (every
//!   request solves alone) — the baseline configuration the load generator
//!   compares against. Every coalesced batch is bit-identical to looped
//!   single solves: that is the multi-RHS kernel invariant `tests/batched.rs`
//!   pins, and `tests/service.rs` re-pins it end to end through the service.
//!
//! * **Admission control.** A matrix's request channel holds at most
//!   [`ServiceConfig::max_queue_depth`] requests its worker has not yet
//!   taken into a batch; a request that would exceed it is rejected with
//!   the structured [`ServiceError::Overloaded`] instead of growing the
//!   queue without bound.
//!
//! * **Per-tenant metrics.** Solves, rejects, coalesced-batch sizes, and
//!   queue-wait accounting per tenant ([`TenantMetrics`]) plus service-wide
//!   aggregates ([`ServiceMetrics`]).
//!
//! The registry holds the only lasting sender of each worker's channel, so
//! eviction and shutdown just drop it: the worker serves what is queued,
//! sees every sender gone, and exits. A reply channel dropped unanswered —
//! its worker panicked — is its caller's [`ServiceError::WorkerPanicked`].

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

use capellini_simt::{DeviceConfig, SimtError};
use capellini_sparse::{fingerprint, LowerTriangularCsr};

use crate::buffers::check_rhs_len;
use crate::select::Algorithm;
use crate::session::SolverSession;

/// Locks a mutex, recovering from poison. A thread that panics while it
/// holds one of the service's locks poisons it; the service treats that
/// as the failure of that thread's request (a worker's callers get
/// [`ServiceError::WorkerPanicked`]), not as a reason for *unrelated*
/// tenants' requests to start panicking on `lock().expect(...)`. All
/// guarded state stays usable under panic: metrics are plain counters, and
/// a shard's eviction loop tolerates an LRU order that disagrees with its
/// map.
fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

// ------------------------------------------------------------ configuration

/// Tuning knobs of a [`SolverService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Device configuration every session is built from.
    pub device: DeviceConfig,
    /// Number of independently-locked registry shards (≥ 1).
    pub shards: usize,
    /// LRU capacity per shard: at most `shards * sessions_per_shard`
    /// sessions (and simulated devices) are resident at once (≥ 1).
    pub sessions_per_shard: usize,
    /// How long an idle worker lingers for additional same-matrix arrivals
    /// before launching a sub-full batch. `Duration::ZERO` disables
    /// coalescing: every request is served by its own launch.
    pub coalesce_window: Duration,
    /// Cap on right-hand sides coalesced into one launch (≥ 1).
    pub max_batch: usize,
    /// Bound on requests per matrix that its worker has not yet taken into
    /// a batch; arrivals beyond it are rejected with
    /// [`ServiceError::Overloaded`] (≥ 1).
    pub max_queue_depth: usize,
    /// Algorithm override. `None` selects per matrix by the Figure 6 rule
    /// ([`crate::select::recommend`]).
    pub algorithm: Option<Algorithm>,
}

impl ServiceConfig {
    /// Defaults sized for the evaluation suite: 4 shards × 8 sessions,
    /// a 2 ms coalesce window, batches of up to 8, queue depth 1024.
    pub fn new(device: DeviceConfig) -> Self {
        ServiceConfig {
            device,
            shards: 4,
            sessions_per_shard: 8,
            coalesce_window: Duration::from_millis(2),
            max_batch: 8,
            max_queue_depth: 1024,
            algorithm: None,
        }
    }

    /// Sets the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the per-shard LRU capacity.
    pub fn with_sessions_per_shard(mut self, cap: usize) -> Self {
        self.sessions_per_shard = cap.max(1);
        self
    }

    /// Sets the coalesce window (zero disables batching).
    pub fn with_coalesce_window(mut self, window: Duration) -> Self {
        self.coalesce_window = window;
        self
    }

    /// Sets the per-launch batch cap.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Sets the per-matrix pending-request bound.
    pub fn with_max_queue_depth(mut self, depth: usize) -> Self {
        self.max_queue_depth = depth.max(1);
        self
    }

    /// Forces every session onto one algorithm instead of recommending.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = Some(algorithm);
        self
    }
}

// ------------------------------------------------------------ request types

/// A matrix prepared for submission: the triangular factor plus its content
/// fingerprint, computed once so repeated [`SolverService::solve`] calls
/// never re-hash the matrix.
#[derive(Clone)]
pub struct MatrixHandle {
    l: Arc<LowerTriangularCsr>,
    fp: u64,
}

impl MatrixHandle {
    /// Fingerprints `l` once and wraps it for submission.
    pub fn new(l: LowerTriangularCsr) -> Self {
        let fp = fingerprint(&l);
        MatrixHandle { l: Arc::new(l), fp }
    }

    /// The registry key: the matrix content fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// The wrapped matrix.
    pub fn matrix(&self) -> &LowerTriangularCsr {
        &self.l
    }
}

/// What a served request reports back, alongside the solution.
#[derive(Debug, Clone)]
pub struct ServiceResponse {
    /// The solution vector for this request's right-hand side.
    pub x: Vec<f64>,
    /// The algorithm the serving session runs.
    pub algorithm: Algorithm,
    /// How many right-hand sides shared the launch that served this request
    /// (1 = no coalescing happened for it).
    pub batch_size: usize,
    /// Simulated kernel time of that launch, in ms (shared by the batch).
    pub exec_ms: f64,
    /// Wall-clock wait from enqueue to launch start, in ms.
    pub queue_ms: f64,
}

/// Structured failures of [`SolverService::solve`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// Admission control: the per-matrix queue is full. Back off and retry.
    Overloaded {
        /// Fingerprint of the congested matrix.
        fingerprint: u64,
        /// The queue depth the request would have exceeded.
        depth: usize,
    },
    /// The request is malformed (e.g. wrong right-hand-side length) and was
    /// rejected before touching any queue.
    BadRequest(String),
    /// The underlying simulated launch failed.
    Solve(SimtError),
    /// The worker thread for this matrix could not be spawned (resource
    /// exhaustion). The registry entry is released, so a retry re-admits
    /// the matrix from scratch.
    SpawnFailed {
        /// Fingerprint of the matrix whose worker failed to start.
        fingerprint: u64,
        /// The OS error.
        reason: String,
    },
    /// The worker serving this matrix panicked. Its session is discarded
    /// and the matrix deregistered; unrelated tenants are unaffected, and a
    /// retry re-admits the matrix with a fresh session.
    WorkerPanicked {
        /// Fingerprint of the matrix whose worker panicked.
        fingerprint: u64,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded { fingerprint, depth } => write!(
                f,
                "overloaded: queue for matrix {fingerprint:016x} is at its depth bound {depth}"
            ),
            ServiceError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServiceError::Solve(e) => write!(f, "solve failed: {e}"),
            ServiceError::SpawnFailed {
                fingerprint,
                reason,
            } => write!(
                f,
                "could not spawn worker for matrix {fingerprint:016x}: {reason}"
            ),
            ServiceError::WorkerPanicked { fingerprint } => write!(
                f,
                "worker for matrix {fingerprint:016x} panicked; the matrix was deregistered — retry to re-admit"
            ),
        }
    }
}

impl std::error::Error for ServiceError {}

// ----------------------------------------------------------------- metrics

/// Per-tenant serving counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantMetrics {
    /// Requests served to completion.
    pub solves: u64,
    /// Requests rejected by admission control.
    pub rejects: u64,
    /// Sum of the batch sizes this tenant's served requests rode in
    /// (`coalesced_rhs / solves` = the tenant's mean coalesced batch).
    pub coalesced_rhs: u64,
    /// Total wall-clock queue wait across served requests, ms.
    pub queue_ms_total: f64,
    /// Largest single queue wait, ms.
    pub queue_ms_max: f64,
}

impl TenantMetrics {
    /// Mean coalesced batch size over this tenant's served requests.
    pub fn mean_batch(&self) -> f64 {
        if self.solves == 0 {
            0.0
        } else {
            self.coalesced_rhs as f64 / self.solves as f64
        }
    }

    /// Mean queue wait over this tenant's served requests, ms.
    pub fn mean_queue_ms(&self) -> f64 {
        if self.solves == 0 {
            0.0
        } else {
            self.queue_ms_total / self.solves as f64
        }
    }
}

/// Service-wide serving counters (a snapshot; see
/// [`SolverService::metrics`]).
#[derive(Debug, Clone, Default)]
pub struct ServiceMetrics {
    /// Requests served to completion.
    pub solves: u64,
    /// Kernel launches performed (`solves / launches` = mean coalesced
    /// batch; see [`ServiceMetrics::mean_batch`]).
    pub launches: u64,
    /// Requests rejected by admission control.
    pub rejects: u64,
    /// Requests that failed inside the simulated launch.
    pub solve_errors: u64,
    /// Sessions constructed (first admissions plus re-admissions after
    /// eviction).
    pub sessions_created: u64,
    /// Sessions evicted by the LRU bound.
    pub evictions: u64,
    /// Sessions currently resident across all shards.
    pub resident_sessions: usize,
    /// Largest coalesced batch observed.
    pub largest_batch: usize,
    /// Total one-time analysis cost paid by session constructions, ms.
    pub analysis_ms_total: f64,
    /// Total wall-clock queue wait across served requests, ms.
    pub queue_ms_total: f64,
}

impl ServiceMetrics {
    /// Mean coalesced batch size across every launch the service performed.
    pub fn mean_batch(&self) -> f64 {
        if self.launches == 0 {
            0.0
        } else {
            self.solves as f64 / self.launches as f64
        }
    }
}

#[derive(Default)]
struct MetricsInner {
    global: ServiceMetrics,
    tenants: HashMap<String, TenantMetrics>,
}

// ----------------------------------------------------------- registry state

/// One queued request, waiting to be coalesced into a launch.
struct Pending {
    b: Vec<f64>,
    tenant: String,
    enqueued: Instant,
    /// The capacity-1 channel its caller blocks on.
    reply: SyncSender<Result<ServiceResponse, ServiceError>>,
}

/// One resident matrix: the sending end of its worker's request channel.
/// The registry holds the only lasting reference, so dropping it from the
/// registry retires the worker once the channel is drained.
struct MatrixEntry {
    queue: SyncSender<Pending>,
}

struct Shard {
    entries: HashMap<u64, Arc<MatrixEntry>>,
    /// Fingerprints from least- to most-recently used.
    lru: VecDeque<u64>,
}

impl Shard {
    fn touch(&mut self, fp: u64) {
        if let Some(pos) = self.lru.iter().position(|&f| f == fp) {
            self.lru.remove(pos);
        }
        self.lru.push_back(fp);
    }
}

struct ServiceShared {
    config: ServiceConfig,
    metrics: Mutex<MetricsInner>,
    /// Registry shards live in the shared state so a panicking worker can
    /// deregister its own matrix (see [`deregister`]).
    shards: Vec<Mutex<Shard>>,
}

// ----------------------------------------------------------------- service

/// The multi-tenant serving layer. See the module docs for the
/// architecture; `tests/service.rs` pins its end-to-end bit-exactness
/// against fresh serial [`SolverSession`] solves.
pub struct SolverService {
    shared: Arc<ServiceShared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl SolverService {
    /// Starts an empty service. Workers are spawned lazily, one per
    /// admitted matrix.
    pub fn new(mut config: ServiceConfig) -> Self {
        // The `with_*` setters clamp these counts to 1, but the fields are
        // public: clamp a 0 set by assignment too, so `config()` and
        // `Overloaded::depth` report the bound that actually runs.
        config.shards = config.shards.max(1);
        config.sessions_per_shard = config.sessions_per_shard.max(1);
        config.max_batch = config.max_batch.max(1);
        config.max_queue_depth = config.max_queue_depth.max(1);
        let shards = (0..config.shards)
            .map(|_| {
                Mutex::new(Shard {
                    entries: HashMap::new(),
                    lru: VecDeque::new(),
                })
            })
            .collect();
        SolverService {
            shared: Arc::new(ServiceShared {
                config,
                metrics: Mutex::new(MetricsInner::default()),
                shards,
            }),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// The configuration the service runs: the one it was started with,
    /// each zero count clamped to 1.
    pub fn config(&self) -> &ServiceConfig {
        &self.shared.config
    }

    /// Solves `L x = b` for the given tenant, blocking until the response
    /// is ready (or the request is rejected). Safe to call from many
    /// threads at once; concurrent calls for the same matrix coalesce.
    pub fn solve(
        &self,
        tenant: &str,
        matrix: &MatrixHandle,
        b: &[f64],
    ) -> Result<ServiceResponse, ServiceError> {
        if let Err(SimtError::Launch(msg)) = check_rhs_len(b, matrix.matrix().n()) {
            return Err(ServiceError::BadRequest(msg));
        }
        let (reply, response) = mpsc::sync_channel(1);
        let mut request = Pending {
            b: b.to_vec(),
            tenant: tenant.to_string(),
            enqueued: Instant::now(),
            reply,
        };
        loop {
            let entry = self.admit(matrix)?;
            request.enqueued = Instant::now();
            match entry.queue.try_send(request) {
                Ok(()) => break,
                Err(TrySendError::Full(_)) => {
                    let mut m = lock_ok(&self.shared.metrics);
                    m.global.rejects += 1;
                    m.tenants.entry(tenant.to_string()).or_default().rejects += 1;
                    return Err(ServiceError::Overloaded {
                        fingerprint: matrix.fp,
                        depth: self.shared.config.max_queue_depth,
                    });
                }
                // The worker exited on a panic between lookup and enqueue.
                // It deregisters its matrix before it exits; deregistering
                // here too guarantees the retry re-admits the matrix even
                // if the worker died without doing so.
                Err(TrySendError::Disconnected(back)) => {
                    deregister(&self.shared, matrix.fp, &Arc::downgrade(&entry));
                    request = back;
                }
            }
        }
        response.recv().unwrap_or(Err(ServiceError::WorkerPanicked {
            fingerprint: matrix.fp,
        }))
    }

    /// A snapshot of the service-wide counters.
    pub fn metrics(&self) -> ServiceMetrics {
        let mut snap = lock_ok(&self.shared.metrics).global.clone();
        snap.resident_sessions = self
            .shared
            .shards
            .iter()
            .map(|s| lock_ok(s).entries.len())
            .sum();
        snap
    }

    /// A snapshot of one tenant's counters (`None` if the tenant has never
    /// submitted).
    pub fn tenant_metrics(&self, tenant: &str) -> Option<TenantMetrics> {
        lock_ok(&self.shared.metrics).tenants.get(tenant).cloned()
    }

    /// Snapshots of every tenant's counters, sorted by tenant name.
    pub fn all_tenant_metrics(&self) -> Vec<(String, TenantMetrics)> {
        let m = lock_ok(&self.shared.metrics);
        let mut v: Vec<(String, TenantMetrics)> = m
            .tenants
            .iter()
            .map(|(k, t)| (k.clone(), t.clone()))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Evicts every resident session and joins every worker. Called by
    /// `Drop`; also usable explicitly to quiesce before reading final
    /// metrics.
    pub fn shutdown(&self) {
        for shard in &self.shared.shards {
            let mut s = lock_ok(shard);
            s.entries.clear();
            s.lru.clear();
        }
        let handles = std::mem::take(&mut *lock_ok(&self.workers));
        for h in handles {
            let _ = h.join();
        }
    }

    /// Looks up (or creates) the registry entry for `matrix`, touching the
    /// LRU and evicting past the capacity bound.
    ///
    /// The worker thread is spawned *before* the entry is published to the
    /// registry: a spawn failure (resource exhaustion) is the structured,
    /// recoverable [`ServiceError::SpawnFailed`], and since nothing was
    /// inserted there is no orphaned entry a later request could enqueue
    /// onto and hang — a retry re-admits the matrix from scratch.
    fn admit(&self, matrix: &MatrixHandle) -> Result<Arc<MatrixEntry>, ServiceError> {
        let shard_idx = (matrix.fp as usize) % self.shared.shards.len();
        let mut shard = lock_ok(&self.shared.shards[shard_idx]);
        if let Some(entry) = shard.entries.get(&matrix.fp) {
            let entry = Arc::clone(entry);
            shard.touch(matrix.fp);
            return Ok(entry);
        }
        // Miss: evict least-recently-used entries over capacity, then admit.
        // Dropping an entry retires its worker once its queue is drained.
        while shard.entries.len() >= self.shared.config.sessions_per_shard {
            let Some(victim) = shard.lru.pop_front() else {
                break;
            };
            if shard.entries.remove(&victim).is_some() {
                lock_ok(&self.shared.metrics).global.evictions += 1;
            }
        }
        let (queue, requests) = mpsc::sync_channel(self.shared.config.max_queue_depth);
        let entry = Arc::new(MatrixEntry { queue });

        let shared = Arc::clone(&self.shared);
        let worker_matrix = matrix.clone();
        let worker_entry = Arc::downgrade(&entry);
        let handle = spawn_worker(matrix.fp, move || {
            worker_loop(shared, worker_matrix, worker_entry, requests)
        })
        .map_err(|e| ServiceError::SpawnFailed {
            fingerprint: matrix.fp,
            reason: e.to_string(),
        })?;
        shard.entries.insert(matrix.fp, Arc::clone(&entry));
        shard.touch(matrix.fp);
        drop(shard);

        let mut workers = lock_ok(&self.workers);
        workers.retain(|h| !h.is_finished());
        workers.push(handle);
        Ok(entry)
    }
}

/// Spawns the per-matrix worker thread. The thread name carries the *full*
/// 64-bit fingerprint (`{:016x}`); truncating it to 32 bits made distinct
/// matrices indistinguishable in thread listings.
fn spawn_worker(
    fp: u64,
    body: impl FnOnce() + Send + 'static,
) -> std::io::Result<std::thread::JoinHandle<()>> {
    #[cfg(test)]
    if tests::take_injected_spawn_failure(fp) {
        return Err(std::io::Error::other("injected spawn failure"));
    }
    std::thread::Builder::new()
        .name(format!("capellini-serve-{fp:016x}"))
        .spawn(body)
}

impl Drop for SolverService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ------------------------------------------------------------------ worker

/// Removes a panicked worker's matrix from the registry, leaving every
/// other tenant untouched. A successor entry re-admitted under the same
/// fingerprint is never torn down by a stale worker: the worker's weak
/// reference keeps its own entry's allocation from being reused, so a
/// pointer comparison tells the two apart.
fn deregister(shared: &ServiceShared, fp: u64, entry: &Weak<MatrixEntry>) {
    let mut shard = lock_ok(&shared.shards[(fp as usize) % shared.shards.len()]);
    if shard
        .entries
        .get(&fp)
        .is_some_and(|current| std::ptr::eq(Arc::as_ptr(current), entry.as_ptr()))
    {
        shard.entries.remove(&fp);
        if let Some(pos) = shard.lru.iter().position(|&f| f == fp) {
            shard.lru.remove(pos);
        }
    }
}

/// The per-matrix serving loop: builds the session (one analysis), then
/// serves the request channel in coalesced batches until every sender is
/// gone and the channel is empty.
///
/// Both the session construction and every batch run inside
/// `catch_unwind`: a panic (a bug in one matrix's analysis or kernel)
/// deregisters the matrix and returns, and dropping the batch and the
/// channel fails every affected caller with
/// [`ServiceError::WorkerPanicked`] — it never poisons the registry locks
/// for unrelated tenants or leaves callers blocked forever. The worker
/// holds only a weak reference to its entry: holding its sender would keep
/// the channel open forever.
fn worker_loop(
    shared: Arc<ServiceShared>,
    matrix: MatrixHandle,
    entry: Weak<MatrixEntry>,
    requests: Receiver<Pending>,
) {
    let config = &shared.config;
    let built = catch_unwind(AssertUnwindSafe(|| match config.algorithm {
        Some(algo) => SolverSession::with_algorithm(&config.device, matrix.matrix().clone(), algo),
        None => SolverSession::new(&config.device, matrix.matrix().clone()),
    }));
    let Ok(mut session) = built else {
        deregister(&shared, matrix.fp, &entry);
        return;
    };
    {
        let mut m = lock_ok(&shared.metrics);
        m.global.sessions_created += 1;
        m.global.analysis_ms_total += session.analysis_ms();
    }
    // A zero window disables coalescing: every request gets its own launch.
    let max_batch = if config.coalesce_window.is_zero() {
        1
    } else {
        config.max_batch
    };
    while let Ok(first) = requests.recv() {
        // Linger up to the window so near-simultaneous arrivals share the
        // launch. Under backlog a full batch is already queued and no call
        // waits. A window too long to add to `now` lingers without limit.
        let mut batch = vec![first];
        let deadline = Instant::now().checked_add(config.coalesce_window);
        while batch.len() < max_batch {
            let left = deadline.map_or(Duration::MAX, |d| {
                d.saturating_duration_since(Instant::now())
            });
            let Ok(next) = requests.recv_timeout(left) else {
                break;
            };
            batch.push(next);
        }
        if !serve_batch(&shared, &mut session, &batch) {
            // The launch panicked: the session may hold corrupt device
            // state. Deregister the matrix before returning drops the batch
            // and the channel, so a caller that sees the failure and
            // retries re-admits the matrix with a fresh session.
            deregister(&shared, matrix.fp, &entry);
            return;
        }
    }
    // Session (and its GpuDevice) dropped here: eviction bounds simulated
    // device memory.
}

/// Serves one coalesced batch and replies to each of its callers. Returns
/// `false`, replying to no one, if the launch panicked.
fn serve_batch(shared: &ServiceShared, session: &mut SolverSession, batch: &[Pending]) -> bool {
    let launch_start = Instant::now();
    let k = batch.len();
    let n = session.matrix().n();
    let launched = catch_unwind(AssertUnwindSafe(|| {
        #[cfg(test)]
        if tests::take_injected_solve_panic(session.fingerprint()) {
            panic!("injected solve panic");
        }
        if k == 1 {
            session.solve(&batch[0].b).map(|rep| (rep.x, rep.exec_ms))
        } else {
            // Pack the row-major n × k block in arrival order; column r
            // belongs to batch[r]. The multi-RHS kernels return each column
            // bit-identical to a looped single solve, so coalescing never
            // changes any tenant's answer.
            let mut bs = vec![0.0; n * k];
            for (r, p) in batch.iter().enumerate() {
                for i in 0..n {
                    bs[i * k + r] = p.b[i];
                }
            }
            session.solve_multi(&bs, k).map(|rep| (rep.x, rep.exec_ms))
        }
    }));
    let Ok(launched) = launched else {
        lock_ok(&shared.metrics).global.solve_errors += k as u64;
        return false;
    };
    // A caller blocks on its reply until it comes, so no send below fails.
    match launched {
        Ok((x, exec_ms)) => {
            let mut m = lock_ok(&shared.metrics);
            m.global.launches += 1;
            m.global.solves += k as u64;
            m.global.largest_batch = m.global.largest_batch.max(k);
            for (r, p) in batch.iter().enumerate() {
                let queue_ms = launch_start
                    .saturating_duration_since(p.enqueued)
                    .as_secs_f64()
                    * 1e3;
                m.global.queue_ms_total += queue_ms;
                let t = m.tenants.entry(p.tenant.clone()).or_default();
                t.solves += 1;
                t.coalesced_rhs += k as u64;
                t.queue_ms_total += queue_ms;
                t.queue_ms_max = t.queue_ms_max.max(queue_ms);
                let xi: Vec<f64> = if k == 1 {
                    x.clone()
                } else {
                    (0..n).map(|i| x[i * k + r]).collect()
                };
                let _ = p.reply.send(Ok(ServiceResponse {
                    x: xi,
                    algorithm: session.algorithm(),
                    batch_size: k,
                    exec_ms,
                    queue_ms,
                }));
            }
        }
        Err(e) => {
            lock_ok(&shared.metrics).global.solve_errors += k as u64;
            for p in batch {
                let _ = p.reply.send(Err(ServiceError::Solve(e.clone())));
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use capellini_sparse::gen;

    /// Fault injection, keyed by matrix fingerprint so concurrently running
    /// tests (each using distinct matrices) never consume each other's
    /// injected faults.
    static INJECTED_SPAWN_FAILURE: Mutex<Option<u64>> = Mutex::new(None);
    static INJECTED_SOLVE_PANIC: Mutex<Option<u64>> = Mutex::new(None);

    fn inject_spawn_failure(fp: u64) {
        *lock_ok(&INJECTED_SPAWN_FAILURE) = Some(fp);
    }

    pub(super) fn take_injected_spawn_failure(fp: u64) -> bool {
        let mut g = lock_ok(&INJECTED_SPAWN_FAILURE);
        if *g == Some(fp) {
            *g = None;
            true
        } else {
            false
        }
    }

    fn inject_solve_panic(fp: u64) {
        *lock_ok(&INJECTED_SOLVE_PANIC) = Some(fp);
    }

    pub(super) fn take_injected_solve_panic(fp: u64) -> bool {
        let mut g = lock_ok(&INJECTED_SOLVE_PANIC);
        if *g == Some(fp) {
            *g = None;
            true
        } else {
            false
        }
    }

    fn cfg() -> DeviceConfig {
        DeviceConfig::pascal_like().scaled_down(4)
    }

    fn rhs(n: usize, seed: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 37 + seed * 13 + 5) % 31) as f64 - 15.0)
            .collect()
    }

    #[test]
    fn single_request_matches_a_fresh_session() {
        let l = gen::powerlaw(300, 2.6, 11);
        let handle = MatrixHandle::new(l.clone());
        let service = SolverService::new(ServiceConfig::new(cfg()));
        let b = rhs(l.n(), 0);
        let resp = service.solve("t0", &handle, &b).expect("served");
        let mut reference = SolverSession::new(&cfg(), l);
        let expect = reference.solve(&b).expect("reference");
        assert_eq!(resp.algorithm, reference.algorithm());
        for (a, e) in resp.x.iter().zip(&expect.x) {
            assert_eq!(a.to_bits(), e.to_bits());
        }
        assert_eq!(resp.batch_size, 1);
        assert!(resp.queue_ms >= 0.0);
        let m = service.metrics();
        assert_eq!(m.solves, 1);
        assert_eq!(m.launches, 1);
        assert_eq!(m.sessions_created, 1);
        assert_eq!(m.resident_sessions, 1);
        let t = service.tenant_metrics("t0").expect("tenant seen");
        assert_eq!(t.solves, 1);
        assert_eq!(t.rejects, 0);
    }

    #[test]
    fn wrong_rhs_length_is_rejected_before_queueing() {
        let l = gen::diagonal(16);
        let handle = MatrixHandle::new(l);
        let service = SolverService::new(ServiceConfig::new(cfg()));
        let err = service.solve("t0", &handle, &[1.0; 7]).unwrap_err();
        assert!(matches!(err, ServiceError::BadRequest(_)));
        assert!(err.to_string().contains('7'));
        assert_eq!(service.metrics().solves, 0);
        assert_eq!(service.metrics().resident_sessions, 0);
    }

    #[test]
    fn lru_eviction_bounds_resident_sessions() {
        let mats: Vec<_> = (0..3)
            .map(|s| MatrixHandle::new(gen::chain(48, 1, 100 + s)))
            .collect();
        let service = SolverService::new(
            ServiceConfig::new(cfg())
                .with_shards(1)
                .with_sessions_per_shard(2),
        );
        for (i, h) in mats.iter().enumerate() {
            service
                .solve("t0", h, &rhs(h.matrix().n(), i))
                .expect("served");
        }
        let m = service.metrics();
        assert_eq!(m.sessions_created, 3);
        assert!(m.evictions >= 1, "third matrix must evict the LRU entry");
        assert!(m.resident_sessions <= 2);
        // Re-admission of the evicted matrix: transparent, re-analyzed.
        service
            .solve("t0", &mats[0], &rhs(mats[0].matrix().n(), 9))
            .expect("re-admitted");
        assert!(service.metrics().sessions_created >= 4);
    }

    #[test]
    fn spawn_failure_is_recoverable_and_releases_the_entry() {
        let l = gen::powerlaw(200, 2.5, 41);
        let handle = MatrixHandle::new(l.clone());
        let service = SolverService::new(ServiceConfig::new(cfg()));
        let b = rhs(l.n(), 3);

        inject_spawn_failure(handle.fingerprint());
        let err = service.solve("t0", &handle, &b).unwrap_err();
        match err {
            ServiceError::SpawnFailed {
                fingerprint,
                ref reason,
            } => {
                assert_eq!(fingerprint, handle.fingerprint());
                assert!(reason.contains("injected spawn failure"));
            }
            other => panic!("expected SpawnFailed, got {other:?}"),
        }
        // The failed admission published nothing.
        let m = service.metrics();
        assert_eq!(m.resident_sessions, 0);
        assert_eq!(m.sessions_created, 0);

        // A plain retry re-admits the matrix and serves it correctly.
        let resp = service.solve("t0", &handle, &b).expect("retry re-admits");
        let mut reference = SolverSession::new(&cfg(), l);
        let expect = reference.solve(&b).expect("reference");
        for (a, e) in resp.x.iter().zip(&expect.x) {
            assert_eq!(a.to_bits(), e.to_bits());
        }
    }

    #[test]
    fn panicking_worker_does_not_take_down_unrelated_tenants() {
        let bad = gen::powerlaw(180, 2.4, 71);
        let good = gen::powerlaw(220, 2.6, 72);
        let bad_h = MatrixHandle::new(bad.clone());
        let good_h = MatrixHandle::new(good.clone());
        let service = SolverService::new(ServiceConfig::new(cfg()));
        let gb = rhs(good.n(), 1);
        let bb = rhs(bad.n(), 2);
        let first = service.solve("good", &good_h, &gb).expect("good serves");

        inject_solve_panic(bad_h.fingerprint());
        let err = service.solve("bad", &bad_h, &bb).unwrap_err();
        assert!(
            matches!(err, ServiceError::WorkerPanicked { fingerprint }
                if fingerprint == bad_h.fingerprint()),
            "expected WorkerPanicked, got {err:?}"
        );
        assert!(service.metrics().solve_errors >= 1);

        // The unrelated tenant still serves, bit-identical to before.
        let again = service
            .solve("good", &good_h, &gb)
            .expect("good unaffected");
        for (a, e) in again.x.iter().zip(&first.x) {
            assert_eq!(a.to_bits(), e.to_bits());
        }

        // The panicked matrix re-admits with a fresh session on retry.
        let recovered = service.solve("bad", &bad_h, &bb).expect("bad re-admits");
        let mut reference = SolverSession::new(&cfg(), bad);
        let expect = reference.solve(&bb).expect("reference");
        for (a, e) in recovered.x.iter().zip(&expect.x) {
            assert_eq!(a.to_bits(), e.to_bits());
        }
    }

    /// The count fields are public, so a 0 can bypass the `with_*` clamps;
    /// the service runs, and reports, a bound of 1 for each instead.
    #[test]
    fn zero_valued_counts_run_as_one() {
        let l = gen::powerlaw(150, 2.5, 43);
        let handle = MatrixHandle::new(l.clone());
        let mut config = ServiceConfig::new(cfg());
        config.shards = 0;
        config.sessions_per_shard = 0;
        config.max_batch = 0;
        config.max_queue_depth = 0;
        let service = SolverService::new(config);
        let b = rhs(l.n(), 4);
        let resp = service.solve("t0", &handle, &b).expect("served");
        let expect = SolverSession::new(&cfg(), l).solve(&b).expect("reference");
        for (a, e) in resp.x.iter().zip(&expect.x) {
            assert_eq!(a.to_bits(), e.to_bits());
        }
        let c = service.config();
        assert_eq!(
            (
                c.shards,
                c.sessions_per_shard,
                c.max_batch,
                c.max_queue_depth
            ),
            (1, 1, 1, 1)
        );
    }

    /// A window too long to add to `Instant::now()` lingers until the batch
    /// is full instead of panicking the worker.
    #[test]
    fn unbounded_window_lingers_for_a_full_batch() {
        let l = gen::powerlaw(160, 2.5, 44);
        let handle = MatrixHandle::new(l.clone());
        let service = SolverService::new(
            ServiceConfig::new(cfg())
                .with_coalesce_window(Duration::MAX)
                .with_max_batch(2),
        );
        std::thread::scope(|scope| {
            for seed in 0..2 {
                let (service, handle) = (&service, &handle);
                scope.spawn(move || {
                    let resp = service
                        .solve("t0", handle, &rhs(handle.matrix().n(), seed))
                        .expect("served");
                    assert_eq!(resp.batch_size, 2);
                });
            }
        });
        assert_eq!(service.metrics().launches, 1);
    }

    #[test]
    fn metrics_divisions_are_finite_on_empty_service() {
        let m = ServiceMetrics::default();
        assert_eq!(m.mean_batch(), 0.0);
        let t = TenantMetrics::default();
        assert_eq!(t.mean_batch(), 0.0);
        assert_eq!(t.mean_queue_ms(), 0.0);
    }
}
