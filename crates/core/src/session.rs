//! Amortized batched solving: a [`SolverSession`] analyzes a matrix **once**
//! — statistics, level sets, CSC transpose, algorithm selection, device
//! uploads — and then serves many `solve` / `solve_multi` calls against the
//! same persistent simulated device with **zero re-analysis**.
//!
//! This is the workflow the paper's preprocessing discussion (§2, Table 1)
//! motivates: triangular solves are rarely one-shot. Preconditioned
//! iterative methods and multi-step time integrators solve `L x = b` with
//! the *same* `L` hundreds of times, so analysis cost amortizes to nothing
//! while per-solve cost is what matters. The session keeps:
//!
//! * the matrix fingerprint ([`capellini_sparse::fingerprint`](fn@capellini_sparse::fingerprint)) identifying
//!   what the cached analysis belongs to,
//! * the host-side analysis products (statistics, level sets, in-degrees),
//! * the device-resident analysis products (CSR arrays, level order, the
//!   cuSPARSE-style row info, the hybrid task plan, the CSC scatter arrays),
//! * a pooled `b`/`x`/`get_value` allocation reused across solves (with
//!   full-capacity scrubbing so a smaller solve never observes a larger
//!   predecessor — see [`PooledSolveBuffers`]),
//! * and the persistent [`GpuDevice`], whose grid-plan cache makes repeated
//!   same-shape launches skip residency assignment entirely.
//!
//! Warm solves therefore report `preprocessing_ms = 0`; the one-time cost
//! is available as [`SolverSession::analysis_ms`].

use std::collections::BTreeMap;

use capellini_simt::{BufU32, DeviceConfig, GpuDevice, HostCostModel, LaunchStats, SimtError};
use capellini_sparse::{fingerprint, LevelSets, LowerTriangularCsr, MatrixStats, RowPartition};

use crate::buffers::{check_rhs_block, check_rhs_len, DeviceCsr, PooledSolveBuffers};
use crate::kernels;
use crate::kernels::syncfree_csc::DeviceCsc;
use crate::select::{recommend, Algorithm};
use crate::shard::{solve_sharded_with_partition, ShardConfig, ShardedReport};
use crate::solver::{MultiSolveReport, SolveReport};

/// True when `algorithm` has a dedicated SpTRSM kernel: the evaluation trio
/// (SyncFree, cuSPARSE-like, Writing-First).
pub(crate) fn has_batched_kernel(algorithm: Algorithm) -> bool {
    matches!(
        algorithm,
        Algorithm::SyncFree | Algorithm::CusparseLike | Algorithm::CapelliniWritingFirst
    )
}

/// Per-algorithm cached analysis state, computed once at session creation.
enum Analysis {
    /// No analysis products beyond the CSR upload (Writing-First, Two-Phase,
    /// SyncFree, Naive).
    Plain,
    /// Level-set analysis plus the device-resident solve order (Level-Set).
    Levels { levels: LevelSets, order: BufU32 },
    /// The cuSPARSE-style per-row info array (cuSPARSE-like).
    Info(BufU32),
    /// The encoded warp/thread task plan (Hybrid).
    Tasks { tasks: BufU32, n_tasks: usize },
    /// CSC transpose, scatter arrays, and the host copy of the in-degrees
    /// used to re-arm the consumable countdown before every solve
    /// (SyncFree-CSC).
    Csc { dc: DeviceCsc, deg: Vec<u32> },
    /// The device-resident coarsened work-unit schedule (Scheduled).
    Sched(kernels::scheduled::DeviceSchedule),
}

/// A solver bound to one matrix *and one device*: all analysis runs at
/// construction, every subsequent solve reuses it. See the module docs.
pub struct SolverSession {
    config: DeviceConfig,
    dev: GpuDevice,
    l: LowerTriangularCsr,
    stats: MatrixStats,
    fp: u64,
    algorithm: Algorithm,
    analysis_ms: f64,
    dm: DeviceCsr,
    pool: PooledSolveBuffers,
    analysis: Analysis,
    solves: u64,
    /// Row partitions cached per device count for [`SolverSession::solve_sharded`].
    partitions: BTreeMap<usize, RowPartition>,
}

impl SolverSession {
    /// Analyzes `l` once and binds it to a fresh device of the given
    /// configuration, selecting the algorithm by the Figure 6 rule.
    ///
    /// The statistics pass (a full level-set analysis) runs exactly once and
    /// is threaded through to both the recommendation and the cached
    /// [`SolverSession::stats`] — pinned by
    /// `construction_computes_statistics_exactly_once` below.
    pub fn new(config: &DeviceConfig, l: LowerTriangularCsr) -> Self {
        let stats = MatrixStats::compute(&l);
        let algorithm = recommend(&stats);
        Self::build(config, l, algorithm, stats)
    }

    /// Analyzes `l` once for an explicitly chosen algorithm.
    pub fn with_algorithm(
        config: &DeviceConfig,
        l: LowerTriangularCsr,
        algorithm: Algorithm,
    ) -> Self {
        let stats = MatrixStats::compute(&l);
        Self::build(config, l, algorithm, stats)
    }

    /// Shared constructor body: takes the already-computed statistics so
    /// neither entry point pays the statistics pass twice.
    fn build(
        config: &DeviceConfig,
        l: LowerTriangularCsr,
        algorithm: Algorithm,
        stats: MatrixStats,
    ) -> Self {
        let mut dev = GpuDevice::new(config.clone());
        let host = HostCostModel::default();
        let n = l.n();
        let nnz = l.nnz();
        let fp = fingerprint(&l);
        let dm = DeviceCsr::upload(&mut dev, &l);

        let (analysis, analysis_ms) = match algorithm {
            Algorithm::LevelSet => {
                let levels = LevelSets::analyze(&l);
                let pre = host.levelset_preprocessing_ms(n, nnz, levels.n_levels());
                let order = dev.mem().alloc_u32(levels.order());
                (Analysis::Levels { levels, order }, pre)
            }
            Algorithm::SyncFree => (Analysis::Plain, host.syncfree_preprocessing_ms(n, nnz)),
            Algorithm::SyncFreeCsc => {
                // CSC conversion plus the in-degree sweep (one pass over n rows).
                let pre = host.syncfree_preprocessing_ms(n, nnz) + (n as f64 * 0.3) / 1e6;
                let csc = l.csr().to_csc();
                let deg = kernels::syncfree_csc::in_degrees(&csc);
                let dc = kernels::syncfree_csc::upload_csc(&mut dev, &csc, &deg);
                (Analysis::Csc { dc, deg }, pre)
            }
            Algorithm::CusparseLike => {
                let pre = host.cusparse_preprocessing_ms(n, nnz);
                let info = kernels::cusparse_like_multi::build_info(&mut dev, dm);
                (Analysis::Info(info), pre)
            }
            Algorithm::CapelliniTwoPhase
            | Algorithm::CapelliniWritingFirst
            | Algorithm::NaiveThread => (Analysis::Plain, host.capellini_preprocessing_ms(n)),
            Algorithm::Hybrid => {
                // Task planning walks row_ptr once: charge it like a light
                // analysis pass.
                let pre = host.capellini_preprocessing_ms(n) + (n as f64 * 1.2) / 1e6;
                let (tasks, n_tasks) =
                    kernels::hybrid::upload_tasks(&mut dev, &l, kernels::hybrid::DEFAULT_THRESHOLD);
                (Analysis::Tasks { tasks, n_tasks }, pre)
            }
            Algorithm::Scheduled => {
                let levels = LevelSets::analyze(&l);
                let pre = host.scheduled_preprocessing_ms(n, nnz, levels.n_levels());
                let schedule = capellini_sparse::Schedule::build(
                    &l,
                    &levels,
                    capellini_sparse::ScheduleParams::for_warp(config.warp_size),
                );
                let ds = kernels::scheduled::upload_schedule(&mut dev, &schedule);
                (Analysis::Sched(ds), pre)
            }
        };

        let pool = PooledSolveBuffers::new(&mut dev, n, n);
        SolverSession {
            config: config.clone(),
            dev,
            l,
            stats,
            fp,
            algorithm,
            analysis_ms,
            dm,
            pool,
            analysis,
            solves: 0,
            partitions: BTreeMap::new(),
        }
    }

    /// Solves `L x = b` sharded across `shard.devices` simulated devices
    /// (see [`crate::shard::solve_sharded`]), reusing the session's cached
    /// row partition for that device count — the partition is built on the
    /// first call per device count and reused afterwards.
    ///
    /// The sharded path uses fresh per-shard devices (the boundary exchange
    /// needs per-device watch state), so the session's persistent device and
    /// pooled buffers are untouched; only the partitioning analysis is
    /// amortized here.
    pub fn solve_sharded(
        &mut self,
        b: &[f64],
        shard: &ShardConfig,
    ) -> Result<ShardedReport, SimtError> {
        shard.validate()?;
        let part = self
            .partitions
            .entry(shard.devices)
            .or_insert_with(|| RowPartition::build(&self.l, shard.devices, self.config.warp_size))
            .clone();
        let report =
            solve_sharded_with_partition(&self.config, &self.l, b, self.algorithm, shard, part)?;
        self.solves += 1;
        Ok(report)
    }

    /// Number of distinct device counts with a cached row partition.
    pub fn cached_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Solves `L x = b` reusing every cached analysis product. Warm by
    /// construction: no level-set analysis, no CSC conversion, no task
    /// planning, no matrix upload happens here, and `preprocessing_ms` is
    /// reported as zero.
    ///
    /// A right-hand side of the wrong length is a recoverable
    /// [`SimtError::Launch`], not a panic.
    pub fn solve(&mut self, b: &[f64]) -> Result<SolveReport, SimtError> {
        let n = self.l.n();
        check_rhs_len(b, n)?;
        self.pool.prepare(&mut self.dev, b, n);
        let stats = self.launch_single()?;
        self.solves += 1;
        Ok(SolveReport {
            algorithm: self.algorithm,
            x: self.pool.read_x(&self.dev),
            exec_ms: stats.time_ms(&self.config),
            gflops: stats.gflops(&self.config, 2 * self.l.nnz() as u64),
            bandwidth_gbs: stats.bandwidth_gbs(&self.config),
            stats,
            preprocessing_ms: 0.0,
            profiles: self.dev.take_profiles(),
        })
    }

    /// Solves `L X = B` for `nrhs` right-hand sides packed row-major in `bs`
    /// (`bs[i*nrhs + r]`). The evaluation trio (SyncFree, cuSPARSE-like,
    /// Writing-First) runs its batched SpTRSM kernel — one launch for all
    /// columns; every other algorithm falls back to `nrhs` looped warm
    /// solves with accumulated statistics. Either way `X` comes back
    /// row-major `n × nrhs` and bit-identical to column-by-column solving
    /// (pinned by `tests/batched.rs`).
    pub fn solve_multi(&mut self, bs: &[f64], nrhs: usize) -> Result<MultiSolveReport, SimtError> {
        let n = self.l.n();
        check_rhs_block(bs, n, nrhs)?;
        if nrhs == 0 {
            // An empty success that does not count as a served solve.
            return Ok(MultiSolveReport::empty(self.algorithm));
        }

        let (x, stats) = if self.batched_kernel_available() {
            self.pool.prepare(&mut self.dev, bs, n);
            let mb = self.pool.view_multi(nrhs);
            let stats = match self.algorithm {
                Algorithm::SyncFree => {
                    kernels::syncfree_multi::launch_multi(&mut self.dev, self.dm, mb)?
                }
                Algorithm::CusparseLike => {
                    let Analysis::Info(info) = &self.analysis else {
                        unreachable!("cusparse session always caches row info")
                    };
                    let info = *info;
                    kernels::cusparse_like_multi::launch_multi_with_info(
                        &mut self.dev,
                        self.dm,
                        mb,
                        info,
                    )?
                }
                Algorithm::CapelliniWritingFirst => {
                    kernels::writing_first_multi::launch_multi(&mut self.dev, self.dm, mb)?
                }
                _ => unreachable!("batched_kernel_available covers exactly the trio"),
            };
            (self.pool.read_x(&self.dev), stats)
        } else {
            // Looped fallback: one warm single-RHS solve per column, packed
            // back into the row-major block.
            let mut x = vec![0.0; n * nrhs];
            let mut total = LaunchStats::default();
            let mut col = vec![0.0; n];
            for r in 0..nrhs {
                for i in 0..n {
                    col[i] = bs[i * nrhs + r];
                }
                self.pool.prepare(&mut self.dev, &col, n);
                let stats = self.launch_single()?;
                total.accumulate(&stats);
                for (i, &xi) in self.pool.read_x(&self.dev).iter().enumerate() {
                    x[i * nrhs + r] = xi;
                }
            }
            (x, total)
        };
        self.solves += 1;
        let useful_flops = 2 * self.l.nnz() as u64 * nrhs as u64;
        Ok(MultiSolveReport {
            algorithm: self.algorithm,
            nrhs,
            x,
            exec_ms: stats.time_ms(&self.config),
            gflops: stats.gflops(&self.config, useful_flops),
            bandwidth_gbs: stats.bandwidth_gbs(&self.config),
            stats,
            preprocessing_ms: 0.0,
        })
    }

    /// Launches the session's algorithm against the already-prepared pool.
    fn launch_single(&mut self) -> Result<LaunchStats, SimtError> {
        let sb = self.pool.view();
        match &self.analysis {
            Analysis::Levels { levels, order } => kernels::levelset::launch_with_uploaded_levels(
                &mut self.dev,
                self.dm,
                sb,
                levels,
                *order,
            ),
            Analysis::Info(info) => {
                kernels::cusparse_like::launch_with_info(&mut self.dev, self.dm, sb, *info)
            }
            Analysis::Tasks { tasks, n_tasks } => {
                kernels::hybrid::launch_with_tasks(&mut self.dev, self.dm, sb, *tasks, *n_tasks)
            }
            Analysis::Sched(ds) => {
                kernels::scheduled::launch_with_schedule(&mut self.dev, self.dm, sb, *ds)
            }
            Analysis::Csc { dc, deg } => {
                // The scatter kernel consumes its in-degree countdown and
                // left-sum accumulators; re-arm them from the cached host
                // copy (no re-analysis — the degrees were computed once).
                kernels::syncfree_csc::rearm(&mut self.dev, *dc, deg);
                kernels::syncfree_csc::launch_uploaded(&mut self.dev, *dc, sb.b, sb.x)
            }
            Analysis::Plain => match self.algorithm {
                Algorithm::SyncFree => kernels::syncfree::launch(&mut self.dev, self.dm, sb),
                Algorithm::CapelliniTwoPhase => {
                    kernels::two_phase::launch(&mut self.dev, self.dm, sb)
                }
                Algorithm::CapelliniWritingFirst => {
                    kernels::writing_first::launch(&mut self.dev, self.dm, sb)
                }
                Algorithm::NaiveThread => kernels::naive::launch(&mut self.dev, self.dm, sb),
                _ => unreachable!("analysis-carrying algorithms never store Plain"),
            },
        }
    }

    /// True when the session's algorithm has a dedicated SpTRSM kernel.
    pub fn batched_kernel_available(&self) -> bool {
        has_batched_kernel(self.algorithm)
    }

    /// The matrix this session is bound to.
    pub fn matrix(&self) -> &LowerTriangularCsr {
        &self.l
    }

    /// The matrix statistics computed at construction.
    pub fn stats(&self) -> &MatrixStats {
        &self.stats
    }

    /// The content fingerprint of the bound matrix — what the cached
    /// analysis belongs to.
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// The algorithm every solve of this session runs.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The one-time host analysis cost paid at construction, in ms — the
    /// number that amortizes across [`SolverSession::solve`] calls.
    pub fn analysis_ms(&self) -> f64 {
        self.analysis_ms
    }

    /// How many solves (single or batched) this session has served.
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// The persistent device (for inspecting e.g. grid-plan reuse counts).
    pub fn device(&self) -> &GpuDevice {
        &self.dev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::solve_simulated;
    use capellini_sparse::diagnostics::analysis_counts;
    use capellini_sparse::{gen, linalg};

    fn rhs(n: usize, seed: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 31 + seed * 17 + 7) % 29) as f64 - 14.0)
            .collect()
    }

    /// The tentpole acceptance test: after construction, repeated session
    /// solves perform *zero* re-analysis — no statistics pass, level-set
    /// analysis, schedule build or CSC conversion — and still match the
    /// cold path bitwise.
    #[test]
    fn warm_solves_do_zero_reanalysis_for_every_algorithm() {
        let l = gen::layered(300, 4, 5, 91);
        let cfg = DeviceConfig::pascal_like();
        for algo in Algorithm::all_live() {
            // Cold controls first, so their own analysis passes don't count
            // against the session.
            let colds: Vec<Vec<f64>> = (0..3)
                .map(|seed| {
                    solve_simulated(&cfg, &l, &rhs(l.n(), seed), algo)
                        .unwrap()
                        .x
                })
                .collect();
            let mut session = SolverSession::with_algorithm(&cfg, l.clone(), algo);
            let before = analysis_counts();
            for (seed, cold) in colds.iter().enumerate() {
                let b = rhs(l.n(), seed);
                let warm = session.solve(&b).unwrap();
                assert_eq!(warm.x.len(), cold.len());
                if algo == Algorithm::SyncFreeCsc && seed > 0 {
                    // A cold solve is a fresh session's first solve, so seed
                    // 0 is bitwise. The CSC scatter accumulates via atomics
                    // in launch-schedule order, and later solves run on a
                    // device whose memory state has moved on — they agree
                    // to rounding, not bitwise.
                    linalg::assert_solutions_close(&warm.x, cold, 1e-11);
                } else {
                    for (w, c) in warm.x.iter().zip(cold) {
                        assert_eq!(w.to_bits(), c.to_bits(), "{}: warm != cold", algo.label());
                    }
                }
                assert_eq!(warm.preprocessing_ms, 0.0);
            }
            assert_eq!(
                analysis_counts(),
                before,
                "{}: warm solves re-ran an analysis pass",
                algo.label()
            );
            assert_eq!(session.solves(), 3);
            assert!(session.analysis_ms() >= 0.0);
        }
    }

    /// Same-shape repeated launches hit the device's grid-plan cache.
    #[test]
    fn repeated_solves_reuse_the_grid_plan() {
        let l = gen::powerlaw(600, 3.0, 92);
        let cfg = DeviceConfig::pascal_like();
        let mut session = SolverSession::with_algorithm(&cfg, l.clone(), Algorithm::SyncFree);
        let b = rhs(l.n(), 1);
        session.solve(&b).unwrap();
        let after_first = session.device().grid_reuses();
        session.solve(&b).unwrap();
        session.solve(&b).unwrap();
        assert!(
            session.device().grid_reuses() >= after_first + 2,
            "warm launches must reuse the cached grid plan"
        );
    }

    /// Regression: `SolverSession::new` used to run the statistics pass
    /// twice — once for `recommend`, again inside `with_algorithm`. Both
    /// constructors must pay for exactly one `MatrixStats::compute` (and,
    /// for a non-level-set recommendation, exactly one level-set analysis —
    /// the one inside that statistics pass).
    #[test]
    fn construction_computes_statistics_exactly_once() {
        // Wide + sparse: recommend() picks Writing-First, which needs no
        // level-set analysis of its own beyond the statistics pass.
        let l = gen::ultra_sparse_wide(2_000, 8, 1, 97);
        let cfg = DeviceConfig::pascal_like();

        let before = analysis_counts();
        let session = SolverSession::new(&cfg, l.clone());
        assert_eq!(session.algorithm(), Algorithm::CapelliniWritingFirst);
        let after = analysis_counts();
        assert_eq!(
            after.stats,
            before.stats + 1,
            "SolverSession::new must run the statistics pass exactly once"
        );
        assert_eq!(
            after.levels,
            before.levels + 1,
            "SolverSession::new must run level-set analysis exactly once (inside the statistics pass)"
        );

        let before = analysis_counts();
        let _session = SolverSession::with_algorithm(&cfg, l, Algorithm::SyncFree);
        assert_eq!(
            analysis_counts().stats,
            before.stats + 1,
            "SolverSession::with_algorithm must run the statistics pass exactly once"
        );
    }

    /// Regression: an nrhs so large that `n * nrhs` overflows usize is the
    /// structured Launch error, not an arithmetic panic.
    #[test]
    fn solve_multi_overflowing_nrhs_is_a_launch_error() {
        let l = gen::diagonal(8);
        let cfg = DeviceConfig::pascal_like();
        let mut session = SolverSession::new(&cfg, l);
        let err = session.solve_multi(&[1.0; 8], usize::MAX).unwrap_err();
        assert!(matches!(err, SimtError::Launch(_)));
        assert!(err.to_string().contains("overflows"));
        assert_eq!(session.solves(), 0);
    }

    #[test]
    fn fingerprint_identifies_the_bound_matrix() {
        let l = gen::chain(64, 1, 93);
        let cfg = DeviceConfig::pascal_like();
        let session = SolverSession::new(&cfg, l.clone());
        assert_eq!(session.fingerprint(), fingerprint(&l));
        let other = gen::chain(64, 1, 94);
        let s2 = SolverSession::new(&cfg, other.clone());
        assert_ne!(session.fingerprint(), s2.fingerprint());
    }

    #[test]
    fn wrong_rhs_length_is_an_error_not_a_panic() {
        let l = gen::diagonal(16);
        let cfg = DeviceConfig::pascal_like();
        let mut session = SolverSession::new(&cfg, l);
        let err = session.solve(&[1.0; 7]).unwrap_err();
        assert!(matches!(err, SimtError::Launch(_)));
        assert!(
            err.to_string().contains('7'),
            "message names the bad length"
        );
        let err = session.solve_multi(&[1.0; 9], 2).unwrap_err();
        assert!(matches!(err, SimtError::Launch(_)));
        // nrhs == 0 with a non-empty block is still a shape mismatch...
        let err = session.solve_multi(&[1.0; 16], 0).unwrap_err();
        assert!(matches!(err, SimtError::Launch(_)));
        assert_eq!(session.solves(), 0);
    }

    /// Regression (the nrhs == 0 satellite): a zero-column batched solve is
    /// a well-formed empty success with zeroed stats, launches nothing, and
    /// leaves the session fully usable.
    #[test]
    fn solve_multi_with_zero_rhs_is_an_empty_success() {
        let l = gen::diagonal(16);
        let cfg = DeviceConfig::pascal_like();
        let mut session = SolverSession::new(&cfg, l.clone());
        let rep = session.solve_multi(&[], 0).unwrap();
        assert_eq!(rep.nrhs, 0);
        assert!(rep.x.is_empty());
        assert_eq!(
            format!("{:?}", rep.stats),
            format!("{:?}", LaunchStats::default())
        );
        assert_eq!(rep.exec_ms, 0.0);
        assert_eq!(rep.gflops, 0.0);
        assert_eq!(rep.bandwidth_gbs, 0.0);
        assert_eq!(session.solves(), 0, "no solve was served");
        // The session still works normally afterwards.
        let b = rhs(16, 1);
        let warm = session.solve(&b).unwrap();
        let want = crate::reference::solve_serial_csr(&l, &b);
        linalg::assert_solutions_close(&warm.x, &want, 1e-12);
    }

    /// Batched and looped fallback agree with cold single solves, bitwise.
    #[test]
    fn solve_multi_matches_columnwise_solves() {
        let l = gen::circuit_like(250, 4, 48, 95);
        let n = l.n();
        let nrhs = 3;
        let cfg = DeviceConfig::pascal_like();
        let mut bs = vec![0.0; n * nrhs];
        let mut cols: Vec<Vec<f64>> = Vec::new();
        for r in 0..nrhs {
            let b = rhs(n, r + 10);
            for i in 0..n {
                bs[i * nrhs + r] = b[i];
            }
            cols.push(b);
        }
        // One trio member (dedicated kernel) and one fallback algorithm.
        for algo in [Algorithm::CapelliniWritingFirst, Algorithm::LevelSet] {
            let mut session = SolverSession::with_algorithm(&cfg, l.clone(), algo);
            let multi = session.solve_multi(&bs, nrhs).unwrap();
            assert_eq!(multi.nrhs, nrhs);
            assert_eq!(multi.x.len(), n * nrhs);
            for (r, b) in cols.iter().enumerate() {
                let cold = solve_simulated(&cfg, &l, b, algo).unwrap();
                for i in 0..n {
                    assert_eq!(
                        multi.x[i * nrhs + r].to_bits(),
                        cold.x[i].to_bits(),
                        "{}: rhs {r} row {i}",
                        algo.label()
                    );
                }
            }
        }
    }

    /// Session sharded solves reuse one cached partition per device count
    /// and stay bit-identical to both the session's own single-device warm
    /// path and the cold sharded entry point.
    #[test]
    fn sharded_session_solves_cache_the_partition() {
        use crate::shard::ShardConfig;
        let l = gen::random_k(500, 5, 70, 98);
        let cfg = DeviceConfig::pascal_like();
        let mut session =
            SolverSession::with_algorithm(&cfg, l.clone(), Algorithm::CapelliniWritingFirst);
        assert_eq!(session.cached_partitions(), 0);
        let b = rhs(l.n(), 2);
        let warm = session.solve(&b).unwrap();
        let shard = ShardConfig::pcie(3);
        let r1 = session.solve_sharded(&b, &shard).unwrap();
        let r2 = session.solve_sharded(&b, &shard).unwrap();
        assert_eq!(session.cached_partitions(), 1, "one partition per count");
        session.solve_sharded(&b, &ShardConfig::pcie(2)).unwrap();
        assert_eq!(session.cached_partitions(), 2);
        for ((a, c), w) in r1.x.iter().zip(&r2.x).zip(&warm.x) {
            assert_eq!(a.to_bits(), c.to_bits(), "sharded solves must repeat");
            assert_eq!(a.to_bits(), w.to_bits(), "sharded must match unsharded");
        }
        assert_eq!(session.solves(), 4);
        let err = session.solve_sharded(&[1.0; 3], &shard).unwrap_err();
        assert!(matches!(err, SimtError::Launch(_)));
    }

    /// A session survives interleaving batched and single solves and a
    /// shrink of the active size (the pool regression, end to end).
    #[test]
    fn interleaved_single_and_batched_solves_stay_correct() {
        let l = gen::banded(120, 6, 0.5, 96);
        let n = l.n();
        let cfg = DeviceConfig::pascal_like();
        let mut session = SolverSession::with_algorithm(&cfg, l.clone(), Algorithm::SyncFree);
        // Batched first: the pool grows to n*4 elements.
        let bs: Vec<f64> = (0..n * 4).map(|i| ((i % 13) as f64) - 6.0).collect();
        session.solve_multi(&bs, 4).unwrap();
        // Then a single solve: active size shrinks to n.
        let b = rhs(n, 3);
        let warm = session.solve(&b).unwrap();
        assert_eq!(warm.x.len(), n);
        let x_ref = crate::reference::solve_serial_csr(&l, &b);
        linalg::assert_solutions_close(&warm.x, &x_ref, 1e-11);
        assert_eq!(session.solves(), 2);
    }
}
