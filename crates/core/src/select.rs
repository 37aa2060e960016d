//! Algorithm selection: the enumeration of every SpTRSV implementation in
//! this library, the Table 2 property summary, the granularity-based
//! recommendation rule extracted from the paper's Figure 6, and the
//! cost-aware reuse rule that weighs the scheduled kernel's analysis cost
//! against its predicted execution win.

use capellini_simt::CacheConfig;
use capellini_sparse::{MatrixStats, ScheduleStats};

/// Every SpTRSV algorithm this library implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Algorithm 2: level-sets with one launch per level.
    LevelSet,
    /// Algorithm 3: warp-level synchronization-free (Liu et al. \[20\]).
    SyncFree,
    /// Liu et al.'s original CSC scatter formulation (warp per column,
    /// atomics + in-degree countdown).
    SyncFreeCsc,
    /// The cuSPARSE black-box stand-in (§2.4).
    CusparseLike,
    /// Algorithm 4: Two-Phase CapelliniSpTRSV.
    CapelliniTwoPhase,
    /// Algorithm 5: Writing-First CapelliniSpTRSV (the headline algorithm).
    CapelliniWritingFirst,
    /// The §3.3 straw man (deadlocks on intra-warp dependencies).
    NaiveThread,
    /// §4.4 warp/thread hybrid.
    Hybrid,
    /// Level-coarsened, load-balanced work units with per-unit flags
    /// (arXiv 2503.05408; ROADMAP 5(a)).
    Scheduled,
}

impl Algorithm {
    /// Display label matching the paper's naming.
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::LevelSet => "Level-Set",
            Algorithm::SyncFree => "SyncFree",
            Algorithm::SyncFreeCsc => "SyncFree-CSC",
            Algorithm::CusparseLike => "cuSPARSE",
            Algorithm::CapelliniTwoPhase => "Capellini (Two-Phase)",
            Algorithm::CapelliniWritingFirst => "Capellini",
            Algorithm::NaiveThread => "Naive thread-level",
            Algorithm::Hybrid => "Hybrid (warp+thread)",
            Algorithm::Scheduled => "Scheduled (coarsened units)",
        }
    }

    /// This algorithm's Table 2-style property row (the paper's table only
    /// covers four algorithms; this extends the same vocabulary to all of
    /// them, for `sptrsv --list-algos`).
    pub fn trait_row(self) -> TraitRow {
        let (preprocessing, storage, synchronization, granularity) = match self {
            Algorithm::LevelSet => ("high", "CSR", "yes", "thread/warp"),
            Algorithm::SyncFree => ("low", "CSC", "no", "warp"),
            Algorithm::SyncFreeCsc => ("low", "CSC", "no", "warp"),
            Algorithm::CusparseLike => ("low", "CSR", "unknown", "unknown"),
            Algorithm::CapelliniTwoPhase => ("none", "CSR", "no", "thread"),
            Algorithm::CapelliniWritingFirst => ("none", "CSR", "no", "thread"),
            Algorithm::NaiveThread => ("none", "CSR", "no", "thread"),
            Algorithm::Hybrid => ("low", "CSR", "no", "warp+thread"),
            Algorithm::Scheduled => ("high", "CSR", "no", "warp per unit"),
        };
        TraitRow {
            algorithm: self.label(),
            preprocessing,
            storage,
            synchronization,
            granularity,
        }
    }

    /// The three algorithms of the paper's headline comparison (Tables 4-5).
    pub fn evaluation_trio() -> [Algorithm; 3] {
        [
            Algorithm::SyncFree,
            Algorithm::CusparseLike,
            Algorithm::CapelliniWritingFirst,
        ]
    }

    /// All live algorithms (excludes the deadlocking straw man).
    pub fn all_live() -> [Algorithm; 8] {
        [
            Algorithm::LevelSet,
            Algorithm::SyncFree,
            Algorithm::SyncFreeCsc,
            Algorithm::CusparseLike,
            Algorithm::CapelliniTwoPhase,
            Algorithm::CapelliniWritingFirst,
            Algorithm::Hybrid,
            Algorithm::Scheduled,
        ]
    }
}

/// One row of the paper's Table 2 ("Summary for different SpTRSV
/// algorithms").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraitRow {
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Preprocessing overhead.
    pub preprocessing: &'static str,
    /// Storage format consumed.
    pub storage: &'static str,
    /// Whether inter-level synchronization is required.
    pub synchronization: &'static str,
    /// Processing granularity.
    pub granularity: &'static str,
}

/// The rows of Table 2, in the paper's order.
pub fn algorithm_traits() -> [TraitRow; 4] {
    [
        TraitRow {
            algorithm: "Level-Set",
            preprocessing: "high",
            storage: "CSR",
            synchronization: "yes",
            granularity: "thread/warp",
        },
        TraitRow {
            algorithm: "Sync-Free",
            preprocessing: "low",
            storage: "CSC",
            synchronization: "no",
            granularity: "warp",
        },
        TraitRow {
            algorithm: "cuSPARSE",
            preprocessing: "low",
            storage: "CSR",
            synchronization: "unknown",
            granularity: "unknown",
        },
        TraitRow {
            algorithm: "CapelliniSpTRSV",
            preprocessing: "none",
            storage: "CSR",
            synchronization: "no",
            granularity: "thread",
        },
    ]
}

/// The granularity threshold above which CapelliniSpTRSV is preferred: the
/// paper observes SyncFree's performance peaks at 0.7 and targets Capellini
/// at δ > 0.7 (§5.2).
pub const GRANULARITY_THRESHOLD: f64 = 0.7;

/// Recommends the GPU algorithm for a matrix from its statistics — the
/// decision rule behind Figure 6's optimal-algorithm map: thread-level when
/// levels are wide and rows are sparse, warp-level otherwise.
///
/// The boundary is *strict*: the paper targets Capellini at δ **> 0.7**
/// (SyncFree's performance peaks at 0.7 itself), so δ = 0.7 exactly stays
/// with SyncFree. Degenerate systems (n ≤ 1) have no dependency structure
/// for warp-level scheduling to exploit and go to Writing-First, the
/// zero-preprocessing algorithm; a non-finite δ (Equation 1 degenerates on
/// pathological inputs) falls back conservatively to SyncFree.
pub fn recommend(stats: &MatrixStats) -> Algorithm {
    if stats.n <= 1 {
        return Algorithm::CapelliniWritingFirst;
    }
    if !stats.granularity.is_finite() {
        return Algorithm::SyncFree;
    }
    if stats.granularity > GRANULARITY_THRESHOLD {
        Algorithm::CapelliniWritingFirst
    } else {
        Algorithm::SyncFree
    }
}

/// Nominal simulated clock used to convert predicted cycles into the same
/// milliseconds the host cost model charges for preprocessing (1 GHz).
pub const NOMINAL_CYCLES_PER_MS: f64 = 1.0e6;

/// Per-round synchronization overhead the scheduled kernel removes from the
/// critical path: one `__threadfence` (40 cycles on the modelled devices)
/// plus the spin rounds a consumer burns discovering the published flag.
const ROUND_SYNC_CYCLES: f64 = 64.0;

/// What one staged off-diagonal costs on a sequential unit's single
/// resolving lane (phase-B shared walk plus the forwarded `x` load) — work
/// a warp-per-row baseline spreads across its lanes instead.
const SEQ_DEP_CYCLES: f64 = 210.0;

/// Off-diagonals per row that serializing costs nothing extra: a
/// warp-per-row kernel's fixed per-row overhead (poll, reduction, fence)
/// dwarfs a handful of dependency walks, so only the excess beyond this
/// many is charged against sequential units.
const SEQ_FREE_DEPS: f64 = 4.0;

/// The verdict of the cost-aware reuse rule ([`recommend_for_reuse`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostAwareChoice {
    /// The algorithm to use for this session.
    pub algorithm: Algorithm,
    /// What the paper's δ rule alone would have picked.
    pub baseline: Algorithm,
    /// Predicted per-solve execution win of Scheduled over the baseline, in
    /// nominal milliseconds (may be ≤ 0 when coarsening finds nothing).
    pub predicted_win_ms: f64,
    /// The schedule's analysis cost, in milliseconds (measured by the
    /// session, or charged by the host cost model on cold paths).
    pub analysis_ms: f64,
    /// Warm solves needed to amortize the analysis (`∞` when the predicted
    /// win is not positive).
    pub breakeven_solves: f64,
}

/// The cost-aware selection rule: picks [`Algorithm::Scheduled`] only when
/// its predicted execution win, accumulated over the session's expected
/// solve count, exceeds the measured analysis cost; otherwise falls back to
/// the paper's δ rule ([`recommend`]).
///
/// The win model is deliberately transparent (DESIGN.md §14): coarsening
/// shortens the synchronization critical path from `n_levels` rounds to
/// [`ScheduleStats::depth`] rounds, each worth `ROUND_SYNC_CYCLES`; the
/// per-row fence/flag/poll traffic eliminated off the critical path
/// ([`ScheduleStats::saved_syncs`]) is credited at one issue slot per saved
/// operation, spread across the machine's width. Against those wins it
/// charges the serialization cost of sequential units on fat-row matrices
/// (`SEQ_DEP_CYCLES` per off-diagonal beyond `SEQ_FREE_DEPS`): a dense
/// band coarsens beautifully on paper but resolves every dependency on one
/// lane, and the rule must not recommend that. When a finite cache is
/// armed, coarsened units walk contiguous rows, so the value/index streams
/// predictably hit L1 (4 doubles per 32-byte sector → ≥ 3/4 hit rate); the
/// win is credited the saved miss latency on that fraction of the stream.
pub fn recommend_for_reuse(
    stats: &MatrixStats,
    sched: &ScheduleStats,
    analysis_ms: f64,
    expected_solves: u32,
    cache: Option<&CacheConfig>,
) -> CostAwareChoice {
    let baseline = recommend(stats);
    // Critical-path rounds removed by merging narrow-level runs.
    let depth_win = (stats.n_levels.saturating_sub(sched.depth)) as f64 * ROUND_SYNC_CYCLES;
    // Off-critical-path sync traffic removed (fence + flag store + poll per
    // row, overlapped across the device's parallel width).
    let width = stats.n_level.max(1.0);
    let traffic_win = sched.saved_syncs as f64 * ROUND_SYNC_CYCLES / width;
    // Sequential units resolve fat rows' dependency walks on one lane —
    // work a warp-per-row baseline spreads across its lanes. Charge the
    // off-diagonals beyond what the baseline's fixed per-row overhead
    // absorbs, over the rows living in sequential units.
    let seq_rows = sched.coarsening * sched.n_seq_units as f64;
    let excess_deps = ((stats.nnz_row - 1.0) - SEQ_FREE_DEPS).max(0.0);
    let seq_penalty = seq_rows * excess_deps * SEQ_DEP_CYCLES;
    let mut win_cycles = depth_win + traffic_win - seq_penalty;
    if let Some(c) = cache {
        // Contiguous intra-unit rows: the 8-byte value stream packs 4 words
        // per 32-byte sector, so ~3/4 of its loads hit L1 instead of paying
        // the L2 round trip. Credit those cycles across the machine width.
        let l2_latency = 2 * c.l1_latency;
        let hit_fraction = 0.75;
        win_cycles += stats.nnz as f64 * hit_fraction * (l2_latency - c.l1_latency) as f64 / width;
    }
    let predicted_win_ms = win_cycles / NOMINAL_CYCLES_PER_MS;
    let breakeven_solves = if predicted_win_ms > 0.0 {
        analysis_ms / predicted_win_ms
    } else {
        f64::INFINITY
    };
    let algorithm =
        if predicted_win_ms > 0.0 && expected_solves as f64 * predicted_win_ms > analysis_ms {
            Algorithm::Scheduled
        } else {
            baseline
        };
    CostAwareChoice {
        algorithm,
        baseline,
        predicted_win_ms,
        analysis_ms,
        breakeven_solves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capellini_sparse::gen;
    use capellini_sparse::{LowerTriangularCsr, MatrixStats};

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = Algorithm::all_live().iter().map(|a| a.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Algorithm::all_live().len());
    }

    #[test]
    fn table2_matches_the_paper() {
        let rows = algorithm_traits();
        assert_eq!(rows[0].preprocessing, "high");
        assert_eq!(rows[1].storage, "CSC");
        assert_eq!(rows[3].preprocessing, "none");
        assert_eq!(rows[3].granularity, "thread");
    }

    #[test]
    fn recommendation_follows_granularity() {
        let wide = MatrixStats::compute(&gen::ultra_sparse_wide(20_000, 8, 1, 1));
        assert_eq!(recommend(&wide), Algorithm::CapelliniWritingFirst);
        let deep = MatrixStats::compute(&gen::dense_band(2_000, 32, 2));
        assert_eq!(recommend(&deep), Algorithm::SyncFree);
    }

    /// Synthetic statistics with every field but δ held at unremarkable
    /// values, for probing the decision boundary directly.
    fn stats_with_granularity(n: usize, granularity: f64) -> MatrixStats {
        MatrixStats {
            n,
            nnz: 3 * n,
            n_levels: 10.max(n / 10),
            nnz_row: 3.0,
            n_level: n as f64 / 10.0,
            granularity,
            max_level_width: n.div_ceil(10),
        }
    }

    /// Regression: δ exactly at the threshold must stay with SyncFree — the
    /// paper says Capellini *wins* at δ > 0.7, and SyncFree's performance
    /// peaks at 0.7 itself.
    #[test]
    fn threshold_boundary_is_strict() {
        let at = stats_with_granularity(5_000, GRANULARITY_THRESHOLD);
        assert_eq!(recommend(&at), Algorithm::SyncFree);
        let just_above = stats_with_granularity(5_000, GRANULARITY_THRESHOLD + 1e-12);
        assert_eq!(recommend(&just_above), Algorithm::CapelliniWritingFirst);
        let just_below = stats_with_granularity(5_000, GRANULARITY_THRESHOLD - 1e-12);
        assert_eq!(recommend(&just_below), Algorithm::SyncFree);
    }

    #[test]
    fn every_live_algorithm_has_a_trait_row() {
        for a in Algorithm::all_live() {
            let row = a.trait_row();
            assert_eq!(row.algorithm, a.label());
            assert!(!row.preprocessing.is_empty());
            assert!(!row.storage.is_empty());
        }
        // The new kernel pays level-set-class preprocessing but needs no
        // inter-level kernel relaunches.
        let sched = Algorithm::Scheduled.trait_row();
        assert_eq!(sched.preprocessing, "high");
        assert_eq!(sched.synchronization, "no");
        assert_eq!(sched.granularity, "warp per unit");
    }

    /// A deep, chain-shaped profile: 2000 levels that coarsening collapses
    /// into one sequential unit.
    fn chain_profile() -> (MatrixStats, ScheduleStats) {
        let stats = MatrixStats {
            n: 2_000,
            nnz: 3_999,
            n_levels: 2_000,
            nnz_row: 2.0,
            n_level: 1.0,
            granularity: 0.3,
            max_level_width: 1,
        };
        let sched = ScheduleStats {
            n_units: 1,
            n_seq_units: 1,
            n_par_units: 0,
            n_deppar_units: 0,
            depth: 1,
            max_unit_rows: 2_000,
            coarsening: 2_000.0,
            saved_syncs: 1_999,
        };
        (stats, sched)
    }

    /// The cost-aware rule only upgrades to Scheduled once the expected
    /// reuse amortizes the analysis cost.
    #[test]
    fn cost_aware_rule_requires_amortization() {
        let (stats, sched) = chain_profile();
        let analysis_ms = 1.0;
        let cold = recommend_for_reuse(&stats, &sched, analysis_ms, 1, None);
        assert_ne!(cold.algorithm, Algorithm::Scheduled);
        assert_eq!(cold.algorithm, cold.baseline);
        assert!(cold.predicted_win_ms > 0.0);
        assert!(cold.breakeven_solves > 1.0);
        // Enough warm solves to cross the breakeven: upgrade.
        let warm = recommend_for_reuse(
            &stats,
            &sched,
            analysis_ms,
            cold.breakeven_solves.ceil() as u32 + 1,
            None,
        );
        assert_eq!(warm.algorithm, Algorithm::Scheduled);
        assert_eq!(warm.baseline, cold.baseline);
    }

    /// When coarsening finds nothing (already one wide level), the rule
    /// sticks with the paper's δ recommendation at modest reuse.
    #[test]
    fn cost_aware_rule_keeps_baseline_without_coarsening_win() {
        let stats = MatrixStats {
            n: 1_000,
            nnz: 1_000,
            n_levels: 1,
            nnz_row: 1.0,
            n_level: 1_000.0,
            granularity: 0.9,
            max_level_width: 1_000,
        };
        let sched = ScheduleStats {
            n_units: 32,
            n_seq_units: 0,
            n_par_units: 32,
            n_deppar_units: 32,
            depth: 1,
            max_unit_rows: 32,
            coarsening: 31.25,
            saved_syncs: 968,
        };
        let c = recommend_for_reuse(&stats, &sched, 0.05, 10, None);
        assert_eq!(c.algorithm, c.baseline);
        assert_eq!(c.baseline, Algorithm::CapelliniWritingFirst);
        // A degenerate empty schedule can never win.
        let empty = ScheduleStats {
            n_units: 0,
            n_seq_units: 0,
            n_par_units: 0,
            n_deppar_units: 0,
            depth: 0,
            max_unit_rows: 0,
            coarsening: 0.0,
            saved_syncs: 0,
        };
        let stats0 = MatrixStats {
            n: 0,
            nnz: 0,
            n_levels: 0,
            nnz_row: 0.0,
            n_level: 0.0,
            granularity: 0.0,
            max_level_width: 0,
        };
        let c0 = recommend_for_reuse(&stats0, &empty, 0.0, 1_000, None);
        assert_eq!(c0.algorithm, c0.baseline);
        assert!(c0.breakeven_solves.is_infinite());
    }

    /// An armed cache raises the predicted win (contiguous intra-unit rows
    /// hit L1), never lowers it.
    #[test]
    fn armed_cache_raises_the_predicted_win() {
        let (stats, sched) = chain_profile();
        let plain = recommend_for_reuse(&stats, &sched, 1.0, 4, None);
        let cached = recommend_for_reuse(
            &stats,
            &sched,
            1.0,
            4,
            Some(&capellini_simt::CacheConfig::small()),
        );
        assert!(cached.predicted_win_ms > plain.predicted_win_ms);
        assert!(cached.breakeven_solves < plain.breakeven_solves);
    }

    /// A dense band coarsens spectacularly on paper (one Seq unit, depth
    /// 2000 → 1) but resolves ~30 dependencies per row on a single lane;
    /// the rule must charge that serialization and refuse the upgrade no
    /// matter how much reuse is promised.
    #[test]
    fn fat_band_serialization_blocks_the_upgrade() {
        let l = gen::dense_band(2_000, 30, 3);
        let stats = MatrixStats::compute(&l);
        let levels = capellini_sparse::LevelSets::analyze(&l);
        let sched = capellini_sparse::Schedule::build_default(&l, &levels, 32).stats();
        assert_eq!(sched.n_seq_units, 1);
        let c = recommend_for_reuse(&stats, &sched, 0.5, 10_000, None);
        assert!(
            c.predicted_win_ms <= 0.0,
            "win {} must be ≤ 0",
            c.predicted_win_ms
        );
        assert_ne!(c.algorithm, Algorithm::Scheduled);
        assert!(c.breakeven_solves.is_infinite());
    }

    /// Regression: degenerate inputs must not fall through the δ comparison.
    #[test]
    fn degenerate_inputs_recommend_sanely() {
        // Empty system: MatrixStats reports δ = 0.0, but the rule must not
        // depend on that convention.
        let empty = LowerTriangularCsr::try_new(
            capellini_sparse::CsrMatrix::new(0, 0, vec![0], vec![], vec![]).unwrap(),
        )
        .unwrap();
        assert_eq!(
            recommend(&MatrixStats::compute(&empty)),
            Algorithm::CapelliniWritingFirst
        );
        // Single row: nothing to schedule, zero-preprocessing wins.
        assert_eq!(
            recommend(&MatrixStats::compute(&gen::diagonal(1))),
            Algorithm::CapelliniWritingFirst
        );
        // Non-finite δ (pathological Equation 1 inputs): conservative
        // warp-level fallback, never a panic or an accidental Capellini.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                recommend(&stats_with_granularity(5_000, bad)),
                Algorithm::SyncFree
            );
        }
    }
}
