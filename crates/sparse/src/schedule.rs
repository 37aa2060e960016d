//! Level-coarsened, load-balanced work-unit schedules for SpTRSV.
//!
//! Classic level-set execution launches one kernel (or one synchronization
//! round) per level; the paper's thread-level synchronization-free design
//! pays one fence + flag per *row*. Both leave cycles on the table when the
//! level-width profile is skewed: deep runs of narrow levels serialize
//! anyway but still pay per-row synchronization, while very wide levels
//! drown in per-row flag traffic. Following "Efficient Parallel Scheduling
//! for Sparse Triangular Solvers" (arXiv 2503.05408), this module merges and
//! coarsens the level sets at preprocessing time into contiguous *work
//! units* sized to warp granularity:
//!
//! * a run of consecutive **narrow** levels (width ≤
//!   [`ScheduleParams::merge_width`]) collapses into one **sequential
//!   unit** — a single lane executes its rows in (level, row) order, so
//!   every dependency inside the run is satisfied by program order and
//!   costs *zero* synchronization;
//! * each **wide** level splits into **dependency-parallel units**:
//!   contiguous chunks sized so that `rows × max_deps ≤ warp_size`. Every
//!   staged `(row, dep)` pair maps to one lane, so the consumer warp polls
//!   all producer flags in *one* warp instruction and gathers all needed
//!   `x` values in *one* coalesced load — the same lane-parallel dependency
//!   resolution that makes warp-per-row kernels fast, retained under
//!   coarsening;
//! * rows too fat for slot mapping (≥ `warp_size` off-diagonals) fall back
//!   to **row-parallel units**: cost-balanced chunks (per-row cost
//!   [`ScheduleParams::row_base`]` + nnz`) with one row per lane.
//!
//! Synchronization happens only across unit boundaries: a unit publishes
//! one flag after one fence, and consumers spin on the *producing unit's*
//! flag instead of a per-row flag. Units are emitted in level order, so
//! every inter-unit dependency points to a strictly lower unit index — the
//! same FIFO-activation liveness argument as the sync-free kernels.
//!
//! Intra-unit rows are kept sorted ascending (parallel units) or in
//! (level, row) order (sequential units): consecutive lanes touch
//! consecutive rows, which keeps `x`/`row_ptr` accesses within a warp in
//! adjacent sectors — the locality lever measured by `repro schedule`.

use crate::diagnostics::count_analysis;
use crate::levels::LevelSets;
use crate::triangular::LowerTriangularCsr;

/// Tunables of the coarsening pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleParams {
    /// Lanes that will execute one parallel unit (the device warp size).
    pub warp_size: usize,
    /// Levels at most this wide are merged into a sequential unit.
    pub merge_width: usize,
    /// Fixed per-row cost added to the row's nonzero count when balancing.
    pub row_base: f64,
}

impl ScheduleParams {
    /// Defaults tuned for a given warp size: merge only near-serial levels
    /// (width ≤ 2) into sequential bands — anything wider resolves its
    /// dependencies faster slot-parallel than on one serial lane — and
    /// charge each row a 4-op fixed overhead on top of its nonzeros.
    pub fn for_warp(warp_size: usize) -> Self {
        ScheduleParams {
            warp_size: warp_size.max(1),
            merge_width: 2,
            row_base: 4.0,
        }
    }
}

/// Execution mode of one work unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitKind {
    /// Rows are mutually independent (one level) and strided across the
    /// warp's lanes; each lane walks its own row's dependencies serially.
    /// The fallback for rows too fat to slot-map.
    Par,
    /// Rows run serially on one lane in (level, row) order; intra-unit
    /// dependencies are satisfied by program order.
    Seq,
    /// Rows are mutually independent (one level) and `rows × stride ≤
    /// warp_size`, where `stride` is the unit's maximum off-diagonal
    /// count: lane `l` owns dependency `l % stride` of row `l / stride`,
    /// so the whole unit's producer polls and `x` gathers each coalesce
    /// into a single warp instruction.
    DepPar,
}

/// Aggregate shape of a schedule, for cost-aware kernel selection and the
/// experiment tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleStats {
    /// Total work units (= warps launched by the scheduled kernel).
    pub n_units: usize,
    /// Sequential (merged-band) units.
    pub n_seq_units: usize,
    /// Level-split units of either parallel flavor (`Par` + `DepPar`).
    pub n_par_units: usize,
    /// Dependency-parallel (slot-mapped) units among the parallel ones.
    pub n_deppar_units: usize,
    /// Critical-path length in units: one per sequential band plus one per
    /// wide level (its parallel units run concurrently).
    pub depth: usize,
    /// Rows of the largest unit.
    pub max_unit_rows: usize,
    /// Mean rows per unit — the coarsening factor over sync-free's
    /// row-granular flags.
    pub coarsening: f64,
    /// Fence + flag pairs eliminated versus per-row synchronization
    /// (`n_rows - n_units`).
    pub saved_syncs: usize,
}

/// The preprocessing artifact: level sets coarsened into work units.
///
/// `rows` holds every row index grouped by unit (`unit_ptr` delimits the
/// groups), `kinds` records each unit's execution mode, and `unit_of` maps
/// a row back to its unit so the kernel can poll the producing unit's flag
/// for cross-unit dependencies (or skip the poll entirely for intra-unit
/// ones).
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    rows: Vec<u32>,
    unit_ptr: Vec<u32>,
    kinds: Vec<UnitKind>,
    unit_of: Vec<u32>,
    depth: usize,
}

impl Schedule {
    /// Coarsens `levels` into balanced work units. `O(n + nnz)`.
    ///
    /// Degenerate inputs stay well-formed: a 0-row system yields an empty
    /// schedule (no units), and a diagonal-only system (one level) yields
    /// cost-balanced parallel units with no sequential bands.
    pub fn build(l: &LowerTriangularCsr, levels: &LevelSets, params: ScheduleParams) -> Self {
        count_analysis(|c| c.schedules += 1);
        let n = l.n();
        assert_eq!(levels.n_rows(), n, "level sets must match the matrix");
        assert!(
            n <= (u32::MAX >> 2) as usize,
            "schedule encoding caps n at 2^30 rows"
        );
        let row_ptr = l.csr().row_ptr();
        let row_cost =
            |r: u32| params.row_base + (row_ptr[r as usize + 1] - row_ptr[r as usize]) as f64;
        let off_len = |r: u32| (row_ptr[r as usize + 1] - row_ptr[r as usize] - 1) as usize;
        // Target cost of one fat-row parallel unit: a warp's worth of
        // average rows.
        let avg_cost = params.row_base + l.nnz() as f64 / n.max(1) as f64;
        let target = params.warp_size.max(1) as f64 * avg_cost;
        let ws = params.warp_size.max(1);

        let mut rows: Vec<u32> = Vec::with_capacity(n);
        let mut unit_ptr: Vec<u32> = vec![0];
        let mut kinds: Vec<UnitKind> = Vec::new();
        let mut depth = 0usize;

        let n_levels = levels.n_levels();
        let mut lv = 0usize;
        while lv < n_levels {
            if levels.rows_in_level(lv).len() <= params.merge_width {
                // Narrow band: merge the whole run into one sequential unit.
                while lv < n_levels && levels.rows_in_level(lv).len() <= params.merge_width {
                    rows.extend_from_slice(levels.rows_in_level(lv));
                    lv += 1;
                }
                unit_ptr.push(rows.len() as u32);
                kinds.push(UnitKind::Seq);
                depth += 1;
            } else {
                // Wide level: greedy dependency-parallel chunks under the
                // slot budget `rows × stride ≤ warp_size`, with runs of fat
                // rows (≥ warp_size off-diagonals — unmappable) collected
                // into cost-balanced row-per-lane chunks.
                let lvl_rows = levels.rows_in_level(lv);
                let mut i = 0usize;
                while i < lvl_rows.len() {
                    if off_len(lvl_rows[i]) >= ws {
                        let mut cum = 0.0f64;
                        let mut j = i;
                        while j < lvl_rows.len() && off_len(lvl_rows[j]) >= ws {
                            cum += row_cost(lvl_rows[j]);
                            j += 1;
                            if cum >= target {
                                rows.extend_from_slice(&lvl_rows[i..j]);
                                unit_ptr.push(rows.len() as u32);
                                kinds.push(UnitKind::Par);
                                i = j;
                                cum = 0.0;
                            }
                        }
                        if j > i {
                            rows.extend_from_slice(&lvl_rows[i..j]);
                            unit_ptr.push(rows.len() as u32);
                            kinds.push(UnitKind::Par);
                            i = j;
                        }
                    } else {
                        let mut stride = off_len(lvl_rows[i]).max(1);
                        let mut j = i + 1;
                        while j < lvl_rows.len() {
                            let o = off_len(lvl_rows[j]);
                            if o >= ws {
                                break;
                            }
                            let s = stride.max(o.max(1));
                            if (j - i + 1) * s > ws {
                                break;
                            }
                            stride = s;
                            j += 1;
                        }
                        rows.extend_from_slice(&lvl_rows[i..j]);
                        unit_ptr.push(rows.len() as u32);
                        kinds.push(UnitKind::DepPar);
                        i = j;
                    }
                }
                lv += 1;
                depth += 1;
            }
        }

        let mut unit_of = vec![0u32; n];
        for u in 0..kinds.len() {
            for &r in &rows[unit_ptr[u] as usize..unit_ptr[u + 1] as usize] {
                unit_of[r as usize] = u as u32;
            }
        }

        let schedule = Schedule {
            rows,
            unit_ptr,
            kinds,
            unit_of,
            depth,
        };
        debug_assert!(schedule.check_dependencies(l));
        schedule
    }

    /// [`Schedule::build`] with [`ScheduleParams::for_warp`] defaults.
    pub fn build_default(l: &LowerTriangularCsr, levels: &LevelSets, warp_size: usize) -> Self {
        Self::build(l, levels, ScheduleParams::for_warp(warp_size))
    }

    /// The liveness/correctness invariant: every dependency is either
    /// intra-unit (sequential units only, producer earlier in `rows` order)
    /// or points to a strictly lower unit index.
    fn check_dependencies(&self, l: &LowerTriangularCsr) -> bool {
        // Position of each row inside the flattened `rows` array.
        let mut pos = vec![0u32; self.rows.len()];
        for (p, &r) in self.rows.iter().enumerate() {
            pos[r as usize] = p as u32;
        }
        for i in 0..l.n() {
            let ui = self.unit_of[i];
            for &dep in l.row_deps(i) {
                let ud = self.unit_of[dep as usize];
                if ud > ui {
                    return false;
                }
                if ud == ui
                    && (self.kinds[ui as usize] != UnitKind::Seq || pos[dep as usize] >= pos[i])
                {
                    return false;
                }
            }
        }
        true
    }

    /// Number of work units (= warps the scheduled kernel launches).
    pub fn n_units(&self) -> usize {
        self.kinds.len()
    }

    /// Number of rows covered.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// All rows, grouped by unit.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// Prefix offsets of each unit inside [`Schedule::rows`].
    pub fn unit_ptr(&self) -> &[u32] {
        &self.unit_ptr
    }

    /// Row → owning unit map.
    pub fn unit_of(&self) -> &[u32] {
        &self.unit_of
    }

    /// Execution mode of unit `u`.
    pub fn kind(&self, u: usize) -> UnitKind {
        self.kinds[u]
    }

    /// The rows of unit `u`, in execution order.
    pub fn unit_rows(&self, u: usize) -> &[u32] {
        &self.rows[self.unit_ptr[u] as usize..self.unit_ptr[u + 1] as usize]
    }

    /// Device encoding: `n_units + 1` words, `desc[u] = (start << 2) | kind`
    /// (`Par = 0`, `Seq = 1`, `DepPar = 2`), with a terminal
    /// `(n_rows << 2)` sentinel so `desc[u + 1] >> 2` is unit `u`'s end
    /// offset.
    pub fn encode_desc(&self) -> Vec<u32> {
        let mut desc: Vec<u32> = (0..self.n_units())
            .map(|u| {
                (self.unit_ptr[u] << 2)
                    | match self.kinds[u] {
                        UnitKind::Par => 0,
                        UnitKind::Seq => 1,
                        UnitKind::DepPar => 2,
                    }
            })
            .collect();
        desc.push((self.rows.len() as u32) << 2);
        desc
    }

    /// Aggregate shape, for selection and reporting.
    pub fn stats(&self) -> ScheduleStats {
        let n_units = self.n_units();
        let n_seq_units = self.kinds.iter().filter(|k| **k == UnitKind::Seq).count();
        let n_deppar_units = self
            .kinds
            .iter()
            .filter(|k| **k == UnitKind::DepPar)
            .count();
        let max_unit_rows = (0..n_units)
            .map(|u| self.unit_rows(u).len())
            .max()
            .unwrap_or(0);
        ScheduleStats {
            n_units,
            n_seq_units,
            n_par_units: n_units - n_seq_units,
            n_deppar_units,
            depth: self.depth,
            max_unit_rows,
            coarsening: if n_units == 0 {
                0.0
            } else {
                self.rows.len() as f64 / n_units as f64
            },
            saved_syncs: self.rows.len() - n_units,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::csr::CsrMatrix;
    use crate::diagnostics::analysis_counts;
    use crate::gen;

    fn lower(trips: &[(u32, u32, f64)], n: usize) -> LowerTriangularCsr {
        let coo = CooMatrix::from_triplets(n, n, trips.iter().copied()).unwrap();
        LowerTriangularCsr::try_new(CsrMatrix::from_coo(&coo)).unwrap()
    }

    fn build(l: &LowerTriangularCsr) -> Schedule {
        let levels = LevelSets::analyze(l);
        Schedule::build_default(l, &levels, 32)
    }

    fn assert_well_formed(l: &LowerTriangularCsr, s: &Schedule) {
        // Units partition the rows.
        let mut seen: Vec<u32> = s.rows().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..l.n() as u32).collect::<Vec<_>>());
        assert_eq!(*s.unit_ptr().last().unwrap() as usize, l.n());
        assert_eq!(s.unit_ptr().len(), s.n_units() + 1);
        // No empty units; parallel units ascend (sector locality).
        let row_ptr = l.csr().row_ptr();
        let off = |r: u32| (row_ptr[r as usize + 1] - row_ptr[r as usize] - 1) as usize;
        for u in 0..s.n_units() {
            let rows = s.unit_rows(u);
            assert!(!rows.is_empty(), "unit {u} is empty");
            if s.kind(u) != UnitKind::Seq {
                assert!(rows.windows(2).all(|w| w[0] < w[1]), "unit {u} not sorted");
            }
            // Dependency-parallel units respect the slot budget.
            if s.kind(u) == UnitKind::DepPar {
                let stride = rows.iter().map(|&r| off(r).max(1)).max().unwrap();
                assert!(
                    rows.len() * stride <= 32,
                    "unit {u}: {} rows x stride {stride} exceeds the warp",
                    rows.len()
                );
            }
        }
        // Dependencies never point to a later (or same-parallel) unit.
        assert!(s.check_dependencies(l));
        // The device encoding round-trips.
        let desc = s.encode_desc();
        assert_eq!(desc.len(), s.n_units() + 1);
        for u in 0..s.n_units() {
            assert_eq!(desc[u] >> 2, s.unit_ptr()[u]);
            let code = match s.kind(u) {
                UnitKind::Par => 0,
                UnitKind::Seq => 1,
                UnitKind::DepPar => 2,
            };
            assert_eq!(desc[u] & 3, code);
            assert_eq!(desc[u + 1] >> 2, s.unit_ptr()[u + 1]);
        }
    }

    #[test]
    fn chain_collapses_to_one_sequential_unit() {
        let l = gen::chain(500, 1, 7);
        let s = build(&l);
        assert_well_formed(&l, &s);
        assert_eq!(s.n_units(), 1);
        assert_eq!(s.kind(0), UnitKind::Seq);
        let st = s.stats();
        assert_eq!(st.depth, 1);
        assert_eq!(st.saved_syncs, 499);
        assert_eq!(st.coarsening, 500.0);
    }

    #[test]
    fn wide_level_splits_into_balanced_parallel_units() {
        let l = gen::diagonal(1_000);
        let levels = LevelSets::analyze(&l);
        let s = Schedule::build_default(&l, &levels, 32);
        assert_well_formed(&l, &s);
        assert!(s.n_units() > 1, "1000 independent rows must split");
        let st = s.stats();
        assert_eq!(st.n_seq_units, 0);
        assert_eq!(st.depth, 1);
        // Dependency-free rows slot-map at a full warp per unit.
        assert_eq!(s.n_units(), 1_000usize.div_ceil(32));
        for u in 0..s.n_units() {
            assert_eq!(s.kind(u), UnitKind::DepPar);
            assert!(s.unit_rows(u).len() <= 32);
        }
    }

    #[test]
    fn skewed_rows_balance_by_cost_not_count() {
        // One level: row 0..n independent, but the first half carries 9
        // extra nonzeros each... impossible within one level for a lower
        // triangular matrix, so emulate cost skew with a two-level system:
        // level 0 = sources with wildly different *successor* rows.
        // Simplest observable: a single wide level with uniform structure
        // still balances; the cost logic is exercised by the mixed matrix
        // below through unit sizes adapting to nnz.
        let n = 300usize;
        let mut trips: Vec<(u32, u32, f64)> = Vec::new();
        for i in 0..n as u32 {
            trips.push((i, i, 1.0));
        }
        // Rows n..n+60 all depend on a few level-0 rows with heavy fan-in:
        // they form level 1 with skewed nnz (row n+k has k+1 deps).
        for (k, r) in (n as u32..(n + 60) as u32).enumerate() {
            for d in 0..=(k as u32).min(20) {
                trips.push((r, d, 0.001));
            }
            trips.push((r, r, 1.0));
        }
        let l = lower(&trips, n + 60);
        let s = build(&l);
        assert_well_formed(&l, &s);
        // Level 1 (rows n..n+60, skewed cost) splits with more rows in the
        // cheap units than the expensive ones whenever it splits at all.
        let units_of_level1: Vec<usize> = (0..s.n_units())
            .filter(|&u| s.unit_rows(u).iter().any(|&r| r as usize >= n))
            .collect();
        assert!(!units_of_level1.is_empty());
        for &u in &units_of_level1 {
            assert!(s.unit_rows(u).iter().all(|&r| r as usize >= n));
        }
    }

    #[test]
    fn narrow_bands_merge_and_wide_levels_break_them() {
        // 10 narrow levels (chain), one wide level, 10 more narrow levels.
        let mut trips: Vec<(u32, u32, f64)> = Vec::new();
        for i in 0..10u32 {
            if i > 0 {
                trips.push((i, i - 1, 0.5));
            }
            trips.push((i, i, 1.0));
        }
        // Wide level: 200 rows all depending on row 9.
        for r in 10..210u32 {
            trips.push((r, 9, 0.01));
            trips.push((r, r, 1.0));
        }
        // Tail chain hanging off one wide row.
        for i in 210..220u32 {
            trips.push((i, i - 1, 0.25));
            trips.push((i, i, 1.0));
        }
        let l = lower(&trips, 220);
        let s = build(&l);
        assert_well_formed(&l, &s);
        let st = s.stats();
        assert_eq!(st.n_seq_units, 2, "head and tail chains each one band");
        assert!(st.n_par_units >= 1);
        assert_eq!(st.depth, 3);
        assert_eq!(s.kind(0), UnitKind::Seq);
        assert_eq!(s.unit_rows(0).len(), 10);
    }

    #[test]
    fn zero_rows_is_a_wellformed_empty_schedule() {
        let l = LowerTriangularCsr::try_new(CsrMatrix::new(0, 0, vec![0], vec![], vec![]).unwrap())
            .unwrap();
        let levels = LevelSets::analyze(&l);
        assert_eq!(levels.n_levels(), 0);
        let s = Schedule::build_default(&l, &levels, 32);
        assert_eq!(s.n_units(), 0);
        assert_eq!(s.n_rows(), 0);
        assert_eq!(s.encode_desc(), vec![0]);
        let st = s.stats();
        assert_eq!(
            (st.n_units, st.depth, st.max_unit_rows, st.saved_syncs),
            (0, 0, 0, 0)
        );
        assert_eq!(st.coarsening, 0.0);
    }

    #[test]
    fn diagonal_only_single_row_is_one_unit() {
        let l = gen::diagonal(1);
        let s = build(&l);
        assert_well_formed(&l, &s);
        assert_eq!(s.n_units(), 1);
        assert_eq!(s.unit_rows(0), &[0]);
    }

    #[test]
    fn build_invocations_counts_per_thread() {
        let l = gen::chain(10, 1, 3);
        let levels = LevelSets::analyze(&l);
        let before = analysis_counts().schedules;
        let _ = Schedule::build_default(&l, &levels, 32);
        let _ = Schedule::build_default(&l, &levels, 32);
        assert_eq!(analysis_counts().schedules, before + 2);
    }

    #[test]
    fn seq_units_preserve_level_order() {
        // A two-wide double chain: rows 2i depend on 2i-2, 2i+1 on 2i-1.
        let n = 40usize;
        let mut trips: Vec<(u32, u32, f64)> = Vec::new();
        for i in 0..n as u32 {
            if i >= 2 {
                trips.push((i, i - 2, 0.5));
            }
            trips.push((i, i, 1.0));
        }
        let l = lower(&trips, n);
        let levels = LevelSets::analyze(&l);
        let s = Schedule::build_default(&l, &levels, 32);
        assert_well_formed(&l, &s);
        assert_eq!(s.n_units(), 1);
        assert_eq!(s.kind(0), UnitKind::Seq);
        // Rows appear level by level: (0,1), (2,3), (4,5), ...
        let rows = s.unit_rows(0);
        for (p, &r) in rows.iter().enumerate() {
            assert_eq!(levels.level_of(r as usize) as usize, p / 2);
        }
    }

    #[test]
    fn paper_example_is_scheduled_sanely() {
        let l = crate::paper_example();
        let s = build(&l);
        assert_well_formed(&l, &s);
        // Levels are 2, 3, 2, 1 wide: the width-3 level slot-maps on its
        // own, the width-≤2 neighbors merge into sequential bands.
        assert_eq!(s.n_units(), 3);
        assert_eq!(s.kind(0), UnitKind::Seq);
        assert_eq!(s.kind(1), UnitKind::DepPar);
        assert_eq!(s.kind(2), UnitKind::Seq);
        assert_eq!(s.stats().saved_syncs, l.n() - 3);
    }

    #[test]
    fn powerlaw_schedule_is_wellformed() {
        let l = gen::powerlaw(2_000, 3.0, 99);
        let s = build(&l);
        assert_well_formed(&l, &s);
        assert!(s.n_units() >= 1);
    }

    #[test]
    fn fat_rows_fall_back_to_row_parallel_units() {
        // Level 1: 40 rows that each depend on every level-0 row (64 deps
        // ≥ warp size) — unmappable, so they must come out row-parallel.
        let n0 = 64usize;
        let mut trips: Vec<(u32, u32, f64)> = Vec::new();
        for i in 0..n0 as u32 {
            trips.push((i, i, 1.0));
        }
        for r in n0 as u32..(n0 + 40) as u32 {
            for d in 0..n0 as u32 {
                trips.push((r, d, 0.001));
            }
            trips.push((r, r, 1.0));
        }
        let l = lower(&trips, n0 + 40);
        let s = build(&l);
        assert_well_formed(&l, &s);
        let fat_units: Vec<usize> = (0..s.n_units())
            .filter(|&u| s.unit_rows(u).iter().any(|&r| r as usize >= n0))
            .collect();
        assert!(!fat_units.is_empty());
        for &u in &fat_units {
            assert_eq!(s.kind(u), UnitKind::Par, "fat rows must not slot-map");
        }
        // Level 0 itself slot-maps.
        assert!((0..s.n_units())
            .any(|u| s.kind(u) == UnitKind::DepPar && (s.unit_rows(u)[0] as usize) < n0));
    }
}
