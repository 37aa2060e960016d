//! Experiment runner: executes (matrix × algorithm × platform) cells on the
//! simulator, verifies every solve against the serial reference, and caches
//! results as CSV under `results/` so each table/figure command can reuse
//! one expensive sweep.
//!
//! Sweeps run on a scoped-thread worker pool ([`Runner`]): one job per
//! dataset entry (a matrix build plus all its platform × algorithm cells),
//! pulled from a shared queue. Each job writes into its own result slot, so
//! the flattened output — and therefore the cached CSV — is byte-identical
//! to a serial sweep regardless of thread count or scheduling.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use capellini_core::{solve_simulated, Algorithm};
use capellini_simt::DeviceConfig;
use capellini_sparse::dataset::{DatasetEntry, Scale};
use capellini_sparse::linalg::{rel_error_inf, rhs_for_solution};
use capellini_sparse::{LowerTriangularCsr, MatrixStats};

use crate::tables::{read_csv, write_csv};

/// One measured cell of the evaluation grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Matrix name from the dataset.
    pub matrix: String,
    /// Platform name (Pascal/Volta/Turing).
    pub platform: String,
    /// Algorithm label.
    pub algo: String,
    /// Matrix dimension.
    pub n: usize,
    /// Stored nonzeros.
    pub nnz: usize,
    /// α: average nonzeros per row.
    pub nnz_row: f64,
    /// β: average components per level.
    pub n_level: f64,
    /// δ: parallel granularity.
    pub granularity: f64,
    /// Host preprocessing in ms.
    pub pre_ms: f64,
    /// Kernel execution in ms (simulated).
    pub exec_ms: f64,
    /// GFLOPS/s at 2·nnz flops.
    pub gflops: f64,
    /// DRAM bandwidth GB/s.
    pub bandwidth: f64,
    /// Warp-level instructions executed.
    pub warp_instr: u64,
    /// Dependency-stall percentage (failed polls / thread instructions).
    pub dep_stall_pct: f64,
    /// Issue-slot stall percentage (supplementary).
    pub issue_stall_pct: f64,
    /// Relative error of the solve against the serial reference.
    pub rel_err: f64,
}

impl CellResult {
    const HEADER: [&'static str; 16] = [
        "matrix",
        "platform",
        "algo",
        "n",
        "nnz",
        "nnz_row",
        "n_level",
        "granularity",
        "pre_ms",
        "exec_ms",
        "gflops",
        "bandwidth",
        "warp_instr",
        "dep_stall_pct",
        "issue_stall_pct",
        "rel_err",
    ];

    fn to_row(&self) -> Vec<String> {
        vec![
            self.matrix.clone(),
            self.platform.clone(),
            self.algo.clone(),
            self.n.to_string(),
            self.nnz.to_string(),
            format!("{:.6}", self.nnz_row),
            format!("{:.6}", self.n_level),
            format!("{:.6}", self.granularity),
            format!("{:.6}", self.pre_ms),
            format!("{:.6}", self.exec_ms),
            format!("{:.6}", self.gflops),
            format!("{:.6}", self.bandwidth),
            self.warp_instr.to_string(),
            format!("{:.4}", self.dep_stall_pct),
            format!("{:.4}", self.issue_stall_pct),
            format!("{:.3e}", self.rel_err),
        ]
    }

    fn from_row(row: &[String]) -> Option<CellResult> {
        if row.len() != Self::HEADER.len() {
            return None;
        }
        Some(CellResult {
            matrix: row[0].clone(),
            platform: row[1].clone(),
            algo: row[2].clone(),
            n: row[3].parse().ok()?,
            nnz: row[4].parse().ok()?,
            nnz_row: row[5].parse().ok()?,
            n_level: row[6].parse().ok()?,
            granularity: row[7].parse().ok()?,
            pre_ms: row[8].parse().ok()?,
            exec_ms: row[9].parse().ok()?,
            gflops: row[10].parse().ok()?,
            bandwidth: row[11].parse().ok()?,
            warp_instr: row[12].parse().ok()?,
            dep_stall_pct: row[13].parse().ok()?,
            issue_stall_pct: row[14].parse().ok()?,
            rel_err: row[15].parse().ok()?,
        })
    }
}

/// A deterministic right-hand side with a known exact solution, plus that
/// solution's serial-reference solve for verification.
pub fn make_problem(l: &LowerTriangularCsr) -> (Vec<f64>, Vec<f64>) {
    let n = l.n();
    let x_true: Vec<f64> = (0..n).map(|i| ((i * 29 + 13) % 31) as f64 - 15.0).collect();
    let b = rhs_for_solution(l, &x_true);
    let x_ref = capellini_core::solve_serial_csr(l, &b);
    (b, x_ref)
}

/// Runs one cell; `Err` carries the simulator error text (e.g. deadlock).
pub fn run_cell(
    cfg: &DeviceConfig,
    name: &str,
    l: &LowerTriangularCsr,
    stats: &MatrixStats,
    b: &[f64],
    x_ref: &[f64],
    algo: Algorithm,
) -> Result<CellResult, String> {
    let report = solve_simulated(cfg, l, b, algo).map_err(|e| e.to_string())?;
    Ok(CellResult {
        matrix: name.to_string(),
        platform: cfg.name.to_string(),
        algo: algo.label().to_string(),
        n: stats.n,
        nnz: stats.nnz,
        nnz_row: stats.nnz_row,
        n_level: stats.n_level,
        granularity: stats.granularity,
        pre_ms: report.preprocessing_ms,
        exec_ms: report.exec_ms,
        gflops: report.gflops,
        bandwidth: report.bandwidth_gbs,
        warp_instr: report.stats.warp_instructions,
        dep_stall_pct: report.stats.stall_pct(),
        issue_stall_pct: report.stats.issue_stall_pct(),
        rel_err: rel_error_inf(&report.x, x_ref),
    })
}

/// Where cached sweep results live.
pub fn results_dir() -> PathBuf {
    std::env::var_os("CAPELLINI_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

fn scale_tag(scale: Scale) -> &'static str {
    match scale {
        Scale::Small => "small",
        Scale::Medium => "medium",
        Scale::Full => "full",
    }
}

/// Default worker count for sweeps that don't pick one explicitly; set once
/// at startup (e.g. from `repro --threads`). 0 means "not set".
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default sweep thread count (used by
/// [`Runner::from_env`] when `CAPELLINI_THREADS` is absent).
pub fn set_default_threads(threads: usize) {
    DEFAULT_THREADS.store(threads, Ordering::Relaxed);
}

/// Resolves the sweep thread count: `CAPELLINI_THREADS` env var, then
/// [`set_default_threads`], then 1 (serial).
fn threads_from_env() -> usize {
    std::env::var("CAPELLINI_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or_else(|| DEFAULT_THREADS.load(Ordering::Relaxed).max(1))
}

/// The sweep executor: a worker pool of `threads` scoped threads pulling
/// dataset entries from a shared queue.
///
/// Results are deterministic and ordering-stable by construction: every
/// entry owns a pre-allocated output slot, each (platform × algorithm) cell
/// inside a slot is produced in the same nested-loop order as a serial
/// sweep, and the simulator itself is cycle-deterministic. Only wall-clock
/// — never output — depends on the thread count.
#[derive(Debug, Clone)]
pub struct Runner {
    /// Worker threads for sweeps (1 = run on the calling thread).
    pub threads: usize,
    /// Directory for cached sweep CSVs.
    pub results_dir: PathBuf,
}

impl Runner {
    /// A runner honoring `CAPELLINI_THREADS` / `CAPELLINI_RESULTS_DIR`.
    pub fn from_env() -> Self {
        Runner {
            threads: threads_from_env(),
            results_dir: results_dir(),
        }
    }

    /// Runs `entries × algorithms × platforms`, verifying each solve, with
    /// CSV caching keyed by `cache_name` and scale. `limit` truncates the
    /// entry list (0 = all).
    ///
    /// Caches are versioned: a `<cache>.csv.meta` sidecar records the
    /// schema version and a fingerprint of the exact sweep inputs (dataset
    /// recipes, seeds, algorithms, device configs). A cache whose sidecar
    /// disagrees is stale — the sweep re-runs. A cache with no sidecar
    /// (from before versioning existed) is accepted once and stamped.
    pub fn run_grid(
        &self,
        cache_name: &str,
        scale: Scale,
        entries: &[DatasetEntry],
        algorithms: &[Algorithm],
        platforms: &[DeviceConfig],
        limit: usize,
    ) -> Vec<CellResult> {
        let path = self
            .results_dir
            .join(format!("{cache_name}_{}.csv", scale_tag(scale)));
        let entries: Vec<&DatasetEntry> = entries
            .iter()
            .take(if limit == 0 { entries.len() } else { limit })
            .collect();
        let expected = entries.len() * algorithms.len() * platforms.len();
        let meta = cache_meta(scale, &entries, algorithms, platforms);
        if let Some(cached) = load_cache(&path, expected) {
            match read_sidecar(&path) {
                Some(found) if found == meta => {
                    eprintln!(
                        "[runner] reusing {} cached cells from {}",
                        cached.len(),
                        path.display()
                    );
                    return cached;
                }
                Some(_) => {
                    eprintln!(
                        "[runner] cache {} is stale (input fingerprint changed); re-sweeping",
                        path.display()
                    );
                }
                None => {
                    eprintln!(
                        "[runner] stamping unversioned cache {} (reusing {} cells)",
                        path.display(),
                        cached.len()
                    );
                    write_sidecar(&path, &meta);
                    return cached;
                }
            }
        }

        // A sweep returns its cells at the CSV's precision, so what it
        // renders is byte for byte what a later cache hit renders.
        let out: Vec<CellResult> = self
            .sweep(cache_name, &entries, algorithms, platforms)
            .iter()
            .map(|c| CellResult::from_row(&c.to_row()).expect("a cell round-trips its CSV row"))
            .collect();
        save_cache(&path, &out);
        write_sidecar(&path, &meta);
        out
    }

    /// Executes the sweep (no cache involvement) and returns the flattened,
    /// entry-ordered cell list.
    pub fn sweep(
        &self,
        cache_name: &str,
        entries: &[&DatasetEntry],
        algorithms: &[Algorithm],
        platforms: &[DeviceConfig],
    ) -> Vec<CellResult> {
        let t0 = Instant::now();
        let n_entries = entries.len();
        let workers = self.threads.min(n_entries.max(1));

        // One slot per entry keeps the output independent of scheduling.
        let mut slots: Vec<Option<Vec<CellResult>>> = vec![None; n_entries];

        if workers <= 1 {
            for (mi, (entry, slot)) in entries.iter().zip(slots.iter_mut()).enumerate() {
                *slot = Some(run_entry(entry, algorithms, platforms));
                progress(cache_name, mi + 1, n_entries, &t0);
            }
        } else {
            // Shared work queue: workers claim entries through a shared
            // atomic cursor over a cost-descending permutation, keep
            // (index, cells) locally, and the results are merged into the
            // entry-ordered slots after the scope joins — so the claim
            // order affects wall-clock only, never the CSV bytes. Claiming
            // most-expensive-first keeps the sweep tail short: with the
            // natural order, one big matrix claimed last serializes the
            // whole end of the sweep while every other worker idles.
            // A worker panic (e.g. a failed verification) propagates
            // through `join`.
            let mut order: Vec<usize> = (0..n_entries).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(expected_cost(&entries[i].spec)));
            let order = &order;
            let next = AtomicUsize::new(0);
            let done = AtomicUsize::new(0);
            let results: Vec<(usize, Vec<CellResult>)> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        s.spawn(|| {
                            let mut local = Vec::new();
                            loop {
                                let claim = next.fetch_add(1, Ordering::Relaxed);
                                if claim >= n_entries {
                                    break;
                                }
                                let i = order[claim];
                                local.push((i, run_entry(entries[i], algorithms, platforms)));
                                let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                                progress(cache_name, finished, n_entries, &t0);
                            }
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap())
                    .collect()
            });
            for (i, cells) in results {
                slots[i] = Some(cells);
            }
        }

        slots.into_iter().flatten().flatten().collect()
    }
}

/// Rough relative solve cost of one dataset entry, used only to pick the
/// parallel claim order (most expensive first). Simulated cycles scale
/// with rows and stored entries far more than with anything else the spec
/// exposes, so an nnz-flavoured estimate is enough to sort on — it never
/// influences the results themselves.
fn expected_cost(spec: &capellini_sparse::gen::GenSpec) -> u64 {
    use capellini_sparse::gen::GenSpec;
    match spec {
        GenSpec::RandomK { n, k, .. } => (n * (k + 2)) as u64,
        GenSpec::Banded { n, bandwidth, fill } => {
            (*n as f64 * (2.0 + *bandwidth as f64 * fill)) as u64
        }
        // Chains are serial: every row spins on the previous one, so the
        // simulated schedule is depth-bound, not just nnz-bound.
        GenSpec::Chain { n, k } => (n * (k + 2) * 4) as u64,
        GenSpec::DenseBand { n, band } => (n * (band + 2)) as u64,
        GenSpec::Diagonal { n } => *n as u64,
        GenSpec::Layered { n, k, .. } => (n * (k + 2)) as u64,
        GenSpec::PowerLaw { n, avg_deg } => (*n as f64 * (avg_deg + 2.0)) as u64,
        GenSpec::Circuit { n, rails, .. } => (n * (rails + 2)) as u64,
        GenSpec::UltraSparseWide { n, deps, .. } => (n + deps * 4) as u64,
        GenSpec::Stencil2D { nx, ny } => (nx * ny * 4) as u64,
        GenSpec::Stencil3D { nx, ny, nz } => (nx * ny * nz * 5) as u64,
        GenSpec::Shuffled { inner } => expected_cost(inner),
    }
}

/// Builds one entry's matrix and runs all its platform × algorithm cells,
/// in the same nested order as the historical serial sweep.
fn run_entry(
    entry: &DatasetEntry,
    algorithms: &[Algorithm],
    platforms: &[DeviceConfig],
) -> Vec<CellResult> {
    let (l, stats) = entry.build_with_stats();
    let (b, x_ref) = make_problem(&l);
    let mut cells = Vec::with_capacity(algorithms.len() * platforms.len());
    for cfg in platforms {
        for &algo in algorithms {
            match run_cell(cfg, &entry.name, &l, &stats, &b, &x_ref, algo) {
                Ok(cell) => {
                    assert!(
                        cell.rel_err < 1e-9,
                        "{} / {} / {}: relative error {:.3e}",
                        entry.name,
                        cfg.name,
                        algo.label(),
                        cell.rel_err
                    );
                    cells.push(cell);
                }
                Err(e) => {
                    eprintln!(
                        "[runner] {} / {} / {}: SKIPPED ({e})",
                        entry.name,
                        cfg.name,
                        algo.label()
                    );
                }
            }
        }
    }
    cells
}

fn progress(cache_name: &str, finished: usize, total: usize, t0: &Instant) {
    if finished.is_multiple_of(10) || finished == total {
        eprintln!(
            "[runner] {cache_name}: {finished}/{total} matrices done in {:.1?}",
            t0.elapsed()
        );
    }
}

/// Runs `entries × algorithms × platforms` with the env-configured runner
/// ([`Runner::from_env`]): the historical entry point used by the
/// experiment drivers.
pub fn run_grid(
    cache_name: &str,
    scale: Scale,
    entries: &[DatasetEntry],
    algorithms: &[Algorithm],
    platforms: &[DeviceConfig],
    limit: usize,
) -> Vec<CellResult> {
    Runner::from_env().run_grid(cache_name, scale, entries, algorithms, platforms, limit)
}

/// Version of the cached-CSV schema (bump when `CellResult::HEADER` or any
/// column's formatting changes).
pub const CACHE_SCHEMA_VERSION: u32 = 1;

/// Canonical sidecar contents for a sweep: schema version plus an FNV-1a
/// fingerprint of every input that determines the cells — dataset recipes
/// and seeds, algorithm labels, and full device configurations.
fn cache_meta(
    scale: Scale,
    entries: &[&DatasetEntry],
    algorithms: &[Algorithm],
    platforms: &[DeviceConfig],
) -> String {
    let mut canon = String::new();
    canon.push_str(&format!(
        "schema={CACHE_SCHEMA_VERSION};scale={};",
        scale_tag(scale)
    ));
    canon.push_str(&format!("header={};", CellResult::HEADER.join("|")));
    for e in entries {
        canon.push_str(&format!("entry={}:{}:{:?};", e.name, e.seed, e.spec));
    }
    for a in algorithms {
        canon.push_str(&format!("algo={};", a.label()));
    }
    for p in platforms {
        canon.push_str(&format!("platform={p:?};"));
    }
    // FNV-1a, 64-bit.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in canon.bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!(
        "schema_version={CACHE_SCHEMA_VERSION}\nfingerprint={h:016x}\nmatrices={}\nalgorithms={}\nplatforms={}\n",
        entries.len(),
        algorithms.len(),
        platforms.len()
    )
}

fn sidecar_path(csv_path: &Path) -> PathBuf {
    let mut os = csv_path.as_os_str().to_os_string();
    os.push(".meta");
    PathBuf::from(os)
}

fn read_sidecar(csv_path: &Path) -> Option<String> {
    std::fs::read_to_string(sidecar_path(csv_path)).ok()
}

fn write_sidecar(csv_path: &Path, meta: &str) {
    let p = sidecar_path(csv_path);
    if let Err(e) = std::fs::write(&p, meta) {
        eprintln!(
            "[runner] failed to write cache sidecar {}: {e}",
            p.display()
        );
    }
}

fn load_cache(path: &Path, expected: usize) -> Option<Vec<CellResult>> {
    let (header, rows) = read_csv(path).ok()?;
    if header != CellResult::HEADER {
        return None;
    }
    let cells: Option<Vec<CellResult>> = rows.iter().map(|r| CellResult::from_row(r)).collect();
    let cells = cells?;
    // Deadlocked/skipped cells make the count smaller; accept caches within
    // reason but reject obviously stale ones.
    if cells.len() * 10 < expected * 9 {
        return None;
    }
    Some(cells)
}

fn save_cache(path: &Path, cells: &[CellResult]) {
    let rows: Vec<Vec<String>> = cells.iter().map(|c| c.to_row()).collect();
    if let Err(e) = write_csv(path, &CellResult::HEADER, &rows) {
        eprintln!("[runner] failed to write cache {}: {e}", path.display());
    }
}

/// Geometric-mean helper (the paper reports arithmetic means; both are
/// provided by the experiments).
pub fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        f64::NAN
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capellini_sparse::gen::GenSpec;

    #[test]
    fn cell_csv_round_trip() {
        let c = CellResult {
            matrix: "m".into(),
            platform: "Pascal".into(),
            algo: "Capellini".into(),
            n: 10,
            nnz: 20,
            nnz_row: 2.0,
            n_level: 5.0,
            granularity: 0.8,
            pre_ms: 0.1,
            exec_ms: 0.2,
            gflops: 3.0,
            bandwidth: 40.0,
            warp_instr: 1234,
            dep_stall_pct: 12.5,
            issue_stall_pct: 80.0,
            rel_err: 1e-14,
        };
        let row = c.to_row();
        let back = CellResult::from_row(&row).unwrap();
        assert_eq!(back.matrix, "m");
        assert_eq!(back.warp_instr, 1234);
        assert!((back.granularity - 0.8).abs() < 1e-9);
    }

    #[test]
    fn expected_cost_orders_heavy_entries_first() {
        let light = GenSpec::Diagonal { n: 1_000 };
        let heavy = GenSpec::Shuffled {
            inner: Box::new(GenSpec::Stencil3D {
                nx: 40,
                ny: 40,
                nz: 40,
            }),
        };
        assert!(expected_cost(&heavy) > expected_cost(&light));
        // Shuffling relabels rows but does not change the work.
        assert_eq!(
            expected_cost(&heavy),
            expected_cost(&GenSpec::Stencil3D {
                nx: 40,
                ny: 40,
                nz: 40
            })
        );
    }

    #[test]
    fn grid_runs_and_caches() {
        // A runner of its own, not the process-wide `CAPELLINI_RESULTS_DIR`,
        // which other tests redirect while this one runs.
        let dir = tmp_dir("grid");
        let runner = Runner {
            threads: 1,
            results_dir: dir.clone(),
        };
        let entries = vec![DatasetEntry {
            name: "tiny".into(),
            spec: GenSpec::RandomK {
                n: 200,
                k: 2,
                window: 200,
            },
            seed: 5,
        }];
        let platforms = vec![DeviceConfig::pascal_like().scaled_down(4)];
        let algos = [Algorithm::CapelliniWritingFirst, Algorithm::SyncFree];
        let cells = runner.run_grid("test_grid", Scale::Small, &entries, &algos, &platforms, 0);
        assert_eq!(cells.len(), 2);
        // Second call hits the cache and returns the very cells the sweep
        // did: both are at the CSV's precision, so they render alike.
        let again = runner.run_grid("test_grid", Scale::Small, &entries, &algos, &platforms, 0);
        assert_eq!(cells, again);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn mean_of_empty_is_nan() {
        assert!(mean(std::iter::empty()).is_nan());
        assert_eq!(mean([2.0, 4.0].into_iter()), 3.0);
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("capellini-runner-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn small_entries() -> Vec<DatasetEntry> {
        vec![
            DatasetEntry {
                name: "rk".into(),
                spec: GenSpec::RandomK {
                    n: 300,
                    k: 2,
                    window: 300,
                },
                seed: 5,
            },
            DatasetEntry {
                name: "band".into(),
                spec: GenSpec::Banded {
                    n: 300,
                    bandwidth: 64,
                    fill: 0.04,
                },
                seed: 6,
            },
            DatasetEntry {
                name: "lay".into(),
                spec: GenSpec::Layered {
                    n: 300,
                    k: 3,
                    layers: 3,
                },
                seed: 7,
            },
            DatasetEntry {
                name: "pl".into(),
                spec: GenSpec::PowerLaw {
                    n: 300,
                    avg_deg: 2.0,
                },
                seed: 8,
            },
        ]
    }

    /// The tentpole determinism guarantee: a worker-pool sweep produces the
    /// same cells — and therefore the same CSV bytes — as a serial sweep.
    #[test]
    fn parallel_sweep_is_byte_identical_to_serial() {
        let dir = tmp_dir("det");
        let entries = small_entries();
        let refs: Vec<&DatasetEntry> = entries.iter().collect();
        let algos = [Algorithm::CapelliniWritingFirst, Algorithm::SyncFree];
        let plats = [DeviceConfig::pascal_like().scaled_down(4)];

        let serial = Runner {
            threads: 1,
            results_dir: dir.clone(),
        }
        .sweep("det(1)", &refs, &algos, &plats);
        let parallel = Runner {
            threads: 4,
            results_dir: dir.clone(),
        }
        .sweep("det(4)", &refs, &algos, &plats);
        assert_eq!(serial, parallel);

        let (pa, pb) = (dir.join("serial.csv"), dir.join("parallel.csv"));
        save_cache(&pa, &serial);
        save_cache(&pb, &parallel);
        let (ba, bb) = (std::fs::read(&pa).unwrap(), std::fs::read(&pb).unwrap());
        assert!(!ba.is_empty());
        assert_eq!(ba, bb, "CSV bytes must not depend on the thread count");
        std::fs::remove_dir_all(dir).ok();
    }

    /// A sweep and the cache hit after it render every suite-grid table and
    /// figure to the same bytes.
    #[test]
    fn sweep_and_cache_hit_render_the_same_bytes() {
        use crate::experiments::{fig4, fig5, fig7, fig8, platforms, table4, table5};
        let dir = tmp_dir("render");
        let runner = Runner {
            threads: 2,
            results_dir: dir.clone(),
        };
        let grid = || {
            runner.run_grid(
                "render",
                Scale::Small,
                &small_entries(),
                &Algorithm::evaluation_trio(),
                &platforms(),
                0,
            )
        };
        let render = |cells: &[CellResult]| {
            [
                table4(cells),
                table5(cells, &[]),
                fig4(cells),
                fig5(cells, &[]),
                fig7(cells),
                fig8(cells),
            ]
        };
        let swept = render(&grid());
        let cached = render(&grid());
        assert_eq!(swept, cached);
        std::fs::remove_dir_all(dir).ok();
    }

    /// Cache versioning: matching sidecar reuses, changed inputs re-sweep,
    /// missing sidecar (legacy cache) is stamped in place.
    #[test]
    fn cache_versioning_detects_stale_inputs() {
        let dir = tmp_dir("meta");
        let runner = Runner {
            threads: 1,
            results_dir: dir.clone(),
        };
        let plats = vec![DeviceConfig::pascal_like().scaled_down(4)];
        let algos = [Algorithm::CapelliniWritingFirst];
        let mk = |seed| {
            vec![DatasetEntry {
                name: "tiny".into(),
                spec: GenSpec::RandomK {
                    n: 200,
                    k: 2,
                    window: 200,
                },
                seed,
            }]
        };

        let first = runner.run_grid("vgrid", Scale::Small, &mk(5), &algos, &plats, 0);
        let csv = dir.join("vgrid_small.csv");
        let meta = sidecar_path(&csv);
        assert!(meta.exists(), "sweep must write a sidecar");

        // Same inputs: cache hit, identical cells.
        let again = runner.run_grid("vgrid", Scale::Small, &mk(5), &algos, &plats, 0);
        assert_eq!(first.len(), again.len());
        assert_eq!(first[0].warp_instr, again[0].warp_instr);

        // Legacy cache (no sidecar): reused once and stamped.
        std::fs::remove_file(&meta).unwrap();
        let stamped = runner.run_grid("vgrid", Scale::Small, &mk(5), &algos, &plats, 0);
        assert_eq!(first[0].warp_instr, stamped[0].warp_instr);
        assert!(meta.exists(), "legacy cache must be stamped");

        // Changed dataset seed: fingerprint mismatch forces a re-sweep.
        let resweep = runner.run_grid("vgrid", Scale::Small, &mk(77), &algos, &plats, 0);
        assert_ne!(
            first[0].warp_instr, resweep[0].warp_instr,
            "stale cache must not be reused after the dataset changed"
        );
        std::fs::remove_dir_all(dir).ok();
    }
}
