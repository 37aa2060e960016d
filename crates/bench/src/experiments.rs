//! One function per table and figure of the paper's evaluation (the index
//! lives in DESIGN.md §3). Each returns the rendered text that `repro`
//! prints and saves under `results/`.

use capellini_core::kernels::{naive, syncfree, writing_first};
use capellini_core::{algorithm_traits, solve_simulated, Algorithm};
use capellini_simt::{DeviceConfig, GpuDevice, SimtError, Trace};
use capellini_sparse::dataset::{self, DatasetEntry, Scale};
use capellini_sparse::gen::GenSpec;
use capellini_sparse::{paper_example, LevelSets};

use crate::runner::{make_problem, mean, run_grid, CellResult};
use crate::tables::{bar_chart, fnum, safe_div, stall_breakdown_table, write_csv, TextTable};

/// The three platforms the harness simulates (scaled; see Table 3 output).
pub fn platforms() -> Vec<DeviceConfig> {
    DeviceConfig::evaluation_platforms_scaled()
}

fn pascal() -> DeviceConfig {
    platforms().remove(0)
}

fn volta() -> DeviceConfig {
    platforms().remove(1)
}

// ---------------------------------------------------------------- Figure 1

/// Figure 1: the running 8×8 example — matrix, level sets, CSR arrays.
pub fn fig1() -> String {
    let l = paper_example();
    let levels = LevelSets::analyze(&l);
    let mut out = String::new();
    out.push_str("Figure 1: lower triangular matrix L in CSR format\n\n");
    out.push_str("(a) dense view (. = zero, showing the level of each row)\n");
    for i in 0..l.n() {
        let mut line = String::new();
        for j in 0..l.n() {
            line.push_str(match l.csr().get(i, j) {
                Some(_) => " *",
                None => " .",
            });
        }
        out.push_str(&format!(
            "  row {i}: {line}   level {}\n",
            levels.level_of(i)
        ));
    }
    out.push_str("\n(b) level sets\n");
    for lvl in 0..levels.n_levels() {
        let rows: Vec<String> = levels
            .rows_in_level(lvl)
            .iter()
            .map(|r| format!("x{r}"))
            .collect();
        out.push_str(&format!("  level {lvl}: {{{}}}\n", rows.join(", ")));
    }
    out.push_str("\n(c) CSR arrays\n");
    out.push_str(&format!("  csrRowPtr = {:?}\n", l.csr().row_ptr()));
    out.push_str(&format!("  csrColIdx = {:?}\n", l.csr().col_idx()));
    out.push_str(&format!(
        "  csrVal    = {:?}\n",
        l.csr()
            .values()
            .iter()
            .map(|v| (v * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    ));
    out
}

// ---------------------------------------------------------------- Figure 2

/// Figure 2: the schedule case study on the toy device (two warps of three
/// threads), comparing Level-Set, warp-level SyncFree, and thread-level
/// CapelliniSpTRSV on the Figure 1 matrix.
pub fn fig2() -> String {
    let l = paper_example();
    let (b, _) = make_problem(&l);
    let cfg = DeviceConfig::toy();
    let mut out = String::new();
    out.push_str(
        "Figure 2: SpTRSV workflow case study (toy device: 2 resident warps x 3 threads)\n\n",
    );

    // (a) Level-Set.
    {
        let dev = GpuDevice::new(cfg.clone());
        let rep = solve_simulated(&cfg, &l, &b, Algorithm::LevelSet).expect("level-set solves");
        out.push_str(&format!(
            "(a) Level-Set SpTRSV: {} launches (one per level), {} cycles total\n",
            rep.stats.launches, rep.stats.cycles
        ));
        let _ = dev;
    }

    // (b) warp-level SyncFree, traced.
    {
        let mut dev = GpuDevice::new(cfg.clone());
        let mut tr = Trace::new();
        let sol = syncfree::solve_traced(&mut dev, &l, &b, &mut tr).expect("syncfree solves");
        out.push_str(&format!(
            "\n(b) warp-level SyncFree: one warp per component, {} warps, {} warp instructions, {} cycles\n",
            sol.stats.warps_launched, sol.stats.warp_instructions, sol.stats.cycles
        ));
        out.push_str(&clip_trace(&tr, 40));
    }

    // (c) thread-level Writing-First, traced.
    {
        let mut dev = GpuDevice::new(cfg.clone());
        let mut tr = Trace::new();
        let sol =
            writing_first::solve_traced(&mut dev, &l, &b, &mut tr).expect("writing-first solves");
        out.push_str(&format!(
            "\n(c) thread-level CapelliniSpTRSV: one thread per component, {} warps, {} warp instructions, {} cycles\n",
            sol.stats.warps_launched, sol.stats.warp_instructions, sol.stats.cycles
        ));
        out.push_str(&clip_trace(&tr, 40));
    }
    out
}

fn clip_trace(tr: &Trace, max_lines: usize) -> String {
    let rendered = tr.render();
    let lines: Vec<&str> = rendered.lines().collect();
    if lines.len() <= max_lines {
        rendered
    } else {
        let mut s = lines[..max_lines].join("\n");
        s.push_str(&format!(
            "\n... ({} more instructions)\n",
            lines.len() - max_lines
        ));
        s
    }
}

// ---------------------------------------------------------------- Table 1

/// Table 1: preprocessing vs execution time for Level-Set, cuSPARSE-like,
/// and SyncFree on the nlpkkt160/wiki-Talk/cant stand-ins.
pub fn table1(scale: Scale) -> String {
    let entries = vec![
        dataset::nlpkkt160_like(scale),
        dataset::wiki_talk_like(scale),
        dataset::cant_like(scale),
    ];
    let algos = [
        Algorithm::LevelSet,
        Algorithm::CusparseLike,
        Algorithm::SyncFree,
    ];
    let cells = run_grid("table1", scale, &entries, &algos, &[volta()], 0);

    let mut t = TextTable::new(&[
        "Algorithm",
        "Time (ms)",
        "nlpkkt160-like",
        "wiki-Talk-like",
        "cant-like",
    ]);
    for algo in algos {
        for (kind, f) in [
            (
                "Preprocessing",
                Box::new(|c: &CellResult| c.pre_ms) as Box<dyn Fn(&CellResult) -> f64>,
            ),
            ("Execution", Box::new(|c: &CellResult| c.exec_ms)),
        ] {
            let mut row = vec![algo.label().to_string(), kind.to_string()];
            for e in &entries {
                let v = cells
                    .iter()
                    .find(|c| c.matrix == e.name && c.algo == algo.label())
                    .map(&f)
                    .unwrap_or(f64::NAN);
                row.push(fnum(v, 3));
            }
            t.row(row);
        }
    }
    format!(
        "Table 1: preprocessing and execution time of different SpTRSV algorithms\n(Volta-like platform; matrices are scaled stand-ins, see EXPERIMENTS.md)\n\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------- Table 2

/// Table 2: qualitative summary of the SpTRSV algorithm family.
pub fn table2() -> String {
    let mut t = TextTable::new(&[
        "Algorithm",
        "Preprocessing overhead",
        "Storage format",
        "Synchronization required",
        "Processing granularity",
    ]);
    for r in algorithm_traits() {
        t.row(vec![
            r.algorithm.to_string(),
            r.preprocessing.to_string(),
            r.storage.to_string(),
            r.synchronization.to_string(),
            r.granularity.to_string(),
        ]);
    }
    format!(
        "Table 2: summary for different SpTRSV algorithms\n\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------- Table 3

/// Table 3: platform configurations (published card shape + the 4×-scaled
/// simulation configuration actually run).
pub fn table3() -> String {
    let real = DeviceConfig::evaluation_platforms();
    let scaled = DeviceConfig::evaluation_platforms_scaled();
    let mut t = TextTable::new(&[
        "Platform",
        "GPU model",
        "Memory",
        "SMs",
        "warps/SM",
        "clock GHz",
        "BW GB/s",
        "SMs (sim)",
        "BW GB/s (sim)",
    ]);
    for (r, s) in real.iter().zip(&scaled) {
        t.row(vec![
            r.name.to_string(),
            r.model.to_string(),
            r.memory_type.to_string(),
            r.sm_count.to_string(),
            r.max_warps_per_sm.to_string(),
            format!("{:.2}", r.clock_ghz),
            format!("{:.0}", r.dram_bw_gbps),
            s.sm_count.to_string(),
            format!("{:.0}", s.dram_bw_gbps),
        ]);
    }
    format!(
        "Table 3: platform configuration (simulated; devices scaled down 4x to keep\na single-core cycle-level simulation tractable — occupancy ratios preserved)\n\n{}",
        t.render()
    )
}

// ------------------------------------------------------- Suite-based runs

/// Runs (or loads) the 245-matrix × 3-algorithm × 3-platform grid behind
/// Tables 4-5 and Figures 4-5, 7-8.
pub fn suite_cells(scale: Scale, limit: usize) -> Vec<CellResult> {
    let entries = dataset::suite(scale);
    run_grid(
        "suite",
        scale,
        &entries,
        &Algorithm::evaluation_trio(),
        &platforms(),
        limit,
    )
}

/// Named extreme matrices (lp1-like etc.) used by Figure 5 / Table 5.
pub fn named_cells(scale: Scale) -> Vec<CellResult> {
    let entries = vec![
        dataset::lp1_like(scale),
        dataset::neos_like(scale),
        dataset::wiki_talk_like(scale),
    ];
    run_grid(
        "named",
        scale,
        &entries,
        &Algorithm::evaluation_trio(),
        &platforms(),
        0,
    )
}

struct MatrixOnPlatform<'a> {
    sync: Option<&'a CellResult>,
    cus: Option<&'a CellResult>,
    cap: Option<&'a CellResult>,
}

fn group<'a>(cells: &'a [CellResult], platform: &str) -> Vec<(String, MatrixOnPlatform<'a>)> {
    let mut names: Vec<&str> = cells
        .iter()
        .filter(|c| c.platform == platform)
        .map(|c| c.matrix.as_str())
        .collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|name| {
            let find = |algo: &str| {
                cells
                    .iter()
                    .find(|c| c.platform == platform && c.matrix == name && c.algo == algo)
            };
            (
                name.to_string(),
                MatrixOnPlatform {
                    sync: find("SyncFree"),
                    cus: find("cuSPARSE"),
                    cap: find("Capellini"),
                },
            )
        })
        .collect()
}

// ---------------------------------------------------------------- Table 4

/// Table 4: mean GFLOPS per algorithm per platform, plus the percentage of
/// matrices on which CapelliniSpTRSV is the fastest of the trio.
pub fn table4(cells: &[CellResult]) -> String {
    let plats = ["Pascal", "Volta", "Turing"];
    let mut rows: Vec<Vec<String>> = vec![
        vec!["SyncFree".into()],
        vec!["cuSPARSE".into()],
        vec!["CapelliniSpTRSV".into()],
        vec!["Percentage".into()],
    ];
    let mut grand: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut pct_all = Vec::new();
    for p in plats {
        let g = group(cells, p);
        let sf = mean(g.iter().filter_map(|(_, m)| m.sync.map(|c| c.gflops)));
        let cu = mean(g.iter().filter_map(|(_, m)| m.cus.map(|c| c.gflops)));
        let cap = mean(g.iter().filter_map(|(_, m)| m.cap.map(|c| c.gflops)));
        let wins = g
            .iter()
            .filter(|(_, m)| {
                let cap = m.cap.map(|c| c.gflops).unwrap_or(f64::NEG_INFINITY);
                cap > m.sync.map(|c| c.gflops).unwrap_or(f64::NEG_INFINITY)
                    && cap > m.cus.map(|c| c.gflops).unwrap_or(f64::NEG_INFINITY)
            })
            .count();
        let pct = 100.0 * wins as f64 / g.len().max(1) as f64;
        rows[0].push(fnum(sf, 2));
        rows[1].push(fnum(cu, 2));
        rows[2].push(fnum(cap, 2));
        rows[3].push(format!("{:.2}%", pct));
        grand[0].push(sf);
        grand[1].push(cu);
        grand[2].push(cap);
        pct_all.push(pct);
    }
    for (i, g) in grand.iter().enumerate() {
        rows[i].push(fnum(mean(g.iter().copied()), 2));
    }
    rows[3].push(format!("{:.2}%", mean(pct_all.into_iter())));

    let mut t = TextTable::new(&["Platform", "Pascal", "Volta", "Turing", "Average"]);
    for r in rows {
        t.row(r);
    }
    format!(
        "Table 4: GFLOPS of the SpTRSV algorithms over the 245-matrix suite\n(granularity > 0.7) and percentage of matrices where Capellini is optimal\n\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------- Table 5

/// Table 5: average and maximum speedups of Capellini over SyncFree and
/// cuSPARSE per platform, with the argmax matrix.
pub fn table5(cells: &[CellResult], named: &[CellResult]) -> String {
    let plats = ["Pascal", "Volta", "Turing"];
    let mut t = TextTable::new(&["Platform", "Pascal", "Volta", "Turing"]);
    let mut rows: Vec<Vec<String>> = vec![
        vec!["Average speedup over SyncFree".into()],
        vec!["Maximum speedup over SyncFree".into()],
        vec!["Matrix name".into()],
        vec!["Average speedup over cuSPARSE".into()],
        vec!["Maximum speedup over cuSPARSE".into()],
        vec!["Matrix name".into()],
    ];
    let all: Vec<CellResult> = cells.iter().chain(named).cloned().collect();
    for p in plats {
        let g = group(&all, p);
        let speedups = |base: fn(&MatrixOnPlatform<'_>) -> Option<f64>| {
            g.iter()
                .filter_map(|(name, m)| {
                    let cap = m.cap?.gflops;
                    let b = base(m)?;
                    Some((name.clone(), cap / b))
                })
                .collect::<Vec<_>>()
        };
        let vs_sf = speedups(|m| m.sync.map(|c| c.gflops));
        let vs_cu = speedups(|m| m.cus.map(|c| c.gflops));
        for (base, (avg_row, max_row, name_row)) in
            [(&vs_sf, (0usize, 1usize, 2usize)), (&vs_cu, (3, 4, 5))]
        {
            let avg = mean(base.iter().map(|(_, s)| *s));
            let (mname, mval) = base
                .iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(n, v)| (n.clone(), *v))
                .unwrap_or(("-".into(), f64::NAN));
            rows[avg_row].push(fnum(avg, 2));
            rows[max_row].push(fnum(mval, 2));
            rows[name_row].push(mname);
        }
    }
    for r in rows {
        t.row(r);
    }
    format!(
        "Table 5: average and maximum speedups of Capellini over SyncFree and\ncuSPARSE (245-matrix suite plus the named extreme matrices)\n\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------- Figure 3

/// Figure 3: warp-level SyncFree performance vs parallel granularity over
/// the full sweep (rise then fall; the paper's peak sits near 0.7).
pub fn fig3(scale: Scale) -> String {
    let entries = dataset::full_sweep(scale);
    let cells = run_grid(
        "fig3",
        scale,
        &entries,
        &[Algorithm::SyncFree],
        &[pascal()],
        0,
    );
    let mut bins: Vec<(f64, Vec<f64>)> = Vec::new();
    let lo = -0.6f64;
    let width = 0.1f64;
    for c in &cells {
        let b = ((c.granularity - lo) / width).floor();
        let center = lo + (b + 0.5) * width;
        match bins.iter_mut().find(|(c0, _)| (*c0 - center).abs() < 1e-9) {
            Some((_, v)) => v.push(c.gflops),
            None => bins.push((center, vec![c.gflops])),
        }
    }
    bins.sort_by(|a, b| a.0.total_cmp(&b.0));
    let series: Vec<(String, f64)> = bins
        .iter()
        .map(|(c, v)| {
            (
                format!("g={c:+.2} (n={})", v.len()),
                mean(v.iter().copied()),
            )
        })
        .collect();
    let peak = series
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(l, _)| l.clone())
        .unwrap_or_default();
    format!(
        "Figure 3: performance trend of warp-level SyncFree vs parallel granularity\n(Pascal-like platform, {} matrices; mean GFLOPS per granularity bin)\n\n{}\npeak bin: {}\n",
        cells.len(),
        bar_chart(&series, 40, "GFLOPS"),
        peak
    )
}

// ---------------------------------------------------------------- Figure 4

/// Figure 4: GFLOPS vs granularity (0.7–1.2) for the three algorithms on
/// each platform, binned.
pub fn fig4(cells: &[CellResult]) -> String {
    let mut out =
        String::from("Figure 4: performance vs parallel granularity (0.7-1.2), per platform\n");
    for p in ["Pascal", "Volta", "Turing"] {
        let mut t = TextTable::new(&[
            "granularity bin",
            "matrices",
            "SyncFree",
            "cuSPARSE",
            "Capellini",
        ]);
        for bi in 0..10 {
            let lo = 0.7 + bi as f64 * 0.05;
            let hi = lo + 0.05;
            let sel = |algo: &str| -> Vec<f64> {
                cells
                    .iter()
                    .filter(|c| {
                        c.platform == p
                            && c.algo == algo
                            && c.granularity >= lo
                            && c.granularity < hi
                    })
                    .map(|c| c.gflops)
                    .collect()
            };
            let n = sel("Capellini").len();
            if n == 0 {
                continue;
            }
            t.row(vec![
                format!("[{lo:.2}, {hi:.2})"),
                n.to_string(),
                fnum(mean(sel("SyncFree").into_iter()), 2),
                fnum(mean(sel("cuSPARSE").into_iter()), 2),
                fnum(mean(sel("Capellini").into_iter()), 2),
            ]);
        }
        out.push_str(&format!("\n--- {p} ---\n{}", t.render()));
    }
    out
}

// ---------------------------------------------------------------- Figure 5

/// Figure 5: per-matrix speedup of Capellini over SyncFree vs granularity
/// (Pascal), with the lp1-like extreme called out.
pub fn fig5(cells: &[CellResult], named: &[CellResult]) -> String {
    let all: Vec<CellResult> = cells.iter().chain(named).cloned().collect();
    let g = group(&all, "Pascal");
    let mut pts: Vec<(f64, f64, String)> = g
        .iter()
        .filter_map(|(name, m)| {
            Some((
                m.cap?.granularity,
                m.cap?.gflops / m.sync?.gflops,
                name.clone(),
            ))
        })
        .collect();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0));

    // Binned trend.
    let mut t = TextTable::new(&["granularity bin", "matrices", "mean speedup", "max speedup"]);
    for bi in 0..12 {
        let lo = 0.6 + bi as f64 * 0.05;
        let hi = lo + 0.05;
        let sel: Vec<f64> = pts
            .iter()
            .filter(|(g, _, _)| *g >= lo && *g < hi)
            .map(|(_, s, _)| *s)
            .collect();
        if sel.is_empty() {
            continue;
        }
        let mx = sel.iter().cloned().fold(f64::MIN, f64::max);
        t.row(vec![
            format!("[{lo:.2}, {hi:.2})"),
            sel.len().to_string(),
            fnum(mean(sel.iter().copied()), 2),
            fnum(mx, 2),
        ]);
    }
    let lp1 = pts.iter().find(|(_, _, n)| n.starts_with("lp1"));
    let callout = match lp1 {
        Some((g, s, n)) => format!("{n}: granularity {g:.2}, speedup {s:.2}x"),
        None => "lp1-like not present".into(),
    };
    format!(
        "Figure 5: speedup of Capellini over SyncFree vs parallel granularity (Pascal)\n\n{}\nextreme point -> {callout}\n",
        t.render()
    )
}

// ---------------------------------------------------------------- Figure 6

/// Figure 6: the optimal-algorithm map over the (nnz_row, n_level) plane,
/// from a controlled `layered` generator grid.
pub fn fig6(scale: Scale) -> String {
    let n = match scale {
        Scale::Small => 3_000,
        Scale::Medium => 6_000,
        Scale::Full => 12_000,
    };
    let ks = [1usize, 2, 4, 8, 16, 32];
    let layer_counts = [2usize, 8, 32, 128, 384];
    let mut entries = Vec::new();
    for &k in &ks {
        for &layers in &layer_counts {
            entries.push(DatasetEntry {
                name: format!("plane-k{k}-l{layers}"),
                spec: GenSpec::Layered { n, k, layers },
                seed: 600 + (k * 1000 + layers) as u64,
            });
        }
    }
    let cells = run_grid(
        "fig6",
        scale,
        &entries,
        &[Algorithm::SyncFree, Algorithm::CapelliniWritingFirst],
        &[pascal()],
        0,
    );
    let mut out = String::from(
        "Figure 6: optimal algorithm distribution over (nnz_row, n_level)\nC = Capellini fastest, S = SyncFree fastest (Pascal-like platform)\n\n",
    );
    let mut t = TextTable::new(&[
        "nnz_row \\ n_level",
        &format!("{}", n / layer_counts[4]),
        &format!("{}", n / layer_counts[3]),
        &format!("{}", n / layer_counts[2]),
        &format!("{}", n / layer_counts[1]),
        &format!("{}", n / layer_counts[0]),
    ]);
    for &k in &ks {
        let mut row = vec![format!("{}", k + 1)];
        for &layers in layer_counts.iter().rev() {
            let name = format!("plane-k{k}-l{layers}");
            let cap = cells
                .iter()
                .find(|c| c.matrix == name && c.algo == "Capellini")
                .map(|c| c.gflops);
            let sf = cells
                .iter()
                .find(|c| c.matrix == name && c.algo == "SyncFree")
                .map(|c| c.gflops);
            row.push(match (cap, sf) {
                (Some(c), Some(s)) if c > s => format!("C ({:.1}x)", c / s),
                (Some(c), Some(s)) => format!("S ({:.1}x)", s / c),
                _ => "-".into(),
            });
        }
        t.row(row);
    }
    out.push_str(&t.render());
    out
}

// --------------------------------------------------------- Figures 7 and 8

/// Figure 7: mean DRAM bandwidth utilization per algorithm (Pascal).
pub fn fig7(cells: &[CellResult]) -> String {
    let items: Vec<(String, f64)> = ["SyncFree", "cuSPARSE", "Capellini"]
        .iter()
        .map(|algo| {
            (
                algo.to_string(),
                mean(
                    cells
                        .iter()
                        .filter(|c| c.platform == "Pascal" && c.algo == *algo)
                        .map(|c| c.bandwidth),
                ),
            )
        })
        .collect();
    let ratio = safe_div(items[2].1, items[0].1);
    format!(
        "Figure 7: bandwidth utilization, read+write (Pascal, suite mean)\n\n{}\nCapellini / SyncFree bandwidth ratio: {}x\n",
        bar_chart(&items, 40, "GB/s"),
        fnum(ratio, 2)
    )
}

/// Figure 8: (a) warp instructions executed and (b) dependency-stall
/// percentage per algorithm (Pascal, suite means).
pub fn fig8(cells: &[CellResult]) -> String {
    let sel = |algo: &str, f: fn(&CellResult) -> f64| -> Vec<f64> {
        cells
            .iter()
            .filter(|c| c.platform == "Pascal" && c.algo == algo)
            .map(f)
            .collect()
    };
    let instr: Vec<(String, f64)> = ["SyncFree", "cuSPARSE", "Capellini"]
        .iter()
        .map(|a| {
            (
                a.to_string(),
                mean(sel(a, |c| c.warp_instr as f64).into_iter()) / 1e7,
            )
        })
        .collect();
    let stall: Vec<(String, f64)> = ["SyncFree", "cuSPARSE", "Capellini"]
        .iter()
        .map(|a| (a.to_string(), mean(sel(a, |c| c.dep_stall_pct).into_iter())))
        .collect();
    let saved = 100.0 * (1.0 - safe_div(instr[2].1, instr[0].1));
    format!(
        "Figure 8a: warp instructions executed (x 10^7, Pascal suite mean)\n\n{}\nCapellini saves {}% instructions vs SyncFree\n\nFigure 8b: instruction dependency stalls (failed get_value polls / thread instructions)\n\n{}",
        bar_chart(&instr, 40, "x10^7 instr"),
        fnum(saved, 1),
        bar_chart(&stall, 40, "%")
    )
}

// ---------------------------------------------------------------- Table 6

/// Table 6: the per-matrix case study (rajat29 / bayer01 / circuit5M_dc
/// stand-ins): δ α β plus performance, bandwidth, instructions, stalls.
pub fn table6(scale: Scale) -> String {
    let entries = vec![
        dataset::rajat29_like(scale),
        dataset::bayer01_like(scale),
        dataset::circuit5m_dc_like(scale),
    ];
    let cells = run_grid(
        "table6",
        scale,
        &entries,
        &[
            Algorithm::CusparseLike,
            Algorithm::SyncFree,
            Algorithm::CapelliniWritingFirst,
        ],
        &[pascal()],
        0,
    );
    let mut out = String::from(
        "Table 6: detailed performance indicators for the three case-study matrices\n(Pascal-like; d = granularity, a = nnz/row, b = components/level)\n",
    );
    for e in &entries {
        let any = cells.iter().find(|c| c.matrix == e.name);
        if let Some(c0) = any {
            out.push_str(&format!(
                "\n{} (d: {:.2}; a: {:.2}; b: {:.2})\n",
                e.name, c0.granularity, c0.nnz_row, c0.n_level
            ));
        }
        let mut t = TextTable::new(&[
            "Algorithm",
            "Performance (GFLOPS/s)",
            "Bandwidth (GB/s)",
            "Instructions (10^7)",
            "Stall (%)",
        ]);
        for algo in ["cuSPARSE", "SyncFree", "Capellini"] {
            if let Some(c) = cells.iter().find(|c| c.matrix == e.name && c.algo == algo) {
                t.row(vec![
                    algo.to_string(),
                    fnum(c.gflops, 2),
                    fnum(c.bandwidth, 2),
                    fnum(c.warp_instr as f64 / 1e7, 3),
                    fnum(c.dep_stall_pct, 2),
                ]);
            }
        }
        out.push_str(&t.render());
    }
    out
}

// ---------------------------------------------------------------- Ablation

/// §5.3 optimization analysis: Writing-First vs Two-Phase, plus the
/// §3.3-Challenge-2 last-element-checking ablation.
pub fn ablation(scale: Scale) -> String {
    // A representative slice of the suite: one entry per family.
    let suite = dataset::suite(scale);
    let picks: Vec<DatasetEntry> = suite
        .iter()
        .filter(|e| {
            e.name.ends_with("-000") // first graph
                || e.name.ends_with("-103") // first circuit
                || e.name.ends_with("-137") // first combinatorial
                || e.name.ends_with("-164") // first lp
                || e.name.ends_with("-187") // first optimization
        })
        .cloned()
        .collect();
    let cells = run_grid(
        "ablation",
        scale,
        &picks,
        &[
            Algorithm::CapelliniTwoPhase,
            Algorithm::CapelliniWritingFirst,
        ],
        &[pascal()],
        0,
    );
    let mut t = TextTable::new(&[
        "matrix",
        "granularity",
        "Two-Phase GFLOPS",
        "Writing-First GFLOPS",
        "speedup",
        "bandwidth ratio",
        "instr reduction",
    ]);
    let mut speedups = Vec::new();
    let mut bw_ratios = Vec::new();
    let mut instr_reds = Vec::new();
    for e in &picks {
        let tp = cells
            .iter()
            .find(|c| c.matrix == e.name && c.algo.contains("Two-Phase"));
        let wf = cells
            .iter()
            .find(|c| c.matrix == e.name && c.algo == "Capellini");
        if let (Some(tp), Some(wf)) = (tp, wf) {
            let sp = wf.gflops / tp.gflops;
            let bw = wf.bandwidth / tp.bandwidth;
            let ir = 100.0 * (1.0 - wf.warp_instr as f64 / tp.warp_instr as f64);
            speedups.push(sp);
            bw_ratios.push(bw);
            instr_reds.push(ir);
            t.row(vec![
                e.name.clone(),
                fnum(wf.granularity, 2),
                fnum(tp.gflops, 2),
                fnum(wf.gflops, 2),
                format!("{sp:.2}x"),
                format!("{bw:.2}x"),
                format!("{ir:.1}%"),
            ]);
        }
    }
    let mut out = format!(
        "Optimization analysis (5.3): Writing-First vs Two-Phase CapelliniSpTRSV\n\n{}\nmean: speedup {:.2}x, bandwidth {:.2}x, instruction reduction {:.1}%\n",
        t.render(),
        mean(speedups.into_iter()),
        mean(bw_ratios.into_iter()),
        mean(instr_reds.into_iter()),
    );

    // Challenge 2: explicit last-element checking overhead.
    let l = dataset::nlpkkt160_like(scale).build();
    let (b, _) = make_problem(&l);
    let cfg = pascal();
    let base = solve_simulated(&cfg, &l, &b, Algorithm::CapelliniWritingFirst)
        .expect("writing-first solves");
    let mut dev = GpuDevice::new(cfg.clone());
    let checked = writing_first::solve_with_explicit_last_check(&mut dev, &l, &b)
        .expect("checked variant solves");
    let slowdown_pct =
        100.0 * (checked.stats.cycles as f64 - base.stats.cycles as f64) / base.stats.cycles as f64;
    out.push_str(&format!(
        "\nChallenge-2 ablation (last-element checking) on nlpkkt160-like:\n  integrated check:  {} cycles\n  per-element check: {} cycles ({:+.1}% slowdown)\n",
        base.stats.cycles, checked.stats.cycles, slowdown_pct
    ));
    out
}

// ---------------------------------------------------------------- Hybrid

/// §4.4 hybrid threshold sweep on matrices mixing sparse and dense rows.
pub fn hybrid(scale: Scale) -> String {
    let n = match scale {
        Scale::Small => 2_000,
        Scale::Medium => 8_000,
        Scale::Full => 24_000,
    };
    // A stripe matrix: alternating sparse (graph-like) and dense (FEM-like)
    // row blocks — the workload the fusion idea targets.
    let l = striped_matrix(n);
    let (b, x_ref) = make_problem(&l);
    let cfg = pascal();
    let mut t = TextTable::new(&[
        "threshold (nnz/row)",
        "GFLOPS",
        "vs pure thread",
        "vs pure warp",
    ]);
    let dev_run = |threshold: f64| -> f64 {
        let mut dev = GpuDevice::new(cfg.clone());
        let sol =
            capellini_core::kernels::hybrid::solve_with_threshold(&mut dev, &l, &b, threshold)
                .expect("hybrid solves");
        let err = capellini_sparse::linalg::rel_error_inf(&sol.x, &x_ref);
        assert!(
            err < 1e-9,
            "hybrid threshold {threshold}: rel err {err:.3e}"
        );
        sol.stats.gflops(&cfg, 2 * l.nnz() as u64)
    };
    let pure_thread = dev_run(f64::INFINITY);
    let pure_warp = dev_run(0.0);
    let mut best = (0.0f64, f64::MIN);
    let mut rows = Vec::new();
    for thr in [2.0, 4.0, 8.0, 16.0, 24.0, 32.0, 48.0] {
        let g = dev_run(thr);
        if g > best.1 {
            best = (thr, g);
        }
        rows.push((thr, g));
    }
    for (thr, g) in rows {
        t.row(vec![
            format!("{thr:.0}"),
            fnum(g, 2),
            format!("{:.2}x", g / pure_thread),
            format!("{:.2}x", g / pure_warp),
        ]);
    }
    format!(
        "4.4 hybrid (warp+thread) threshold sweep on a striped sparse/dense matrix\n(n = {n}; pure thread-level: {:.2} GFLOPS, pure warp-level: {:.2} GFLOPS)\n\n{}\nbest threshold: {:.0} nnz/row ({:.2} GFLOPS)\n",
        pure_thread,
        pure_warp,
        t.render(),
        best.0,
        best.1
    )
}

/// Alternating sparse (2 nnz) and dense (48 nnz) row stripes, all
/// dependencies pointing at strictly earlier stripes so the DAG stays
/// shallow: thread-level wins the sparse stripes, warp-level the dense
/// ones — the workload §4.4's fusion targets.
fn striped_matrix(n: usize) -> capellini_sparse::LowerTriangularCsr {
    use capellini_sparse::{CooMatrix, CsrMatrix, LowerTriangularCsr};
    use rand::{Rng, SeedableRng};
    let stripe = 512usize;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(4848);
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        let stripe_start = (i / stripe) * stripe;
        if stripe_start > 0 {
            let k = if (i / stripe) % 2 == 1 { 48 } else { 2 };
            for _ in 0..k {
                coo.push(
                    i as u32,
                    rng.gen_range(0..stripe_start as u32),
                    0.4 / k as f64,
                );
            }
        }
        coo.push(i as u32, i as u32, 1.0);
    }
    let mut c = coo;
    c.compress();
    LowerTriangularCsr::try_new(CsrMatrix::from_coo(&c)).expect("striped matrix is unit lower")
}

// ------------------------------------------------- Supplementary: CSC form

/// Supplementary (not in the paper): Algorithm 3's row/CSR presentation vs
/// Liu et al.'s original column/CSC scatter formulation of the warp-level
/// sync-free solver, plus the multi-RHS extension's amortization.
pub fn csc(scale: Scale) -> String {
    let entries = vec![
        dataset::wiki_talk_like(scale),
        dataset::rajat29_like(scale),
        dataset::cant_like(match scale {
            Scale::Full => Scale::Medium, // the deep chain is spin-heavy
            s => s,
        }),
    ];
    let cells = run_grid(
        "csc",
        scale,
        &entries,
        &[Algorithm::SyncFree, Algorithm::SyncFreeCsc],
        &[pascal()],
        0,
    );
    let mut t = TextTable::new(&[
        "matrix",
        "SyncFree (CSR form) GFLOPS",
        "SyncFree-CSC GFLOPS",
        "CSC atomics/nnz",
    ]);
    for e in &entries {
        let csr = cells
            .iter()
            .find(|c| c.matrix == e.name && c.algo == "SyncFree");
        let cscv = cells
            .iter()
            .find(|c| c.matrix == e.name && c.algo == "SyncFree-CSC");
        if let (Some(a), Some(b)) = (csr, cscv) {
            t.row(vec![
                e.name.clone(),
                fnum(a.gflops, 2),
                fnum(b.gflops, 2),
                "see bench".into(),
            ]);
        }
    }

    // Multi-RHS amortization on a graph matrix.
    let l = dataset::wiki_talk_like(scale).build();
    let n = l.n();
    let cfg = pascal();
    let mut lines = String::new();
    let mut dev = GpuDevice::new(cfg.clone());
    let single = capellini_core::kernels::writing_first::solve(&mut dev, &l, &vec![1.0; n])
        .expect("single-rhs solves");
    for nrhs in [2usize, 4, 8] {
        let bs = vec![1.0; n * nrhs];
        let mut dev = GpuDevice::new(cfg.clone());
        let multi =
            capellini_core::kernels::writing_first_multi::solve_multi(&mut dev, &l, &bs, nrhs)
                .expect("multi-rhs solves");
        let per_rhs = multi.stats.cycles as f64 / nrhs as f64;
        lines.push_str(&format!(
            "  {nrhs} rhs: {:.2}x the single-solve cycles for {nrhs}x the work ({:.2}x per-rhs speedup)
",
            multi.stats.cycles as f64 / single.stats.cycles as f64,
            single.stats.cycles as f64 / per_rhs
        ));
    }
    format!(
        "Supplementary: SyncFree formulations and the multi-RHS extension

{}
Multi-RHS Writing-First amortization (wiki-Talk-like, vs one single-RHS solve
of {} cycles):
{}",
        t.render(),
        single.stats.cycles,
        lines
    )
}

// ------------------------------------- Sharded multi-device scaling

/// ROADMAP item 4: strong and weak scaling of the sharded multi-device
/// solve (DESIGN.md §15). Strong scaling reruns each suite matrix at 1, 2,
/// 4 and 8 simulated devices, pinning the sharded solution bit-exact
/// against the single-device oracle before reading any makespan; weak
/// scaling grows the matrix with the device count so per-device work stays
/// roughly constant. Both interconnect classes are modeled, so the table
/// shows how much of the scaling loss is link latency (PCIe) versus
/// intrinsic dependency serialization (NVLink barely improves a chain).
/// Writes `results/shard_scaling.json`. `limit` truncates the matrix list
/// (0 = all).
pub fn shard_scaling(scale: Scale, limit: usize) -> String {
    use crate::runner::results_dir;
    use capellini_core::{solve_sharded, ShardConfig};

    const DEVICE_COUNTS: [usize; 4] = [1, 2, 4, 8];
    let cfg = pascal();
    let algo = Algorithm::CapelliniWritingFirst;

    let all = dataset::suite(scale);
    let take = if limit == 0 { all.len() } else { limit };
    let entries: Vec<&DatasetEntry> = all.iter().take(take).collect();

    let mut out = String::new();
    out.push_str(&format!(
        "Sharded multi-device SpTRSV scaling ({}, contiguous row shards)\n\n",
        algo.label()
    ));
    let mut json_rows: Vec<String> = Vec::new();
    let mut solves = 0usize;

    out.push_str("strong scaling: fixed matrix, 1..8 devices\n");
    let mut table = TextTable::new(&[
        "matrix",
        "n",
        "link",
        "devices",
        "makespan kcyc",
        "speedup",
        "msgs",
        "KiB",
    ]);
    for entry in &entries {
        let l = entry.spec.build(entry.seed);
        let (b, _) = make_problem(&l);
        let oracle = solve_simulated(&cfg, &l, &b, algo).expect("oracle solve");
        for link in ["pcie", "nvlink"] {
            let mut base_cycles = 0u64;
            for nd in DEVICE_COUNTS {
                let shard = match link {
                    "pcie" => ShardConfig::pcie(nd),
                    _ => ShardConfig::nvlink(nd),
                };
                let rep = solve_sharded(&cfg, &l, &b, algo, &shard)
                    .unwrap_or_else(|e| panic!("{} x{nd}: {e}", entry.name));
                assert_eq!(
                    rep.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    oracle.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{} x{nd} over {link}: sharded solution diverged",
                    entry.name
                );
                solves += 1;
                if nd == 1 {
                    base_cycles = rep.makespan_cycles;
                }
                let speedup = safe_div(base_cycles as f64, rep.makespan_cycles as f64);
                table.row(vec![
                    entry.name.to_string(),
                    l.n().to_string(),
                    link.to_string(),
                    nd.to_string(),
                    fnum(rep.makespan_cycles as f64 / 1e3, 1),
                    format!("{speedup:.2}x"),
                    rep.link_messages.to_string(),
                    fnum(rep.link_bytes as f64 / 1024.0, 1),
                ]);
                json_rows.push(format!(
                    "{{\"mode\": \"strong\", \"matrix\": \"{}\", \"n\": {}, \"link\": \"{link}\", \
                     \"devices\": {nd}, \"makespan_cycles\": {}, \"speedup\": {speedup:.3}, \
                     \"link_messages\": {}, \"link_bytes\": {}}}",
                    entry.name,
                    l.n(),
                    rep.makespan_cycles,
                    rep.link_messages,
                    rep.link_bytes
                ));
            }
        }
    }
    out.push_str(&table.render());

    // Weak scaling: per-device work held constant by growing the DAG with
    // the device count. Ideal weak scaling is a flat makespan.
    out.push_str("\nweak scaling: random_k DAG, 4000 rows per device\n");
    let mut weak = TextTable::new(&["devices", "n", "makespan kcyc", "efficiency", "msgs"]);
    let mut weak_base = 0u64;
    for nd in DEVICE_COUNTS {
        let n = 4_000 * nd;
        let l = gen_weak_matrix(n);
        let (b, _) = make_problem(&l);
        let rep = solve_sharded(&cfg, &l, &b, algo, &ShardConfig::nvlink(nd))
            .unwrap_or_else(|e| panic!("weak x{nd}: {e}"));
        let oracle = solve_simulated(&cfg, &l, &b, algo).expect("weak oracle");
        assert_eq!(
            rep.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            oracle.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "weak x{nd}: sharded solution diverged"
        );
        solves += 1;
        if nd == 1 {
            weak_base = rep.makespan_cycles;
        }
        let efficiency = safe_div(weak_base as f64, rep.makespan_cycles as f64);
        weak.row(vec![
            nd.to_string(),
            n.to_string(),
            fnum(rep.makespan_cycles as f64 / 1e3, 1),
            format!("{efficiency:.2}"),
            rep.link_messages.to_string(),
        ]);
        json_rows.push(format!(
            "{{\"mode\": \"weak\", \"matrix\": \"random_k\", \"n\": {n}, \"link\": \"nvlink\", \
             \"devices\": {nd}, \"makespan_cycles\": {}, \"efficiency\": {efficiency:.3}, \
             \"link_messages\": {}, \"link_bytes\": {}}}",
            rep.makespan_cycles, rep.link_messages, rep.link_bytes
        ));
    }
    out.push_str(&weak.render());
    out.push_str(&format!(
        "\nall {solves} sharded solve(s) verified against the single-device oracle (bitwise)\n"
    ));

    let json = format!(
        "{{\n  \"algorithm\": \"{}\",\n  \"solves\": {solves},\n  \"identical\": true,\n  \"rows\": [\n    {}\n  ]\n}}\n",
        algo.label(),
        json_rows.join(",\n    ")
    );
    let dir = results_dir();
    std::fs::create_dir_all(&dir).ok();
    let path = dir.join("shard_scaling.json");
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("[shard-scaling] could not write {}: {e}", path.display());
    }
    out
}

/// The weak-scaling workload: a moderately parallel random DAG whose
/// dependency window scales with n, keeping level structure comparable
/// across sizes.
fn gen_weak_matrix(n: usize) -> capellini_sparse::LowerTriangularCsr {
    capellini_sparse::gen::random_k(n, 4, n / 8, 1234)
}

// ------------------------------------------------------- Cache locality

/// The locality study behind ROADMAP item 3: with the finite sector/tag
/// cache model armed (`DeviceConfig::with_cache`), trades the dataset's
/// shuffled "as-collected" row ordering against the RCM-like and
/// level-coalesced topological relabelings from `capellini_sparse::permute`,
/// then compares row-major vs column-major device tiling of the multi-RHS
/// block. Every permuted solve is mapped back and checked against the
/// reference solution, and the two tilings must agree bitwise. Writes
/// `results/locality.json`.
pub fn locality(scale: Scale) -> String {
    use crate::runner::results_dir;
    use capellini_core::kernels::syncfree_multi;
    use capellini_core::RhsLayout;
    use capellini_simt::CacheConfig;
    use capellini_sparse::linalg;
    use capellini_sparse::permute::{
        level_coalesced_order, permute_vector, rcm_like_order, symmetric_permute,
    };

    let cfg = pascal().with_cache(CacheConfig::small());
    let algo = Algorithm::SyncFree;
    let entries = [
        dataset::nlpkkt160_like(scale),
        dataset::wiki_talk_like(scale),
        dataset::cant_like(scale),
    ];

    // Part 1: row orderings. The dataset stores every matrix with a random
    // topological relabeling (collection matrices never come level-sorted),
    // so "original" is the interleaved layout; the two locality orderings
    // re-cluster it.
    let mut ord_table = TextTable::new(&[
        "matrix",
        "ordering",
        "L1 hit %",
        "L2 hit %",
        "evictions",
        "solve ms",
        "dL1 pts",
    ]);
    let mut ord_json: Vec<String> = Vec::new();
    for entry in &entries {
        let l = entry.build();
        let (b, x_ref) = make_problem(&l);
        let identity: Vec<u32> = (0..l.n() as u32).collect();
        let orderings: [(&str, Vec<u32>); 3] = [
            ("original", identity),
            ("rcm-like", rcm_like_order(&l)),
            ("level-coalesced", level_coalesced_order(&l)),
        ];
        let mut base_hit = 0.0;
        for (name, perm) in &orderings {
            let lp = symmetric_permute(&l, perm);
            let bp = permute_vector(&b, perm);
            let rep = solve_simulated(&cfg, &lp, &bp, algo)
                .unwrap_or_else(|e| panic!("{}/{name}: solve failed: {e}", entry.name));
            // Map the permuted solution back to the original labeling and
            // check it: a permutation must not change the answer.
            let x: Vec<f64> = (0..l.n()).map(|i| rep.x[perm[i] as usize]).collect();
            linalg::assert_solutions_close(&x, &x_ref, 1e-9);
            let hit = 100.0 * rep.stats.l1_hit_rate();
            let l2 = 100.0 * rep.stats.l2_hit_rate();
            if *name == "original" {
                base_hit = hit;
            }
            let delta = hit - base_hit;
            ord_table.row(vec![
                entry.name.clone(),
                name.to_string(),
                format!("{hit:.1}"),
                format!("{l2:.1}"),
                rep.stats.sector_evictions.to_string(),
                format!("{:.3}", rep.exec_ms),
                format!("{delta:+.1}"),
            ]);
            ord_json.push(format!(
                "{{\"matrix\": \"{}\", \"ordering\": \"{name}\", \"l1_hit_pct\": {hit:.2}, \"l2_hit_pct\": {l2:.2}, \"sector_evictions\": {}, \"solve_ms\": {:.4}, \"delta_l1_pts\": {delta:.2}}}",
                entry.name, rep.stats.sector_evictions, rep.exec_ms,
            ));
        }
    }

    // Part 2: multi-RHS device tiling. Same FLOPs in the same order per
    // column, so the solutions must agree bitwise — only the memory traffic
    // (and thus hit rates and modeled time) may differ.
    let nrhs = 8usize;
    let mut tile_table = TextTable::new(&["matrix", "tiling", "L1 hit %", "L2 hit %", "solve ms"]);
    let mut tile_json: Vec<String> = Vec::new();
    for entry in &entries {
        let l = entry.build();
        let bs: Vec<f64> = (0..l.n() * nrhs)
            .map(|i| 1.0 + (i % 17) as f64 * 0.25)
            .collect();
        let mut sols: Vec<Vec<u64>> = Vec::new();
        for (name, layout) in [
            ("row-major", RhsLayout::RowMajor),
            ("col-major", RhsLayout::ColMajor),
        ] {
            let mut dev = GpuDevice::new(cfg.clone());
            let sol = syncfree_multi::solve_multi_layout(&mut dev, &l, &bs, nrhs, layout)
                .unwrap_or_else(|e| panic!("{}/{name}: multi solve failed: {e}", entry.name));
            let hit = 100.0 * sol.stats.l1_hit_rate();
            let l2 = 100.0 * sol.stats.l2_hit_rate();
            let ms = sol.stats.time_ms(&cfg);
            tile_table.row(vec![
                entry.name.clone(),
                name.to_string(),
                format!("{hit:.1}"),
                format!("{l2:.1}"),
                format!("{ms:.3}"),
            ]);
            tile_json.push(format!(
                "{{\"matrix\": \"{}\", \"tiling\": \"{name}\", \"nrhs\": {nrhs}, \"l1_hit_pct\": {hit:.2}, \"l2_hit_pct\": {l2:.2}, \"solve_ms\": {ms:.4}}}",
                entry.name,
            ));
            sols.push(sol.x.iter().map(|v| v.to_bits()).collect());
        }
        assert_eq!(
            sols[0], sols[1],
            "{}: RHS tiling changed the solution bits",
            entry.name
        );
    }

    let scale_name = match scale {
        Scale::Small => "small",
        Scale::Medium => "medium",
        Scale::Full => "full",
    };
    let json = format!(
        "{{\n  \"scale\": \"{scale_name}\",\n  \"cache\": \"small\",\n  \"algorithm\": \"{}\",\n  \"orderings\": [\n    {}\n  ],\n  \"rhs_tiling\": [\n    {}\n  ]\n}}\n",
        algo.label(),
        ord_json.join(",\n    "),
        tile_json.join(",\n    "),
    );
    let dir = results_dir();
    std::fs::create_dir_all(&dir).ok();
    let path = dir.join("locality.json");
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("[locality] could not write {}: {e}", path.display());
    }

    format!(
        "Cache locality study (finite L1/L2 sector cache, {} config)\n\n\
         Row orderings ({}; permuted solves mapped back and checked):\n\n{}\n\
         Multi-RHS device tiling (nrhs = {nrhs}, solutions bitwise identical):\n\n{}\n\
         record: {}\n",
        cfg.name,
        algo.label(),
        ord_table.render(),
        tile_table.render(),
        path.display(),
    )
}

// ------------------------------------------------- Scheduled kernel study

/// ROADMAP item 5(a): the level-coarsened scheduled kernel against every
/// other live algorithm, on the deep/unbalanced matrices its coarsening
/// targets plus a wide control where per-row sync is already cheap. For
/// each matrix the study records simulated cycles per algorithm, the
/// schedule shape (units, coarsening factor, saved fence+flag pairs), and
/// the analysis-cost vs execution-win crossover: how many warm solves pay
/// off the scheduling pass. Scheduled solves are verified bit-identical to
/// the serial reference before any number is reported. Writes
/// `results/schedule.json`.
pub fn schedule(scale: Scale) -> String {
    use crate::runner::results_dir;
    use capellini_core::recommend_for_reuse;
    use capellini_sparse::{MatrixStats, Schedule};

    let cfg = pascal();
    let entries = vec![
        DatasetEntry {
            name: "chain-like".into(),
            spec: GenSpec::Chain {
                n: match scale {
                    Scale::Small => 750,
                    Scale::Medium => 2_000,
                    Scale::Full => 6_000,
                },
                k: 1,
            },
            seed: 70,
        },
        dataset::nlpkkt160_like(scale),
        dataset::cant_like(scale),
        dataset::wiki_talk_like(scale),
    ];
    // Every algorithm that was live before the scheduled kernel landed.
    let existing: Vec<Algorithm> = Algorithm::all_live()
        .into_iter()
        .filter(|a| *a != Algorithm::Scheduled)
        .collect();

    let mut t = TextTable::new(&[
        "matrix",
        "units (coarsening)",
        "saved syncs",
        "Scheduled cycles",
        "best other (cycles)",
        "cycle win",
        "analysis ms",
        "breakeven solves",
        "cost-aware pick",
    ]);
    let mut json_cases: Vec<String> = Vec::new();
    let mut deep_wins = 0usize;
    for e in &entries {
        let l = e.build();
        let levels = LevelSets::analyze(&l);
        let stats = MatrixStats::from_levels(&l, &levels);
        let sched = Schedule::build_default(&l, &levels, cfg.warp_size);
        let sstats = sched.stats();
        let (b, x_ref) = make_problem(&l);

        let sched_rep = solve_simulated(&cfg, &l, &b, Algorithm::Scheduled)
            .unwrap_or_else(|err| panic!("{}: scheduled solve failed: {err}", e.name));
        // The per-row accumulation follows CSR column order, exactly like
        // the serial reference — correctness is bitwise, not approximate.
        for (i, (x, r)) in sched_rep.x.iter().zip(&x_ref).enumerate() {
            assert_eq!(
                x.to_bits(),
                r.to_bits(),
                "{}: scheduled row {i} diverged from the serial reference",
                e.name
            );
        }

        let mut others: Vec<(String, u64, f64)> = Vec::new();
        for algo in &existing {
            let rep = solve_simulated(&cfg, &l, &b, *algo)
                .unwrap_or_else(|err| panic!("{}/{}: {err}", e.name, algo.label()));
            others.push((algo.label().to_string(), rep.stats.cycles, rep.exec_ms));
        }
        let (best_name, best_cycles, best_exec_ms) = others
            .iter()
            .min_by_key(|(_, cycles, _)| *cycles)
            .cloned()
            .expect("at least one existing algorithm ran");

        let win_pct = 100.0 * (1.0 - sched_rep.stats.cycles as f64 / best_cycles.max(1) as f64);
        let exec_win_ms = best_exec_ms - sched_rep.exec_ms;
        let crossover = if exec_win_ms > 0.0 {
            sched_rep.preprocessing_ms / exec_win_ms
        } else {
            f64::INFINITY
        };
        if (e.name == "chain-like" || e.name == "nlpkkt160-like") && win_pct >= 20.0 {
            deep_wins += 1;
        }

        let choice = recommend_for_reuse(&stats, &sstats, sched_rep.preprocessing_ms, 64, None);
        t.row(vec![
            e.name.clone(),
            format!("{} ({:.1}x)", sstats.n_units, sstats.coarsening),
            sstats.saved_syncs.to_string(),
            sched_rep.stats.cycles.to_string(),
            format!("{best_name} ({best_cycles})"),
            format!("{win_pct:+.1}%"),
            format!("{:.3}", sched_rep.preprocessing_ms),
            if crossover.is_finite() {
                format!("{crossover:.1}")
            } else {
                "inf".into()
            },
            choice.algorithm.label().to_string(),
        ]);

        let others_json: Vec<String> = others
            .iter()
            .map(|(name, cycles, ms)| {
                format!("{{\"algo\": \"{name}\", \"cycles\": {cycles}, \"exec_ms\": {ms:.4}}}")
            })
            .collect();
        json_cases.push(format!(
            "    {{\n      \"matrix\": \"{}\",\n      \"n\": {},\n      \"nnz\": {},\n      \"n_levels\": {},\n      \"units\": {},\n      \"coarsening\": {:.2},\n      \"saved_syncs\": {},\n      \"depth\": {},\n      \"scheduled_cycles\": {},\n      \"scheduled_exec_ms\": {:.4},\n      \"scheduled_analysis_ms\": {:.4},\n      \"best_other\": \"{best_name}\",\n      \"best_other_cycles\": {best_cycles},\n      \"cycle_win_pct\": {win_pct:.2},\n      \"crossover_solves\": {},\n      \"cost_aware_pick\": \"{}\",\n      \"bitwise_vs_reference\": true,\n      \"others\": [{}]\n    }}",
            e.name,
            stats.n,
            stats.nnz,
            stats.n_levels,
            sstats.n_units,
            sstats.coarsening,
            sstats.saved_syncs,
            sstats.depth,
            sched_rep.stats.cycles,
            sched_rep.exec_ms,
            sched_rep.preprocessing_ms,
            if crossover.is_finite() {
                format!("{crossover:.2}")
            } else {
                "null".into()
            },
            choice.algorithm.label(),
            others_json.join(", "),
        ));
    }

    // The acceptance bar for ROADMAP 5(a): on the deep/unbalanced pair the
    // coarsened kernel must beat the best existing kernel by >= 20% cycles.
    assert!(
        deep_wins >= 2,
        "scheduled kernel won >=20% cycles on only {deep_wins} of the deep matrices"
    );

    let scale_name = match scale {
        Scale::Small => "small",
        Scale::Medium => "medium",
        Scale::Full => "full",
    };
    let json = format!(
        "{{\n  \"scale\": \"{scale_name}\",\n  \"platform\": \"{}\",\n  \"expected_solves\": 64,\n  \"cases\": [\n{}\n  ],\n  \"deep_matrix_wins_ge_20pct\": {deep_wins}\n}}\n",
        cfg.name,
        json_cases.join(",\n"),
    );
    let dir = results_dir();
    std::fs::create_dir_all(&dir).ok();
    let path = dir.join("schedule.json");
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("[schedule] could not write {}: {e}", path.display());
    }

    format!(
        "Scheduled SpTRSV: level-coarsened work units vs the live kernel roster\n({} platform; every Scheduled solve verified bitwise against the serial\nreference; crossover = warm solves needed to amortize the scheduling pass)\n\n{}\nrecord: {}\n",
        cfg.name,
        t.render(),
        path.display(),
    )
}

// ---------------------------------------------------------------- Deadlock

/// §3.3 Challenge 1: the naive thread-level busy-wait deadlocks under
/// lock-step divergence; CapelliniSpTRSV completes on the same input.
pub fn deadlock() -> String {
    let l = paper_example();
    let (b, x_ref) = make_problem(&l);
    let mut cfg = DeviceConfig::toy();
    cfg.deadlock_window = 50_000;
    let mut out =
        String::from("Challenge 1 (3.3): intra-warp busy-wait deadlock demonstration\n\n");
    let mut dev = GpuDevice::new(cfg.clone());
    match naive::solve(&mut dev, &l, &b) {
        Err(err @ SimtError::Deadlock { .. }) => {
            out.push_str(&format!(
                "naive thread-level busy-wait: DEADLOCK detected\n{err}\n"
            ));
        }
        other => out.push_str(&format!("unexpected outcome: {other:?}\n")),
    }
    let mut dev = GpuDevice::new(cfg);
    match writing_first::solve(&mut dev, &l, &b) {
        Ok(sol) => {
            let err = capellini_sparse::linalg::rel_error_inf(&sol.x, &x_ref);
            out.push_str(&format!(
                "Writing-First CapelliniSpTRSV:  completes in {} cycles (rel err {err:.2e})\n",
                sol.stats.cycles
            ));
        }
        Err(e) => out.push_str(&format!("unexpected failure: {e}\n")),
    }
    out
}

// --------------------------------------------------------------- Profiling

/// The nvprof-style stall study behind Figures 8a/8b/9: runs the three
/// profiled kernels (warp-level SyncFree, thread-level Writing-First, the
/// cuSPARSE-like two-phase baseline) with the sampling profiler armed on
/// every evaluation platform. Emits one per-SM stall-attribution CSV and one
/// `chrome://tracing` JSON per (algorithm, platform) cell under
/// `results/profile/`, and renders the issue-slot breakdown table.
pub fn profile(scale: Scale) -> String {
    use capellini_core::kernels::{cusparse_like, SimSolve};
    use capellini_simt::trace::chrome;
    use capellini_simt::{ProfileMode, StallBucket, StallReason};
    use capellini_sparse::LowerTriangularCsr;

    type SolveFn = fn(&mut GpuDevice, &LowerTriangularCsr, &[f64]) -> Result<SimSolve, SimtError>;
    let algos: [(&str, SolveFn); 3] = [
        ("syncfree", syncfree::solve as SolveFn),
        ("writing_first", writing_first::solve as SolveFn),
        ("cusparse_like", cusparse_like::solve as SolveFn),
    ];
    let interval: u64 = match scale {
        Scale::Small => 64,
        Scale::Medium => 256,
        Scale::Full => 1024,
    };

    let entry = dataset::rajat29_like(scale);
    let (l, mstats) = entry.build_with_stats();
    let (b, x_ref) = make_problem(&l);
    let dir = crate::runner::results_dir().join("profile");

    // Multi-launch algorithms produce one profile per launch; fold them into
    // a single whole-solve profile for the summary table (the timeline CSV
    // and Chrome trace keep the per-launch resolution).
    let merged = |profiles: &[capellini_simt::Profile]| -> capellini_simt::Profile {
        let mut m = profiles[0].clone();
        if profiles.len() > 1 {
            let mut slots = [0u64; capellini_simt::N_STALL_REASONS];
            let mut issued = 0u64;
            let mut cycles = 0u64;
            for p in profiles {
                for (s, v) in slots.iter_mut().zip(p.totals()) {
                    *s = s.saturating_add(v);
                }
                issued = issued.saturating_add(p.issued_slots);
                cycles = cycles.saturating_add(p.total_cycles);
            }
            m.total_cycles = cycles;
            m.issued_slots = issued;
            m.interval_cycles = cycles.max(1);
            m.buckets = vec![StallBucket {
                cycle_start: 0,
                sm: 0,
                slots,
            }];
        }
        m
    };

    let mut out = format!(
        "Profiling study (nvprof-style issue-slot attribution)\n\
         matrix {} (n = {}, nnz = {}), sample interval {interval} cycles\n\
         artifacts: {}/profile_<algo>_<platform>.{{csv,trace.json}}\n\n",
        entry.name,
        mstats.n,
        mstats.nnz,
        dir.display()
    );

    let mut table_rows: Vec<(String, capellini_simt::Profile)> = Vec::new();
    let mut fig8a: Vec<(String, f64)> = Vec::new();
    let mut fig8b: Vec<(String, f64)> = Vec::new();
    let mut fig9: Vec<(String, f64)> = Vec::new();

    for cfg in platforms() {
        let cfg = cfg.with_profile(ProfileMode::sampled(interval));
        let plat = cfg.name.to_ascii_lowercase();
        for (algo, solve) in &algos {
            let label = format!("{}/{algo}", cfg.name);
            let mut dev = GpuDevice::new(cfg.clone());
            let sol = match solve(&mut dev, &l, &b) {
                Ok(sol) => sol,
                Err(e) => {
                    out.push_str(&format!("{label}: FAILED ({e})\n"));
                    continue;
                }
            };
            let err = capellini_sparse::linalg::rel_error_inf(&sol.x, &x_ref);
            let profiles = dev.take_profiles();
            assert!(
                !profiles.is_empty(),
                "profiling was armed but no profile came back for {label}"
            );

            // Per-SM stall-attribution timeline CSV (one row per sampled
            // bucket; `launch` disambiguates multi-launch algorithms).
            let mut header = vec!["launch", "cycle_start", "sm"];
            header.extend(StallReason::ALL.iter().map(|r| r.label()));
            let mut rows = Vec::new();
            for (launch, p) in profiles.iter().enumerate() {
                for bkt in &p.buckets {
                    let mut row = vec![
                        launch.to_string(),
                        bkt.cycle_start.to_string(),
                        bkt.sm.to_string(),
                    ];
                    row.extend(bkt.slots.iter().map(|s| s.to_string()));
                    rows.push(row);
                }
            }
            let csv_path = dir.join(format!("profile_{algo}_{plat}.csv"));
            write_csv(&csv_path, &header, &rows).expect("write profile csv");

            // Chrome trace (load via chrome://tracing or Perfetto).
            let json = chrome::trace_json(&profiles);
            std::fs::write(dir.join(format!("profile_{algo}_{plat}.trace.json")), json)
                .expect("write chrome trace");

            let whole = merged(&profiles);
            if cfg.name == "Pascal" {
                fig8a.push((algo.to_string(), whole.issued_slots as f64 / 1e3));
                fig8b.push((algo.to_string(), whole.reason_pct(StallReason::SpinPoll)));
                fig9.push((algo.to_string(), sol.stats.bandwidth_utilization_pct(&cfg)));
            }
            out.push_str(&format!(
                "{label}: {} launches, rel err {err:.1e}\n",
                profiles.len()
            ));
            table_rows.push((label, whole));
        }
    }

    let refs: Vec<(String, &capellini_simt::Profile)> = table_rows
        .iter()
        .map(|(label, p)| (label.clone(), p))
        .collect();
    out.push_str("\nIssue-slot breakdown (% of SM issue slots per stall reason):\n\n");
    out.push_str(&stall_breakdown_table(&refs));
    out.push_str(&format!(
        "\nFigure 8a companion: issued warp instructions (x10^3, Pascal)\n\n{}",
        bar_chart(&fig8a, 40, "x10^3 slots")
    ));
    out.push_str(&format!(
        "\nFigure 8b companion: spin-poll share of issue slots (Pascal)\n\n{}",
        bar_chart(&fig8b, 40, "%")
    ));
    out.push_str(&format!(
        "\nFigure 9 companion: DRAM bandwidth utilization (Pascal)\n\n{}",
        bar_chart(&fig9, 40, "% of peak")
    ));
    out
}

// --------------------------------------------------------------- Racecheck

/// Demonstrates the relaxed-visibility memory model and the race checker:
/// the shipped fenced kernel passes racecheck, the fence-stripped variant is
/// silently certified by the default sequentially-consistent model but
/// rejected under racecheck, and the flag-before-store variant silently
/// computes a wrong answer under plain relaxed visibility.
pub fn racecheck() -> String {
    use capellini_core::kernels::writing_first::FenceMode;
    use capellini_simt::MemoryModel;
    use capellini_sparse::{CooMatrix, CsrMatrix, LowerTriangularCsr};

    // Strictly cross-warp dependencies: every hand-off must go through DRAM.
    let n = 128;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        if i >= 64 {
            coo.push(i as u32, (i - 64) as u32, 0.5);
        }
        coo.push(i as u32, i as u32, 1.0);
    }
    let l = LowerTriangularCsr::try_new(CsrMatrix::from_coo(&coo)).unwrap();
    let (b, x_ref) = make_problem(&l);

    let sc = DeviceConfig::pascal_like().scaled_down(4);
    let relaxed = sc.clone().with_memory_model(MemoryModel::relaxed(2_000));
    let rc = sc.clone().with_memory_model(MemoryModel::racecheck(2_000));

    let mut out = String::from(
        "Relaxed memory visibility + racecheck (why __threadfence is load-bearing)\n\n",
    );
    let mut run = |label: &str, cfg: &DeviceConfig, mode: FenceMode| {
        let mut dev = GpuDevice::new(cfg.clone());
        match writing_first::solve_with_fence_mode(&mut dev, &l, &b, mode) {
            Ok(sol) => {
                let err = capellini_sparse::linalg::rel_error_inf(&sol.x, &x_ref);
                out.push_str(&format!(
                    "{label}: completes, rel err {err:.2e} ({} stale reads, {} drained stores)\n",
                    sol.stats.stale_reads, sol.stats.drained_stores
                ));
            }
            Err(e) => out.push_str(&format!("{label}: REJECTED\n  {e}\n")),
        }
    };
    run("fenced        / racecheck      ", &rc, FenceMode::Fenced);
    run("fence stripped/ seq. consistent", &sc, FenceMode::NoFence);
    run("fence stripped/ racecheck      ", &rc, FenceMode::NoFence);
    run(
        "flag first    / relaxed        ",
        &relaxed,
        FenceMode::FlagFirst,
    );
    run("flag first    / racecheck      ", &rc, FenceMode::FlagFirst);
    out.push_str(
        "\nSequential consistency certifies the fence-stripped kernel; only the\n\
         relaxed model makes the missing fence observable.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that redirect `CAPELLINI_RESULTS_DIR`: the env
    /// var is process-global, so concurrent tests would race on it.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn isolated_results_dir(tag: &str) -> std::sync::MutexGuard<'static, ()> {
        let guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("capellini-exp-{tag}-{}", std::process::id()));
        std::env::set_var("CAPELLINI_RESULTS_DIR", dir);
        guard
    }

    #[test]
    fn fig1_renders_the_example() {
        let s = fig1();
        assert!(s.contains("csrRowPtr = [0, 1, 2, 4, 6, 9, 11, 14, 17]"));
        assert!(s.contains("level 3"));
    }

    #[test]
    fn table2_and_table3_render() {
        let t2 = table2();
        assert!(t2.contains("CapelliniSpTRSV"));
        assert!(t2.contains("none"));
        let t3 = table3();
        assert!(t3.contains("GTX 1080"));
        assert!(t3.contains("HBM2"));
    }

    #[test]
    fn deadlock_demo_reports_both_outcomes() {
        let s = deadlock();
        assert!(s.contains("DEADLOCK detected"), "{s}");
        assert!(s.contains("completes in"), "{s}");
    }

    #[test]
    fn fig2_shows_thread_level_uses_fewer_warps() {
        let s = fig2();
        assert!(s.contains("(c) thread-level CapelliniSpTRSV"));
        assert!(s.contains("one warp per component, 8 warps"));
        assert!(s.contains("one thread per component, 3 warps"));
    }

    #[test]
    fn profile_emits_csv_and_chrome_trace() {
        let _guard = isolated_results_dir("profile");
        let s = profile(Scale::Small);
        assert!(s.contains("Issue-slot breakdown"), "{s}");
        assert!(s.contains("Pascal/syncfree"), "{s}");
        assert!(s.contains("Turing/cusparse_like"), "{s}");
        assert!(s.contains("executing"), "{s}");
        let dir = crate::runner::results_dir().join("profile");
        for algo in ["syncfree", "writing_first", "cusparse_like"] {
            for plat in ["pascal", "volta", "turing"] {
                let (h, rows) =
                    crate::tables::read_csv(&dir.join(format!("profile_{algo}_{plat}.csv")))
                        .unwrap();
                assert_eq!(h[..3], ["launch", "cycle_start", "sm"]);
                assert!(h.iter().any(|c| c == "spin_poll"));
                assert!(!rows.is_empty());
                let json =
                    std::fs::read_to_string(dir.join(format!("profile_{algo}_{plat}.trace.json")))
                        .unwrap();
                assert!(json.starts_with("{\"traceEvents\":["));
                assert!(json.contains("\"ph\":\"C\""));
            }
        }
        std::env::remove_var("CAPELLINI_RESULTS_DIR");
    }

    #[test]
    fn small_scale_suite_aggregations_render() {
        let _guard = isolated_results_dir("suite");
        let cells = suite_cells(Scale::Small, 6);
        assert!(!cells.is_empty());
        let named = named_cells(Scale::Small);
        let t4 = table4(&cells);
        assert!(t4.contains("CapelliniSpTRSV"));
        let t5 = table5(&cells, &named);
        assert!(t5.contains("Average speedup over SyncFree"));
        let f4 = fig4(&cells);
        assert!(f4.contains("Pascal"));
        let f5 = fig5(&cells, &named);
        assert!(f5.contains("lp1"));
        let f7 = fig7(&cells);
        assert!(f7.contains("GB/s"));
        let f8 = fig8(&cells);
        assert!(f8.contains("dependency stalls"));
        std::env::remove_var("CAPELLINI_RESULTS_DIR");
    }
}
