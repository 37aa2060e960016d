//! `sptrsv` — command-line sparse triangular solver.
//!
//! ```text
//! sptrsv solve   --matrix L.mtx [--rhs b.txt] [--algo capellini|syncfree|syncfree-csc|cusparse|levelset|two-phase|hybrid|scheduled|auto]
//!                [--device pascal|volta|turing] [--cache]
//!                [--devices N [--link pcie|nvlink]]
//!                [--rhs-cols K] [--session N]
//!                [--profile trace.json [--profile-interval N]]
//!                [--cpu [THREADS]] [--out x.txt]
//! sptrsv stats   --matrix L.mtx
//! sptrsv --list-algos
//! sptrsv gen     --kind powerlaw|circuit|stencil|lp|band --n N --out L.mtx [--seed S]
//! sptrsv serve   --matrix L.mtx [--clients N] [--requests N] [--window MS] [--max-batch K]
//!                [--device pascal|volta|turing]
//! ```
//!
//! `solve` reads a Matrix Market file, extracts the unit-lower factor the
//! way the paper prepares its dataset (keep lower-left entries, unit
//! diagonal) unless the matrix already is lower-triangular, then solves on
//! the simulated GPU (or natively on CPU threads with `--cpu`) and reports
//! the paper's metrics.
//!
//! Every subcommand rejects a `--` flag it does not read with exit code 2.

use std::fs;
use std::io::BufReader;
use std::process::exit;

use capellini_sptrsv::core::{
    solve_multi_simulated, solve_sharded, solve_simulated, Algorithm, MatrixHandle, ServiceConfig,
    ShardConfig, Solver, SolverService, SolverSession,
};
use capellini_sptrsv::prelude::*;
use capellini_sptrsv::simt::MAX_DEVICES;
use capellini_sptrsv::sparse::{io as mmio, CsrMatrix};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        exit(2);
    };
    match cmd.as_str() {
        "solve" => cmd_solve(&args[1..]),
        "stats" => cmd_stats(&args[1..]),
        "gen" => cmd_gen(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "--list-algos" => list_algos(),
        _ => {
            usage();
            exit(2);
        }
    }
}

fn usage() {
    eprintln!(
        "usage:\n  sptrsv solve --matrix L.mtx [--rhs b.txt] [--algo NAME|auto] [--device pascal|volta|turing] [--cache] [--devices N [--link pcie|nvlink]] [--rhs-cols K] [--session N] [--profile trace.json [--profile-interval N]] [--cpu [THREADS]] [--out x.txt]\n  sptrsv stats --matrix L.mtx\n  sptrsv gen --kind powerlaw|circuit|stencil|lp|band --n N --out L.mtx [--seed S]\n  sptrsv serve --matrix L.mtx [--clients N] [--requests N] [--window MS] [--max-batch K] [--device pascal|volta|turing]\n  sptrsv --list-algos\n\nbatching:\n  --rhs-cols K  solve K right-hand sides per launch (SpTRSM); column r scales the base rhs by r+1\n  --session N   analyze once, then run N warm solves through the cached SolverSession\n\nserving:\n  --clients N   concurrent client threads hammering the solver service (default 4)\n  --requests N  requests per client (default 8)\n  --window MS   coalesce window in milliseconds; 0 disables batching (default 3)\n  --max-batch K cap on right-hand sides per coalesced launch (default 8)\n\nsimulation:\n  --cache             model a finite per-SM L1 + shared L2 for read-only loads and report hit rates\n  --devices N         shard the solve across N simulated devices (1..=8) joined by a modeled interconnect\n  --link KIND         interconnect class for --devices: pcie (default) or nvlink"
    );
}

const SOLVE_FLAGS: &[&str] = &[
    "--matrix",
    "--rhs",
    "--algo",
    "--device",
    "--cache",
    "--devices",
    "--link",
    "--rhs-cols",
    "--session",
    "--profile",
    "--profile-interval",
    "--cpu",
    "--out",
];
const STATS_FLAGS: &[&str] = &["--matrix"];
const GEN_FLAGS: &[&str] = &["--kind", "--n", "--out", "--seed"];
const SERVE_FLAGS: &[&str] = &[
    "--matrix",
    "--clients",
    "--requests",
    "--window",
    "--max-batch",
    "--device",
];

/// Exits with a usage error on the first `--` token `cmd` does not read, so
/// a misspelled flag cannot silently fall back to a default.
fn reject_unknown_flags(cmd: &str, args: &[String], known: &[&str]) {
    if let Some(bad) = args
        .iter()
        .find(|a| a.starts_with("--") && !known.contains(&a.as_str()))
    {
        eprintln!("unknown flag {bad} for `sptrsv {cmd}`");
        exit(2);
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn load_matrix(args: &[String]) -> LowerTriangularCsr {
    let Some(path) = flag_value(args, "--matrix") else {
        eprintln!("--matrix is required");
        exit(2);
    };
    let file = fs::File::open(path).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        exit(1);
    });
    let coo = mmio::read_matrix_market(BufReader::new(file)).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        exit(1);
    });
    let csr = CsrMatrix::from_coo(&coo);
    match LowerTriangularCsr::try_new(csr.clone()) {
        Ok(l) => l,
        Err(_) => {
            eprintln!("note: matrix is not lower-triangular; extracting the unit-lower factor (paper 5.1 rule)");
            LowerTriangularCsr::unit_lower_from(&csr).unwrap_or_else(|e| {
                eprintln!("cannot build a triangular factor: {e}");
                exit(1);
            })
        }
    }
}

fn cmd_stats(args: &[String]) {
    reject_unknown_flags("stats", args, STATS_FLAGS);
    let l = load_matrix(args);
    print!("{}", capellini_sptrsv::sparse::diagnostics::report(&l));
    let s = MatrixStats::compute(&l);
    let rec = capellini_sptrsv::core::recommend(&s);
    println!("\nrecommended algorithm = {}", rec.label());
}

fn parse_algo(name: &str) -> Option<Algorithm> {
    Some(match name {
        "capellini" | "writing-first" => Algorithm::CapelliniWritingFirst,
        "two-phase" => Algorithm::CapelliniTwoPhase,
        "syncfree" => Algorithm::SyncFree,
        "syncfree-csc" => Algorithm::SyncFreeCsc,
        "cusparse" => Algorithm::CusparseLike,
        "levelset" => Algorithm::LevelSet,
        "hybrid" => Algorithm::Hybrid,
        "scheduled" => Algorithm::Scheduled,
        _ => return None,
    })
}

/// Prints every live algorithm's label with its Table 2-style trait row.
fn list_algos() {
    println!(
        "{:<34} {:<13} {:<8} {:<16} granularity",
        "algorithm", "preprocessing", "storage", "inter-level sync"
    );
    for algo in Algorithm::all_live() {
        let row = algo.trait_row();
        println!(
            "{:<34} {:<13} {:<8} {:<16} {}",
            row.algorithm, row.preprocessing, row.storage, row.synchronization, row.granularity
        );
    }
}

fn cmd_solve(args: &[String]) {
    reject_unknown_flags("solve", args, SOLVE_FLAGS);
    let l = load_matrix(args);
    let n = l.n();
    let b: Vec<f64> = match flag_value(args, "--rhs") {
        Some(path) => {
            let text = fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                exit(1);
            });
            let vals: Result<Vec<f64>, _> =
                text.split_whitespace().map(|t| t.parse::<f64>()).collect();
            let vals = vals.unwrap_or_else(|e| {
                eprintln!("bad rhs value: {e}");
                exit(1);
            });
            if vals.len() != n {
                eprintln!("rhs has {} values, matrix needs {n}", vals.len());
                exit(1);
            }
            vals
        }
        None => {
            eprintln!("note: no --rhs given, using b = L*ones (exact solution = ones)");
            linalg::rhs_for_solution(&l, &vec![1.0; n])
        }
    };

    let rhs_cols: usize = match flag_value(args, "--rhs-cols") {
        None => 1,
        Some(v) => v.parse().ok().filter(|&k| k >= 1).unwrap_or_else(|| {
            eprintln!("--rhs-cols must be a positive integer, got {v}");
            exit(2);
        }),
    };
    let session_reps: Option<usize> = flag_value(args, "--session").map(|v| {
        v.parse().ok().filter(|&r| r >= 1).unwrap_or_else(|| {
            eprintln!("--session must be a positive integer, got {v}");
            exit(2);
        })
    });
    let devices: Option<usize> = flag_value(args, "--devices").map(|v| {
        v.parse()
            .ok()
            .filter(|d| (1..=MAX_DEVICES).contains(d))
            .unwrap_or_else(|| {
                eprintln!(
                    "--devices must be between 1 and {MAX_DEVICES} simulated devices \
                     (the interconnect budget), got {v}"
                );
                exit(2);
            })
    });

    // The row-major `n × K` right-hand-side block for batched solving:
    // column r scales the base rhs by (r + 1), so each column is distinct
    // with a known relationship to the single-rhs solve.
    let bs: Vec<f64> = if rhs_cols == 1 {
        b.clone()
    } else {
        let mut bs = vec![0.0; n * rhs_cols];
        for (j, &bj) in b.iter().enumerate() {
            for r in 0..rhs_cols {
                bs[j * rhs_cols + r] = bj * (r as f64 + 1.0);
            }
        }
        bs
    };

    let solver = Solver::new(l);
    let x = if has_flag(args, "--cpu") {
        if rhs_cols > 1 || session_reps.is_some() {
            eprintln!("--rhs-cols and --session run on the simulated GPU; drop --cpu");
            exit(2);
        }
        if devices.is_some() {
            eprintln!("--devices shards across simulated GPUs; drop --cpu");
            exit(2);
        }
        let threads = flag_value(args, "--cpu")
            .and_then(|v| v.parse().ok())
            .unwrap_or(4);
        let t0 = std::time::Instant::now();
        let x = solver.solve_cpu(&b, threads).unwrap_or_else(|e| {
            eprintln!("solve failed: {e}");
            exit(1);
        });
        eprintln!(
            "cpu self-scheduled solve ({threads} threads): {:.2?}",
            t0.elapsed()
        );
        x
    } else {
        let algo = match flag_value(args, "--algo") {
            None | Some("auto") => solver.recommend(),
            Some(name) => parse_algo(name).unwrap_or_else(|| {
                eprintln!("unknown algorithm {name}");
                exit(2);
            }),
        };
        let mut device = match flag_value(args, "--device").unwrap_or("pascal") {
            "pascal" => DeviceConfig::pascal_like(),
            "volta" => DeviceConfig::volta_like(),
            "turing" => DeviceConfig::turing_like(),
            other => {
                eprintln!("unknown device {other}");
                exit(2);
            }
        }
        .scaled_down(4);
        let cache_on = has_flag(args, "--cache");
        if cache_on {
            device = device.with_cache(CacheConfig::small());
        }
        // Validated whether or not --profile is present: a bad interval is a
        // usage error, not something to silently default away.
        let profile_interval: u64 = match flag_value(args, "--profile-interval") {
            None => 256,
            Some(v) => v.parse().ok().filter(|&i| i >= 1).unwrap_or_else(|| {
                eprintln!("--profile-interval must be a positive integer, got {v}");
                exit(2);
            }),
        };
        let print_cache = |stats: &capellini_sptrsv::simt::LaunchStats| {
            if cache_on {
                let l1_total = stats.l1_hits + stats.l1_misses;
                let l2_total = stats.l2_hits + stats.l2_misses;
                eprintln!(
                    "cache: L1 {:.1}% hit ({}/{}), L2 {:.1}% hit ({}/{}), {} sector eviction(s)",
                    100.0 * stats.l1_hit_rate(),
                    stats.l1_hits,
                    l1_total,
                    if l2_total > 0 {
                        100.0 * stats.l2_hits as f64 / l2_total as f64
                    } else {
                        0.0
                    },
                    stats.l2_hits,
                    l2_total,
                    stats.sector_evictions
                );
            }
        };
        let trace_path = flag_value(args, "--profile");
        if trace_path.is_some() && (rhs_cols > 1 || session_reps.is_some() || devices.is_some()) {
            eprintln!("--profile is only supported for single cold solves");
            exit(2);
        }
        if let Some(nd) = devices {
            if rhs_cols > 1 {
                eprintln!(
                    "--rhs-cols is not supported with --devices (sharded solves are single-rhs)"
                );
                exit(2);
            }
            let link_name = flag_value(args, "--link").unwrap_or("pcie");
            let shard = match link_name {
                "pcie" => ShardConfig::pcie(nd),
                "nvlink" => ShardConfig::nvlink(nd),
                other => {
                    eprintln!("unknown link {other} (expected pcie or nvlink)");
                    exit(2);
                }
            };
            let report = if let Some(reps) = session_reps {
                let mut session =
                    SolverSession::with_algorithm(&device, solver.matrix().clone(), algo);
                eprintln!(
                    "session: {} analyzed once in {:.3} ms (fingerprint {:016x})",
                    algo.label(),
                    session.analysis_ms(),
                    session.fingerprint()
                );
                let mut last = None;
                for _ in 0..reps {
                    last = Some(session.solve_sharded(&b, &shard).unwrap_or_else(|e| {
                        eprintln!("solve failed: {e}");
                        exit(1);
                    }));
                }
                eprintln!(
                    "{reps} warm sharded solve(s), {} cached partition(s)",
                    session.cached_partitions()
                );
                last.expect("reps >= 1")
            } else {
                solve_sharded(&device, solver.matrix(), &b, algo, &shard).unwrap_or_else(|e| {
                    eprintln!("solve failed: {e}");
                    exit(1);
                })
            };
            for d in 0..nd {
                let (r0, r1) = report.partition.range(d);
                eprintln!(
                    "  device {d}: rows {r0}..{r1} ({} rows, {} nnz), {} cycles",
                    r1 - r0,
                    report.partition.nnz(d),
                    report.per_device[d].cycles
                );
            }
            eprintln!(
                "{} sharded across {nd} simulated {} device(s) over {link_name}: \
                 {:.3} ms makespan, {} boundary message(s), {} link byte(s)",
                algo.label(),
                device.name,
                report.makespan_ms(&device),
                report.link_messages,
                report.link_bytes
            );
            report.x
        } else if let Some(reps) = session_reps {
            // Analyze once, solve many: the amortized workflow.
            let mut session = SolverSession::with_algorithm(&device, solver.matrix().clone(), algo);
            eprintln!(
                "session: {} analyzed once in {:.3} ms (fingerprint {:016x})",
                algo.label(),
                session.analysis_ms(),
                session.fingerprint()
            );
            let mut total_ms = 0.0;
            let mut total_stats = capellini_sptrsv::simt::LaunchStats::default();
            let mut x = Vec::new();
            for _ in 0..reps {
                let rep_result = if rhs_cols == 1 {
                    session.solve(&b).map(|rep| (rep.exec_ms, rep.stats, rep.x))
                } else {
                    session
                        .solve_multi(&bs, rhs_cols)
                        .map(|rep| (rep.exec_ms, rep.stats, rep.x))
                };
                let (exec_ms, stats, xi) = rep_result.unwrap_or_else(|e| {
                    eprintln!("solve failed: {e}");
                    exit(1);
                });
                total_ms += exec_ms;
                total_stats.accumulate(&stats);
                x = xi;
            }
            eprintln!(
                "{reps} warm solve(s) x {rhs_cols} rhs on simulated {}: {:.3} ms exec total, {:.3} ms mean, {} grid-plan reuse(s)",
                device.name,
                total_ms,
                total_ms / reps as f64,
                session.device().grid_reuses()
            );
            print_cache(&total_stats);
            x
        } else if rhs_cols > 1 {
            let rep = solve_multi_simulated(&device, solver.matrix(), &bs, rhs_cols, algo)
                .unwrap_or_else(|e| {
                    eprintln!("solve failed: {e}");
                    exit(1);
                });
            eprintln!(
                "{} on simulated {}: {} rhs in {:.3} ms exec (+{:.3} ms preprocessing), {:.2} GFLOPS, {:.1} GB/s",
                algo.label(),
                device.name,
                rhs_cols,
                rep.exec_ms,
                rep.preprocessing_ms,
                rep.gflops,
                rep.bandwidth_gbs
            );
            print_cache(&rep.stats);
            rep.x
        } else {
            if trace_path.is_some() {
                device.profile = ProfileMode::sampled(profile_interval);
            }
            let rep = solve_simulated(&device, solver.matrix(), &b, algo).unwrap_or_else(|e| {
                eprintln!("solve failed: {e}");
                exit(1);
            });
            if let Some(path) = trace_path {
                let json = capellini_sptrsv::simt::trace::chrome::trace_json(&rep.profiles);
                fs::write(path, json).unwrap_or_else(|e| {
                    eprintln!("cannot write {path}: {e}");
                    exit(1);
                });
                eprintln!(
                    "profile: {} launch(es) traced to {path} (open in chrome://tracing or Perfetto)",
                    rep.profiles.len()
                );
            }
            eprintln!(
                "{} on simulated {}: {:.3} ms exec (+{:.3} ms preprocessing), {:.2} GFLOPS, {:.1} GB/s",
                algo.label(),
                device.name,
                rep.exec_ms,
                rep.preprocessing_ms,
                rep.gflops,
                rep.bandwidth_gbs
            );
            print_cache(&rep.stats);
            rep.x
        }
    };

    if rhs_cols == 1 {
        let res = linalg::residual_inf(solver.matrix(), &x, &b);
        eprintln!("residual |Lx-b|_inf = {res:.3e}");
    } else {
        for r in 0..rhs_cols {
            let xr: Vec<f64> = (0..n).map(|j| x[j * rhs_cols + r]).collect();
            let br: Vec<f64> = (0..n).map(|j| bs[j * rhs_cols + r]).collect();
            let res = linalg::residual_inf(solver.matrix(), &xr, &br);
            eprintln!("residual col {r} |Lx-b|_inf = {res:.3e}");
        }
    }
    match flag_value(args, "--out") {
        Some(path) => {
            // One solution row per line: `rhs_cols` values for each matrix row.
            let text: String = x
                .chunks(rhs_cols)
                .map(|row| {
                    let vals: Vec<String> = row.iter().map(|v| format!("{v:.17e}")).collect();
                    format!("{}\n", vals.join(" "))
                })
                .collect();
            fs::write(path, text).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                exit(1);
            });
            eprintln!("solution written to {path}");
        }
        None => {
            let preview: Vec<String> = x.iter().take(8).map(|v| format!("{v:.6}")).collect();
            println!("x[0..8] = [{}]", preview.join(", "));
        }
    }
}

fn cmd_serve(args: &[String]) {
    reject_unknown_flags("serve", args, SERVE_FLAGS);
    let parse_count = |name: &str, default: usize| -> usize {
        match flag_value(args, name) {
            None => default,
            Some(v) => v.parse().ok().filter(|&k| k >= 1).unwrap_or_else(|| {
                eprintln!("{name} must be a positive integer, got {v}");
                exit(2);
            }),
        }
    };
    let clients = parse_count("--clients", 4);
    let requests = parse_count("--requests", 8);
    let max_batch = parse_count("--max-batch", 8);
    let window_ms: u64 = match flag_value(args, "--window") {
        None => 3,
        Some(v) => v.parse().ok().unwrap_or_else(|| {
            eprintln!("--window must be a whole number of milliseconds, got {v}");
            exit(2);
        }),
    };
    let device = match flag_value(args, "--device").unwrap_or("pascal") {
        "pascal" => DeviceConfig::pascal_like(),
        "volta" => DeviceConfig::volta_like(),
        "turing" => DeviceConfig::turing_like(),
        other => {
            eprintln!("unknown device {other}");
            exit(2);
        }
    }
    .scaled_down(4);

    let l = load_matrix(args);
    let n = l.n();
    let handle = MatrixHandle::new(l);
    let service = SolverService::new(
        ServiceConfig::new(device)
            .with_coalesce_window(std::time::Duration::from_millis(window_ms))
            .with_max_batch(max_batch),
    );
    eprintln!(
        "serving fingerprint {:016x} to {clients} client(s) x {requests} request(s) \
         (window {window_ms} ms, max batch {max_batch})",
        handle.fingerprint()
    );

    let failures = std::sync::Mutex::new(Vec::<String>::new());
    let t0 = std::time::Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let service = &service;
            let handle = &handle;
            let failures = &failures;
            scope.spawn(move || {
                let tenant = format!("client-{c}");
                for r in 0..requests {
                    let b: Vec<f64> = (0..n)
                        .map(|i| ((i * (2 * c + 3) + 7 * r + 1) % 29) as f64 - 14.0)
                        .collect();
                    match service.solve(&tenant, handle, &b) {
                        Ok(resp) => {
                            let res = linalg::residual_inf(handle.matrix(), &resp.x, &b);
                            if !res.is_finite() || res > 1e-8 {
                                failures
                                    .lock()
                                    .unwrap()
                                    .push(format!("{tenant} request {r}: residual {res:.3e}"));
                            }
                        }
                        Err(e) => failures
                            .lock()
                            .unwrap()
                            .push(format!("{tenant} request {r}: {e}")),
                    }
                }
            });
        }
    });
    let wall = t0.elapsed();

    for f in failures.lock().unwrap().iter() {
        eprintln!("FAILED: {f}");
    }
    let m = service.metrics();
    eprintln!(
        "served {} solve(s) in {wall:.2?}: {} launch(es), mean batch {:.2}, largest {}, \
         {} reject(s), analysis {:.3} ms",
        m.solves,
        m.launches,
        m.mean_batch(),
        m.largest_batch,
        m.rejects,
        m.analysis_ms_total
    );
    let mut tenants = service.all_tenant_metrics();
    tenants.sort_by(|a, b| a.0.cmp(&b.0));
    for (tenant, tm) in tenants {
        println!(
            "{tenant}: {} solve(s), mean batch {:.2}, mean queue wait {:.3} ms, {} reject(s)",
            tm.solves,
            tm.mean_batch(),
            tm.mean_queue_ms(),
            tm.rejects
        );
    }
    if !failures.lock().unwrap().is_empty() {
        exit(1);
    }
}

fn cmd_gen(args: &[String]) {
    reject_unknown_flags("gen", args, GEN_FLAGS);
    let n: usize = flag_value(args, "--n")
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    let seed: u64 = flag_value(args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(42);
    let kind = flag_value(args, "--kind").unwrap_or("powerlaw");
    let l = match kind {
        "powerlaw" => gen::powerlaw(n, 3.0, seed),
        "circuit" => gen::circuit_like(n, 4, 800, seed),
        "stencil" => {
            let side = (n as f64).cbrt().ceil() as usize;
            gen::stencil3d(side, side, side, seed)
        }
        "lp" => gen::ultra_sparse_wide(n, 16, 1, seed),
        "band" => gen::dense_band(n, 32, seed),
        other => {
            eprintln!("unknown kind {other}");
            exit(2);
        }
    };
    let Some(path) = flag_value(args, "--out") else {
        eprintln!("--out is required");
        exit(2);
    };
    let mut file = fs::File::create(path).unwrap_or_else(|e| {
        eprintln!("cannot create {path}: {e}");
        exit(1);
    });
    mmio::write_matrix_market(&mut file, l.csr()).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        exit(1);
    });
    let s = MatrixStats::compute(&l);
    eprintln!(
        "wrote {kind} matrix to {path}: n = {}, nnz = {}, granularity = {:.3}",
        s.n, s.nnz, s.granularity
    );
}
