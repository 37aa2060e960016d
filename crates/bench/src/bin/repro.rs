//! `repro` — regenerates the paper's tables and figures.
//!
//! ```text
//! repro <experiment>... [--scale small|medium|full] [--limit N] [--threads N]
//! experiments: table1 table2 table3 table4 table5 table6
//!              fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8
//!              ablation csc hybrid deadlock racecheck profile
//!              shard-scaling locality schedule all
//! ```
//!
//! Every name and `--` token is checked before anything runs: an unknown
//! one is a usage error (exit 2), so a misspelled experiment cannot "pass"
//! having run nothing.
//!
//! Sweep results are cached as CSV under `results/` (override with
//! `CAPELLINI_RESULTS_DIR`), so re-running a table reuses the expensive run.
//!
//! `--threads N` (or `CAPELLINI_THREADS=N`) runs sweeps on N worker
//! threads; the cached CSVs are byte-identical to a serial sweep, only the
//! wall-clock changes. `shard-scaling` runs the sharded
//! multi-device solve at 1..8 simulated devices over both interconnect
//! classes (verifying bit-exactness against the single-device oracle) and
//! writes `results/shard_scaling.json`. `locality` arms the finite L1/L2 cache
//! model and trades row orderings (RCM-like, level-coalesced) and multi-RHS
//! tilings against hit rates, writing `results/locality.json`.

use std::fs;
use std::time::Instant;

use capellini_bench::experiments as exp;
use capellini_bench::runner::{self, results_dir};
use capellini_sparse::dataset::Scale;

/// Every experiment name `repro` accepts, besides `all`.
const EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "ablation",
    "csc",
    "hybrid",
    "deadlock",
    "racecheck",
    "profile",
    "shard-scaling",
    "locality",
    "schedule",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut scale = Scale::Full;
    let mut limit = 0usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(|s| s.as_str()) {
                    Some("small") => Scale::Small,
                    Some("medium") => Scale::Medium,
                    Some("full") => Scale::Full,
                    other => {
                        eprintln!("unknown scale {other:?}");
                        std::process::exit(2);
                    }
                };
            }
            "--limit" => {
                i += 1;
                limit = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--limit needs a number");
                    std::process::exit(2);
                });
            }
            "--threads" => {
                i += 1;
                let threads: usize = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&t| t >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--threads needs a number >= 1");
                        std::process::exit(2);
                    });
                runner::set_default_threads(threads);
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag}");
                std::process::exit(2);
            }
            name => which.push(name.to_string()),
        }
        i += 1;
    }
    if which.is_empty() {
        eprintln!(
            "usage: repro <experiment>... [--scale small|medium|full] [--limit N] [--threads N]\nexperiments: {} all",
            EXPERIMENTS.join(" ")
        );
        std::process::exit(2);
    }
    if let Some(bad) = which
        .iter()
        .find(|w| *w != "all" && !EXPERIMENTS.contains(&w.as_str()))
    {
        eprintln!("unknown experiment: {bad}");
        std::process::exit(2);
    }
    if which.iter().any(|w| w == "all") {
        which = [
            "table2",
            "table3",
            "fig1",
            "fig2",
            "deadlock",
            "racecheck",
            "profile",
            "table1",
            "fig3",
            "fig6",
            "table6",
            "ablation",
            "hybrid",
            "csc",
            "table4",
            "table5",
            "fig4",
            "fig5",
            "fig7",
            "fig8",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    // The suite sweep backs several outputs; load it lazily once.
    let mut suite: Option<Vec<capellini_bench::runner::CellResult>> = None;
    let mut named: Option<Vec<capellini_bench::runner::CellResult>> = None;
    let get_suite = |suite: &mut Option<_>, named: &mut Option<_>| {
        if suite.is_none() {
            *suite = Some(exp::suite_cells(scale, limit));
            *named = Some(exp::named_cells(scale));
        }
    };

    for w in &which {
        let t0 = Instant::now();
        let text = match w.as_str() {
            "table1" => exp::table1(scale),
            "table2" => exp::table2(),
            "table3" => exp::table3(),
            "table4" => {
                get_suite(&mut suite, &mut named);
                exp::table4(suite.as_ref().unwrap())
            }
            "table5" => {
                get_suite(&mut suite, &mut named);
                exp::table5(suite.as_ref().unwrap(), named.as_ref().unwrap())
            }
            "table6" => exp::table6(scale),
            "fig1" => exp::fig1(),
            "fig2" => exp::fig2(),
            "fig3" => exp::fig3(scale),
            "fig4" => {
                get_suite(&mut suite, &mut named);
                exp::fig4(suite.as_ref().unwrap())
            }
            "fig5" => {
                get_suite(&mut suite, &mut named);
                exp::fig5(suite.as_ref().unwrap(), named.as_ref().unwrap())
            }
            "fig6" => exp::fig6(scale),
            "fig7" => {
                get_suite(&mut suite, &mut named);
                exp::fig7(suite.as_ref().unwrap())
            }
            "fig8" => {
                get_suite(&mut suite, &mut named);
                exp::fig8(suite.as_ref().unwrap())
            }
            "ablation" => exp::ablation(scale),
            "csc" => exp::csc(scale),
            "hybrid" => exp::hybrid(scale),
            "shard-scaling" => exp::shard_scaling(scale, limit),
            "locality" => exp::locality(scale),
            "schedule" => exp::schedule(scale),
            "deadlock" => exp::deadlock(),
            "racecheck" => exp::racecheck(),
            "profile" => exp::profile(scale),
            other => unreachable!("{other} was checked against EXPERIMENTS"),
        };
        println!("{text}");
        println!("==> {w} done in {:.1?}\n", t0.elapsed());
        let dir = results_dir();
        fs::create_dir_all(&dir).ok();
        if let Err(e) = fs::write(dir.join(format!("{w}.txt")), &text) {
            eprintln!("could not save {w}: {e}");
        }
    }
}
