//! The repository benchmark. One run measures one workload:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-shallow --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! runs an untraced half and a traced half and reports per-layer metrics.
//! Every solution is checked against the serial reference; a wrong answer
//! makes the run exit with code 1. The last line of standard output is the
//! JSON result; the lines above it print every metric by name with its
//! unit, and the reason for any metric the run could not measure.

mod gate;
mod report;
mod serve;
mod sessions;
mod spans;

use report::Report;
use sessions::Deck;
use spans::Recorder;

/// Matrix sizes: the repo's stand-ins at `Scale::Small`, or tiny recipes of
/// the same shapes for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Small,
    Tiny,
}

pub const WORKLOADS: [&str; 3] = ["paper-shallow", "paper-deep", "serve-closed"];

/// The metrics of an untraced run, as `BENCHMARK.json` lists them.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "solves_per_s",
    "latency_ms_p50",
    "latency_ms_p90",
    "sim_cycles",
    "peak_rss_mb",
];

/// The metrics of a traced run, as `BENCHMARK.json` lists them.
pub const PER_LAYER: [&str; 36] = [
    "sparse.fingerprint_ms",
    "sparse.stats_ms",
    "sparse.levels_ms",
    "sparse.schedule_ms",
    "sparse.partition_ms",
    "buffers.upload_matrix_ms",
    "buffers.upload_rhs_ms",
    "buffers.readback_ms",
    "buffers.bytes",
    "engine.launch_ms",
    "engine.heap_events",
    "engine.ns_per_event",
    "engine.winst_per_s",
    "engine.grid_reuses",
    "sim.cycles_cold",
    "sim.warp_instructions",
    "sim.dram_bytes",
    "sim.failed_polls",
    "sim.stall_ticks",
    "session.new_ms",
    "session.new_self_ms",
    "session.solve_self_ms",
    "shard.solve_ms",
    "shard.host_ratio",
    "shard.link_messages",
    "shard.link_bytes",
    "shard.makespan_cycles",
    "service.queue_ms_p50",
    "service.queue_ms_p90",
    "service.after_queue_ms_p50",
    "service.mean_batch",
    "service.launches",
    "service.sessions_created",
    "service.evictions",
    "service.rejects",
    "trace.overhead_frac",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Runs one workload; `seconds` bounds its timed phase.
fn run_workload(
    workload: &str,
    size: Size,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> (Report, Recorder) {
    let mut report = Report::default();
    let rec = match workload {
        "paper-shallow" => sessions::run(Deck::Shallow, size, seed, seconds, trace, &mut report),
        "paper-deep" => sessions::run(Deck::Deep, size, seed, seconds, trace, &mut report),
        "serve-closed" => serve::run(size, seed, seconds, trace, &mut report),
        other => unreachable!("workload {other} passed validation"),
    };
    (report, rec)
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let (mut report, rec) = run_workload(
        &args.workload,
        Size::Small,
        args.seed,
        args.seconds,
        args.trace,
    );
    if args.trace {
        let path = format!(".bench_out/spans-{}-seed{}.json", args.workload, args.seed);
        let written = std::fs::create_dir_all(".bench_out")
            .and_then(|()| std::fs::write(&path, spans::to_json(rec.spans())));
        report.note(match written {
            Ok(()) => format!("{} spans written to {path}", rec.spans().len()),
            Err(e) => format!("spans not written to {path}: {e}"),
        });
    }
    let selected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    print!("{}", report.render(selected));
    std::process::exit(if report.correct() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use capellini_core::{Algorithm, SolverSession};
    use capellini_simt::DeviceConfig;
    use report::{Rng, Value};

    /// Every workload, traced and untraced, at a tiny size: the run is
    /// correct and every listed metric is present with a unit, finite or
    /// marked missing with a reason.
    #[test]
    fn every_workload_reports_every_metric() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let (report, _) = run_workload(workload, Size::Tiny, 7, 0.0, trace);
                let rendered = report.render(if trace { &PER_LAYER } else { &END_TO_END });
                assert!(report.correct(), "{workload} trace={trace}:\n{rendered}");
                assert!(report.attempted > 0);
                let selected: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
                for name in selected {
                    let m = report
                        .get(name)
                        .unwrap_or_else(|| panic!("{workload} trace={trace}: no {name}"));
                    assert!(!m.unit.is_empty(), "{name} has no unit");
                    match &m.value {
                        Value::Num(v) => assert!(v.is_finite(), "{workload}: {name} = {v}"),
                        Value::Missing(why) => assert!(!why.is_empty(), "{name}: no reason"),
                    }
                }
                let last = rendered.lines().last().expect("a result line");
                assert!(
                    last.starts_with("{\"correct\": true, \"attempted\": "),
                    "{last}"
                );
            }
        }
    }

    /// The end-to-end metrics a workload's table row promises are measured,
    /// never marked missing.
    #[test]
    fn end_to_end_metrics_are_measured() {
        for workload in WORKLOADS {
            let (report, _) = run_workload(workload, Size::Tiny, 3, 0.0, false);
            for name in END_TO_END {
                let m = report.get(name).expect("listed metric");
                assert!(
                    matches!(m.value, Value::Num(v) if v > 0.0),
                    "{workload}: {name} = {:?}",
                    m.value
                );
            }
        }
    }

    /// A corrupted solution trips the gate, and a tripped gate makes the
    /// result line report `correct: false`.
    #[test]
    fn corrupted_solutions_trip_the_gate() {
        let e = capellini_sparse::dataset::DatasetEntry {
            name: "tiny".into(),
            spec: capellini_sparse::gen::GenSpec::PowerLaw {
                n: 200,
                avg_deg: 2.6,
            }
            .shuffled(),
            seed: 5,
        };
        let m = sessions::Matrix::build(&e, &mut Rng::new(1, 0));
        let (b, want) = &m.inputs[0];
        let cfg = DeviceConfig::pascal_like();
        for algo in [Algorithm::CapelliniWritingFirst, Algorithm::SyncFree] {
            let mut s = SolverSession::with_algorithm(&cfg, m.l.clone(), algo);
            let x = s.solve(b).expect("tiny solve").x;
            assert_eq!(gate::check(algo, &x, want), Ok(()));

            let mut off_by_ulp = x.clone();
            off_by_ulp[17] = f64::from_bits(off_by_ulp[17].to_bits() ^ 1);
            let ulp = gate::check(algo, &off_by_ulp, want);
            if algo == Algorithm::CapelliniWritingFirst {
                assert!(ulp.is_err(), "a one-ulp change must trip the bitwise gate");
            } else {
                assert_eq!(ulp, Ok(()), "reduction kernels are gated to 1e-10");
            }

            let mut wrong = x.clone();
            wrong[42] += 1e-6;
            assert!(gate::check(algo, &wrong, want).is_err());
            let mut nan = x.clone();
            nan[3] = f64::NAN;
            assert!(gate::check(algo, &nan, want).is_err());
            assert!(gate::check(algo, &x[1..], want).is_err());

            let mut report = Report::default();
            report.record(gate::check(algo, &wrong, want));
            report.num("setup_s", "s", 1.0);
            assert!(!report.correct());
            let rendered = report.render(&["setup_s"]);
            assert!(rendered
                .lines()
                .last()
                .unwrap()
                .starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1"));
            assert!(rendered.contains("FAILED:"));
        }
    }

    /// The metric lists here and in BENCHMARK.json name the same metrics.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let names: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closing quote")])
            .collect();
        let mut expected: Vec<&str> = WORKLOADS.to_vec();
        expected.extend(END_TO_END);
        expected.extend(PER_LAYER);
        assert_eq!(names, expected);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let args = |v: &[&str]| parse(v.iter().map(|s| s.to_string()));
        assert!(args(&[
            "--workload",
            "paper-deep",
            "--seed",
            "1",
            "--seconds",
            "2",
            "--trace",
            "1"
        ])
        .is_ok());
        assert!(args(&["--workload", "nope", "--seed", "1", "--seconds", "2"]).is_err());
        assert!(args(&["--workload", "paper-deep", "--seed", "x", "--seconds", "2"]).is_err());
        assert!(args(&["--workload", "paper-deep", "--seed", "1", "--seconds", "-1"]).is_err());
        assert!(args(&[
            "--workload",
            "paper-deep",
            "--seed",
            "1",
            "--seconds",
            "2",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--workload", "paper-deep", "--seed", "1"]).is_err());
    }
}
