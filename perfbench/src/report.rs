//! Metric collection, the run's printed summary, and small helpers shared by
//! the workloads (seeded generator, percentiles, peak memory).

use std::fmt::Write as _;

/// A metric value, or the reason it could not be measured in this run.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Num(f64),
    Missing(String),
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: Value,
}

/// Everything one run reports: op counts, failures and metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, printed before the result line.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Free-form lines printed before the result line.
    pub notes: Vec<String>,
}

/// Value printed in the result line for a metric this run could not
/// measure; the human-readable lines above it carry the reason.
pub const MISSING_SENTINEL: f64 = -1.0;

impl Report {
    pub fn num(&mut self, name: &str, unit: &'static str, value: f64) {
        let value = if value.is_finite() {
            Value::Num(value)
        } else {
            Value::Missing(format!("non-finite measurement {value}"))
        };
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    pub fn missing(&mut self, name: &str, unit: &'static str, reason: &str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value: Value::Missing(reason.to_string()),
        });
    }

    /// Counts one attempted operation, failed if `outcome` is an error.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(msg);
            }
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Human-readable lines, then the one-line JSON result restricted to
    /// `selected` metric names (in that order).
    pub fn render(&self, selected: &[&str]) -> String {
        let mut out = String::new();
        for f in &self.failures {
            let _ = writeln!(out, "FAILED: {f}");
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        let _ = writeln!(
            out,
            "failed_frac = {} ratio ({} of {} ops)",
            self.failed_frac(),
            self.failed,
            self.attempted
        );
        for m in &self.metrics {
            match &m.value {
                Value::Num(v) => {
                    let _ = writeln!(out, "{} = {v} {}", m.name, m.unit);
                }
                Value::Missing(why) => {
                    let _ = writeln!(out, "{} = missing ({}): {why}", m.name, m.unit);
                }
            }
        }
        let mut json = String::new();
        for (i, name) in selected.iter().enumerate() {
            let m = self
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was never reported"));
            let v = match m.value {
                Value::Num(v) => v,
                Value::Missing(_) => MISSING_SENTINEL,
            };
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.unit
            );
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        );
        out
    }
}

/// SplitMix64: a tiny seeded generator, so inputs depend only on the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [0, n).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Nearest-rank percentile (`p` in [0, 1]) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
