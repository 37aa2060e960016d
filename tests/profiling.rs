//! Integration tests of the profiling subsystem: arming the sampling
//! profiler must never perturb simulation results (the timeline is an
//! observer, not a participant), and the Chrome-trace export must be valid
//! JSON with the documented event schema.

use capellini_sptrsv::core::kernels::{cusparse_like, syncfree, writing_first, SimSolve};
use capellini_sptrsv::prelude::*;
use capellini_sptrsv::simt::trace::chrome;
use capellini_sptrsv::simt::{GpuDevice, SimtError, StallReason};
use capellini_sptrsv::sparse::paper_example;

type SolveFn = fn(&mut GpuDevice, &LowerTriangularCsr, &[f64]) -> Result<SimSolve, SimtError>;

const KERNELS: [(&str, SolveFn); 3] = [
    ("syncfree", syncfree::solve as SolveFn),
    ("writing_first", writing_first::solve as SolveFn),
    ("cusparse_like", cusparse_like::solve as SolveFn),
];

fn problems() -> Vec<(&'static str, LowerTriangularCsr)> {
    vec![
        ("paper_example", paper_example()),
        ("random_k", gen::random_k(3000, 3, 3000, 42)),
    ]
}

#[test]
fn profiling_does_not_perturb_stats_or_solutions() {
    // The same differential the golden traces rely on: ProfileMode::Sampled
    // must leave every counter and every solution value bit-identical to
    // ProfileMode::Off.
    for (mname, l) in problems() {
        let b: Vec<f64> = (0..l.n()).map(|i| (i % 7) as f64 - 3.0).collect();
        for (kname, solve) in KERNELS {
            let base = DeviceConfig::pascal_like().scaled_down(4);
            let mut dev = GpuDevice::new(base.clone());
            let off = solve(&mut dev, &l, &b).unwrap();
            assert!(dev.take_profiles().is_empty(), "{kname}: profile under Off");

            let mut dev = GpuDevice::new(base.with_profile(ProfileMode::sampled(64)));
            let on = solve(&mut dev, &l, &b).unwrap();
            let profiles = dev.take_profiles();

            assert_eq!(
                format!("{:?}", off.stats),
                format!("{:?}", on.stats),
                "{kname} on {mname}: profiling perturbed the counters"
            );
            assert_eq!(
                off.x, on.x,
                "{kname} on {mname}: profiling perturbed the solution"
            );
            assert!(!profiles.is_empty(), "{kname} on {mname}: no profile");
            let issued: u64 = profiles.iter().map(|p| p.issued_slots).sum();
            assert_eq!(
                issued, on.stats.warp_instructions,
                "{kname} on {mname}: issued slots must equal warp instructions"
            );
            for p in &profiles {
                let cap = p.interval_cycles * p.schedulers_per_sm as u64;
                for bkt in &p.buckets {
                    let total: u64 = bkt.slots.iter().sum();
                    assert!(total <= cap, "bucket exceeds issue-slot capacity");
                }
                let pct: f64 = StallReason::ALL.iter().map(|&r| p.reason_pct(r)).sum();
                assert!(
                    p.total_slots() == 0 || (pct - 100.0).abs() < 1e-6,
                    "{kname} on {mname}: percentages sum to {pct}"
                );
            }
        }
    }
}

#[test]
fn chrome_trace_round_trips_through_a_json_parser() {
    let l = gen::random_k(3000, 3, 3000, 42);
    let b = vec![1.0; l.n()];
    for (kname, solve) in KERNELS {
        let cfg = DeviceConfig::pascal_like()
            .scaled_down(4)
            .with_profile(ProfileMode::sampled(64));
        let mut dev = GpuDevice::new(cfg);
        solve(&mut dev, &l, &b).unwrap();
        let profiles = dev.take_profiles();
        let text = chrome::trace_json(&profiles);
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{kname}: bad JSON: {e}"));

        let top = doc.as_object().expect("top level is an object");
        let events = top["traceEvents"].as_array().expect("traceEvents array");
        assert!(!events.is_empty(), "{kname}: no trace events");
        let mut counters = 0usize;
        let mut spans = 0usize;
        for ev in events {
            let ev = ev.as_object().expect("event is an object");
            let ph = ev["ph"].as_str().expect("ph is a string");
            match ph {
                "C" => {
                    counters += 1;
                    let args = ev["args"].as_object().expect("counter args");
                    for r in StallReason::ALL {
                        assert!(
                            args.contains_key(r.label()),
                            "{kname}: counter missing {}",
                            r.label()
                        );
                    }
                }
                "X" => {
                    spans += 1;
                    assert!(ev["dur"].as_f64().expect("dur") >= 1.0);
                    assert!(ev["ts"].as_f64().expect("ts") >= 0.0);
                }
                "M" => {
                    assert_eq!(ev["name"].as_str(), Some("process_name"));
                }
                other => panic!("{kname}: unexpected phase {other}"),
            }
        }
        assert!(counters > 0, "{kname}: no counter events");
        assert!(spans > 0, "{kname}: no span events");
        let other = top["otherData"].as_object().expect("otherData");
        assert_eq!(other["ts_unit"].as_str(), Some("cycles"));
        assert_eq!(
            other["launches"].as_f64(),
            Some(profiles.len() as f64),
            "{kname}: launch count mismatch"
        );
    }
}

/// A sampled Chrome trace round-trips through the parser with each SM's
/// counter track in monotonically non-decreasing timestamp order (interval
/// buckets are emitted in cycle order per SM).
#[test]
fn chrome_trace_round_trips_and_orders_per_sm_events() {
    let l = gen::random_k(3000, 3, 3000, 42);
    let b = vec![1.0; l.n()];
    for (kname, solve) in KERNELS {
        let cfg = DeviceConfig::pascal_like()
            .scaled_down(4)
            .with_profile(ProfileMode::sampled(64));
        let mut dev = GpuDevice::new(cfg);
        solve(&mut dev, &l, &b).unwrap();
        let trace = chrome::trace_json(&dev.take_profiles());
        let doc = json::parse(&trace).unwrap_or_else(|e| panic!("{kname}: bad JSON: {e}"));
        let events = doc["traceEvents"].as_array().expect("traceEvents array");
        // Per-SM counter timestamps must be monotone: collect the "C"
        // track of each pid in document order and check ordering.
        let mut last_ts: std::collections::BTreeMap<String, f64> =
            std::collections::BTreeMap::new();
        let mut counters = 0usize;
        for ev in events {
            if ev["ph"].as_str() != Some("C") {
                continue;
            }
            counters += 1;
            let sm = format!("{:?}", ev["pid"]);
            let ts = ev["ts"].as_f64().expect("counter ts");
            if let Some(&prev) = last_ts.get(&sm) {
                assert!(
                    ts >= prev,
                    "{kname}: SM {sm} counter went backwards ({prev} -> {ts})"
                );
            }
            last_ts.insert(sm, ts);
        }
        assert!(counters > 0, "{kname}: no counter events to order-check");
    }
}

#[test]
fn empty_profile_list_is_still_a_valid_document() {
    let doc = json::parse(&chrome::trace_json(&[])).unwrap();
    let top = doc.as_object().unwrap();
    assert!(top["traceEvents"].as_array().unwrap().is_empty());
}

/// A deliberately minimal recursive-descent JSON parser — just enough to
/// validate the Chrome-trace export without adding a serde dependency.
mod json {
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(BTreeMap<String, Value>),
    }

    impl Value {
        pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
            match self {
                Value::Obj(m) => Some(m),
                _ => None,
            }
        }
        pub fn as_array(&self) -> Option<&Vec<Value>> {
            match self {
                Value::Arr(a) => Some(a),
                _ => None,
            }
        }
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }
    }

    impl std::ops::Index<&str> for Value {
        type Output = Value;
        fn index(&self, key: &str) -> &Value {
            static NULL: Value = Value::Null;
            self.as_object().and_then(|m| m.get(key)).unwrap_or(&NULL)
        }
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if b.get(*pos) == Some(&c) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {pos}", c as char))
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => object(b, pos),
            Some(b'[') => array(b, pos),
            Some(b'"') => Ok(Value::Str(string(b, pos)?)),
            Some(b't') => literal(b, pos, "true", Value::Bool(true)),
            Some(b'f') => literal(b, pos, "false", Value::Bool(false)),
            Some(b'n') => literal(b, pos, "null", Value::Null),
            Some(_) => number(b, pos),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {pos}"))
        }
    }

    fn number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {pos}")),
                    }
                    *pos += 1;
                }
                Some(&c) => {
                    out.push(c as char);
                    *pos += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {pos}")),
            }
        }
    }

    fn object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'{')?;
        let mut map = BTreeMap::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            skip_ws(b, pos);
            let key = string(b, pos)?;
            skip_ws(b, pos);
            expect(b, pos, b':')?;
            map.insert(key, value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
            }
        }
    }
}
