//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around the calls it
//! makes into each layer's public functions. They are kept in a
//! preallocated buffer and written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: name, interval, the span that caused it, and the
/// request (benchmark operation) it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded recorder. A disabled recorder records nothing, so the
/// same benchmark code runs untraced at the cost of one branch per call.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Recorder {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Recorder {
            enabled,
            origin,
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Numbers this recorder's requests from `base`, so spans of several
    /// threads keep distinct request ids after [`Recorder::absorb`].
    pub fn with_request_base(mut self, base: u64) -> Self {
        self.request = base;
        self
    }

    pub fn disabled() -> Self {
        Self::new(false, Instant::now())
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new request: spans opened from here on share its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            request: self.request,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn close(&mut self, idx: usize) {
        if !self.enabled {
            return;
        }
        assert_eq!(self.open.pop(), Some(idx), "spans must nest");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.open(name);
        let out = f();
        self.close(s);
        out
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Duration of a closed span (0 when disabled).
    pub fn dur_ns(&self, idx: usize) -> u64 {
        self.spans.get(idx).map_or(0, Span::dur_ns)
    }

    /// Number of spans recorded so far (a position to slice from).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans, re-indexing their parents.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Host time of one span name over a range of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub total_ns: u64,
    /// Span time minus the time covered by its child spans. Children of
    /// one span never overlap: every recorder is single-threaded.
    pub self_ns: u64,
    pub count: u64,
}

/// Per-name totals over `spans[range]`; `spans` must be the whole buffer so
/// children outside the range still count against their parents.
pub fn layer_times(
    spans: &[Span],
    range: std::ops::Range<usize>,
) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for i in range {
        let s = &spans[i];
        let t = out.entry(s.name).or_default();
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
        t.count += 1;
    }
    out
}

/// Serializes spans as a JSON array (times in microseconds).
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 2);
    out.push('[');
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{i},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_us\":{:.3},\"dur_us\":{:.3}}}",
            s.request,
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3
        );
    }
    out.push_str("]\n");
    out
}
