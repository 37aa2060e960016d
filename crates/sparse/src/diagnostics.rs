//! Structural diagnostics: histograms and a human-readable report of the
//! properties that decide SpTRSV algorithm choice (used by the `sptrsv
//! stats` CLI and handy when triaging a matrix that performs unexpectedly).

use std::cell::Cell;
use std::fmt::Write as _;

use crate::levels::LevelSets;
use crate::stats::MatrixStats;
use crate::triangular::LowerTriangularCsr;

/// A logarithmic histogram (buckets 0, 1, 2, 3-4, 5-8, 9-16, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    /// Bucket upper bounds (inclusive).
    pub bounds: Vec<usize>,
    /// Counts per bucket.
    pub counts: Vec<usize>,
}

impl LogHistogram {
    /// Builds the histogram of the given values.
    pub fn of(values: impl Iterator<Item = usize>) -> Self {
        let mut bounds = vec![0usize, 1, 2];
        let mut hi = 4usize;
        while bounds.len() < 24 {
            bounds.push(hi);
            hi *= 2;
        }
        let mut counts = vec![0usize; bounds.len()];
        let mut max_used = 0usize;
        for v in values {
            let idx = bounds
                .iter()
                .position(|&b| v <= b)
                .unwrap_or(bounds.len() - 1);
            counts[idx] += 1;
            max_used = max_used.max(idx);
        }
        bounds.truncate(max_used + 1);
        counts.truncate(max_used + 1);
        LogHistogram { bounds, counts }
    }

    /// Renders as `<=bound: count` lines with proportional bars.
    pub fn render(&self, label: &str) -> String {
        let total: usize = self.counts.iter().sum();
        let max = self.counts.iter().copied().max().unwrap_or(1).max(1);
        let mut out = format!("{label} (n = {total})\n");
        let mut prev = None;
        for (&b, &c) in self.bounds.iter().zip(&self.counts) {
            let range = match prev {
                None => format!("{b:>8}"),
                Some(p) if p + 1 == b => format!("{b:>8}"),
                Some(p) => format!("{:>8}", format!("{}-{b}", p + 1)),
            };
            prev = Some(b);
            if c == 0 {
                continue;
            }
            let bars = (c * 30).div_ceil(max);
            let _ = writeln!(out, "  {range}  {:<30} {c}", "#".repeat(bars));
        }
        out
    }
}

/// A full structural report: the Table-6 statistics plus row-length and
/// level-width histograms.
pub fn report(l: &LowerTriangularCsr) -> String {
    let levels = LevelSets::analyze(l);
    let s = MatrixStats::from_levels(l, &levels);
    let row_hist = LogHistogram::of((0..l.n()).map(|i| l.row_deps(i).len() + 1));
    let level_hist =
        LogHistogram::of((0..levels.n_levels()).map(|k| levels.rows_in_level(k).len()));
    let mut out = String::new();
    let _ = writeln!(out, "n = {}, nnz = {}, levels = {}", s.n, s.nnz, s.n_levels);
    let _ = writeln!(
        out,
        "nnz/row (alpha) = {:.3}   components/level (beta) = {:.1}   granularity (delta) = {:.3}",
        s.nnz_row, s.n_level, s.granularity
    );
    let _ = writeln!(out, "widest level = {} rows\n", s.max_level_width);
    out.push_str(&row_hist.render("row nonzero counts"));
    out.push('\n');
    out.push_str(&level_hist.render("level widths"));
    out
}

/// How many times the current thread has run each analysis pass.
///
/// A diagnostic for the amortization contract of cached sessions: a test
/// snapshots [`analysis_counts`] around a construction or a solve and
/// asserts which passes ran; a warm solve must run none. The record is per
/// thread, so concurrently running tests cannot perturb each other's
/// deltas, and it sees a pass that runs inside another (the level-set
/// analysis inside [`MatrixStats::compute`]), which a tally kept by the
/// caller would miss.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisCounts {
    /// [`MatrixStats::compute`] runs.
    pub stats: u64,
    /// [`LevelSets::analyze`] runs.
    pub levels: u64,
    /// [`crate::Schedule::build`] runs.
    pub schedules: u64,
    /// [`crate::CsrMatrix::to_csc`] conversions.
    pub csc: u64,
}

thread_local! {
    static ANALYSIS_COUNTS: Cell<AnalysisCounts> = const {
        Cell::new(AnalysisCounts { stats: 0, levels: 0, schedules: 0, csc: 0 })
    };
}

/// The analysis passes the current thread has run so far.
pub fn analysis_counts() -> AnalysisCounts {
    ANALYSIS_COUNTS.with(Cell::get)
}

/// Records one analysis pass on the current thread.
pub(crate) fn count_analysis(pass: impl FnOnce(&mut AnalysisCounts)) {
    ANALYSIS_COUNTS.with(|c| {
        let mut counts = c.get();
        pass(&mut counts);
        c.set(counts);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn histogram_buckets_and_truncation() {
        let h = LogHistogram::of([0usize, 1, 1, 2, 3, 4, 5, 9, 16].into_iter());
        assert_eq!(h.bounds, vec![0, 1, 2, 4, 8, 16]);
        assert_eq!(h.counts, vec![1, 2, 1, 2, 1, 2]);
        let r = h.render("test");
        assert!(r.contains("(n = 9)"));
        assert!(r.contains("3-4"));
    }

    #[test]
    fn report_contains_the_key_statistics() {
        let l = gen::powerlaw(2_000, 3.0, 60);
        let r = report(&l);
        assert!(r.contains("granularity"));
        assert!(r.contains("row nonzero counts"));
        assert!(r.contains("level widths"));
    }

    #[test]
    fn diagonal_matrix_report_is_degenerate_but_valid() {
        let l = gen::diagonal(100);
        let r = report(&l);
        assert!(r.contains("levels = 1"));
        assert!(r.contains("widest level = 100"));
    }
}
