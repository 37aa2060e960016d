//! Device-resident matrix and solve buffers shared by all GPU kernels.

use capellini_simt::{BufF64, BufFlag, BufU32, GpuDevice, SimtError};
use capellini_sparse::LowerTriangularCsr;

/// The single-rhs length check every solve entry point shares, so a
/// wrong-length rhs gets the same [`SimtError::Launch`] everywhere.
pub(crate) fn check_rhs_len(b: &[f64], n: usize) -> Result<(), SimtError> {
    if b.len() == n {
        return Ok(());
    }
    Err(SimtError::Launch(format!(
        "rhs length {} does not match matrix dimension {n}",
        b.len()
    )))
}

/// The rhs-block shape check every multi-RHS entry point shares: `bs` must
/// hold `n` rows x `nrhs` right-hand sides. The multiply is checked, so an
/// absurd `nrhs` is the same structured [`SimtError::Launch`] as any other
/// shape mismatch, never an overflow panic.
pub(crate) fn check_rhs_block(bs: &[f64], n: usize, nrhs: usize) -> Result<(), SimtError> {
    let expected = n.checked_mul(nrhs).ok_or_else(|| {
        SimtError::Launch(format!(
            "rhs block shape {n} rows x {nrhs} rhs overflows usize"
        ))
    })?;
    if bs.len() == expected {
        return Ok(());
    }
    Err(SimtError::Launch(format!(
        "rhs block has {} elements, expected {n} rows x {nrhs} rhs = {expected}",
        bs.len(),
    )))
}

/// A lower-triangular CSR matrix uploaded to device memory.
#[derive(Debug, Clone, Copy)]
pub struct DeviceCsr {
    /// Matrix dimension.
    pub n: usize,
    /// Stored nonzeros.
    pub nnz: usize,
    /// `csrRowPtr` (n+1 entries).
    pub row_ptr: BufU32,
    /// `csrColIdx` (nnz entries).
    pub col_idx: BufU32,
    /// `csrVal` (nnz entries).
    pub values: BufF64,
}

impl DeviceCsr {
    /// Uploads the matrix arrays.
    pub fn upload(dev: &mut GpuDevice, l: &LowerTriangularCsr) -> Self {
        let mem = dev.mem();
        DeviceCsr {
            n: l.n(),
            nnz: l.nnz(),
            row_ptr: mem.alloc_u32(l.csr().row_ptr()),
            col_idx: mem.alloc_u32(l.csr().col_idx()),
            values: mem.alloc_f64(l.csr().values()),
        }
    }
}

/// Right-hand side, solution, and completion-flag buffers for one solve.
#[derive(Debug, Clone, Copy)]
pub struct SolveBuffers {
    /// Right-hand side `b`.
    pub b: BufF64,
    /// Solution vector `x` (zero-initialised).
    pub x: BufF64,
    /// The paper's `get_value` array.
    pub flags: BufFlag,
}

impl SolveBuffers {
    /// Allocates `b`, a zeroed `x`, and a zeroed flag array.
    pub fn upload(dev: &mut GpuDevice, b: &[f64]) -> Self {
        let mem = dev.mem();
        SolveBuffers {
            b: mem.alloc_f64(b),
            x: mem.alloc_f64_zeroed(b.len()),
            flags: mem.alloc_flags(b.len()),
        }
    }

    /// Reads the solution back to the host.
    pub fn read_x(self, dev: &GpuDevice) -> Vec<f64> {
        dev.mem_ref().read_f64(self.x).to_vec()
    }
}

/// Device-memory tiling of an `n × k` right-hand-side block.
///
/// The host-side contract is always row-major (`bs[i*nrhs + r]`); the layout
/// only decides how the block is *tiled in device memory*. Row-major packs a
/// row's `k` values into consecutive sectors (the amortization the multi-RHS
/// kernels were designed around); column-major stores each right-hand side
/// contiguously (`x[r*n + i]`), scattering one row's values across `k`
/// distant regions. Per column the floating-point operation order is
/// identical either way, so solutions are bit-identical — only the memory
/// traffic (and, under [`capellini_simt::DeviceConfig::with_cache`], the
/// hit rates) differ, which is what the `repro locality` experiment
/// measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RhsLayout {
    /// `x[i*k + r]`: one row's `k` values in consecutive sectors (default).
    #[default]
    RowMajor,
    /// `x[r*n + i]`: each right-hand side contiguous, rows strided by `n`.
    ColMajor,
}

impl RhsLayout {
    /// Element index of component `(row i, rhs r)` in an `n × k` block.
    #[inline]
    pub fn index(self, i: usize, r: usize, n: usize, k: usize) -> usize {
        match self {
            RhsLayout::RowMajor => i * k + r,
            RhsLayout::ColMajor => r * n + i,
        }
    }

    /// Short label for tables and reports.
    pub fn label(self) -> &'static str {
        match self {
            RhsLayout::RowMajor => "row-major",
            RhsLayout::ColMajor => "col-major",
        }
    }
}

/// Solve buffers for an `n × k` block of right-hand sides (SpTRSM): `b` and
/// `x` hold `n*k` values tiled per [`RhsLayout`] (row-major unless asked
/// otherwise), while the completion flags stay per *row* — one flag
/// publishes all `k` components of a row.
#[derive(Debug, Clone, Copy)]
pub struct MultiSolveBuffers {
    /// Number of right-hand sides `k`.
    pub nrhs: usize,
    /// Right-hand sides, `n × k` in `layout` order.
    pub b: BufF64,
    /// Solutions, `n × k` in `layout` order (zero-initialised).
    pub x: BufF64,
    /// The paper's `get_value` array (`n` entries).
    pub flags: BufFlag,
    /// Device-memory tiling of `b` and `x`.
    pub layout: RhsLayout,
}

impl MultiSolveBuffers {
    /// Allocates `b` from a row-major `n × k` block, plus zeroed `x` and
    /// flag arrays, tiled row-major on the device.
    ///
    /// # Panics
    /// If `bs.len()` is not `n * nrhs`.
    pub fn upload(dev: &mut GpuDevice, bs: &[f64], n: usize, nrhs: usize) -> Self {
        Self::upload_with_layout(dev, bs, n, nrhs, RhsLayout::RowMajor)
    }

    /// Allocates buffers tiled per `layout`. `bs` is always the host-side
    /// row-major block; a column-major upload repacks it on the way in, and
    /// [`MultiSolveBuffers::read_x`] repacks the solution on the way out, so
    /// callers never observe the device tiling.
    ///
    /// # Panics
    /// If `bs.len()` is not `n * nrhs`.
    pub fn upload_with_layout(
        dev: &mut GpuDevice,
        bs: &[f64],
        n: usize,
        nrhs: usize,
        layout: RhsLayout,
    ) -> Self {
        assert!(nrhs >= 1, "need at least one right-hand side");
        assert_eq!(bs.len(), n * nrhs, "B must be n x nrhs row-major");
        let mem = dev.mem();
        let b = match layout {
            RhsLayout::RowMajor => mem.alloc_f64(bs),
            RhsLayout::ColMajor => {
                let mut packed = vec![0.0; bs.len()];
                for i in 0..n {
                    for r in 0..nrhs {
                        packed[r * n + i] = bs[i * nrhs + r];
                    }
                }
                mem.alloc_f64(&packed)
            }
        };
        MultiSolveBuffers {
            nrhs,
            b,
            x: mem.alloc_f64_zeroed(bs.len()),
            flags: mem.alloc_flags(n),
            layout,
        }
    }

    /// Reads the solution block back to the host, always row-major
    /// `n × k` regardless of the device tiling.
    pub fn read_x(self, dev: &GpuDevice) -> Vec<f64> {
        let raw = dev.mem_ref().read_f64(self.x);
        match self.layout {
            RhsLayout::RowMajor => raw.to_vec(),
            RhsLayout::ColMajor => {
                let n = raw.len() / self.nrhs;
                let mut out = vec![0.0; raw.len()];
                for i in 0..n {
                    for r in 0..self.nrhs {
                        out[i * self.nrhs + r] = raw[r * n + i];
                    }
                }
                out
            }
        }
    }
}

/// Pooled solve buffers: allocated once, reused across many launches on the
/// same device (the session layer's `b`/`x`/`get_value` arrays).
///
/// Reuse is capacity-based: a solve smaller than the pooled capacity keeps
/// the existing allocations. That makes stale-tail hygiene load-bearing —
/// [`PooledSolveBuffers::prepare`] scrubs the *full* capacity of `x` and the
/// flag array and zero-fills the unused tail of `b`, and
/// [`PooledSolveBuffers::read_x`] returns only the active prefix, so values
/// from an earlier, larger solve can never leak into (or be read back from)
/// a later, smaller one.
#[derive(Debug)]
pub struct PooledSolveBuffers {
    /// Capacity of `b`/`x` in elements.
    cap: usize,
    /// Capacity of the flag array in rows.
    rows_cap: usize,
    /// Active element count of the current solve (`n`, or `n*k` batched).
    len: usize,
    /// Active row count of the current solve.
    rows: usize,
    b: BufF64,
    x: BufF64,
    flags: BufFlag,
}

impl PooledSolveBuffers {
    /// Allocates a pool sized for `cap` elements over `rows_cap` rows.
    pub fn new(dev: &mut GpuDevice, cap: usize, rows_cap: usize) -> Self {
        let mem = dev.mem();
        PooledSolveBuffers {
            cap,
            rows_cap,
            len: 0,
            rows: 0,
            b: mem.alloc_f64_zeroed(cap),
            x: mem.alloc_f64_zeroed(cap),
            flags: mem.alloc_flags(rows_cap),
        }
    }

    /// Arms the pool for one solve of `rows` rows with the given packed
    /// right-hand side(s): writes `b` (zero-filling any capacity tail),
    /// zeroes all of `x`, and clears all flags. Grows the allocations if the
    /// problem exceeds the pooled capacity (device memory is append-only, so
    /// outgrown buffers are simply abandoned).
    pub fn prepare(&mut self, dev: &mut GpuDevice, b: &[f64], rows: usize) {
        let mem = dev.mem();
        if b.len() > self.cap {
            self.cap = b.len();
            self.b = mem.alloc_f64(b);
            self.x = mem.alloc_f64_zeroed(self.cap);
        } else {
            mem.write_f64_prefix(self.b, b);
            mem.fill_f64(self.x, 0.0);
        }
        if rows > self.rows_cap {
            self.rows_cap = rows;
            self.flags = mem.alloc_flags(rows);
        } else {
            mem.clear_flags(self.flags);
        }
        self.len = b.len();
        self.rows = rows;
    }

    /// The single-RHS buffer view kernels consume. The handles cover the
    /// full pooled capacity; kernels index only `[0, n)`.
    pub fn view(&self) -> SolveBuffers {
        SolveBuffers {
            b: self.b,
            x: self.x,
            flags: self.flags,
        }
    }

    /// The multi-RHS buffer view for a batched launch over `nrhs` columns.
    ///
    /// # Panics
    /// If the pool was not prepared with `rows * nrhs` elements.
    pub fn view_multi(&self, nrhs: usize) -> MultiSolveBuffers {
        assert_eq!(
            self.len,
            self.rows * nrhs,
            "pool prepared for {} elements, not {} rows x {} rhs",
            self.len,
            self.rows,
            nrhs
        );
        MultiSolveBuffers {
            nrhs,
            b: self.b,
            x: self.x,
            flags: self.flags,
            layout: RhsLayout::RowMajor,
        }
    }

    /// Reads back only the active prefix of the solution — the pooled
    /// capacity beyond the current solve is never observable.
    pub fn read_x(&self, dev: &GpuDevice) -> Vec<f64> {
        dev.mem_ref().read_f64(self.x)[..self.len].to_vec()
    }

    /// Element capacity of `b`/`x`.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Active element count of the current solve.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True until the first [`PooledSolveBuffers::prepare`].
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capellini_simt::DeviceConfig;
    use capellini_sparse::paper_example;

    #[test]
    fn upload_round_trips_arrays() {
        let l = paper_example();
        let mut dev = GpuDevice::new(DeviceConfig::pascal_like());
        let dm = DeviceCsr::upload(&mut dev, &l);
        assert_eq!(dm.n, 8);
        assert_eq!(dm.nnz, 17);
        assert_eq!(dev.mem_ref().read_u32(dm.row_ptr), l.csr().row_ptr());
        assert_eq!(dev.mem_ref().read_f64(dm.values), l.csr().values());
        let sb = SolveBuffers::upload(&mut dev, &[1.0; 8]);
        assert_eq!(dev.mem_ref().read_f64(sb.x), &[0.0; 8]);
        assert_eq!(dev.mem_ref().read_flags(sb.flags), &[0; 8]);
    }

    #[test]
    fn multi_upload_shapes_buffers_correctly() {
        let mut dev = GpuDevice::new(DeviceConfig::pascal_like());
        let bs: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let mb = MultiSolveBuffers::upload(&mut dev, &bs, 4, 3);
        assert_eq!(dev.mem_ref().read_f64(mb.b), &bs[..]);
        assert_eq!(dev.mem_ref().read_f64(mb.x), &[0.0; 12]);
        assert_eq!(dev.mem_ref().read_flags(mb.flags), &[0; 4]);
    }

    /// A column-major upload tiles the device buffer `x[r*n + i]` but the
    /// host contract stays row-major on both sides of the solve.
    #[test]
    fn col_major_upload_round_trips_through_row_major() {
        let mut dev = GpuDevice::new(DeviceConfig::pascal_like());
        let bs: Vec<f64> = (0..12).map(|i| i as f64).collect(); // 4 rows x 3 rhs
        let mb = MultiSolveBuffers::upload_with_layout(&mut dev, &bs, 4, 3, RhsLayout::ColMajor);
        // Device-side: rhs r contiguous, so b[r*n + i] = bs[i*nrhs + r].
        let raw = dev.mem_ref().read_f64(mb.b).to_vec();
        for i in 0..4 {
            for r in 0..3 {
                assert_eq!(raw[r * 4 + i], bs[i * 3 + r]);
            }
        }
        // read_x repacks to row-major; seed x with the packed b to check.
        dev.mem().write_f64(mb.x, &raw);
        assert_eq!(mb.read_x(&dev), bs);
        assert_eq!(RhsLayout::RowMajor.index(2, 1, 4, 3), 7);
        assert_eq!(RhsLayout::ColMajor.index(2, 1, 4, 3), 6);
        assert_eq!(RhsLayout::default(), RhsLayout::RowMajor);
    }

    /// The satellite bugfix scenario: a pooled buffer serves a large solve,
    /// then a strictly smaller one. Without full-capacity scrubbing and
    /// prefix-limited read-back, the second solve would observe the first
    /// solve's tail values.
    #[test]
    fn shrink_then_solve_never_leaks_the_stale_tail() {
        use crate::kernels::writing_first;
        use capellini_sparse::gen;

        let big = paper_example(); // n = 8
        let small = gen::chain(3, 1, 5); // n = 3

        let mut dev = GpuDevice::new(DeviceConfig::pascal_like());
        let dm_big = DeviceCsr::upload(&mut dev, &big);
        let dm_small = DeviceCsr::upload(&mut dev, &small);
        let mut pool = PooledSolveBuffers::new(&mut dev, big.n(), big.n());

        // Large solve: leaves 8 nonzero x values and 8 set flags behind.
        let b_big: Vec<f64> = (0..8).map(|i| i as f64 + 1.0).collect();
        pool.prepare(&mut dev, &b_big, big.n());
        writing_first::launch(&mut dev, dm_big, pool.view()).unwrap();
        let x_big = pool.read_x(&dev);
        assert_eq!(x_big.len(), 8);
        assert!(x_big.iter().any(|&v| v != 0.0));

        // Shrink: same pooled handles, smaller system.
        let b_small = vec![2.0, 2.0, 2.0];
        pool.prepare(&mut dev, &b_small, small.n());
        // Pre-launch, nothing from the big solve may be observable.
        assert_eq!(pool.read_x(&dev).len(), 3);
        assert_eq!(pool.read_x(&dev), vec![0.0; 3]);
        assert_eq!(&dev.mem_ref().read_flags(pool.view().flags)[..8], &[0; 8]);
        // The capacity tail of x must be scrubbed too — kernels never read
        // it, but read-back hygiene should not depend on that.
        assert_eq!(dev.mem_ref().read_f64(pool.view().x), &[0.0; 8]);

        writing_first::launch(&mut dev, dm_small, pool.view()).unwrap();
        let x_small = pool.read_x(&dev);
        assert_eq!(x_small.len(), 3, "read-back must stop at the active len");
        let want = crate::reference::solve_serial_csr(&small, &b_small);
        capellini_sparse::linalg::assert_solutions_close(&x_small, &want, 1e-12);

        // Growing again re-allocates; the pool stays usable.
        pool.prepare(&mut dev, &[1.0; 16], 16);
        assert_eq!(pool.capacity(), 16);
        assert_eq!(pool.read_x(&dev), vec![0.0; 16]);
    }
}
