//! Compressed sparse row (CSR) format — the paper's native storage (§2.1,
//! Figure 1c): `row_ptr` holds the beginning position of each row, `col_idx`
//! the column numbers, and `values` the numerical values.

use crate::coo::CooMatrix;
use crate::csc::CscMatrix;
use crate::diagnostics::count_analysis;
use crate::error::SparseError;

/// A sparse matrix in CSR form with sorted, duplicate-free column indices
/// within each row.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw arrays, validating every invariant:
    /// array lengths, monotone `row_ptr`, in-range and strictly increasing
    /// column indices per row.
    pub fn new(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<u32>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self, SparseError> {
        if row_ptr.len() != n_rows + 1 {
            return Err(SparseError::InvalidStructure(format!(
                "row_ptr has length {}, expected {}",
                row_ptr.len(),
                n_rows + 1
            )));
        }
        // Indices are u32 throughout: dimensions or nnz beyond that space
        // cannot be addressed by `row_ptr`/`col_idx` and must be rejected at
        // this boundary rather than silently truncated downstream.
        if u32::try_from(n_rows).is_err()
            || u32::try_from(n_cols).is_err()
            || u32::try_from(col_idx.len()).is_err()
        {
            return Err(SparseError::InvalidStructure(format!(
                "matrix of {n_rows}x{n_cols} with {} nonzeros exceeds the \
                 u32 index space",
                col_idx.len()
            )));
        }
        if col_idx.len() != values.len() {
            return Err(SparseError::InvalidStructure(format!(
                "col_idx length {} != values length {}",
                col_idx.len(),
                values.len()
            )));
        }
        if row_ptr.first() != Some(&0) || *row_ptr.last().unwrap() as usize != col_idx.len() {
            return Err(SparseError::InvalidStructure(
                "row_ptr must start at 0 and end at nnz".into(),
            ));
        }
        for i in 0..n_rows {
            let (lo, hi) = (row_ptr[i] as usize, row_ptr[i + 1] as usize);
            if lo > hi {
                return Err(SparseError::InvalidStructure(format!(
                    "row_ptr decreases at row {i}"
                )));
            }
            let mut prev: Option<u32> = None;
            for &c in &col_idx[lo..hi] {
                if c as usize >= n_cols {
                    return Err(SparseError::InvalidStructure(format!(
                        "column {c} out of range in row {i}"
                    )));
                }
                if let Some(p) = prev {
                    if c <= p {
                        return Err(SparseError::InvalidStructure(format!(
                            "columns not strictly increasing in row {i}"
                        )));
                    }
                }
                prev = Some(c);
            }
        }
        Ok(CsrMatrix {
            n_rows,
            n_cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Builds a CSR matrix from a COO matrix; duplicates are summed.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let mut sorted = coo.clone();
        sorted.compress();
        let n_rows = sorted.n_rows();
        let mut row_ptr = vec![0u32; n_rows + 1];
        for &(r, _, _) in sorted.entries() {
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..n_rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let nnz = sorted.raw_nnz();
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for &(_, c, v) in sorted.entries() {
            col_idx.push(c);
            values.push(v);
        }
        CsrMatrix {
            n_rows,
            n_cols: sorted.n_cols(),
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The `csrRowPtr` array (length `n_rows + 1`).
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// The `csrColIdx` array (length `nnz`).
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// The `csrVal` array (length `nnz`).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the values (structure is fixed once built).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The column indices and values of row `i`.
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.row_ptr[i] as usize, self.row_ptr[i + 1] as usize);
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Number of nonzeros in row `i`.
    pub fn row_nnz(&self, i: usize) -> usize {
        (self.row_ptr[i + 1] - self.row_ptr[i]) as usize
    }

    /// Iterates over `(row, col, value)` triplets in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        (0..self.n_rows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter().zip(vals).map(move |(&c, &v)| (i as u32, c, v))
        })
    }

    /// The value at `(row, col)`, or `None` if not stored.
    pub fn get(&self, row: usize, col: usize) -> Option<f64> {
        let (cols, vals) = self.row(row);
        cols.binary_search(&(col as u32)).ok().map(|k| vals[k])
    }

    /// True if every stored entry lies on or below the diagonal.
    pub fn is_lower_triangular(&self) -> bool {
        self.iter().all(|(r, c, _)| c <= r)
    }

    /// True if every row's last stored entry is its (nonzero) diagonal.
    /// This is the structural precondition for all solvers in this project.
    pub fn has_trailing_diagonal(&self) -> bool {
        (0..self.n_rows).all(|i| {
            let (cols, vals) = self.row(i);
            matches!(cols.last(), Some(&c) if c as usize == i)
                && vals.last().map(|&v| v != 0.0).unwrap_or(false)
        })
    }

    /// Converts to compressed sparse column form (an explicit transpose of
    /// the index structure). Liu et al.'s SyncFree algorithm consumes CSC;
    /// this conversion *is* its preprocessing step.
    pub fn to_csc(&self) -> CscMatrix {
        count_analysis(|c| c.csc += 1);
        let nnz = self.nnz();
        let mut col_ptr = vec![0u32; self.n_cols + 1];
        for &c in &self.col_idx {
            col_ptr[c as usize + 1] += 1;
        }
        for j in 0..self.n_cols {
            col_ptr[j + 1] += col_ptr[j];
        }
        let mut row_idx = vec![0u32; nnz];
        let mut values = vec![0.0f64; nnz];
        let mut next = col_ptr.clone();
        for (r, c, v) in self.iter() {
            let slot = next[c as usize] as usize;
            row_idx[slot] = r;
            values[slot] = v;
            next[c as usize] += 1;
        }
        CscMatrix::from_parts_unchecked(self.n_rows, self.n_cols, col_ptr, row_idx, values)
    }

    /// Converts back to COO triplets.
    pub fn to_coo(&self) -> CooMatrix {
        CooMatrix::from_triplets(self.n_rows, self.n_cols, self.iter())
            .expect("CSR invariants guarantee in-bounds triplets")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 8x8 lower-triangular example of Figure 1 in the paper.
    pub(crate) fn paper_example() -> CsrMatrix {
        // Rows: 0:{0} 1:{1} 2:{1,2} 3:{1,3} 4:{0,1,4} 5:{2,5} 6:{3,4,6} 7:{4,5,7}
        let triplets = [
            (0u32, 0u32, 1.0),
            (1, 1, 1.0),
            (2, 1, 2.0),
            (2, 2, 1.0),
            (3, 1, 3.0),
            (3, 3, 1.0),
            (4, 0, 4.0),
            (4, 1, 5.0),
            (4, 4, 1.0),
            (5, 2, 6.0),
            (5, 5, 1.0),
            (6, 3, 7.0),
            (6, 4, 8.0),
            (6, 6, 1.0),
            (7, 4, 9.0),
            (7, 5, 10.0),
            (7, 7, 1.0),
        ];
        let coo = CooMatrix::from_triplets(8, 8, triplets).unwrap();
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn from_coo_builds_expected_arrays() {
        let m = paper_example();
        assert_eq!(m.n_rows(), 8);
        assert_eq!(m.nnz(), 17);
        assert_eq!(m.row_ptr(), &[0, 1, 2, 4, 6, 9, 11, 14, 17]);
        assert_eq!(m.row(4).0, &[0, 1, 4]);
        assert!(m.is_lower_triangular());
        assert!(m.has_trailing_diagonal());
    }

    #[test]
    fn new_validates_structure() {
        // unsorted columns
        let r = CsrMatrix::new(2, 2, vec![0, 2, 2], vec![1, 0], vec![1.0, 1.0]);
        assert!(r.is_err());
        // bad row_ptr tail
        let r = CsrMatrix::new(2, 2, vec![0, 1, 3], vec![0, 1], vec![1.0, 1.0]);
        assert!(r.is_err());
        // out-of-range column
        let r = CsrMatrix::new(1, 1, vec![0, 1], vec![3], vec![1.0]);
        assert!(r.is_err());
        // valid
        let r = CsrMatrix::new(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 1.0]);
        assert!(r.is_ok());
    }

    #[test]
    fn csc_round_trip_preserves_entries() {
        let m = paper_example();
        let csc = m.to_csc();
        let back = csc.to_csr();
        assert_eq!(m, back);
    }

    #[test]
    fn get_finds_stored_entries() {
        let m = paper_example();
        assert_eq!(m.get(4, 1), Some(5.0));
        assert_eq!(m.get(4, 2), None);
        assert_eq!(m.get(7, 7), Some(1.0));
    }

    #[test]
    fn iter_is_row_major_sorted() {
        let m = paper_example();
        let trips: Vec<_> = m.iter().collect();
        let mut sorted = trips.clone();
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        assert_eq!(trips, sorted);
    }
}
