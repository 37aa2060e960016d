//! Compressed sparse column (CSC) format. Liu et al.'s synchronization-free
//! SpTRSV \[20\] operates on CSC; the CSR→CSC transpose is its preprocessing
//! cost (paper §2.3 and Table 1).

use crate::csr::CsrMatrix;
use crate::error::SparseError;

/// A sparse matrix in CSC form with sorted, duplicate-free row indices
/// within each column.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    n_rows: usize,
    n_cols: usize,
    col_ptr: Vec<u32>,
    row_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Builds a CSC matrix from raw arrays, validating all invariants.
    pub fn new(
        n_rows: usize,
        n_cols: usize,
        col_ptr: Vec<u32>,
        row_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self, SparseError> {
        if col_ptr.len() != n_cols + 1 {
            return Err(SparseError::InvalidStructure(format!(
                "col_ptr has length {}, expected {}",
                col_ptr.len(),
                n_cols + 1
            )));
        }
        if row_idx.len() != values.len() {
            return Err(SparseError::InvalidStructure(
                "row_idx and values lengths differ".into(),
            ));
        }
        if col_ptr.first() != Some(&0) || *col_ptr.last().unwrap() as usize != row_idx.len() {
            return Err(SparseError::InvalidStructure(
                "col_ptr must start at 0 and end at nnz".into(),
            ));
        }
        for j in 0..n_cols {
            let (lo, hi) = (col_ptr[j] as usize, col_ptr[j + 1] as usize);
            if lo > hi {
                return Err(SparseError::InvalidStructure(format!(
                    "col_ptr decreases at column {j}"
                )));
            }
            let mut prev: Option<u32> = None;
            for &r in &row_idx[lo..hi] {
                if r as usize >= n_rows {
                    return Err(SparseError::InvalidStructure(format!(
                        "row {r} out of range in column {j}"
                    )));
                }
                if let Some(p) = prev {
                    if r <= p {
                        return Err(SparseError::InvalidStructure(format!(
                            "rows not strictly increasing in column {j}"
                        )));
                    }
                }
                prev = Some(r);
            }
        }
        Ok(CscMatrix {
            n_rows,
            n_cols,
            col_ptr,
            row_idx,
            values,
        })
    }

    /// Constructs without re-validating; used by trusted conversions whose
    /// outputs satisfy the invariants by construction.
    pub(crate) fn from_parts_unchecked(
        n_rows: usize,
        n_cols: usize,
        col_ptr: Vec<u32>,
        row_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert!(Self::new(
            n_rows,
            n_cols,
            col_ptr.clone(),
            row_idx.clone(),
            values.clone()
        )
        .is_ok());
        CscMatrix {
            n_rows,
            n_cols,
            col_ptr,
            row_idx,
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
        self.row_idx.len()
    }

    /// The `cscColPtr` array (length `n_cols + 1`).
    pub fn col_ptr(&self) -> &[u32] {
        &self.col_ptr
    }

    /// The `cscRowIdx` array (length `nnz`).
    pub fn row_idx(&self) -> &[u32] {
        &self.row_idx
    }

    /// The `cscVal` array (length `nnz`).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The row indices and values of column `j`.
    pub fn col(&self, j: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.col_ptr[j] as usize, self.col_ptr[j + 1] as usize);
        (&self.row_idx[lo..hi], &self.values[lo..hi])
    }

    /// Converts to CSR form.
    pub fn to_csr(&self) -> CsrMatrix {
        let nnz = self.nnz();
        let mut row_ptr = vec![0u32; self.n_rows + 1];
        for &r in &self.row_idx {
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..self.n_rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = vec![0u32; nnz];
        let mut values = vec![0.0f64; nnz];
        let mut next = row_ptr.clone();
        for j in 0..self.n_cols {
            let (rows, vals) = self.col(j);
            for (&r, &v) in rows.iter().zip(vals) {
                let slot = next[r as usize] as usize;
                col_idx[slot] = j as u32;
                values[slot] = v;
                next[r as usize] += 1;
            }
        }
        CsrMatrix::new(self.n_rows, self.n_cols, row_ptr, col_idx, values)
            .expect("transpose of a valid CSC is a valid CSR")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    #[test]
    fn csr_to_csc_matches_by_column() {
        let coo = CooMatrix::from_triplets(
            3,
            3,
            [
                (0u32, 0u32, 1.0),
                (1, 0, 2.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0),
            ],
        )
        .unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        let csc = csr.to_csc();
        assert_eq!(csc.col_ptr(), &[0, 3, 4, 5]);
        assert_eq!(csc.col(0).0, &[0, 1, 2]);
        assert_eq!(csc.col(0).1, &[1.0, 2.0, 4.0]);
        assert_eq!(csc.col(2).0, &[2]);
    }

    #[test]
    fn new_rejects_unsorted_rows() {
        let r = CscMatrix::new(2, 2, vec![0, 2, 2], vec![1, 0], vec![1.0, 1.0]);
        assert!(r.is_err());
    }

    #[test]
    fn empty_matrix_round_trips() {
        let csc = CscMatrix::new(4, 4, vec![0; 5], vec![], vec![]).unwrap();
        let csr = csc.to_csr();
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.n_rows(), 4);
    }
}
