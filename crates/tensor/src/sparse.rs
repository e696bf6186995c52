//! Sparse binary matrices in CSR form.
//!
//! Used for the flow-incidence matrix `I ∈ {0,1}^{|E| × |F|}` of Eq. 7: one
//! per GNN layer, with `I[e, f] = 1` iff layer edge `e` carries message flow
//! `f` at that layer.

/// An immutable sparse binary matrix stored as CSR (row pointer + column
/// indices). Entries are implicitly `1.0`.
#[derive(Debug, Clone)]
pub struct BinCsr {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
}

impl BinCsr {
    /// Builds a matrix from per-row column lists.
    ///
    /// # Panics
    ///
    /// Panics if `row_cols.len() != rows` or any column index is `>= cols`.
    pub fn from_rows(rows: usize, cols: usize, row_cols: &[Vec<u32>]) -> Self {
        assert_eq!(
            row_cols.len(),
            rows,
            "BinCsr::from_rows: row count mismatch"
        );
        let nnz: usize = row_cols.iter().map(Vec::len).sum();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        row_ptr.push(0);
        for r in row_cols {
            for &c in r {
                assert!(
                    (c as usize) < cols,
                    "BinCsr::from_rows: column {c} out of bounds for {cols} cols"
                );
                col_idx.push(c);
            }
            row_ptr.push(col_idx.len());
        }
        BinCsr {
            rows,
            cols,
            row_ptr,
            col_idx,
        }
    }

    /// Builds a matrix from `(row, col)` pairs; pairs must be grouped but
    /// need not be sorted within a row.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn from_pairs(rows: usize, cols: usize, pairs: &[(u32, u32)]) -> Self {
        let mut counts = vec![0usize; rows];
        for &(r, c) in pairs {
            assert!(
                (r as usize) < rows && (c as usize) < cols,
                "index out of bounds"
            );
            counts[r as usize] += 1;
        }
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut running = 0usize;
        row_ptr.push(running);
        for &c in &counts {
            running += c;
            row_ptr.push(running);
        }
        let mut cursor = row_ptr.clone();
        let mut col_idx = vec![0u32; pairs.len()];
        for &(r, c) in pairs {
            col_idx[cursor[r as usize]] = c;
            cursor[r as usize] += 1;
        }
        BinCsr {
            rows,
            cols,
            row_ptr,
            col_idx,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The column indices of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[u32] {
        &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// The matrix of the given rows, in the given order; columns keep
    /// their indices.
    ///
    /// # Panics
    ///
    /// Panics if any row index is `>= rows`.
    pub fn select_rows(&self, rows: &[usize]) -> BinCsr {
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        let mut col_idx = Vec::new();
        row_ptr.push(0);
        for &r in rows {
            col_idx.extend_from_slice(self.row(r));
            row_ptr.push(col_idx.len());
        }
        BinCsr {
            rows: rows.len(),
            cols: self.cols,
            row_ptr,
            col_idx,
        }
    }

    /// Iterates over `(row, col)` pairs of stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        (0..self.rows).flat_map(move |r| self.row(r).iter().map(move |&c| (r, c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_basic() {
        let m = BinCsr::from_rows(3, 4, &[vec![0, 3], vec![], vec![2]]);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.row(0), &[0, 3]);
        assert_eq!(m.row(1), &[] as &[u32]);
        assert_eq!(m.row(2), &[2]);
    }

    #[test]
    fn from_pairs_matches_from_rows() {
        let a = BinCsr::from_pairs(2, 3, &[(0, 1), (1, 0), (0, 2)]);
        assert_eq!(a.row(0), &[1, 2]);
        assert_eq!(a.row(1), &[0]);
        assert_eq!(a.iter().count(), 3);
    }

    #[test]
    fn select_rows_keeps_columns() {
        let m = BinCsr::from_rows(3, 4, &[vec![0, 3], vec![], vec![2]]);
        let s = m.select_rows(&[2, 0]);
        assert_eq!((s.rows(), s.cols(), s.nnz()), (2, 4, 3));
        assert_eq!(s.row(0), &[2]);
        assert_eq!(s.row(1), &[0, 3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_rows_rejects_bad_col() {
        let _ = BinCsr::from_rows(1, 2, &[vec![2]]);
    }
}
