//! Coordinate-format (triplet) builder.
//!
//! The usual entry point for assembling a sparse matrix: push `(i, j, v)`
//! entries in any order (duplicates summed, as in FEM assembly), then
//! convert to CSC with [`TripletMatrix::to_csc`].

use crate::csc::CscMatrix;
use crate::error::SparseError;
use crate::Result;

/// An unassembled sparse matrix in coordinate form.
#[derive(Debug, Clone, Default)]
pub struct TripletMatrix {
    n_rows: usize,
    n_cols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl TripletMatrix {
    /// An empty triplet matrix of the given shape.
    pub fn new(n_rows: usize, n_cols: usize) -> Self {
        Self {
            n_rows,
            n_cols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Pre-allocate space for `cap` entries.
    pub fn with_capacity(n_rows: usize, n_cols: usize, cap: usize) -> Self {
        Self {
            n_rows,
            n_cols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
        }
    }

    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of pushed entries (before duplicate summation).
    #[inline]
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Add an entry; duplicates are summed during [`Self::to_csc`].
    ///
    /// # Panics
    /// If the index is out of bounds.
    #[inline]
    pub fn push(&mut self, i: usize, j: usize, v: f64) {
        assert!(
            i < self.n_rows && j < self.n_cols,
            "triplet index ({i},{j}) out of bounds for {}x{}",
            self.n_rows,
            self.n_cols
        );
        self.rows.push(i);
        self.cols.push(j);
        self.vals.push(v);
    }

    /// Add `v` at `(i, j)` and `(j, i)`; the diagonal is added once.
    pub fn push_sym(&mut self, i: usize, j: usize, v: f64) {
        self.push(i, j, v);
        if i != j {
            self.push(j, i, v);
        }
    }

    /// Assemble into CSC: counting sort by column, then per-column sort by
    /// row with duplicate summation. Entries that sum to exactly zero are
    /// **kept** as explicit (structural) zeros, matching the convention of
    /// symbolic analysis where structure is independent of values.
    pub fn to_csc(&self) -> Result<CscMatrix> {
        let n_cols = self.n_cols;
        // Count entries per column.
        let mut count = vec![0usize; n_cols];
        for &j in &self.cols {
            count[j] += 1;
        }
        let mut col_ptr = vec![0usize; n_cols + 1];
        for j in 0..n_cols {
            col_ptr[j + 1] = col_ptr[j] + count[j];
        }
        // Scatter into position.
        let mut next = col_ptr[..n_cols].to_vec();
        let mut row_idx = vec![0usize; self.len()];
        let mut values = vec![0.0f64; self.len()];
        for k in 0..self.len() {
            let j = self.cols[k];
            let p = next[j];
            row_idx[p] = self.rows[k];
            values[p] = self.vals[k];
            next[j] += 1;
        }
        // Sort each column by row and merge duplicates, compacting in
        // place: the matrix is built on the scatter arrays themselves,
        // not on a second copy allocated while they are live, so its
        // pattern — which every clone shares and keeps alive — does not
        // sit above the hole they leave. Column `j` is copied out of
        // `col_ptr[j]..col_ptr[j + 1]` before anything is written at or
        // past `col_ptr[j]`, and its end is read before the pointer is
        // overwritten with the compacted one.
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        let (mut start, mut w) = (0, 0);
        for j in 0..n_cols {
            let end = col_ptr[j + 1];
            scratch.clear();
            scratch.extend(
                row_idx[start..end]
                    .iter()
                    .copied()
                    .zip(values[start..end].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(r, _)| r);
            let mut k = 0;
            while k < scratch.len() {
                let (r, mut v) = scratch[k];
                let mut k2 = k + 1;
                while k2 < scratch.len() && scratch[k2].0 == r {
                    v += scratch[k2].1;
                    k2 += 1;
                }
                row_idx[w] = r;
                values[w] = v;
                w += 1;
                k = k2;
            }
            col_ptr[j + 1] = w;
            start = end;
        }
        row_idx.truncate(w);
        values.truncate(w);
        CscMatrix::try_new(self.n_rows, n_cols, col_ptr, row_idx, values)
    }

    /// Assemble, requiring the result to be square.
    pub fn to_square_csc(&self) -> Result<CscMatrix> {
        if self.n_rows != self.n_cols {
            return Err(SparseError::DimensionMismatch(format!(
                "expected square, got {}x{}",
                self.n_rows, self.n_cols
            )));
        }
        self.to_csc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assemble_sorted_and_deduped() {
        let mut t = TripletMatrix::new(3, 3);
        t.push(2, 0, 1.0);
        t.push(0, 0, 2.0);
        t.push(2, 0, 0.5); // duplicate, summed
        t.push(1, 2, 3.0);
        let m = t.to_csc().unwrap();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(2, 0), 1.5);
        assert_eq!(m.get(1, 2), 3.0);
        assert_eq!(m.col_rows(0), &[0, 2]);
    }

    #[test]
    fn empty_matrix() {
        let t = TripletMatrix::new(4, 4);
        let m = t.to_csc().unwrap();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.n_rows(), 4);
    }

    #[test]
    fn push_sym_adds_mirror() {
        let mut t = TripletMatrix::new(3, 3);
        t.push_sym(0, 0, 4.0);
        t.push_sym(2, 0, -1.0);
        let m = t.to_csc().unwrap();
        assert_eq!(m.get(2, 0), -1.0);
        assert_eq!(m.get(0, 2), -1.0);
        assert_eq!(m.get(0, 0), 4.0);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn zero_sum_entries_stay_structural() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(1, 0, 1.0);
        t.push(1, 0, -1.0);
        let m = t.to_csc().unwrap();
        assert_eq!(m.nnz(), 1, "cancelled entry must stay structural");
        assert_eq!(m.get(1, 0), 0.0);
    }

    #[test]
    fn rectangular_assembly() {
        let mut t = TripletMatrix::new(2, 4);
        t.push(0, 3, 7.0);
        t.push(1, 0, 5.0);
        let m = t.to_csc().unwrap();
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.n_cols(), 4);
        assert_eq!(m.get(0, 3), 7.0);
        assert!(t.to_square_csc().is_err());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_out_of_bounds_panics() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(2, 0, 1.0);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut t = TripletMatrix::with_capacity(3, 3, 16);
        assert!(t.is_empty());
        t.push(0, 0, 1.0);
        assert_eq!(t.len(), 1);
    }
}
