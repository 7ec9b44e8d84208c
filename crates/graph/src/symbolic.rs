//! Full symbolic Cholesky factorization: the exact nonzero pattern of
//! `L` before any numeric work.
//!
//! The paper's Eq. (1) (§3.2, from George & Liu):
//!
//! ```text
//! L_j = A_j ∪ {j} ∪ ( ∪_{j = parent(s)} L_s \ {s} )
//! ```
//!
//! Knowing the pattern ahead of time lets Sympiler allocate `L` once and
//! eliminate all dynamic memory allocation from the numeric phase
//! (§3.2). Two independent implementations are provided — the production
//! one, an etree up-traversal, and a direct Eq. (1) evaluator — and
//! cross-checked in tests.
//!
//! Complexity: the production path ([`symbolic_cholesky_with_etree`])
//! is one [`mod@crate::ereach`] up-traversal. It walks every row subtree
//! twice (once to count, once to write the columns) and transposes the
//! columns into the row patterns: `O(nnz(A) + nnz(L))` time, every
//! output allocated at its exact size, and no comparison sort — rows
//! taken in increasing order write each column sorted, and scanning
//! the columns in order writes each row sorted. The etree itself is
//! Liu's algorithm, nearly `O(nnz(A))`.

use crate::ereach;
use crate::etree::{etree, NONE};
use sympiler_sparse::CscMatrix;

/// The symbolic factorization of an SPD matrix: everything the numeric
/// phase needs that depends only on the pattern.
#[derive(Debug, Clone)]
pub struct SymbolicFactor {
    /// Matrix order.
    pub n: usize,
    /// Elimination tree (`NONE` at roots).
    pub parent: Vec<usize>,
    /// Column pointers of the pattern of `L` (length `n + 1`).
    pub l_col_ptr: Vec<usize>,
    /// Row indices of `L`, sorted within each column; the first entry of
    /// every column is the diagonal.
    pub l_row_idx: Vec<usize>,
    /// Row-pattern table (prune-sets): CSR-like `(ptr, idx)` giving, for
    /// each row `k`, the columns `j < k` with `L[k,j] != 0`.
    pub row_ptr: Vec<usize>,
    pub row_idx: Vec<usize>,
}

impl SymbolicFactor {
    /// Total stored nonzeros of `L` (including diagonals).
    pub fn l_nnz(&self) -> usize {
        self.l_row_idx.len()
    }

    /// Column count of `L(:, j)` (including the diagonal) — the paper's
    /// "column count" used for thresholds and flop accounting.
    #[inline]
    pub fn col_count(&self, j: usize) -> usize {
        self.l_col_ptr[j + 1] - self.l_col_ptr[j]
    }

    /// Pattern of column `j` of `L`.
    #[inline]
    pub fn col_pattern(&self, j: usize) -> &[usize] {
        &self.l_row_idx[self.l_col_ptr[j]..self.l_col_ptr[j + 1]]
    }

    /// Prune-set (row pattern) of row `k`.
    #[inline]
    pub fn row_pattern(&self, k: usize) -> &[usize] {
        &self.row_idx[self.row_ptr[k]..self.row_ptr[k + 1]]
    }

    /// Exact flop count of the numeric factorization with this pattern:
    /// `sum_j (cc_j - 1)` divisions + `n` square roots +
    /// `sum_j cc_j * (cc_j - 1)` multiply-adds of the outer-product
    /// updates — the standard `sum_j cc_j^2` accounting (Davis 2006).
    pub fn factor_flops(&self) -> u64 {
        (0..self.n)
            .map(|j| {
                let cc = self.col_count(j) as u64;
                cc * cc
            })
            .sum()
    }

    /// Flop count of one triangular solve with the factor `L`
    /// (dense RHS): one division plus 2 multiply-adds per off-diagonal.
    pub fn solve_flops(&self) -> u64 {
        (0..self.n)
            .map(|j| 1 + 2 * (self.col_count(j) as u64 - 1))
            .sum()
    }
}

/// Compute the symbolic factorization of a symmetric matrix stored
/// lower-triangular. `O(|L|)` time and memory.
pub fn symbolic_cholesky(a_lower: &CscMatrix) -> SymbolicFactor {
    let parent = etree(a_lower);
    symbolic_cholesky_with_etree(a_lower, parent)
}

/// As [`symbolic_cholesky`], reusing a precomputed etree.
pub fn symbolic_cholesky_with_etree(a_lower: &CscMatrix, parent: Vec<usize>) -> SymbolicFactor {
    let n = a_lower.n_cols();
    let (col_ptr, row_idx) = ereach::strict_upper_pattern(a_lower);
    let upper = ereach::UpperPattern::of_csc(&col_ptr, &row_idx);
    let f = ereach::up_traversal(upper, Some(&parent), false);
    SymbolicFactor {
        n,
        parent,
        l_col_ptr: f.l_col_ptr,
        l_row_idx: f.l_row_idx,
        row_ptr: f.row_ptr,
        row_idx: f.row_idx,
    }
}

/// Direct Eq. (1) evaluation — an independent implementation used to
/// cross-validate [`symbolic_cholesky`] in tests (and exposed for
/// callers who want the recurrence itself).
pub fn symbolic_cholesky_eq1(a_lower: &CscMatrix) -> (Vec<usize>, Vec<usize>) {
    let n = a_lower.n_cols();
    let parent = etree(a_lower);
    // Children lists.
    let mut head = vec![NONE; n];
    let mut next = vec![NONE; n];
    for v in (0..n).rev() {
        if parent[v] != NONE {
            next[v] = head[parent[v]];
            head[parent[v]] = v;
        }
    }
    let mut col_ptr = vec![0usize; n + 1];
    let mut cols: Vec<Vec<usize>> = Vec::with_capacity(n);
    let mut mark = vec![usize::MAX; n];
    for j in 0..n {
        let mut pat = vec![j];
        mark[j] = j;
        // A_j (rows > j; the diagonal is already in).
        for &i in a_lower.col_rows(j) {
            if i != j && mark[i] != j {
                mark[i] = j;
                pat.push(i);
            }
        }
        // Union of children patterns minus the child itself.
        let mut s = head[j];
        while s != NONE {
            for &i in &cols[s] {
                if i != s && mark[i] != j {
                    mark[i] = j;
                    pat.push(i);
                }
            }
            s = next[s];
        }
        pat.sort_unstable();
        col_ptr[j + 1] = col_ptr[j] + pat.len();
        cols.push(pat);
    }
    let row_idx: Vec<usize> = cols.into_iter().flatten().collect();
    (col_ptr, row_idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympiler_sparse::gen;

    #[test]
    fn production_matches_eq1_on_random() {
        for seed in 0..10u64 {
            let a = gen::random_spd(40, 4, seed);
            let sym = symbolic_cholesky(&a);
            let (ptr, idx) = symbolic_cholesky_eq1(&a);
            assert_eq!(sym.l_col_ptr, ptr, "seed {seed}");
            assert_eq!(sym.l_row_idx, idx, "seed {seed}");
        }
    }

    #[test]
    fn production_matches_eq1_on_structured() {
        for a in [
            gen::grid2d_laplacian(7, 6, false, 1),
            gen::grid2d_laplacian(5, 5, true, 2),
            gen::banded_spd(40, 5, 3),
            gen::circuit_like(60, 4, 2, 4),
        ] {
            let sym = symbolic_cholesky(&a);
            let (ptr, idx) = symbolic_cholesky_eq1(&a);
            assert_eq!(sym.l_col_ptr, ptr);
            assert_eq!(sym.l_row_idx, idx);
        }
    }

    #[test]
    fn pattern_contains_a_and_diagonal_first() {
        let a = gen::random_spd(30, 4, 7);
        let sym = symbolic_cholesky(&a);
        for j in 0..30 {
            let pat = sym.col_pattern(j);
            assert_eq!(pat[0], j, "diagonal first in column {j}");
            assert!(pat.windows(2).all(|w| w[0] < w[1]), "sorted column {j}");
            for &i in a.col_rows(j) {
                assert!(pat.contains(&i), "A[{i},{j}] missing from L pattern");
            }
        }
    }

    #[test]
    fn fill_in_never_shrinks() {
        let a = gen::grid2d_laplacian(6, 6, false, 9);
        let sym = symbolic_cholesky(&a);
        assert!(sym.l_nnz() >= a.nnz(), "L must contain A's lower pattern");
    }

    #[test]
    fn tridiagonal_has_no_fill() {
        let a = gen::tridiagonal_spd(12);
        let sym = symbolic_cholesky(&a);
        assert_eq!(sym.l_nnz(), a.nnz(), "tridiagonal factors without fill");
    }

    #[test]
    fn arrow_matrix_dense_last_column_no_fill() {
        // Arrow pointing down-right: diagonal + dense last row. No fill.
        let mut t = sympiler_sparse::TripletMatrix::new(8, 8);
        for j in 0..8 {
            t.push(j, j, 10.0);
            if j < 7 {
                t.push(7, j, -1.0);
            }
        }
        let a = t.to_csc().unwrap();
        let sym = symbolic_cholesky(&a);
        assert_eq!(sym.l_nnz(), a.nnz());
    }

    #[test]
    fn arrow_matrix_first_column_fills_completely() {
        // Dense first column: elimination fills everything below.
        let mut t = sympiler_sparse::TripletMatrix::new(6, 6);
        for j in 0..6 {
            t.push(j, j, 10.0);
        }
        for i in 1..6 {
            t.push(i, 0, -1.0);
        }
        let a = t.to_csc().unwrap();
        let sym = symbolic_cholesky(&a);
        // L is completely dense lower triangular: n(n+1)/2.
        assert_eq!(sym.l_nnz(), 6 * 7 / 2);
    }

    #[test]
    fn row_and_col_patterns_are_transposes() {
        let a = gen::random_spd(25, 3, 11);
        let sym = symbolic_cholesky(&a);
        for k in 0..25 {
            for &j in sym.row_pattern(k) {
                assert!(
                    sym.col_pattern(j).contains(&k),
                    "row pattern ({k},{j}) missing from column pattern"
                );
            }
        }
        let total_off_diag: usize = (0..25).map(|k| sym.row_pattern(k).len()).sum();
        assert_eq!(total_off_diag + 25, sym.l_nnz());
    }

    #[test]
    fn flop_counts_are_sane() {
        let a = gen::tridiagonal_spd(10);
        let sym = symbolic_cholesky(&a);
        // Tridiagonal: cc = 2 for all but last column (cc = 1).
        assert_eq!(sym.factor_flops(), 9 * 4 + 1);
        assert_eq!(sym.solve_flops(), 9 * 3 + 1);
    }

    #[test]
    fn with_etree_matches_fresh() {
        let a = gen::random_spd(30, 4, 13);
        let parent = etree(&a);
        let s1 = symbolic_cholesky_with_etree(&a, parent);
        let s2 = symbolic_cholesky(&a);
        assert_eq!(s1.l_col_ptr, s2.l_col_ptr);
        assert_eq!(s1.l_row_idx, s2.l_row_idx);
    }
}
