//! Column counts of the Cholesky factor `L`.
//!
//! `ColCount(A)` is one of the two inputs to the Cholesky VS-Block
//! inspector (Table 1: inspection graph = etree + ColCount(A)). The
//! counts drive supernode detection and the paper's BLAS-switch
//! threshold ("the average column-count is used to decide when to
//! switch to BLAS routines", §4.2).

use crate::etree::etree;
use crate::symbolic::SymbolicFactor;
use sympiler_sparse::CscMatrix;

/// Column counts of `L` (including the diagonal), computed without
/// materializing the full pattern: the walk of the etree up-traversal
/// ([`mod@crate::ereach`]), counting only. `O(|L|)` time, `O(n)` extra
/// memory.
pub fn col_counts(a_lower: &CscMatrix) -> Vec<usize> {
    let parent = etree(a_lower);
    col_counts_with_etree(a_lower, &parent)
}

/// As [`col_counts`], reusing a precomputed etree.
pub fn col_counts_with_etree(a_lower: &CscMatrix, parent: &[usize]) -> Vec<usize> {
    use crate::ereach::{strict_upper_pattern, up_traversal_counts, UpperPattern};
    let (col_ptr, row_idx) = strict_upper_pattern(a_lower);
    up_traversal_counts(UpperPattern::of_csc(&col_ptr, &row_idx), parent)
}

/// Column counts read off a completed symbolic factorization.
pub fn col_counts_from_symbolic(sym: &SymbolicFactor) -> Vec<usize> {
    (0..sym.n).map(|j| sym.col_count(j)).collect()
}

/// Average column count — the paper's supernodal / BLAS heuristic input.
pub fn average_col_count(counts: &[usize]) -> f64 {
    if counts.is_empty() {
        return 0.0;
    }
    counts.iter().sum::<usize>() as f64 / counts.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::symbolic_cholesky;
    use sympiler_sparse::gen;

    #[test]
    fn counts_match_symbolic_pattern() {
        for seed in 0..8u64 {
            let a = gen::random_spd(45, 4, seed);
            let counts = col_counts(&a);
            let sym = symbolic_cholesky(&a);
            assert_eq!(counts, col_counts_from_symbolic(&sym), "seed {seed}");
        }
    }

    #[test]
    fn counts_on_grid_match() {
        let a = gen::grid2d_laplacian(6, 5, true, 2);
        let counts = col_counts(&a);
        let sym = symbolic_cholesky(&a);
        assert_eq!(counts, col_counts_from_symbolic(&sym));
    }

    #[test]
    fn tridiagonal_counts() {
        let a = gen::tridiagonal_spd(7);
        let counts = col_counts(&a);
        assert_eq!(counts, vec![2, 2, 2, 2, 2, 2, 1]);
    }

    #[test]
    fn identity_counts_are_one() {
        let a = CscMatrix::identity(5);
        assert_eq!(col_counts(&a), vec![1; 5]);
    }

    #[test]
    fn average() {
        assert_eq!(average_col_count(&[2, 2, 2, 2, 2, 2, 1]), 13.0 / 7.0);
        assert_eq!(average_col_count(&[]), 0.0);
    }

    #[test]
    fn sum_of_counts_is_l_nnz() {
        let a = gen::circuit_like(50, 4, 2, 3);
        let counts = col_counts(&a);
        let sym = symbolic_cholesky(&a);
        assert_eq!(counts.iter().sum::<usize>(), sym.l_nnz());
    }
}
