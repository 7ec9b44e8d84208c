//! Benchmark workload preparation: the Table-2 suite, RCM-ordered, with
//! factors and sparse right-hand sides matching the paper's setup.

use sympiler_core::{SympilerCholesky, SympilerOptions};
use sympiler_graph::rcm::rcm_permute;
use sympiler_sparse::suite::{suite, unsym_suite, SuiteProblem, SuiteScale, UnsymProblem};
use sympiler_sparse::{rhs, CscMatrix, SparseVec};

/// A fully prepared benchmark problem.
pub struct BenchProblem {
    pub id: usize,
    pub name: &'static str,
    pub family: &'static str,
    /// RCM-permuted SPD matrix (lower storage).
    pub a: CscMatrix,
    /// Cholesky factor of `a` (for the triangular-solve experiments;
    /// §4.2: the triangular solver "is often used as a sub-kernel ...
    /// or as a solver after matrix factorizations").
    pub l: CscMatrix,
    /// Sparse RHS with <5% fill whose pattern matches a column of `L`
    /// (§4.2: "typically the sparsity of the RHS in sparse triangular
    /// systems is close to the sparsity of the columns of a sparse
    /// matrix").
    pub b: SparseVec,
}

impl BenchProblem {
    fn from_suite(p: SuiteProblem) -> Self {
        // Grid/block problems come nested-dissection/block ordered from
        // the suite; only unordered (circuit) problems get RCM here.
        let a = if p.preordered {
            p.matrix.clone()
        } else {
            rcm_permute(&p.matrix).0
        };
        // Factor once with the reference-quality Sympiler plan to get L.
        let chol = SympilerCholesky::compile(&a, &SympilerOptions::default())
            .expect("suite matrices are SPD");
        let l = chol.factor(&a).expect("suite matrices factor").to_csc();
        // RHS from an early column's pattern, kept under 5% fill.
        let n = l.n_cols();
        let mut col = 0usize;
        let mut best = 0usize;
        for j in 0..n {
            let nnz = l.col_nnz(j);
            if nnz > best && (nnz as f64) < 0.05 * n as f64 {
                best = nnz;
                col = j;
            }
        }
        let b = rhs::rhs_from_column_pattern(&l, col, 1000 + p.id as u64);
        Self {
            id: p.id,
            name: p.name,
            family: p.family,
            a,
            l,
            b,
        }
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.a.n_cols()
    }
}

/// Prepare the whole suite at the given scale.
pub fn prepare_suite(scale: SuiteScale) -> Vec<BenchProblem> {
    suite(scale)
        .into_iter()
        .map(BenchProblem::from_suite)
        .collect()
}

/// Prepare a subset of the suite by paper IDs (1-based), for quick runs.
pub fn prepare_subset(scale: SuiteScale, ids: &[usize]) -> Vec<BenchProblem> {
    suite(scale)
        .into_iter()
        .filter(|p| ids.contains(&p.id))
        .map(BenchProblem::from_suite)
        .collect()
}

/// A prepared unsymmetric LU benchmark problem.
pub struct LuBenchProblem {
    pub id: usize,
    pub name: &'static str,
    pub family: &'static str,
    /// True when the matrix has structurally zero diagonals and only
    /// factors under a static pre-pivot (`PrePivot` ≠ `Off`).
    pub zero_diag: bool,
    /// Square unsymmetric matrix, full storage, statically pivotable
    /// (after the pre-pivot when `zero_diag`).
    pub a: CscMatrix,
    /// Dense RHS for the end-to-end solve checks.
    pub b: Vec<f64>,
}

impl LuBenchProblem {
    fn from_suite(p: UnsymProblem) -> Self {
        let n = p.n();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        Self {
            id: p.id,
            name: p.name,
            family: p.family,
            zero_diag: p.zero_diag,
            a: p.matrix,
            b,
        }
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.a.n_cols()
    }
}

/// The two matrices a default LU compile of `p` inspects: the
/// pre-pivoted `P·A` COLAMD orders (weighted matching on the
/// zero-diagonal problems, `A` itself otherwise) and the `Qᵀ·P·A·Q`
/// the symbolic factorization runs on.
pub fn ordered_lu_pattern(p: &LuBenchProblem) -> (CscMatrix, CscMatrix) {
    use sympiler_graph::transversal::{compute_pre_pivot, PrePivot};
    use sympiler_sparse::ops;
    let pre_pivot = if p.zero_diag {
        PrePivot::WeightedMatching
    } else {
        PrePivot::Off
    };
    let pivoted = match compute_pre_pivot(&p.a, pre_pivot).expect("suite problems match") {
        Some(rowp) => ops::permute_rows(&p.a, &rowp).expect("matching is a permutation"),
        None => p.a.clone(),
    };
    let q = sympiler_graph::colamd::colamd_ordering(&pivoted);
    let ordered = ops::permute_rows_cols(&pivoted, &q).expect("ordering is a permutation");
    (pivoted, ordered)
}

/// Prepare the unsymmetric LU suite at the given scale.
pub fn prepare_lu_suite(scale: SuiteScale) -> Vec<LuBenchProblem> {
    unsym_suite(scale)
        .into_iter()
        .map(LuBenchProblem::from_suite)
        .collect()
}

/// Prepare a subset of the LU suite by ID, for quick runs.
pub fn prepare_lu_subset(scale: SuiteScale, ids: &[usize]) -> Vec<LuBenchProblem> {
    unsym_suite(scale)
        .into_iter()
        .filter(|p| ids.contains(&p.id))
        .map(LuBenchProblem::from_suite)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lu_suite_prepares() {
        let problems = prepare_lu_subset(SuiteScale::Test, &[1, 3]);
        assert_eq!(problems.len(), 2);
        for p in &problems {
            assert!(p.a.is_square());
            assert_eq!(p.b.len(), p.n());
        }
    }

    #[test]
    fn test_scale_suite_prepares() {
        let problems = prepare_subset(SuiteScale::Test, &[1, 3]);
        assert_eq!(problems.len(), 2);
        for p in &problems {
            assert!(p.l.is_lower_triangular_with_diag());
            assert!(p.b.fill_ratio() < 0.05, "{}: rhs fill too high", p.name);
            assert!(p.b.nnz() >= 1);
        }
    }

    #[test]
    fn rhs_pattern_is_column_like() {
        let problems = prepare_subset(SuiteScale::Test, &[5]);
        let p = &problems[0];
        // b's indices must be a column pattern of L: consecutive solves
        // reach a non-trivial but small set.
        let reach = sympiler_graph::reach(&p.l, p.b.indices());
        assert!(reach.len() >= p.b.nnz());
        assert!(reach.len() <= p.n());
    }
}
