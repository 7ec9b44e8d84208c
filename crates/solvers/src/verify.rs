//! Verification helpers shared by tests, examples, and benchmarks.

use sympiler_sparse::ops::max_or_inf;
use sympiler_sparse::{ops, CscMatrix};

/// Max-norm error of `L L^T - A` over the lower triangle, scaled by the
/// 1-norm of `A`, `+∞` when any entry of the difference is NaN.
/// `a_lower` is the SPD input in lower storage, `l` the computed factor.
pub fn reconstruction_error(a_lower: &CscMatrix, l: &CscMatrix) -> f64 {
    assert_eq!(a_lower.n_cols(), l.n_cols(), "dimension mismatch");
    let n = a_lower.n_cols();
    // Compute L L^T restricted to L's (filled) lower pattern via
    // column-by-column sparse accumulation.
    let mut acc = vec![0.0f64; n];
    let mut max_err = 0.0f64;
    let a_norm = ops::norm_1(a_lower).max(1.0);
    for j in 0..n {
        // acc = sum_k L[j,k] * L[:,k] for k <= j — computed by scanning
        // all columns k with L[j,k] != 0. For testing simplicity use the
        // transpose to find row j of L.
        // (Quadratic-ish but only used on test-sized matrices.)
        for k in 0..=j {
            let ljk = l.get(j, k);
            if ljk == 0.0 {
                continue;
            }
            for (i, v) in l.col_iter(k) {
                if i >= j {
                    acc[i] += v * ljk;
                }
            }
        }
        // Compare against A's column j (lower part).
        for (i, v) in a_lower.col_iter(j) {
            let err = (acc[i] - v).abs();
            max_err = max_or_inf(max_err, err);
            acc[i] = 0.0;
        }
        // Fill-in positions must reconstruct to ~zero.
        for (i, _) in l.col_iter(j) {
            if acc[i] != 0.0 {
                max_err = max_or_inf(max_err, acc[i].abs());
                acc[i] = 0.0;
            }
        }
    }
    max_err / a_norm
}

/// `||A x - b||_inf`-style scaled residual for a symmetric system stored
/// lower. Thin wrapper re-exported for benchmark code.
pub fn solve_residual(a_lower: &CscMatrix, x: &[f64], b: &[f64]) -> f64 {
    ops::rel_residual_sym_lower(a_lower, x, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::simplicial::SimplicialCholesky;
    use sympiler_sparse::gen;

    #[test]
    fn exact_factor_has_tiny_error() {
        let a = gen::random_spd(25, 3, 1);
        let l = SimplicialCholesky::analyze(&a).unwrap().factor(&a).unwrap();
        assert!(reconstruction_error(&a, &l) < 1e-12);
    }

    #[test]
    fn perturbed_factor_is_detected() {
        let a = gen::random_spd(25, 3, 2);
        let mut l = SimplicialCholesky::analyze(&a).unwrap().factor(&a).unwrap();
        let nnz = l.nnz();
        l.values_mut()[nnz / 2] += 0.5;
        assert!(reconstruction_error(&a, &l) > 1e-6);
    }

    #[test]
    fn one_nan_in_l_is_an_infinite_error() {
        let a = gen::random_spd(25, 3, 2);
        let mut l = SimplicialCholesky::analyze(&a).unwrap().factor(&a).unwrap();
        let nnz = l.nnz();
        l.values_mut()[nnz / 2] = f64::NAN;
        assert_eq!(reconstruction_error(&a, &l), f64::INFINITY);
    }

    #[test]
    fn identity_reconstructs_identity() {
        let a = CscMatrix::identity(6);
        assert!(reconstruction_error(&a, &a) < 1e-15);
    }
}
