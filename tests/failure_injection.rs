//! Failure-injection tests: every engine must *reject* — not silently
//! corrupt — inputs that violate its contract: pattern swaps with equal
//! nnz, indefinite values, NaN poisoning, malformed storage.

use sympiler::prelude::*;
use sympiler::solvers::cholesky::CholeskyError;
use sympiler::solvers::{SimplicialCholesky, SupernodalCholesky};
use sympiler::sparse::gen;

/// Two SPD matrices with the same n and nnz but different patterns.
fn same_size_different_pattern() -> (CscMatrix, CscMatrix) {
    // Tridiagonal vs "skip-diagonal" (entries at distance 2).
    let n = 12;
    let mut t1 = TripletMatrix::new(n, n);
    let mut t2 = TripletMatrix::new(n, n);
    for j in 0..n {
        t1.push(j, j, 4.0);
        t2.push(j, j, 4.0);
        if j + 1 < n {
            t1.push(j + 1, j, -1.0);
        }
        if j + 2 < n {
            t2.push(j + 2, j, -1.0);
        }
    }
    // Give t1 one extra entry and t2 one extra entry so nnz matches:
    // t1 has n + (n-1), t2 has n + (n-2); add one more to t2.
    t2.push(n - 1, 0, -0.5);
    let a = t1.to_csc().unwrap();
    let b = t2.to_csc().unwrap();
    assert_eq!(a.nnz(), b.nnz(), "test setup: equal nnz");
    (a, b)
}

#[test]
fn pattern_swap_with_equal_nnz_is_rejected_everywhere() {
    let (a, b) = same_size_different_pattern();
    // Sympiler plan.
    let plan = SympilerCholesky::compile(&a, &SympilerOptions::default()).unwrap();
    assert!(plan.factor(&b).is_err(), "CholPlan must reject");
    // Baselines.
    let simp = SimplicialCholesky::analyze(&a).unwrap();
    assert_eq!(simp.factor(&b), Err(CholeskyError::PatternMismatch));
    let sup = SupernodalCholesky::analyze(&a, 0).unwrap();
    assert!(matches!(
        sup.factor(&b),
        Err(CholeskyError::PatternMismatch)
    ));
}

#[test]
fn nan_values_are_rejected_not_propagated() {
    let mut a = gen::random_spd(20, 3, 1);
    let chol = SympilerCholesky::compile(&a, &SympilerOptions::default()).unwrap();
    // Poison a diagonal entry with NaN.
    if let Some(p) = a.find(5, 5) {
        a.values_mut()[p] = f64::NAN;
    }
    match chol.factor(&a) {
        Err(_) => {}
        Ok(f) => {
            // If the NaN lands after the affected column, the factor
            // may complete — but it must not silently produce a clean
            // factor: reconstruct and check for NaN.
            assert!(
                f.to_csc().values().iter().any(|v| v.is_nan()),
                "NaN must surface as an error or in the factor, not vanish"
            );
        }
    }
}

#[test]
fn indefinite_matrices_rejected_by_all_engines() {
    // Indefinite at the last pivot.
    let mut t = TripletMatrix::new(6, 6);
    for j in 0..6 {
        t.push(j, j, if j == 5 { 0.1 } else { 10.0 });
    }
    for j in 0..5 {
        t.push(5, j, 2.0);
    }
    let a = t.to_csc().unwrap();
    assert!(SimplicialCholesky::analyze(&a).unwrap().factor(&a).is_err());
    assert!(SupernodalCholesky::analyze(&a, 0)
        .unwrap()
        .factor(&a)
        .is_err());
    assert!(SympilerCholesky::compile(&a, &SympilerOptions::default())
        .unwrap()
        .factor(&a)
        .is_err());
}

#[test]
fn malformed_csc_cannot_be_constructed() {
    // Unsorted rows.
    assert!(CscMatrix::try_new(3, 1, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).is_err());
    // Duplicate rows.
    assert!(CscMatrix::try_new(3, 1, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).is_err());
    // Pointer beyond nnz.
    assert!(CscMatrix::try_new(3, 1, vec![0, 5], vec![0], vec![1.0]).is_err());
}

#[test]
fn trisolve_plan_requires_lower_triangular_with_diagonal() {
    // Missing diagonal in one column must be caught at plan build.
    let mut t = TripletMatrix::new(3, 3);
    t.push(0, 0, 1.0);
    t.push(2, 1, 1.0); // column 1 has no diagonal
    t.push(2, 2, 1.0);
    let l = t.to_csc().unwrap();
    let result = std::panic::catch_unwind(|| {
        SympilerTriSolve::compile(&l, &[0], &SympilerOptions::default())
    });
    assert!(result.is_err(), "missing diagonal must be rejected");
}

#[test]
fn mm_io_rejects_truncated_and_oversized_files() {
    use sympiler::sparse::io::read_matrix_market;
    // Declared 3 entries, provides 1.
    let trunc = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n";
    assert!(read_matrix_market(trunc.as_bytes()).is_err());
    // Declared 1 entry, provides 2.
    let extra = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n2 2 1.0\n";
    assert!(read_matrix_market(extra.as_bytes()).is_err());
    // Non-numeric value.
    let junk = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n";
    assert!(read_matrix_market(junk.as_bytes()).is_err());
}
