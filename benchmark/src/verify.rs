//! Answer checking that shares no code with the program: the
//! benchmark's own CSC mat-vec for the residual, and the coupled
//! baselines of `solvers` for a set-up cross-check.

use crate::adapter::{
    CscMatrix, GpLu, Pivoting, SimplicialCholesky, SympilerCholesky, SympilerLu, SympilerOptions,
};

/// A request must reach this scaled residual.
pub const RESIDUAL_TOL: f64 = 1e-10;
/// The first answer per pattern must agree with the coupled baseline
/// to this relative difference.
pub const CROSS_CHECK_TOL: f64 = 1e-8;

/// One solve request's inputs: `A` (full storage, or the lower
/// triangle of a symmetric matrix) and `b`.
pub struct Case {
    pub a: CscMatrix,
    pub b: Vec<f64>,
    pub sym_lower: bool,
}

/// `‖Ax − b‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞)`.
pub fn residual(case: &Case, x: &[f64]) -> f64 {
    let a = &case.a;
    let n = a.n_rows();
    if x.len() != a.n_cols() || case.b.len() != n {
        return f64::INFINITY;
    }
    // `f64::max` drops NaN, so a non-finite answer is caught here.
    if x.iter().any(|v| !v.is_finite()) {
        return f64::INFINITY;
    }
    let mut ax = vec![0.0; n];
    let mut row_sum = vec![0.0; n];
    for j in 0..a.n_cols() {
        for (i, v) in a.col_iter(j) {
            ax[i] += v * x[j];
            row_sum[i] += v.abs();
            if case.sym_lower && i != j {
                ax[j] += v * x[i];
                row_sum[j] += v.abs();
            }
        }
    }
    let r = inf_norm(ax.iter().zip(&case.b).map(|(p, q)| p - q));
    let scale = inf_norm(row_sum.into_iter()) * inf_norm(x.iter().copied())
        + inf_norm(case.b.iter().copied());
    if scale == 0.0 {
        return f64::INFINITY;
    }
    r / scale
}

fn inf_norm(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, |m, v| m.max(v.abs()))
}

fn rel_diff(x: &[f64], reference: &[f64]) -> f64 {
    let den = inf_norm(reference.iter().copied());
    if x.iter().chain(reference).any(|v| !v.is_finite()) || den == 0.0 {
        return f64::INFINITY;
    }
    inf_norm(x.iter().zip(reference).map(|(p, q)| p - q)) / den
}

/// Solve `case` through the compiled LU path and through coupled
/// Gilbert–Peierls with partial pivoting; the relative difference.
pub fn cross_check_lu(case: &Case, opts: &SympilerOptions) -> Result<f64, String> {
    let x = SympilerLu::compile(&case.a, opts)
        .and_then(|lu| lu.factor(&case.a))
        .map_err(|e| format!("compiled LU: {e}"))?
        .solve(&case.b);
    let reference =
        GpLu::factor_prepivoted(&case.a, Pivoting::Partial, opts.pre_pivot, opts.ordering)
            .map_err(|e| format!("coupled LU: {e:?}"))?
            .solve(&case.b);
    Ok(rel_diff(&x, &reference))
}

/// Same for the Cholesky path against the simplicial baseline.
pub fn cross_check_chol(case: &Case) -> Result<f64, String> {
    let x = SympilerCholesky::compile(&case.a, &SympilerOptions::default())
        .and_then(|c| c.factor(&case.a))
        .map_err(|e| format!("compiled Cholesky: {e}"))?
        .solve(&case.b);
    let reference = SimplicialCholesky::analyze(&case.a)
        .and_then(|s| s.solve(&case.a, &case.b))
        .map_err(|e| format!("simplicial Cholesky: {e:?}"))?;
    Ok(rel_diff(&x, &reference))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{circuit_unsym, lu_options, nd_laplacian, Ordering, PrePivot};

    #[test]
    fn residual_is_zero_for_the_exact_answer_and_large_for_a_wrong_one() {
        let a = circuit_unsym(50, 3, 1, 3);
        let x: Vec<f64> = (0..50).map(|i| 1.0 + i as f64 / 50.0).collect();
        let mut b = vec![0.0; 50];
        for j in 0..50 {
            for (i, v) in a.col_iter(j) {
                b[i] += v * x[j];
            }
        }
        let case = Case {
            a,
            b,
            sym_lower: false,
        };
        assert!(residual(&case, &x) < 1e-15);
        let mut wrong = x.clone();
        wrong[7] += 1e-3;
        assert!(residual(&case, &wrong) > RESIDUAL_TOL);
        wrong[7] = f64::NAN;
        assert_eq!(residual(&case, &wrong), f64::INFINITY);
        assert_eq!(residual(&case, &x[..49]), f64::INFINITY);
    }

    #[test]
    fn lower_storage_is_applied_as_the_full_symmetric_matrix() {
        let lower = nd_laplacian(3, 1);
        let full = crate::adapter::full_storage(&lower);
        let x: Vec<f64> = (0..27).map(|i| (i as f64).sin()).collect();
        let b = vec![0.5; 27];
        let r_lower = residual(
            &Case {
                a: lower,
                b: b.clone(),
                sym_lower: true,
            },
            &x,
        );
        let r_full = residual(
            &Case {
                a: full,
                b,
                sym_lower: false,
            },
            &x,
        );
        assert!((r_lower - r_full).abs() < 1e-15 && r_full > 0.0);
    }

    #[test]
    fn compiled_paths_agree_with_the_coupled_baselines() {
        let a = circuit_unsym(120, 3, 1, 5);
        let case = Case {
            b: vec![1.0; 120],
            a,
            sym_lower: false,
        };
        let opts = lu_options(Ordering::Colamd, PrePivot::Off, 1);
        assert!(cross_check_lu(&case, &opts).unwrap() < CROSS_CHECK_TOL);
        let case = Case {
            a: nd_laplacian(4, 2),
            b: vec![1.0; 64],
            sym_lower: true,
        };
        assert!(cross_check_chol(&case).unwrap() < CROSS_CHECK_TOL);
    }
}
