//! What an LU plan reports besides factors: its errors, the record of
//! statically perturbed pivots, and the iterative-refinement loop with
//! its report.

#[cfg(doc)]
use super::{LuFactor, LuPlan};
use sympiler_sparse::CscMatrix;

/// LU plan error (kept separate from the solvers' [`LuError`] — the
/// plan's failure modes are pattern- and schedule-shaped, the
/// baseline's are not; [`crate::robust::RecoveryError`] wraps both
/// when the recovery ladder exhausts its rungs).
///
/// [`LuError`]: sympiler_solvers::lu::LuError
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LuPlanError {
    /// Bad input shape/storage.
    BadInput(String),
    /// The numeric input does not match the compiled pattern.
    PatternMismatch,
    /// Structurally or numerically zero diagonal pivot.
    ZeroPivot { column: usize },
    /// A pre-pivot was requested but the pattern admits no perfect
    /// row/column matching: **no** row permutation can give this
    /// matrix a zero-free diagonal, so statically pivoted LU is
    /// structurally impossible. Reported from *inspection* (compile
    /// time), never from the numeric phase.
    StructurallySingular {
        /// Matrix order.
        n: usize,
        /// Size of the maximum matching (`< n`).
        structural_rank: usize,
    },
}

impl std::fmt::Display for LuPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LuPlanError::BadInput(m) => write!(f, "bad input: {m}"),
            LuPlanError::PatternMismatch => write!(f, "pattern mismatch"),
            LuPlanError::ZeroPivot { column } => {
                write!(f, "zero pivot at column {column}")
            }
            LuPlanError::StructurallySingular { n, structural_rank } => write!(
                f,
                "structurally singular: maximum matching covers \
                 {structural_rank} of {n} columns"
            ),
        }
    }
}

impl std::error::Error for LuPlanError {}

/// A failure inside a batched factorization ([`LuPlan::factor_batch`]):
/// the error plus the index of the matrix (within the batch) that
/// produced it. The batch is all-or-nothing — on the first failure the
/// whole call returns this error and no factors are produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchError {
    /// Index into the batch slice of the failing matrix.
    pub index: usize,
    /// What went wrong for that matrix.
    pub error: LuPlanError,
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "batch matrix {}: {}", self.index, self.error)
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Record of the static pivot perturbations a factorization applied
/// (SuperLU_DIST's recovery idea under the static-pivoting contract):
/// every column whose pivot magnitude fell below `tol · max|A|` had the
/// pivot replaced by `±tol · max|A|` so factorization could continue.
/// Empty — and the factorization bitwise identical to an unperturbed
/// run — whenever no pivot crossed the threshold or perturbation is
/// off (`tol = 0`). A non-empty report means the factors solve a
/// *nearby* system; run [`LuFactor::solve_refined`] against the
/// original matrix to repair the answer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerturbReport {
    /// Columns (factor coordinates) whose pivot was replaced, in
    /// ascending order.
    pub columns: Vec<usize>,
    /// The replacement magnitude used for this factorization:
    /// `tol · max|A values|` (0 when perturbation is off).
    pub threshold: f64,
}

impl PerturbReport {
    /// True when no pivot was touched.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Number of perturbed columns.
    pub fn count(&self) -> usize {
        self.columns.len()
    }
}

/// Outcome of [`LuFactor::solve_refined`]'s iterative-refinement loop.
#[derive(Debug, Clone, PartialEq)]
pub struct RefineReport {
    /// Correction iterations performed (0 when the direct solve was
    /// already below tolerance).
    pub iterations: usize,
    /// Componentwise backward error of the direct solve.
    pub initial_berr: f64,
    /// Componentwise backward error of the returned solution.
    pub final_berr: f64,
    /// True when `final_berr <= tol`.
    pub converged: bool,
}

/// Run the residual/correction loop of iterative refinement around an
/// arbitrary solver: `x = solve(b)`, then repeatedly `x += solve(b -
/// A·x)` until the componentwise backward error
/// `max_i |r_i| / (|A||x| + |b|)_i` drops to `tol`, `max_iter`
/// corrections have run, or the error stagnates (not halved by an
/// iteration — the LAPACK `xGERFS` stopping rule). Returns the best
/// iterate seen. Shared by [`LuFactor::solve_refined`] and the
/// recovery driver's last-resort rung, which refines around the
/// partial-pivoting baseline.
pub fn refine_with<F: Fn(&[f64]) -> Vec<f64>>(
    a: &CscMatrix,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    solve: F,
) -> (Vec<f64>, RefineReport) {
    use sympiler_sparse::ops::componentwise_berr;
    let n = a.n_rows();
    assert_eq!(b.len(), n, "rhs length mismatch");
    let mut x = solve(b);
    let initial_berr = componentwise_berr(a, &x, b);
    let mut best = x.clone();
    let mut best_berr = initial_berr;
    let mut berr = initial_berr;
    let mut iterations = 0;
    let mut r = vec![0.0f64; n];
    while berr > tol && iterations < max_iter && berr.is_finite() {
        sympiler_sparse::ops::spmv(a, &x, &mut r);
        for (ri, bi) in r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
        let d = solve(&r);
        for (xi, di) in x.iter_mut().zip(&d) {
            *xi += di;
        }
        iterations += 1;
        let new_berr = componentwise_berr(a, &x, b);
        if new_berr < best_berr {
            best_berr = new_berr;
            best.copy_from_slice(&x);
        }
        let stagnated = new_berr > 0.5 * berr;
        berr = new_berr;
        if stagnated {
            break;
        }
    }
    let report = RefineReport {
        iterations,
        initial_berr,
        final_berr: best_berr,
        converged: best_berr <= tol,
    };
    (best, report)
}
