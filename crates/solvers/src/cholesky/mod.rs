//! Sparse Cholesky baselines: simplicial (Eigen-like) and supernodal
//! (CHOLMOD-like).

pub mod simplicial;
pub mod supernodal;

use std::fmt;

/// Errors from numeric factorization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CholeskyError {
    /// A pivot was zero, negative, or not finite: the matrix is not
    /// positive definite (or is numerically broken).
    NotPositiveDefinite { column: usize },
    /// The matrix handed to `factor` does not match the analyzed
    /// pattern (Sympiler's static-sparsity contract, §1.2).
    PatternMismatch,
    /// Input is not square or not lower-triangular storage.
    BadInput(String),
}

impl fmt::Display for CholeskyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CholeskyError::NotPositiveDefinite { column } => {
                write!(f, "matrix not positive definite at column {column}")
            }
            CholeskyError::PatternMismatch => {
                write!(f, "matrix pattern differs from the analyzed pattern")
            }
            CholeskyError::BadInput(m) => write!(f, "bad input: {m}"),
        }
    }
}

impl std::error::Error for CholeskyError {}

/// Pattern fingerprint taken at analysis time and verified on every
/// numeric call — enforcing the static-sparsity contract instead of
/// assuming it.
#[derive(Debug, Clone)]
pub(crate) struct PatternGuard {
    n: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
}

impl PatternGuard {
    pub(crate) fn new(a: &sympiler_sparse::CscMatrix) -> Self {
        Self {
            n: a.n_cols(),
            col_ptr: a.col_ptr().to_vec(),
            row_idx: a.row_idx().to_vec(),
        }
    }

    pub(crate) fn check(&self, a: &sympiler_sparse::CscMatrix) -> Result<(), CholeskyError> {
        if a.n_cols() != self.n
            || a.col_ptr() != self.col_ptr.as_slice()
            || a.row_idx() != self.row_idx.as_slice()
        {
            return Err(CholeskyError::PatternMismatch);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = CholeskyError::NotPositiveDefinite { column: 3 };
        assert!(e.to_string().contains("column 3"));
        assert!(CholeskyError::PatternMismatch
            .to_string()
            .contains("pattern"));
        assert!(CholeskyError::BadInput("x".into())
            .to_string()
            .contains("x"));
    }
}
