//! The fill-reducing ordering knob of the LU compile pipeline.
//!
//! Anything computable from the pattern alone belongs in the one-time
//! symbolic phase — and the single highest-leverage pattern-only
//! decision is *where each column pivots*. [`Ordering`] names the
//! strategies the inspectors can run at compile time; the permutation
//! they produce is baked into the compiled plan (applied
//! **symmetrically**, `Qᵀ A Q`, so static diagonal pivoting keeps its
//! diagonal — see `sympiler_sparse::ops::permute_rows_cols`) and the
//! numeric phase never sees it again.

use crate::colamd::colamd_ordering;
use crate::rcm::rcm_ordering;
use sympiler_sparse::{CscMatrix, TripletMatrix};

/// Fill-reducing ordering strategy for the LU pipeline, chosen once at
/// compile (inspection) time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Ordering {
    /// No reordering: factor the matrix as given. The right choice
    /// when the input is already fill-reducing-ordered upstream.
    #[default]
    Natural,
    /// Reverse Cuthill–McKee on the **symmetrized pattern**
    /// `|A| + |Aᵀ|` ([`crate::rcm`]). Cheap and bandwidth-oriented: a
    /// good fit when the pattern is nearly symmetric and banded-ish.
    /// For genuinely unsymmetric LU it loses to [`Ordering::Colamd`]
    /// on two counts: symmetrizing discards the row/column asymmetry
    /// that drives LU fill (the relevant graph is the column
    /// intersection graph of `AᵀA`, not `A + Aᵀ`), and minimizing
    /// *bandwidth* still fills the whole band, whereas minimum degree
    /// minimizes fill directly — so RCM typically leaves both more
    /// fill and a deeper (chain-like) elimination DAG.
    Rcm,
    /// COLAMD-style approximate minimum degree on the column
    /// intersection graph of `AᵀA`, computed without forming it
    /// ([`crate::colamd`]). The recommended default for unsymmetric
    /// factorization: least fill, and the bushier elimination DAG the
    /// parallel numeric phase needs.
    Colamd,
}

impl Ordering {
    /// Short stable name, for tables, reports, and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            Ordering::Natural => "natural",
            Ordering::Rcm => "rcm",
            Ordering::Colamd => "colamd",
        }
    }

    /// All ordering variants, in report order.
    pub const ALL: [Ordering; 3] = [Ordering::Natural, Ordering::Rcm, Ordering::Colamd];
}

/// Compute the column/row ordering of `a` under `ordering`: `None` for
/// [`Ordering::Natural`] (so callers can skip permutation work
/// entirely), otherwise `Some(perm)` with `perm[new] = old`, always a
/// valid permutation of `0..a.n_cols()`.
///
/// # Panics
/// If `a` is not square (the LU pipeline's contract; both RCM and the
/// symmetric application of the ordering need matching dimensions).
pub fn compute_ordering(a: &CscMatrix, ordering: Ordering) -> Option<Vec<usize>> {
    assert!(a.is_square(), "ordering requires a square matrix");
    match ordering {
        Ordering::Natural => None,
        Ordering::Rcm => Some(rcm_ordering(&symmetrized_lower_pattern(a))),
        Ordering::Colamd => Some(colamd_ordering(a)),
    }
}

/// The lower triangle of the symmetrized pattern `|A| + |Aᵀ|` with an
/// explicit full diagonal — the adjacency RCM runs on when `A` itself
/// is unsymmetric. Values are structural only.
fn symmetrized_lower_pattern(a: &CscMatrix) -> CscMatrix {
    let n = a.n_cols();
    let mut t = TripletMatrix::with_capacity(n, n, a.nnz() + n);
    for j in 0..n {
        t.push(j, j, 1.0);
        for &i in a.col_rows(j) {
            if i != j {
                // Duplicates (mirrored entries present in both A and
                // Aᵀ) are summed structurally by `to_csc`.
                t.push(i.max(j), i.min(j), 1.0);
            }
        }
    }
    t.to_csc().expect("structural pattern assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympiler_sparse::{gen, ops};

    fn assert_permutation(perm: &[usize], n: usize) {
        let mut sorted = perm.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn natural_is_none() {
        let a = gen::random_unsym(20, 3, 1);
        assert!(compute_ordering(&a, Ordering::Natural).is_none());
    }

    #[test]
    fn rcm_and_colamd_are_bijections_on_unsymmetric_patterns() {
        for seed in 0..4u64 {
            for a in [
                gen::circuit_unsym(50, 4, 2, seed),
                gen::random_unsym(40, 3, seed + 9),
                gen::convection_diffusion_2d(6, 7, 2.0, seed),
            ] {
                for ord in [Ordering::Rcm, Ordering::Colamd] {
                    let perm = compute_ordering(&a, ord).unwrap();
                    assert_permutation(&perm, a.n_cols());
                    // inverse_permutation is the canonical validity
                    // check; it must accept every ordering output.
                    assert!(ops::inverse_permutation(&perm).is_ok());
                }
            }
        }
    }

    #[test]
    fn degenerate_inputs() {
        let empty = CscMatrix::zeros(0, 0);
        for ord in Ordering::ALL {
            match compute_ordering(&empty, ord) {
                None => assert_eq!(ord, Ordering::Natural),
                Some(p) => assert!(p.is_empty()),
            }
        }
        let diag = CscMatrix::identity(5);
        for ord in [Ordering::Rcm, Ordering::Colamd] {
            assert_permutation(&compute_ordering(&diag, ord).unwrap(), 5);
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Ordering::Natural.label(), "natural");
        assert_eq!(Ordering::Rcm.label(), "rcm");
        assert_eq!(Ordering::Colamd.label(), "colamd");
        assert_eq!(Ordering::default(), Ordering::Natural);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn rejects_rectangular() {
        compute_ordering(&CscMatrix::zeros(3, 2), Ordering::Colamd);
    }
}
