//! Sparse-LU inspector — the Table-1 contract extended to the third
//! kernel (left-looking Gilbert–Peierls LU).
//!
//! Each column of a left-looking LU *is* a sparse triangular solve
//! (`L(0:j-1) x = A(:,j)`), so LU's VI-Prune inspector is the
//! triangular-solve inspector iterated over columns: the inspection
//! graph is the dependence graph of the (growing) `L` with the RHS
//! patterns `SP(A(:,j))`, the strategy is DFS, and the inspection set
//! is one reach set per column — the complete symbolic factorization.

use super::{EnabledTransformation, InspectionGraph, InspectionStrategy, SymbolicInspector};
use sympiler_graph::lu_symbolic::{lu_symbolic, LuSymbolic};
use sympiler_graph::ordering::{compute_ordering, Ordering};
use sympiler_graph::transversal::{compute_pre_pivot, PrePivot};
use sympiler_sparse::{ops, CscMatrix, SparseError};

/// Inspection set for LU VI-Prune: the per-column reach sets (update
/// schedules) plus the predicted factor patterns they imply — in the
/// coordinates of the **pre-pivoted, ordered** matrix `Qᵀ·P·A·Q` when
/// a static pre-pivot and/or a fill-reducing ordering was requested.
#[derive(Debug, Clone)]
pub struct LuReachSets {
    pub symbolic: LuSymbolic,
    /// The fill-reducing ordering computed at inspection time
    /// (`col_perm[new] = old`); `None` under [`Ordering::Natural`].
    /// [`Self::symbolic`] describes `Qᵀ·P·A·Q`, not `A`.
    pub col_perm: Option<Vec<usize>>,
    /// The static pre-pivot row permutation `P` computed at inspection
    /// time (`row_perm[new] = old`, in the coordinates of `A` —
    /// *before* the ordering applies); `None` under [`PrePivot::Off`]
    /// and on the identity-matching fast path (diagonal already
    /// zero-free).
    pub row_perm: Option<Vec<usize>>,
}

/// VI-Prune inspector for LU: column-by-column DFS over the growing
/// `DG_L` (Gilbert–Peierls symbolic analysis), optionally preceded by
/// a static pre-pivot (row matching) and a fill-reducing ordering —
/// all resolved exactly once per compiled pattern.
pub struct LuVIPruneInspector;

impl LuVIPruneInspector {
    /// Run the inspection for the full unsymmetric matrix `a` in its
    /// natural order.
    pub fn inspect(&self, a: &CscMatrix) -> LuReachSets {
        self.inspect_ordered(a, Ordering::Natural)
    }

    /// Run the inspection with a fill-reducing ordering (no
    /// pre-pivot); see [`Self::inspect_pivoted`].
    pub fn inspect_ordered(&self, a: &CscMatrix, ordering: Ordering) -> LuReachSets {
        self.inspect_pivoted(a, ordering, PrePivot::Off)
            .expect("inspection without a pre-pivot cannot fail")
    }

    /// Run the full compile-time inspection pipeline:
    ///
    /// 1. **pre-pivot** — compute the row matching `P`
    ///    ([`compute_pre_pivot`]) so `P·A` has a structurally zero-free
    ///    diagonal (identity fast path when it already is);
    /// 2. **ordering** — compute `Q` ([`compute_ordering`]) on the
    ///    pre-pivoted matrix and apply it **symmetrically**
    ///    (`Qᵀ·(P·A)·Q`, preserving the matched diagonal), composed
    ///    with `P` into one [`ops::permute_general`] of `a`;
    /// 3. **reach sets** — pruned Gilbert–Peierls symbolic
    ///    factorization of the resulting pattern.
    ///
    /// The returned reach sets, patterns, and schedules all live in
    /// the final (pivoted + ordered) coordinates; `row_perm` and
    /// `col_perm` map them back to `A`'s.
    ///
    /// # Errors
    /// [`SparseError::StructurallySingular`] when a pre-pivot was
    /// requested but no perfect matching exists — static-pivot LU is
    /// structurally impossible for this pattern under any row
    /// permutation, and the failure surfaces *here*, at inspection
    /// time, instead of as a zero pivot deep in the numeric phase.
    /// Any other [`SparseError`] means `a` is not square or a computed
    /// permutation failed its bijection check.
    pub fn inspect_pivoted(
        &self,
        a: &CscMatrix,
        ordering: Ordering,
        pre_pivot: PrePivot,
    ) -> Result<LuReachSets, SparseError> {
        let row_perm = compute_pre_pivot(a, pre_pivot)?;
        let pivoted_storage;
        let pivoted = match &row_perm {
            Some(p) => {
                pivoted_storage = ops::permute_rows(a, p)?;
                &pivoted_storage
            }
            None => a,
        };
        let col_perm = compute_ordering(pivoted, ordering);
        let symbolic = match &col_perm {
            // One pass from `a` to `Qᵀ·P·A·Q`: row `new` of the ordered
            // system is row `p[q[new]]` of `a`.
            Some(q) => {
                let composed: Vec<usize>;
                let rperm = match &row_perm {
                    Some(p) => {
                        composed = q.iter().map(|&jq| p[jq]).collect();
                        &composed
                    }
                    None => q,
                };
                lu_symbolic(&ops::permute_general(a, rperm, q)?)
            }
            None => lu_symbolic(pivoted),
        };
        Ok(LuReachSets {
            symbolic,
            col_perm,
            row_perm,
        })
    }
}

impl SymbolicInspector for LuVIPruneInspector {
    type Set = LuReachSets;

    fn graph(&self) -> InspectionGraph {
        // Same classification row as triangular-solve VI-Prune: each
        // column solve consumes DG_L plus an RHS pattern (here A(:,j)).
        InspectionGraph::DependenceGraphWithRhs
    }

    fn strategy(&self) -> InspectionStrategy {
        InspectionStrategy::Dfs
    }

    fn enables(&self) -> &'static [EnabledTransformation] {
        &[
            EnabledTransformation::LoopDistribution,
            EnabledTransformation::Unroll,
            EnabledTransformation::Peel,
            EnabledTransformation::Vectorize,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympiler_sparse::gen;

    #[test]
    fn classification_matches_trisolve_row() {
        let i = LuVIPruneInspector;
        assert_eq!(i.graph(), InspectionGraph::DependenceGraphWithRhs);
        assert_eq!(i.strategy(), InspectionStrategy::Dfs);
        assert!(i
            .enables()
            .contains(&EnabledTransformation::LoopDistribution));
    }

    #[test]
    fn inspection_produces_complete_schedules() {
        let a = gen::convection_diffusion_2d(5, 5, 1.0, 1);
        let set = LuVIPruneInspector.inspect(&a);
        assert_eq!(set.symbolic.n, 25);
        assert!(set.symbolic.l_nnz() >= 25);
        assert!(set.symbolic.u_nnz() >= 25);
        assert!(set.col_perm.is_none(), "natural order bakes no perm");
        // Every scheduled update references an earlier column.
        for j in 0..25 {
            for &k in set.symbolic.reach(j) {
                assert!(k < j);
            }
        }
    }

    #[test]
    fn ordered_inspection_matches_symbolic_of_permuted_matrix() {
        let a = gen::circuit_unsym(60, 4, 2, 11);
        for ordering in [Ordering::Rcm, Ordering::Colamd] {
            let set = LuVIPruneInspector.inspect_ordered(&a, ordering);
            let perm = set.col_perm.as_ref().expect("ordering computed");
            let b = sympiler_sparse::ops::permute_rows_cols(&a, perm).unwrap();
            let direct = sympiler_graph::lu_symbolic(&b);
            assert_eq!(set.symbolic, direct, "{ordering:?}");
            assert!(set.row_perm.is_none(), "no pre-pivot requested");
        }
    }

    #[test]
    fn pivoted_inspection_matches_symbolic_of_composed_matrix() {
        let a = gen::circuit_zero_diag(80, 4, 2, 5);
        for ordering in [Ordering::Natural, Ordering::Colamd] {
            for pre_pivot in [PrePivot::Transversal, PrePivot::WeightedMatching] {
                let set = LuVIPruneInspector
                    .inspect_pivoted(&a, ordering, pre_pivot)
                    .expect("zero-diag circuits have a perfect matching");
                let p = set.row_perm.as_ref().expect("pre-pivot must move rows");
                let ap = sympiler_sparse::ops::permute_rows(&a, p).unwrap();
                let b = match &set.col_perm {
                    Some(q) => sympiler_sparse::ops::permute_rows_cols(&ap, q).unwrap(),
                    None => ap,
                };
                assert_eq!(
                    set.symbolic,
                    sympiler_graph::lu_symbolic(&b),
                    "{ordering:?} + {pre_pivot:?}"
                );
            }
        }
    }

    #[test]
    fn structurally_singular_surfaces_at_inspection() {
        // An empty column: no matching exists at all.
        let mut t = sympiler_sparse::TripletMatrix::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(0, 1, 1.0);
        t.push(1, 1, 1.0);
        t.push(1, 2, 1.0); // column 2 shares rows with 0/1; row 2 empty
        let a = t.to_csc().unwrap();
        let err = LuVIPruneInspector
            .inspect_pivoted(&a, Ordering::Natural, PrePivot::Transversal)
            .unwrap_err();
        assert!(matches!(
            err,
            SparseError::StructurallySingular {
                n: 3,
                structural_rank: 2
            }
        ));
    }
}
