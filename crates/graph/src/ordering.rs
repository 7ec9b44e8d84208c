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
//!
//! Every computed ordering is **postordered** by the elimination tree
//! of the symmetrized permuted pattern before it is returned
//! ([`postorder_by_etree`]). A minimum-degree ordering interleaves the
//! columns of unrelated etree subtrees; the postorder makes every
//! subtree one contiguous label range without changing which column
//! eliminates before which of its ancestors — same fill, same flops,
//! same elimination DAG — so panel detection finds the adjacent,
//! nesting columns that were there all along (SuperLU postorders the
//! column etree after COLAMD for the same reason).

use crate::colamd::colamd_ordering;
use crate::etree::{link_edge, NONE};
use crate::postorder::postorder;
use crate::rcm::rcm_ordering;
use sympiler_sparse::{ops, CscMatrix, TripletMatrix};

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
/// valid permutation of `0..a.n_cols()` and always an etree postorder
/// ([`postorder_by_etree`]).
///
/// # Panics
/// If `a` is not square (the LU pipeline's contract; both RCM and the
/// symmetric application of the ordering need matching dimensions), or
/// under [`Ordering::Colamd`] past its index limit
/// ([`crate::colamd::index_limit_ok`]).
pub fn compute_ordering(a: &CscMatrix, ordering: Ordering) -> Option<Vec<usize>> {
    assert!(a.is_square(), "ordering requires a square matrix");
    let perm = match ordering {
        Ordering::Natural => return None,
        Ordering::Rcm => rcm_ordering(&symmetrized_lower_pattern(a)),
        Ordering::Colamd => colamd_ordering(a),
    };
    Some(postorder_by_etree(a, &perm))
}

/// Elimination tree of the symmetrized permuted pattern
/// `Qᵀ·(|A| + |Aᵀ|)·Q` for `perm[new] = old`, in the **new** labels
/// (`parent[root] == NONE`). The tree every statically pivoted
/// factorization of `Qᵀ·A·Q` is bounded by: a fill entry `(i, j)` of
/// either factor joins an ancestor–descendant pair of it.
///
/// One pass over `A` in the new column order, no sort and no
/// transpose: Liu's path-compressed algorithm
/// ([`crate::etree::etree_from_upper_parts`] runs the same steps) needs,
/// at step `k`, every edge `{i, k}` with `i < k`, in any order. An entry of column
/// `k` whose other endpoint is smaller is such an edge and is climbed
/// at once; one whose other endpoint `k' > k` is larger is an edge of
/// step `k'` and waits in that step's intrusive list. An entry present
/// in both `A` and `Aᵀ` is simply climbed twice; the diagonal is
/// skipped.
///
/// # Panics
/// If `a` is not square or `perm` is not a permutation of
/// `0..a.n_cols()`.
pub fn symmetrized_etree(a: &CscMatrix, perm: &[usize]) -> Vec<usize> {
    assert!(a.is_square(), "etree requires a square matrix");
    let n = a.n_cols();
    assert_eq!(perm.len(), n, "permutation length");
    let inv = ops::inverse_permutation(perm).expect("perm must be a bijection");
    let mut parent = vec![NONE; n];
    let mut ancestor = vec![NONE; n];
    // `waiting[head[k]]`, then its `next` links: the smaller endpoints
    // of the edges met so far whose larger endpoint is `k`.
    let mut head = vec![NONE; n];
    let mut waiting: Vec<(usize, usize)> = Vec::with_capacity(a.nnz());
    for (k, &old) in perm.iter().enumerate() {
        let mut at = head[k];
        while at != NONE {
            let (i, next) = waiting[at];
            link_edge(&mut parent, &mut ancestor, i, k);
            at = next;
        }
        for &i in a.col_rows(old) {
            let ni = inv[i];
            if ni < k {
                link_edge(&mut parent, &mut ancestor, ni, k);
            } else if ni > k {
                waiting.push((k, head[ni]));
                head[ni] = waiting.len() - 1;
            }
        }
    }
    parent
}

/// Compose `perm` (`perm[new] = old`) with a postorder of the
/// elimination tree of the symmetrized permuted pattern
/// ([`symmetrized_etree`]): `out[k] = perm[post[k]]`.
///
/// A postorder only renumbers columns that cannot reach each other in
/// the elimination — every column still follows all of its etree
/// descendants and precedes all of its ancestors — so the patterns of
/// `L` and `U`, the flop count and the column elimination DAG of the
/// statically pivoted factorization are those of `perm`, relabelled.
/// What changes is adjacency: every etree subtree becomes one
/// contiguous label range, which is what panel detection needs.
/// Children are visited in ascending label order, so postordering a
/// permutation that already is one returns it unchanged.
pub fn postorder_by_etree(a: &CscMatrix, perm: &[usize]) -> Vec<usize> {
    postorder(&symmetrized_etree(a, perm))
        .into_iter()
        .map(|k| perm[k])
        .collect()
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
    use sympiler_sparse::gen;

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
        assert!(symmetrized_etree(&empty, &[]).is_empty());
        let one = CscMatrix::identity(1);
        let diag = CscMatrix::identity(5);
        for ord in [Ordering::Rcm, Ordering::Colamd] {
            assert_eq!(compute_ordering(&one, ord).unwrap(), vec![0]);
            assert_permutation(&compute_ordering(&diag, ord).unwrap(), 5);
        }
        // A diagonal matrix is a forest of roots: nothing to renumber.
        assert_eq!(symmetrized_etree(&diag, &[4, 2, 0, 1, 3]), vec![NONE; 5]);
        assert_eq!(postorder_by_etree(&diag, &[4, 2, 0, 1, 3]), [4, 2, 0, 1, 3]);
    }

    /// `|A| + |Aᵀ|` as a lower-triangular CSC with a full diagonal,
    /// relabelled by `perm` — what [`crate::etree::etree`] consumes.
    fn permuted_symmetrized_lower(a: &CscMatrix, perm: &[usize]) -> CscMatrix {
        let inv = ops::inverse_permutation(perm).unwrap();
        let n = a.n_cols();
        let mut t = TripletMatrix::new(n, n);
        for j in 0..n {
            t.push(j, j, 1.0);
            for &i in a.col_rows(j) {
                if i != j {
                    t.push(inv[i].max(inv[j]), inv[i].min(inv[j]), 1.0);
                }
            }
        }
        t.to_csc().unwrap()
    }

    fn unsym_patterns() -> Vec<CscMatrix> {
        let mut out = Vec::new();
        for seed in 0..4u64 {
            out.push(gen::circuit_unsym(70, 4, 2, seed));
            out.push(gen::circuit_zero_diag(60, 4, 2, seed));
            out.push(gen::random_unsym(45, 3, seed + 9));
            out.push(gen::convection_diffusion_2d(6, 7, 2.0, seed));
        }
        out
    }

    #[test]
    fn sort_free_etree_matches_the_sorted_construction() {
        for a in unsym_patterns() {
            let n = a.n_cols();
            for perm in [(0..n).collect::<Vec<_>>(), colamd_ordering(&a)] {
                let sorted = crate::etree::etree(&permuted_symmetrized_lower(&a, &perm));
                assert_eq!(symmetrized_etree(&a, &perm), sorted);
            }
        }
    }

    #[test]
    fn postordered_subtrees_are_contiguous_and_postordering_is_idempotent() {
        for a in unsym_patterns() {
            let n = a.n_cols();
            for ord in [Ordering::Rcm, Ordering::Colamd] {
                let perm = compute_ordering(&a, ord).unwrap();
                assert_permutation(&perm, n);
                assert_eq!(postorder_by_etree(&a, &perm), perm, "{ord:?}: idempotent");
                // Node k's subtree is exactly the label range
                // (k - size[k], k]: it has size[k] members, all of
                // them inside that range once every child's range
                // nests in its parent's.
                let parent = symmetrized_etree(&a, &perm);
                let mut size = vec![1usize; n];
                for k in 0..n {
                    if parent[k] != NONE {
                        assert!(parent[k] > k, "{ord:?}: parent of {k}");
                        size[parent[k]] += size[k];
                    }
                }
                for k in 0..n {
                    let p = parent[k];
                    assert!(
                        p == NONE || k + 1 - size[k] >= p + 1 - size[p],
                        "{ord:?}: subtree of {k} leaves the range of its parent {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_forest_with_several_roots_keeps_each_tree_together() {
        // Two disjoint arrowheads interleaved: {0, 2, 4} and {1, 3, 5},
        // hubs 4 and 5. Under the identity the trees interleave; the
        // postorder lays them out one after the other.
        let mut t = TripletMatrix::new(6, 6);
        for j in 0..6 {
            t.push(j, j, 4.0);
        }
        for (i, j) in [(4, 0), (0, 4), (4, 2), (5, 1), (3, 5)] {
            t.push(i, j, 1.0);
        }
        let a = t.to_csc().unwrap();
        let ident: Vec<usize> = (0..6).collect();
        assert_eq!(symmetrized_etree(&a, &ident), vec![4, 5, 4, 5, NONE, NONE]);
        assert_eq!(postorder_by_etree(&a, &ident), [0, 2, 4, 1, 3, 5]);
    }

    #[test]
    #[should_panic(expected = "bijection")]
    fn rejects_a_non_permutation() {
        symmetrized_etree(&CscMatrix::identity(3), &[0, 0, 2]);
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
