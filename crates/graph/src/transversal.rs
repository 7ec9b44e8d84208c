//! Static pre-pivoting: maximum-transversal and weighted row matching.
//!
//! Sympiler's LU contract is **static diagonal pivoting** — the pivot
//! of column `j` is whatever lands on position `(j, j)`, decided at
//! compile time, never searched for at run time. That contract is a
//! hard error on matrices whose diagonal is *structurally* zero
//! (saddle-point/KKT systems, circuit matrices with voltage sources),
//! even though the matrices themselves are perfectly factorizable
//! after a row permutation. This module computes that permutation at
//! inspection time, the same compile-time trick SuperLU-style solvers
//! use to make static pivoting safe:
//!
//! * [`maximum_transversal`] — MC21-style augmenting-path matching on
//!   the bipartite row/column graph of the pattern (Duff 1981; the
//!   algorithm of CSparse's `cs_maxtrans`). Pattern-only: produces a
//!   row permutation `P` (`rowp[new] = old`) such that `P·A` has a
//!   **structurally** zero-free diagonal, or reports the structural
//!   rank when no perfect matching exists.
//! * [`weighted_matching`] — an MC64-like weighted variant (Duff &
//!   Koster 2001) that maximizes the **product of diagonal
//!   magnitudes**: shortest augmenting paths under log-scaled costs
//!   `c(i, j) = log max_r |a(r, j)| − log |a(i, j)|` with dual
//!   potentials, so the matched diagonal is not just nonzero but
//!   numerically large — the stability story for static pivoting.
//! * [`compute_pre_pivot`] — the [`PrePivot`] knob's dispatcher, the
//!   pre-pivoting analogue of [`crate::ordering::compute_ordering`].
//!   Returns `None` when nothing needs to move (the identity-matching
//!   fast path), so downstream plans bake no row map at all.
//!
//! Everything here is resolved **once per pattern** at inspection
//! time; the numeric phase reads the caller's original matrix through
//! gather maps and never re-permutes anything — zero per-factorization
//! cost, exactly like the fill-reducing orderings.
//!
//! The permutation convention matches the rest of the workspace:
//! `rowp[new] = old`, i.e. `(P·A)[new, :] = A[rowp[new], :]`, and
//! `(P·A)[j, j] = A[rowp[j], j]` is the matched diagonal entry.

use sympiler_sparse::{CscMatrix, SparseError};

/// Static pre-pivoting strategy for the LU pipeline, chosen once at
/// compile (inspection) time — the row-permutation analogue of the
/// fill-reducing [`crate::ordering::Ordering`] knob.
///
/// ```
/// use sympiler_graph::transversal::{compute_pre_pivot, PrePivot};
/// use sympiler_sparse::TripletMatrix;
///
/// // [[0, 2], [3, 0]] — structurally zero diagonal, but factorizable
/// // after swapping the rows.
/// let mut t = TripletMatrix::new(2, 2);
/// t.push(1, 0, 3.0);
/// t.push(0, 1, 2.0);
/// let a = t.to_csc().unwrap();
///
/// let rowp = compute_pre_pivot(&a, PrePivot::Transversal)
///     .expect("a perfect matching exists")
///     .expect("the identity is not a transversal here");
/// assert_eq!(rowp, vec![1, 0]); // P·A = [[3, 0], [0, 2]]
///
/// // An already zero-free diagonal takes the identity fast path.
/// let id = sympiler_sparse::CscMatrix::identity(4);
/// assert!(compute_pre_pivot(&id, PrePivot::Transversal).unwrap().is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PrePivot {
    /// No pre-pivoting: the compiled pattern must already carry a
    /// usable diagonal (the historical contract). Structurally zero
    /// diagonals surface as zero-pivot errors from the numeric phase.
    #[default]
    Off,
    /// Maximum transversal (MC21): pattern-only augmenting-path
    /// matching. Guarantees a structurally zero-free diagonal — the
    /// cheapest unblocking for patterns whose values are well scaled.
    Transversal,
    /// Weighted matching (MC64-like): maximize the product of diagonal
    /// magnitudes via shortest augmenting paths on log-scaled costs.
    /// Strictly stronger than [`PrePivot::Transversal`] numerically
    /// (the matched diagonal is large, not merely nonzero) at a higher
    /// — still one-time — inspection cost. Unlike the transversal it
    /// reads values, so explicitly stored zeros are not matchable.
    WeightedMatching,
}

impl PrePivot {
    /// Short stable name, for tables, reports, and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            PrePivot::Off => "off",
            PrePivot::Transversal => "transversal",
            PrePivot::WeightedMatching => "weighted",
        }
    }

    /// All pre-pivot variants, in report order.
    pub const ALL: [PrePivot; 3] = [
        PrePivot::Off,
        PrePivot::Transversal,
        PrePivot::WeightedMatching,
    ];
}

/// Count the structurally present entries on the main diagonal of `a`
/// — `n` minus the number of columns a static diagonal pivot cannot
/// serve. The quantity [`compute_pre_pivot`] exists to drive to `n`.
/// (The complement of
/// [`sympiler_sparse::ops::structurally_zero_diagonals`], the one
/// diagonal-census implementation.)
pub fn structural_diag_count(a: &CscMatrix) -> usize {
    a.n_cols().min(a.n_rows()) - sympiler_sparse::ops::structurally_zero_diagonals(a)
}

/// The structural rank of `a`: the size of a maximum row/column
/// matching of its pattern (well-defined for rectangular matrices
/// too). Equal to `n` exactly when a perfect transversal exists (the
/// precondition for any static-pivot LU on a square pattern).
pub fn structural_rank(a: &CscMatrix) -> usize {
    let mut m = Matcher::new(a);
    m.run_cheap_diagonal();
    for j in 0..a.n_cols() {
        if m.col_match[j] == NONE {
            m.augment(j);
        }
    }
    m.matched
}

/// Maximum-transversal row matching (MC21 / `cs_maxtrans` style):
/// returns `rowp` with `rowp[new] = old` such that `P·A` has a
/// structurally zero-free diagonal, i.e. `A[rowp[j], j]` is stored for
/// every `j`.
///
/// Deterministic: columns are processed in order and each column's
/// pattern is scanned ascending, with a cheap-assignment pass that
/// prefers the diagonal itself — so a matrix whose diagonal is already
/// structurally full matches to the identity without any search.
///
/// # Errors
/// [`SparseError::StructurallySingular`] when no perfect matching
/// exists (the matrix is structurally rank-deficient; no row
/// permutation can make static pivoting work).
///
/// # Panics
/// If `a` is not square (the LU pipeline's contract).
pub fn maximum_transversal(a: &CscMatrix) -> Result<Vec<usize>, SparseError> {
    assert!(a.is_square(), "transversal requires a square matrix");
    let n = a.n_cols();
    let mut m = Matcher::new(a);
    m.run_cheap_diagonal();
    for j in 0..n {
        if m.col_match[j] == NONE {
            m.augment(j);
        }
    }
    if m.matched < n {
        return Err(SparseError::StructurallySingular {
            n,
            structural_rank: m.matched,
        });
    }
    Ok(m.col_match)
}

/// Weighted row matching (MC64-like): a perfect matching maximizing
/// `∏_j |A[rowp[j], j]|`, computed by shortest augmenting paths with
/// dual potentials on the costs `c(i, j) = log₂ max_r |A[r, j]| −
/// log₂ |A[i, j]|` (all `≥ 0`, zero on each column's largest entry).
/// Returns `rowp` with `rowp[new] = old`, like
/// [`maximum_transversal`].
///
/// Explicitly stored **zero values** carry infinite cost (a zero can
/// never be a pivot), so this variant is sensitive to values where the
/// plain transversal is pattern-only.
///
/// # Errors
/// [`SparseError::StructurallySingular`] when no perfect matching over
/// the numerically nonzero entries exists.
///
/// # Panics
/// If `a` is not square.
pub fn weighted_matching(a: &CscMatrix) -> Result<Vec<usize>, SparseError> {
    weighted_matching_full(a).map(|full| full.rowp)
}

/// A weighted matching plus the MC64 row/column scalings derived from
/// its dual potentials: `Dr[i] = 2^u[i]`, `Dc[j] = 2^(v[j] − lmax_j)`
/// (original, unpermuted coordinates). The scaled matrix
/// `Dr·A·Dc` has every entry `≤ 1` in magnitude and every matched
/// diagonal exactly `±1` — Duff & Koster's job 5, the preconditioner
/// that makes static pivoting numerically safe rather than merely
/// structurally possible.
#[derive(Debug, Clone)]
pub struct ScaledMatching {
    /// The matching as a row permutation, `rowp[new] = old` — exactly
    /// what [`weighted_matching`] returns.
    pub rowp: Vec<usize>,
    /// Row scaling `Dr`, indexed by original row.
    pub row_scale: Vec<f64>,
    /// Column scaling `Dc`, indexed by original column.
    pub col_scale: Vec<f64>,
}

impl ScaledMatching {
    /// `|Dr[i] · a · Dc[j]|` of a stored entry — the magnitude the
    /// scaled factorization actually sees.
    pub fn scaled_abs(&self, i: usize, j: usize, value: f64) -> f64 {
        (self.row_scale[i] * value * self.col_scale[j]).abs()
    }
}

/// [`weighted_matching`] plus the scalings its dual potentials encode
/// — one search, both artifacts. See [`ScaledMatching`].
///
/// # Errors
/// [`SparseError::InvalidMatrix`], naming the row, column and value of
/// the first (column-major) NaN or ±Inf entry, before any search: a
/// non-finite magnitude has no logarithm the duals could absorb, so no
/// scaling of it is finite. [`SparseError::StructurallySingular`] as
/// for [`weighted_matching`].
///
/// # Panics
/// If `a` is not square.
pub fn weighted_matching_scaled(a: &CscMatrix) -> Result<ScaledMatching, SparseError> {
    for j in 0..a.n_cols() {
        if let Some((i, v)) = a.col_iter(j).find(|(_, v)| !v.is_finite()) {
            return Err(SparseError::InvalidMatrix(format!(
                "MC64 scaling needs finite values: A({i}, {j}) = {v}"
            )));
        }
    }
    let full = weighted_matching_full(a)?;
    let n = a.n_cols();
    let mut row_scale = vec![1.0f64; n];
    let mut col_scale = vec![1.0f64; n];
    for i in 0..n {
        // u[i] + v[j] ≤ c(i,j) = lmax_j − log2|a_ij| (tight on matched
        // edges), so 2^u[i] · |a_ij| · 2^(v[j] − lmax_j) ≤ 1.
        row_scale[i] = f64::exp2(full.u[i]);
        col_scale[i] = f64::exp2(full.v[i] - full.lmax[i]);
        debug_assert!(
            row_scale[i].is_finite() && row_scale[i] > 0.0,
            "row dual overflowed"
        );
        debug_assert!(
            col_scale[i].is_finite() && col_scale[i] > 0.0,
            "column dual overflowed"
        );
    }
    Ok(ScaledMatching {
        rowp: full.rowp,
        row_scale,
        col_scale,
    })
}

/// The matching plus its raw dual state: row potentials `u`, column
/// potentials `v`, and the per-column max log-magnitude `lmax` the
/// costs were normalized by.
struct WeightedMatchingFull {
    rowp: Vec<usize>,
    u: Vec<f64>,
    v: Vec<f64>,
    lmax: Vec<f64>,
}

fn weighted_matching_full(a: &CscMatrix) -> Result<WeightedMatchingFull, SparseError> {
    assert!(a.is_square(), "weighted matching requires a square matrix");
    let n = a.n_cols();
    // Per-entry costs, per column: c = lmax_j - log2|a_ij| >= 0.
    // Column-major alongside the CSC values; f64::INFINITY marks
    // numerically zero entries (unmatchable).
    let mut cost = vec![f64::INFINITY; a.nnz()];
    let mut lmax_by_col = vec![0.0f64; n];
    for j in 0..n {
        let lo = a.col_ptr()[j];
        let vals = a.col_values(j);
        let lmax = vals
            .iter()
            .filter(|v| **v != 0.0)
            .map(|v| v.abs().log2())
            .fold(f64::NEG_INFINITY, f64::max);
        if lmax == f64::NEG_INFINITY {
            // Every stored value in this column is zero: no pivot can
            // ever serve it.
            return Err(SparseError::StructurallySingular {
                n,
                structural_rank: structural_rank_nonzero(a),
            });
        }
        lmax_by_col[j] = lmax;
        for (p, v) in vals.iter().enumerate() {
            if *v != 0.0 {
                cost[lo + p] = lmax - v.abs().log2();
            }
        }
    }

    const UNVISITED: usize = usize::MAX;
    let mut row_match = vec![NONE; n]; // row -> col
    let mut col_match = vec![NONE; n]; // col -> row
    let mut u = vec![0.0f64; n]; // row duals
    let mut v = vec![0.0f64; n]; // col duals
    let mut dist = vec![f64::INFINITY; n]; // tentative path cost per row
    let mut pred = vec![0usize; n]; // column we reached each row from
    let mut stamp = vec![UNVISITED; n]; // per-phase visit marks (rows)
    let mut done = vec![UNVISITED; n]; // per-phase finalized marks
    let mut heap: std::collections::BinaryHeap<HeapEntry> = std::collections::BinaryHeap::new();
    let mut touched_rows: Vec<usize> = Vec::new();
    let mut tree_cols: Vec<usize> = Vec::new();

    for j0 in 0..n {
        heap.clear();
        touched_rows.clear();
        tree_cols.clear();
        // Dijkstra over alternating paths from column j0 to the
        // nearest unmatched row, on reduced costs (nonnegative by the
        // dual invariant u[i] + v[j] <= c(i, j)).
        let mut j = j0;
        let mut lsp = 0.0f64; // path cost to the tree column `j`
        let isap; // the unmatched row the shortest path ends at
        let lsap; // its path cost
        loop {
            tree_cols.push(j);
            let lo = a.col_ptr()[j];
            for (p, &i) in a.col_rows(j).iter().enumerate() {
                if done[i] == j0 {
                    continue;
                }
                let c = cost[lo + p];
                if c == f64::INFINITY {
                    continue;
                }
                let nd = lsp + c - u[i] - v[j];
                if stamp[i] != j0 {
                    stamp[i] = j0;
                    dist[i] = nd;
                    pred[i] = j;
                    touched_rows.push(i); // first touch this phase only
                    heap.push(HeapEntry { cost: nd, row: i });
                } else if nd < dist[i] {
                    dist[i] = nd;
                    pred[i] = j;
                    heap.push(HeapEntry { cost: nd, row: i });
                }
            }
            // Extract the closest not-yet-finalized row.
            let next = loop {
                match heap.pop() {
                    None => {
                        return Err(SparseError::StructurallySingular {
                            n,
                            structural_rank: structural_rank_nonzero(a),
                        });
                    }
                    Some(e) if done[e.row] == j0 || e.cost > dist[e.row] => continue,
                    Some(e) => break e,
                }
            };
            let i = next.row;
            done[i] = j0;
            if row_match[i] == NONE {
                isap = i;
                lsap = next.cost;
                break;
            }
            j = row_match[i];
            lsp = next.cost;
        }
        // Dual update: finalized rows move by their slack to the path.
        for &i in &touched_rows {
            if done[i] == j0 && i != isap {
                u[i] += dist[i] - lsap;
            }
        }
        // Augment along the predecessor chain.
        let mut i = isap;
        loop {
            let pj = pred[i];
            let prev = col_match[pj];
            col_match[pj] = i;
            row_match[i] = pj;
            if pj == j0 {
                break;
            }
            i = prev;
        }
        // Restore tightness on the tree's matched edges:
        // v[j] = c(i, j) - u[i] for the (possibly new) match of j.
        for &tj in &tree_cols {
            let i = col_match[tj];
            debug_assert_ne!(i, NONE, "tree columns are matched after augmenting");
            let lo = a.col_ptr()[tj];
            let p = a
                .col_rows(tj)
                .binary_search(&i)
                .expect("matched entry is stored");
            v[tj] = cost[lo + p] - u[i];
        }
    }
    Ok(WeightedMatchingFull {
        rowp: col_match,
        u,
        v,
        lmax: lmax_by_col,
    })
}

/// Structural rank counting only numerically nonzero entries — the
/// rank the weighted matching actually works with when reporting a
/// singular input.
fn structural_rank_nonzero(a: &CscMatrix) -> usize {
    // Build a pattern-only matrix of the nonzero values and reuse the
    // unweighted matcher. One-time error path: clarity over speed.
    let n = a.n_cols();
    let mut t = sympiler_sparse::TripletMatrix::with_capacity(n, n, a.nnz());
    for j in 0..n {
        for (i, val) in a.col_iter(j) {
            if val != 0.0 {
                t.push(i, j, 1.0);
            }
        }
    }
    match t.to_csc() {
        Ok(pat) => structural_rank(&pat),
        Err(_) => 0,
    }
}

/// Resolve the [`PrePivot`] knob for `a`: `None` when no row needs to
/// move — [`PrePivot::Off`], or a matching that comes back as the
/// identity (in particular, [`PrePivot::Transversal`] on any matrix
/// whose diagonal is already structurally full — the fast path costs
/// one O(nnz-of-diagonal) scan and no search at all). Otherwise
/// `Some(rowp)` with `rowp[new] = old`, always a valid permutation.
///
/// # Errors
/// [`SparseError::StructurallySingular`] when the requested matching
/// does not exist; see [`maximum_transversal`] / [`weighted_matching`].
///
/// # Panics
/// If `a` is not square.
pub fn compute_pre_pivot(
    a: &CscMatrix,
    pre_pivot: PrePivot,
) -> Result<Option<Vec<usize>>, SparseError> {
    assert!(a.is_square(), "pre-pivoting requires a square matrix");
    let n = a.n_cols();
    let rowp = match pre_pivot {
        PrePivot::Off => return Ok(None),
        PrePivot::Transversal => {
            if structural_diag_count(a) == n {
                // Already zero-free: the identity is a maximum
                // transversal, nothing to bake.
                return Ok(None);
            }
            maximum_transversal(a)?
        }
        // No structural fast path: the weighted matching may prefer
        // off-diagonal entries even when the diagonal is full.
        PrePivot::WeightedMatching => weighted_matching(a)?,
    };
    Ok(if rowp.iter().enumerate().all(|(new, &old)| new == old) {
        None
    } else {
        Some(rowp)
    })
}

const NONE: usize = usize::MAX;

/// Min-heap entry for the weighted matching's Dijkstra; ties break on
/// the row index so the search is deterministic.
#[derive(PartialEq)]
struct HeapEntry {
    cost: f64,
    row: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we need the cheapest row.
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.row.cmp(&self.row))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The MC21 augmenting-path state, shared by [`structural_rank`] and
/// [`maximum_transversal`]. Ported from the iterative formulation of
/// CSparse's `cs_maxtrans` (Davis 2006): an explicit column stack with
/// per-column pattern cursors, plus the "cheap assignment" shortcut
/// that matches each column to its first unmatched row before any
/// backtracking search runs.
struct Matcher<'a> {
    a: &'a CscMatrix,
    /// `col_match[j]` = matched row of column `j` (`rowp[j]`).
    col_match: Vec<usize>,
    /// `row_match[i]` = column matched to row `i`.
    row_match: Vec<usize>,
    /// Cheap-assignment cursor per column (never rewinds).
    cheap: Vec<usize>,
    /// Visit stamps per column, keyed by the root column of the phase.
    visited: Vec<usize>,
    /// DFS stacks: columns, chosen rows, pattern cursors.
    js: Vec<usize>,
    is_: Vec<usize>,
    ps: Vec<usize>,
    matched: usize,
}

impl<'a> Matcher<'a> {
    fn new(a: &'a CscMatrix) -> Self {
        let n = a.n_cols();
        Matcher {
            a,
            col_match: vec![NONE; n],
            // Row-indexed state sizes by n_rows so the matcher (and
            // with it `structural_rank`) is rectangular-safe.
            row_match: vec![NONE; a.n_rows()],
            cheap: a.col_ptr()[..n].to_vec(),
            visited: vec![NONE; n],
            js: vec![0; n],
            is_: vec![0; n],
            ps: vec![0; n],
            matched: 0,
        }
    }

    /// Seed the matching with every structurally present diagonal
    /// entry. This biases the result toward the identity (fewer moved
    /// rows) and makes the full-diagonal case an O(n) no-op.
    fn run_cheap_diagonal(&mut self) {
        for j in 0..self.a.n_cols() {
            if self.a.col_rows(j).binary_search(&j).is_ok() {
                self.col_match[j] = j;
                self.row_match[j] = j;
                self.matched += 1;
            }
        }
    }

    /// Try to augment the matching from unmatched column `j0`.
    fn augment(&mut self, j0: usize) {
        let col_ptr = self.a.col_ptr();
        let row_idx = self.a.row_idx();
        let mut head = 0usize;
        self.js[0] = j0;
        let mut found = false;
        loop {
            let j = self.js[head];
            if self.visited[j] != j0 {
                self.visited[j] = j0;
                // Cheap assignment: first unmatched row of column j.
                let mut p = self.cheap[j];
                while p < col_ptr[j + 1] {
                    let i = row_idx[p];
                    p += 1;
                    if self.row_match[i] == NONE {
                        self.is_[head] = i;
                        found = true;
                        break;
                    }
                }
                self.cheap[j] = p;
                if found {
                    break;
                }
                self.ps[head] = col_ptr[j];
            }
            // Depth-first: follow a matched row to its column.
            let mut advanced = false;
            let mut p = self.ps[head];
            while p < col_ptr[j + 1] {
                let i = row_idx[p];
                p += 1;
                let jm = self.row_match[i];
                debug_assert_ne!(jm, NONE, "cheap pass would have taken it");
                if self.visited[jm] == j0 {
                    continue;
                }
                self.ps[head] = p;
                self.is_[head] = i;
                head += 1;
                self.js[head] = jm;
                advanced = true;
                break;
            }
            if advanced {
                continue;
            }
            self.ps[head] = p;
            if head == 0 {
                break; // no augmenting path from j0
            }
            head -= 1;
        }
        if found {
            // Flip the alternating path: every (row, column) pair on
            // the stack becomes a matched edge.
            for h in (0..=head).rev() {
                self.row_match[self.is_[h]] = self.js[h];
                self.col_match[self.js[h]] = self.is_[h];
            }
            self.matched += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympiler_sparse::{gen, ops, TripletMatrix};

    fn assert_perm(perm: &[usize], n: usize) {
        assert!(ops::inverse_permutation(perm).is_ok());
        assert_eq!(perm.len(), n);
    }

    fn assert_zero_free_diag(a: &CscMatrix, rowp: &[usize]) {
        let b = ops::permute_rows(a, rowp).unwrap();
        for j in 0..b.n_cols() {
            assert!(
                b.col_rows(j).binary_search(&j).is_ok(),
                "column {j} diagonal still structurally zero"
            );
        }
    }

    #[test]
    fn full_diagonal_matches_identity() {
        let a = gen::circuit_unsym(60, 4, 2, 3);
        let rowp = maximum_transversal(&a).unwrap();
        assert_eq!(rowp, (0..60).collect::<Vec<_>>());
        assert!(compute_pre_pivot(&a, PrePivot::Transversal)
            .unwrap()
            .is_none());
        assert_eq!(structural_diag_count(&a), 60);
        assert_eq!(structural_rank(&a), 60);
    }

    #[test]
    fn off_is_none() {
        let a = gen::random_unsym(10, 2, 1);
        assert!(compute_pre_pivot(&a, PrePivot::Off).unwrap().is_none());
    }

    #[test]
    fn cyclic_shift_recovered() {
        // A[i, j] nonzero only for i = (j + 1) mod n: the only perfect
        // matching maps column j to row j + 1 mod n.
        let n = 7;
        let mut t = TripletMatrix::new(n, n);
        for j in 0..n {
            t.push((j + 1) % n, j, 1.0 + j as f64);
        }
        let a = t.to_csc().unwrap();
        assert_eq!(structural_diag_count(&a), 0);
        for f in [maximum_transversal, weighted_matching] {
            let rowp = f(&a).unwrap();
            assert_perm(&rowp, n);
            for (j, &r) in rowp.iter().enumerate() {
                assert_eq!(r, (j + 1) % n);
            }
            assert_zero_free_diag(&a, &rowp);
        }
    }

    #[test]
    fn zero_diag_circuits_match_completely() {
        for seed in 0..5u64 {
            let a = gen::circuit_zero_diag(80, 4, 2, seed);
            assert!(structural_diag_count(&a) < 80, "generator must zero diags");
            for pp in [PrePivot::Transversal, PrePivot::WeightedMatching] {
                let rowp = compute_pre_pivot(&a, pp)
                    .unwrap()
                    .expect("zero diagonals force a non-identity matching");
                assert_perm(&rowp, 80);
                assert_zero_free_diag(&a, &rowp);
            }
        }
    }

    #[test]
    fn weighted_matching_maximizes_diagonal_product() {
        // The weighted matching's diagonal product must beat (or tie)
        // both the plain transversal's and — on full-diagonal inputs —
        // the identity's.
        let log_prod = |a: &CscMatrix, rowp: &[usize]| -> f64 {
            (0..a.n_cols())
                .map(|j| a.get(rowp[j], j).abs().log2())
                .sum()
        };
        for seed in 0..4u64 {
            let a = gen::circuit_zero_diag(60, 4, 1, seed);
            let t = maximum_transversal(&a).unwrap();
            let w = weighted_matching(&a).unwrap();
            assert!(
                log_prod(&a, &w) >= log_prod(&a, &t) - 1e-9,
                "seed {seed}: weighted product must dominate the transversal's"
            );
        }
        // Diagonally dominant: the identity is optimal, and the
        // weighted matching must find a product at least as large.
        let a = gen::circuit_unsym(50, 4, 2, 9);
        let w = weighted_matching(&a).unwrap();
        let id: Vec<usize> = (0..50).collect();
        assert!(log_prod(&a, &w) >= log_prod(&a, &id) - 1e-9);
    }

    #[test]
    fn weighted_prefers_large_entries() {
        // [[1e-8, 1], [1, 1e-8]]: both diagonals exist, but the
        // off-diagonal pairing has product 1 vs 1e-16 — the weighted
        // matching must swap, while the transversal's fast path keeps
        // the (structurally fine) identity.
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1e-8);
        t.push(1, 1, 1e-8);
        t.push(1, 0, 1.0);
        t.push(0, 1, 1.0);
        let a = t.to_csc().unwrap();
        assert!(compute_pre_pivot(&a, PrePivot::Transversal)
            .unwrap()
            .is_none());
        let w = compute_pre_pivot(&a, PrePivot::WeightedMatching)
            .unwrap()
            .expect("swap is strictly better");
        assert_eq!(w, vec![1, 0]);
    }

    #[test]
    fn mc64_scaling_bounds_entries_and_units_the_matched_diagonal() {
        // The duals' promise: Dr·A·Dc has every entry ≤ 1 and every
        // matched diagonal exactly 1 — on the zero-diagonal circuits
        // the pre-pivot exists for, and on a benign full-diagonal one.
        let mats = [
            gen::circuit_zero_diag(60, 4, 2, 3),
            gen::circuit_zero_diag(80, 4, 2, 11),
            gen::saddle_point_2x2(40, 8, 5),
            gen::circuit_unsym(50, 4, 2, 9),
        ];
        for a in &mats {
            let n = a.n_cols();
            let sm = weighted_matching_scaled(a).unwrap();
            assert_eq!(
                sm.rowp,
                weighted_matching(a).unwrap(),
                "scaled variant must return the same matching"
            );
            assert_eq!(sm.row_scale.len(), n);
            assert_eq!(sm.col_scale.len(), n);
            for j in 0..n {
                for (i, v) in a.col_iter(j) {
                    if v != 0.0 {
                        let s = sm.scaled_abs(i, j, v);
                        assert!(s <= 1.0 + 1e-9, "entry ({i}, {j}) scaled to {s} > 1");
                    }
                }
                let i = sm.rowp[j];
                let s = sm.scaled_abs(i, j, a.get(i, j));
                assert!(
                    (s - 1.0).abs() < 1e-9,
                    "matched diagonal of column {j} scaled to {s}, not 1"
                );
            }
        }
    }

    /// A NaN or ±Inf value has no finite scaling: a typed error naming
    /// the first such entry, column-major, before any search — not an
    /// overflowed dual.
    #[test]
    fn mc64_scaling_of_non_finite_values_is_a_typed_error() {
        let a = gen::circuit_unsym(30, 4, 2, 9);
        let at = a.col_ptr()[7] + 1;
        let (i, j) = (a.row_idx()[at], 7);
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bad = a.clone();
            bad.values_mut()[at] = poison;
            // A later non-finite entry is not the one named.
            let last = bad.nnz() - 1;
            bad.values_mut()[last] = f64::INFINITY;
            match weighted_matching_scaled(&bad) {
                Err(SparseError::InvalidMatrix(m)) => {
                    assert!(m.contains(&format!("A({i}, {j}) = {poison}")), "{m}");
                }
                other => panic!("{poison}: {other:?}"),
            }
        }
    }

    #[test]
    fn structurally_singular_reports_rank() {
        // Column 2 is empty: structural rank 3 of n = 4.
        let mut t = TripletMatrix::new(4, 4);
        t.push(0, 0, 1.0);
        t.push(1, 1, 1.0);
        t.push(3, 3, 1.0);
        t.push(2, 0, 1.0); // row 2 touches only column 0
        let a = t.to_csc().unwrap();
        assert_eq!(structural_rank(&a), 3);
        for pp in [PrePivot::Transversal, PrePivot::WeightedMatching] {
            match compute_pre_pivot(&a, pp) {
                Err(SparseError::StructurallySingular { n, structural_rank }) => {
                    assert_eq!((n, structural_rank), (4, 3), "{pp:?}");
                }
                other => panic!("{pp:?}: expected StructurallySingular, got {other:?}"),
            }
        }
    }

    #[test]
    fn duplicated_column_pattern_is_singular() {
        // Two columns whose patterns are the same single row: no
        // perfect matching even though every column is nonempty.
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(0, 1, 2.0);
        t.push(1, 2, 3.0);
        t.push(2, 2, 4.0);
        let a = t.to_csc().unwrap();
        assert!(matches!(
            maximum_transversal(&a),
            Err(SparseError::StructurallySingular {
                n: 3,
                structural_rank: 2
            })
        ));
    }

    #[test]
    fn explicit_zero_values_block_weighted_only() {
        // Diagonal stored but numerically zero, with nonzero
        // off-diagonals forming a perfect matching: the pattern-only
        // transversal happily keeps the identity, the weighted
        // matching must route around the zeros.
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 0.0);
        t.push(1, 1, 0.0);
        t.push(1, 0, 2.0);
        t.push(0, 1, 3.0);
        let a = t.to_csc().unwrap();
        assert!(compute_pre_pivot(&a, PrePivot::Transversal)
            .unwrap()
            .is_none());
        let w = weighted_matching(&a).unwrap();
        assert_eq!(w, vec![1, 0]);
        // All-zero values: even the weighted matching must give up,
        // with the numeric structural rank in the error.
        let mut t2 = TripletMatrix::new(2, 2);
        t2.push(0, 0, 0.0);
        t2.push(1, 1, 1.0);
        t2.push(1, 0, 0.0);
        let a2 = t2.to_csc().unwrap();
        assert!(matches!(
            weighted_matching(&a2),
            Err(SparseError::StructurallySingular {
                n: 2,
                structural_rank: 1
            })
        ));
    }

    #[test]
    fn saddle_point_suite_generator_matches() {
        let a = gen::saddle_point_2x2(40, 8, 5);
        assert_eq!(a.n_cols(), 48);
        assert_eq!(
            structural_diag_count(&a),
            40,
            "constraint block has no diagonal"
        );
        for pp in [PrePivot::Transversal, PrePivot::WeightedMatching] {
            let rowp = compute_pre_pivot(&a, pp).unwrap().expect("must permute");
            assert_perm(&rowp, 48);
            assert_zero_free_diag(&a, &rowp);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = gen::circuit_zero_diag(100, 4, 2, 7);
        assert_eq!(
            maximum_transversal(&a).unwrap(),
            maximum_transversal(&a).unwrap()
        );
        assert_eq!(
            weighted_matching(&a).unwrap(),
            weighted_matching(&a).unwrap()
        );
    }

    #[test]
    fn one_by_one_and_empty() {
        let a = CscMatrix::identity(1);
        assert_eq!(maximum_transversal(&a).unwrap(), vec![0]);
        assert_eq!(weighted_matching(&a).unwrap(), vec![0]);
        let e = CscMatrix::zeros(0, 0);
        assert!(maximum_transversal(&e).unwrap().is_empty());
        assert!(weighted_matching(&e).unwrap().is_empty());
        assert_eq!(structural_rank(&e), 0);
    }

    #[test]
    fn structural_rank_handles_rectangular_patterns() {
        // 3x2 with entries at (2, 0) and (0, 1): rank 2. The
        // row-indexed matcher state must size by n_rows, not n_cols.
        let mut t = TripletMatrix::new(3, 2);
        t.push(2, 0, 1.0);
        t.push(0, 1, 1.0);
        let a = t.to_csc().unwrap();
        assert_eq!(structural_rank(&a), 2);
        assert_eq!(structural_diag_count(&a), 0);
        // Wide: 2x3, two matchable columns out of three.
        let mut w = TripletMatrix::new(2, 3);
        w.push(0, 0, 1.0);
        w.push(0, 1, 1.0);
        w.push(1, 2, 1.0);
        let b = w.to_csc().unwrap();
        assert_eq!(structural_rank(&b), 2);
        assert_eq!(structural_diag_count(&b), 1);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PrePivot::Off.label(), "off");
        assert_eq!(PrePivot::Transversal.label(), "transversal");
        assert_eq!(PrePivot::WeightedMatching.label(), "weighted");
        assert_eq!(PrePivot::default(), PrePivot::Off);
        assert_eq!(PrePivot::ALL.len(), 3);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn rejects_rectangular() {
        let _ = maximum_transversal(&CscMatrix::zeros(3, 2));
    }
}
