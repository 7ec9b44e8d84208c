//! Row sparsity patterns of `L` via elimination-tree up-traversal —
//! the Cholesky **prune-set** inspector of the paper (§3.2, Table 1:
//! inspection graph = etree + SP(A), strategy = up-traversal,
//! inspection set = SP(L_j) per row).
//!
//! `ereach(A, k)` returns the column indices `j < k` with `L[k,j] != 0`,
//! i.e. exactly the columns whose updates column `k`'s factorization
//! consumes in left-looking Cholesky (Figure 4's `PruneSet`). The
//! traversal walks up the etree from each nonzero of `A(0..k, k)` until
//! it hits an already-marked node, giving a cost proportional to the
//! row's nonzero count — "nearly O(|A|)" across all rows (§3.2).
//!
//! **The whole factor from one traversal.** `up_traversal` walks the
//! row subtrees of every row in increasing order and writes each row as
//! it goes. Scattering the rows in order writes the columns of `L`
//! already sorted, and over a postordered etree the rows themselves come
//! out sorted (otherwise a counting-sort transposition of the columns
//! rewrites them): `O(nnz(A) + nnz(L))`, no comparison sort. It is the
//! symbolic factorization of Cholesky
//! ([`crate::symbolic::symbolic_cholesky_with_etree`]), its column
//! counts ([`crate::colcount`]) and the symbolic factorization of a
//! structurally symmetric LU ([`mod@crate::lu_symbolic`]), whose `U` is the
//! transpose of its `L`.

use crate::etree::NONE;
use sympiler_sparse::CscMatrix;

/// Reusable workspace for [`ereach_into`].
#[derive(Debug, Clone, Default)]
pub struct EreachWorkspace {
    /// Mark array: `mark[i] == stamp` means visited for the current row.
    mark: Vec<usize>,
    stamp: usize,
    /// Scratch stack for one upward path.
    path: Vec<usize>,
}

impl EreachWorkspace {
    pub fn new(n: usize) -> Self {
        Self {
            mark: vec![0; n],
            stamp: 0,
            path: Vec::with_capacity(32),
        }
    }

    fn ensure(&mut self, n: usize) {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
        }
    }
}

/// Compute the pattern of row `k` of `L` (excluding the diagonal) for
/// the symmetric matrix whose **upper triangle** is `a_upper`
/// (i.e. `transpose(a_lower)`). Allocating convenience wrapper.
pub fn ereach(a_upper: &CscMatrix, k: usize, parent: &[usize]) -> Vec<usize> {
    let mut ws = EreachWorkspace::new(a_upper.n_cols());
    let mut out = Vec::new();
    ereach_into(a_upper, k, parent, &mut ws, &mut out);
    out
}

/// As [`ereach`], writing into `out` (cleared first) and reusing `ws`.
///
/// The output is in **topological order with respect to the etree**
/// (every node precedes its ancestors within the same path), which is a
/// valid execution order for the left-looking update loop.
pub fn ereach_into(
    a_upper: &CscMatrix,
    k: usize,
    parent: &[usize],
    ws: &mut EreachWorkspace,
    out: &mut Vec<usize>,
) {
    let n = a_upper.n_cols();
    assert!(k < n, "row {k} out of range {n}");
    ws.ensure(n);
    ws.stamp += 1;
    let stamp = ws.stamp;
    out.clear();
    ws.mark[k] = stamp; // never include k itself
    for &i in a_upper.col_rows(k) {
        if i >= k {
            continue; // lower/diagonal entries when given full storage
        }
        // Walk up the tree from i until a marked node, collecting the
        // path, then emit it in root-ward order *after* reversing so the
        // deepest (smallest) column comes first.
        let mut x = i;
        ws.path.clear();
        while x != NONE && x < k && ws.mark[x] != stamp {
            ws.path.push(x);
            ws.mark[x] = stamp;
            x = parent[x];
        }
        // The path runs child -> ancestor; children must execute first,
        // so append as collected.
        out.extend(ws.path.iter().copied());
    }
    // A canonical, fully sorted order is also topological for an etree
    // (ancestors have larger indices), and makes downstream merging and
    // testing deterministic.
    out.sort_unstable();
}

/// All row patterns of `L`: returns `(row_ptr, row_idx)` in CSR-like
/// form over rows `0..n` (diagonal excluded, columns increasing). This
/// is the full prune-set table the Sympiler Cholesky inspector
/// precomputes, so the numeric phase never calls `ereach` (§4.2: "the
/// reach function ... is removed from the numeric code"). One etree
/// up-traversal (module docs): no per-row sort.
pub fn row_patterns(a_lower: &CscMatrix, parent: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let (col_ptr, row_idx) = strict_upper_pattern(a_lower);
    let f = up_traversal(
        UpperPattern::of_csc(&col_ptr, &row_idx),
        Some(parent),
        false,
    );
    (f.row_ptr, f.row_idx)
}

/// The strictly upper triangle of a symmetric pattern: `rows[starts[k]
/// ..ends[k]]` are the entries `i < k` of column `k`, which are row
/// `k`'s entries of the lower triangle — the starting points of row
/// `k`'s subtree walk. The lists need be neither sorted nor
/// duplicate-free.
#[derive(Debug, Clone, Copy)]
pub(crate) struct UpperPattern<'a> {
    pub starts: &'a [usize],
    pub ends: &'a [usize],
    pub rows: &'a [usize],
}

impl<'a> UpperPattern<'a> {
    /// A bare CSC pattern holding only strictly upper entries.
    pub fn of_csc(col_ptr: &'a [usize], rows: &'a [usize]) -> Self {
        let n = col_ptr.len() - 1;
        Self {
            starts: &col_ptr[..n],
            ends: &col_ptr[1..],
            rows,
        }
    }

    fn n(&self) -> usize {
        self.starts.len()
    }

    #[inline(always)]
    fn col(&self, k: usize) -> &'a [usize] {
        &self.rows[self.starts[k]..self.ends[k]]
    }
}

/// The pattern of `L` one etree up-traversal gives.
#[derive(Debug)]
pub(crate) struct FactorPattern {
    /// Column pointers of `L` (`n + 1` entries).
    pub l_col_ptr: Vec<usize>,
    /// Row indices of `L`: the diagonal first in every column, then
    /// increasing rows.
    pub l_row_idx: Vec<usize>,
    /// Pointers of the row patterns (`n + 1` entries).
    pub row_ptr: Vec<usize>,
    /// Row `k`'s columns `j < k` with `L(k, j) != 0`, increasing, then
    /// `k` itself when the diagonal was asked for.
    pub row_idx: Vec<usize>,
}

/// The pattern of `L` for the symmetric pattern `upper`, given its
/// elimination tree `parent`, or building the tree on the way when
/// `parent` is `None` (the walk of row `k` reaches each root it meets
/// through an entry of row `k`, so `k` is that root's parent — Liu's
/// algorithm without path compression, paid for by the walk). With
/// `diagonal_in_rows` every row pattern ends with its own index — the
/// pattern of `U(:, k)` when `U = Lᵀ`.
///
/// One walk of every row subtree, rows in increasing order, writes the
/// rows and counts the columns; scattering the rows in order then
/// writes `L`'s columns sorted. A row comes out sorted too when its
/// entries are walked from the largest down (the lists are increasing
/// wherever they come from in this crate) and the etree is postordered
/// (every ordering `compute_ordering` returns is): each path then lies
/// below every node already marked, so the paths, each increasing, only
/// need to be laid out in reverse — two in-place reversals per row. One
/// comparison per path checks that; if any row fails it, a
/// counting-sort transposition of the columns rewrites the rows.
/// `O(nnz(A) + nnz(L))` time, no comparison sort, every output at its
/// exact size, `O(n)` scratch.
pub(crate) fn up_traversal(
    upper: UpperPattern<'_>,
    parent: Option<&[usize]>,
    diagonal_in_rows: bool,
) -> FactorPattern {
    let n = upper.n();
    let mut mark = vec![NONE; n];
    let mut tree = if parent.is_none() {
        vec![NONE; n]
    } else {
        Vec::new()
    };
    // --- The walk: rows, and the column counts.
    let mut l_col_ptr = vec![0usize; n + 1];
    let mut row_ptr = Vec::with_capacity(n + 1);
    row_ptr.push(0);
    let mut row_idx: Vec<usize> = Vec::with_capacity(upper.rows.len() + n);
    let mut rows_sorted = true;
    for k in 0..n {
        let row_start = row_idx.len();
        mark[k] = k;
        for &i in upper.col(k).iter().rev() {
            let path_start = row_idx.len();
            let visit = |j: usize| {
                l_col_ptr[j + 1] += 1;
                row_idx.push(j);
            };
            match parent {
                Some(parent) => walk_path(i, k, &mut mark, |x, _| parent[x], visit),
                None => {
                    let parent_of = |x: usize, k: usize| {
                        if tree[x] == NONE {
                            tree[x] = k;
                        }
                        tree[x]
                    };
                    walk_path(i, k, &mut mark, parent_of, visit)
                }
            }
            // Kept decreasing: the new path, reversed, must start below
            // where the previous one ended.
            let path_end = row_idx.len();
            if path_start > row_start && path_start < path_end {
                rows_sorted &= row_idx[path_end - 1] < row_idx[path_start - 1];
            }
            row_idx[path_start..].reverse();
        }
        row_idx[row_start..].reverse();
        if diagonal_in_rows {
            row_idx.push(k);
        }
        row_ptr.push(row_idx.len());
    }
    row_idx.shrink_to_fit();
    drop((mark, tree));
    // --- The columns: diagonal first, then the rows that visited them,
    // increasing because rows are scattered in order.
    let diag = diagonal_in_rows as usize;
    let mut next = Vec::with_capacity(n);
    for j in 0..n {
        l_col_ptr[j + 1] += l_col_ptr[j] + 1;
        next.push(l_col_ptr[j] + 1);
    }
    let mut l_row_idx = vec![0usize; l_col_ptr[n]];
    for j in 0..n {
        l_row_idx[l_col_ptr[j]] = j;
    }
    for k in 0..n {
        for &j in &row_idx[row_ptr[k]..row_ptr[k + 1] - diag] {
            l_row_idx[next[j]] = k;
            next[j] += 1;
        }
    }
    // --- Rows walked out of order: scanning the columns in increasing
    // order rewrites each row's columns increasing.
    if !rows_sorted {
        next.clear();
        next.extend_from_slice(&row_ptr[..n]);
        for j in 0..n {
            for &k in &l_row_idx[l_col_ptr[j] + 1..l_col_ptr[j + 1]] {
                row_idx[next[k]] = j;
                next[k] += 1;
            }
        }
    }
    FactorPattern {
        l_col_ptr,
        l_row_idx,
        row_ptr,
        row_idx,
    }
}

/// Column counts of `L` (diagonal included): the walk of
/// [`up_traversal`] alone.
pub(crate) fn up_traversal_counts(upper: UpperPattern<'_>, parent: &[usize]) -> Vec<usize> {
    let n = upper.n();
    let mut mark = vec![NONE; n];
    let mut counts = vec![1usize; n];
    for k in 0..n {
        mark[k] = k;
        for &i in upper.col(k) {
            walk_path(i, k, &mut mark, |x, _| parent[x], |j| counts[j] += 1);
        }
    }
    counts
}

/// One path of row `k`'s subtree: from `i` up the etree to the first
/// node already marked for `k` (the caller marks `k` itself first),
/// calling `visit(j)` on each node `j` on the way — a column `j < k`
/// with `L(k, j) != 0`, in increasing order. `parent_of(x, k)` is the
/// parent of `x`. A node of a valid etree reaches `k` before any root;
/// the `x < k` guard keeps a wrong tree from walking past it.
#[inline(always)]
fn walk_path(
    i: usize,
    k: usize,
    mark: &mut [usize],
    mut parent_of: impl FnMut(usize, usize) -> usize,
    mut visit: impl FnMut(usize),
) {
    let mut x = i;
    while x < k && mark[x] != k {
        mark[x] = k;
        visit(x);
        x = parent_of(x, k);
    }
}

/// The strictly upper triangle of the symmetric matrix stored in
/// `a_lower`, as a bare CSC pattern: the transposition of its strictly
/// lower entries, with no values.
pub(crate) fn strict_upper_pattern(a_lower: &CscMatrix) -> (Vec<usize>, Vec<usize>) {
    let n = a_lower.n_cols();
    let mut col_ptr = vec![0usize; n + 1];
    for j in 0..n {
        for &i in a_lower.col_rows(j) {
            if i > j {
                col_ptr[i + 1] += 1;
            }
        }
    }
    for i in 0..n {
        col_ptr[i + 1] += col_ptr[i];
    }
    let mut next = col_ptr[..n].to_vec();
    let mut row_idx = vec![0usize; col_ptr[n]];
    for j in 0..n {
        for &i in a_lower.col_rows(j) {
            if i > j {
                row_idx[next[i]] = j;
                next[i] += 1;
            }
        }
    }
    (col_ptr, row_idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etree::etree;
    use sympiler_sparse::{gen, ops};

    /// Dense symbolic factorization for cross-checking row patterns.
    fn brute_l_pattern(a_lower: &CscMatrix) -> Vec<Vec<bool>> {
        let n = a_lower.n_cols();
        let mut pat = vec![vec![false; n]; n]; // pat[j][i] = L[i,j] != 0
        for j in 0..n {
            for &i in a_lower.col_rows(j) {
                pat[j][i] = true;
            }
        }
        for j in 0..n {
            let rows: Vec<usize> = (j + 1..n).filter(|&i| pat[j][i]).collect();
            if let Some(&first) = rows.first() {
                for &k in &rows[1..] {
                    pat[first][k] = true;
                }
            }
        }
        pat
    }

    #[test]
    fn ereach_matches_brute_force() {
        for seed in 0..10u64 {
            let a = gen::random_spd(35, 4, seed);
            let parent = etree(&a);
            let at = ops::transpose(&a);
            let pat = brute_l_pattern(&a);
            for k in 0..35 {
                let r = ereach(&at, k, &parent);
                let expect: Vec<usize> = (0..k).filter(|&j| pat[j][k]).collect();
                assert_eq!(r, expect, "row {k}, seed {seed}");
            }
        }
    }

    #[test]
    fn ereach_on_grid() {
        let a = gen::grid2d_laplacian(5, 4, false, 1);
        let parent = etree(&a);
        let at = ops::transpose(&a);
        let pat = brute_l_pattern(&a);
        for k in 0..20 {
            let r = ereach(&at, k, &parent);
            let expect: Vec<usize> = (0..k).filter(|&j| pat[j][k]).collect();
            assert_eq!(r, expect, "row {k}");
        }
    }

    #[test]
    fn first_row_is_empty() {
        let a = gen::random_spd(20, 3, 2);
        let parent = etree(&a);
        let at = ops::transpose(&a);
        assert!(ereach(&at, 0, &parent).is_empty());
    }

    #[test]
    fn row_patterns_table_matches_per_row_calls() {
        let a = gen::random_spd(30, 4, 5);
        let parent = etree(&a);
        let at = ops::transpose(&a);
        let (ptr, idx) = row_patterns(&a, &parent);
        assert_eq!(ptr.len(), 31);
        for k in 0..30 {
            let row = &idx[ptr[k]..ptr[k + 1]];
            assert_eq!(row, ereach(&at, k, &parent).as_slice(), "row {k}");
        }
    }

    #[test]
    fn the_rows_come_out_sorted_on_postordered_and_other_etrees() {
        // A postordered etree lets the walk lay each row out sorted; any
        // other order sends the rows through the transposition. Both
        // must equal the sorted per-row `ereach`.
        for seed in 0..12u64 {
            let a = gen::random_spd(60, 4, seed);
            let full = ops::symmetrize_from_lower(&a).unwrap();
            let post = crate::postorder::postorder(&etree(&a));
            let b = ops::extract_lower(&ops::permute_sym(&full, &post).unwrap());
            let identity: Vec<usize> = (0..60).collect();
            assert_eq!(
                crate::postorder::postorder(&etree(&b)),
                identity,
                "seed {seed}"
            );
            for (m, label) in [(&a, "natural"), (&b, "postordered")] {
                let parent = etree(m);
                let at = ops::transpose(m);
                let (ptr, idx) = row_patterns(m, &parent);
                for k in 0..60 {
                    let row = &idx[ptr[k]..ptr[k + 1]];
                    assert_eq!(row, ereach(&at, k, &parent), "{label} seed {seed} row {k}");
                }
            }
        }
    }

    #[test]
    fn workspace_reuse_is_clean() {
        let a = gen::random_spd(25, 3, 8);
        let parent = etree(&a);
        let at = ops::transpose(&a);
        let mut ws = EreachWorkspace::new(25);
        let mut out = Vec::new();
        for k in 0..25 {
            ereach_into(&at, k, &parent, &mut ws, &mut out);
            let fresh = ereach(&at, k, &parent);
            assert_eq!(out, fresh, "row {k} with reused workspace");
        }
    }

    #[test]
    fn diagonal_matrix_has_empty_rows() {
        let a = CscMatrix::identity(8);
        let parent = etree(&a);
        let (ptr, idx) = row_patterns(&a, &parent);
        assert!(idx.is_empty());
        assert_eq!(ptr, vec![0; 9]);
    }
}
