//! Symbolic LU factorization under static pivoting, the inspection
//! stage of the sparse LU subsystem: the elimination-tree up-traversal
//! for structurally symmetric patterns, and column-by-column
//! Gilbert–Peierls reach (Gilbert & Peierls 1988) with Eisenstat–Liu
//! symmetric pruning for the rest.
//!
//! **Two inspectors, one output.** The pattern of exact boolean
//! elimination does not depend on how it is found, so [`lu_symbolic`]
//! picks the cheaper traversal for the pattern, and both return the
//! same patterns and flop count:
//!
//! * **Structurally symmetric** (`A(i, j) != 0 ⇔ A(j, i) != 0` off the
//!   diagonal; the diagonal may be structurally zero). An `O(nnz(A))`
//!   cursor check decides. Elimination keeps such a pattern symmetric,
//!   so `L` is the Cholesky factor's pattern and `U = Lᵀ`. The
//!   inspection graph is the elimination tree and the strategy the
//!   single-node up-traversal of [`mod@crate::ereach`] — the paper's
//!   Cholesky inspector (Table 1). One walk of every row subtree builds
//!   the etree on the way, writes the rows of `L` (the columns of `U`)
//!   and counts its columns; scattering the rows writes the columns.
//!   `O(nnz(A) + nnz(L))`, no comparison sort, every output at its
//!   exact size. The flop count `Σ_k (c_k + 2 c_k²)`, with `c_k`
//!   sub-diagonal entries in `L(:, k)`, is the DFS path's sum regrouped
//!   by source column.
//! * **Otherwise** the pruned DFS below: `O(nnz(A) + Σ_j Σ_{k ∈ U(:,j)}
//!   |adj(k)|)` plus a sort of each column's reach, with `adj(k)` the
//!   pruned prefix. Without a single symmetric pair nothing is cut,
//!   and the unpruned bound — `flops(LU) / 2` adjacency reads — is what
//!   remains.
//!
//! [`LuSymbolic::strategy`] names the path that ran, and
//! [`LuSymbolic::dfs_edges`] counts its traversal: adjacency entries of
//! `L` read by the DFS, or etree edges climbed by the up-traversal —
//! one per off-diagonal entry of `L`.
//!
//! **The DFS path.** Left-looking LU computes column `j` of the factors
//! by solving the lower-triangular system `L(0:j-1, 0:j-1) * x =
//! A(:, j)` — so the nonzero pattern of column `j` is exactly
//! `Reach_L(SP(A(:,j)))` on the dependence graph of the partially built
//! `L`, the same reach-set idea [`crate::dfs`] implements for
//! triangular solve. Because `L` grows one column per step, the
//! traversal runs over the growing CSC arrays rather than a finished
//! [`CscMatrix`].
//!
//! **Pruning.** A reach set does not need every edge of `L`, only a
//! subgraph with the same reachability. Every finished column
//! `L(:, k)` is stored sorted, so the traversal's adjacency of `k` is a
//! *prefix* of the column, ended by one index `adj_end[k]`. Once column
//! `j` is formed, every `k` with `U(k, j) != 0` and `L(j, k) != 0` (a
//! symmetric pair) has its prefix cut to just past row `j`: column `k`
//! updated column `j`, so `struct L(j+1:, k) ⊆ struct L(:, j)`, and
//! every row `k` reached directly below `j` stays reachable through the
//! kept edge `k → j`. Discarding dependence edges that others imply
//! leaves the output untouched — the patterns are those of the unpruned
//! traversal, entry for entry. A column is cut at most once (at its
//! first symmetric pair; later pairs lie outside the prefix). On a
//! symmetric pattern every column would be read in full once, by its
//! etree parent, which cuts it to that one edge — the up-traversal
//! walks exactly those parent edges and skips the rest.
//!
//! **Schedule.** Only the reach *set* is needed, not a post-order:
//! `U(:, j)` is emitted sorted, and ascending source column is a valid
//! topological order of a lower-triangular dependence graph, so the
//! sorted off-diagonal pattern of `U(:, j)` *is* the update schedule of
//! column `j` ([`LuSymbolic::reach`]). Every numeric engine — the
//! compiled plans and the coupled baseline — applies updates in that
//! one canonical order.
//!
//! Pivoting is **static** (diagonal): Sympiler's premise is a fixed
//! sparsity pattern known at compile time, which rules out numeric
//! partial pivoting (the paper targets matrices where a fill-reducing
//! ordering plus diagonal dominance or pre-pivoting make this safe; the
//! runtime baseline `sympiler-solvers`' GPLU offers partial pivoting as
//! a verification mode). Every predicted pattern is therefore exact for
//! any numeric values with the same structure, barring accidental
//! cancellation.

use crate::ereach::{up_traversal, UpperPattern};
use sympiler_sparse::CscMatrix;

/// The symbolic LU factorization of one sparsity pattern: predicted
/// patterns of `L` (unit lower triangular, diagonal first) and `U`
/// (upper triangular, diagonal last). The off-diagonal part of each
/// `U` column doubles as that column's update schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LuSymbolic {
    /// Matrix order.
    pub n: usize,
    /// Column pointers of `L` (`n + 1` entries).
    pub l_col_ptr: Vec<usize>,
    /// Row indices of `L`; each column stores the diagonal first, then
    /// strictly increasing sub-diagonal rows.
    pub l_row_idx: Vec<usize>,
    /// Column pointers of `U` (`n + 1` entries).
    pub u_col_ptr: Vec<usize>,
    /// Row indices of `U`; strictly increasing, diagonal last.
    pub u_row_idx: Vec<usize>,
    /// Exact factorization flop count (divisions + multiply-subtract
    /// pairs of every scheduled update).
    flops: u64,
    /// Adjacency entries of `L` the inspection read.
    dfs_edges: u64,
    /// The traversal that produced the patterns.
    strategy: LuStrategy,
}

/// The traversal [`lu_symbolic`] ran — a compile-time decision read
/// off the pattern, recorded so a report can name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LuStrategy {
    /// Etree up-traversal of a structurally symmetric pattern.
    EtreeUpTraversal,
    /// Gilbert–Peierls DFS with symmetric pruning, any pattern.
    Dfs,
}

impl LuStrategy {
    /// Human-readable name, as reports print it.
    pub fn label(self) -> &'static str {
        match self {
            Self::EtreeUpTraversal => "etree up-traversal",
            Self::Dfs => "DFS",
        }
    }
}

impl LuSymbolic {
    /// Stored nonzeros of `L` (including the unit diagonal).
    pub fn l_nnz(&self) -> usize {
        self.l_row_idx.len()
    }

    /// Stored nonzeros of `U` (including the diagonal).
    pub fn u_nnz(&self) -> usize {
        self.u_row_idx.len()
    }

    /// Pattern of `L(:, j)`: diagonal first, then increasing rows.
    pub fn l_col_pattern(&self, j: usize) -> &[usize] {
        &self.l_row_idx[self.l_col_ptr[j]..self.l_col_ptr[j + 1]]
    }

    /// Pattern of `U(:, j)`: increasing rows, diagonal last.
    pub fn u_col_pattern(&self, j: usize) -> &[usize] {
        &self.u_row_idx[self.u_col_ptr[j]..self.u_col_ptr[j + 1]]
    }

    /// The update schedule of column `j` — the columns `k < j` whose
    /// `L(:, k)` updates it (the VI-Prune set of the column's solve),
    /// strictly ascending, which is a topological order: the
    /// off-diagonal pattern of `U(:, j)`.
    pub fn reach(&self, j: usize) -> &[usize] {
        &self.u_row_idx[self.u_col_ptr[j]..self.u_col_ptr[j + 1] - 1]
    }

    /// Exact flop count of the numeric factorization this symbolic
    /// analysis schedules (for GFLOP/s reporting, like
    /// [`crate::symbolic::SymbolicFactor::factor_flops`]).
    pub fn factor_flops(&self) -> u64 {
        self.flops
    }

    /// The inspection's deterministic traversal cost, to hold against
    /// `nnz(L) + nnz(U)`: under [`LuStrategy::Dfs`] the adjacency
    /// entries of the (pruned) `L` the DFS read; under
    /// [`LuStrategy::EtreeUpTraversal`] the etree edges the row
    /// subtrees climb, one per off-diagonal entry of `L`
    /// (`nnz(L) − n`). Both stay within `factor_flops() / 2`.
    pub fn dfs_edges(&self) -> u64 {
        self.dfs_edges
    }

    /// Which traversal produced the patterns.
    pub fn strategy(&self) -> LuStrategy {
        self.strategy
    }

    /// Exact flop count of each column's solve: its divisions plus a
    /// multiply-subtract pair per off-diagonal entry of every update
    /// column in its schedule. Sums to [`Self::factor_flops`]. The
    /// compiled LU plan reads the same counts off its baked schedules
    /// (panel flops, the dense-panel rule).
    pub fn per_column_flops(&self) -> Vec<u64> {
        let off = |k: usize| (self.l_col_ptr[k + 1] - self.l_col_ptr[k] - 1) as u64;
        (0..self.n)
            .map(|j| off(j) + self.reach(j).iter().map(|&k| 2 * off(k)).sum::<u64>())
            .collect()
    }

    /// Fill ratio `(nnz(L) + nnz(U) - n) / nnz(A)`.
    pub fn fill_ratio(&self, a_nnz: usize) -> f64 {
        if a_nnz == 0 {
            return 0.0;
        }
        (self.l_nnz() + self.u_nnz() - self.n) as f64 / a_nnz as f64
    }
}

/// Run the symbolic LU inspection for a square matrix `a` (full,
/// generally unsymmetric storage) under static diagonal pivoting: the
/// etree up-traversal when the pattern is structurally symmetric, the
/// pruned DFS otherwise (module docs).
///
/// # Panics
/// If `a` is not square.
pub fn lu_symbolic(a: &CscMatrix) -> LuSymbolic {
    assert!(a.is_square(), "LU needs a square matrix");
    match upper_ends(a) {
        Some(ends) => lu_symbolic_up_traversal(a, &ends),
        None => lu_symbolic_dfs(a),
    }
}

/// Whether every off-diagonal entry of the square matrix `a` has its
/// mirror image (`A(i, j) != 0 ⇔ A(j, i) != 0` for `i != j`; the
/// diagonal may hold structural zeros). Sorted rows make every
/// symmetric pattern pass; unsorted rows or duplicate entries may only
/// send a symmetric pattern to the DFS.
pub fn is_structurally_symmetric(a: &CscMatrix) -> bool {
    upper_ends(a).is_some()
}

/// The structural symmetry check, one pass over the entries: columns
/// in increasing order, each entry `(i, j)` below the diagonal consumes
/// column `i`'s next entry, which must be `(j, i)`. When column `j`'s
/// turn comes, every mirror of its entries above the diagonal has been
/// seen, so its consumed prefix must be all of them: what follows may
/// be the diagonal, then only entries below it. On success that prefix
/// is returned for every column — where its strictly upper entries end.
fn upper_ends(a: &CscMatrix) -> Option<Vec<usize>> {
    let n = a.n_cols();
    let (col_ptr, row_idx) = (a.col_ptr(), a.row_idx());
    let mut cursor = col_ptr[..n].to_vec();
    for j in 0..n {
        let (mut p, end) = (cursor[j], col_ptr[j + 1]);
        if p < end && row_idx[p] == j {
            p += 1;
        }
        for &i in &row_idx[p..end] {
            if i <= j {
                return None;
            }
            let c = cursor[i];
            if c == col_ptr[i + 1] || row_idx[c] != j {
                return None;
            }
            cursor[i] = c + 1;
        }
    }
    Some(cursor)
}

/// The symmetric path: `L` from the etree up-traversal, `U(:, j)` = row
/// `j` of `L`, then the diagonal. Column `k` of `L` with `c_k`
/// sub-diagonal entries updates exactly the `c_k` columns of its rows,
/// so the flop count is `Σ_k (c_k + 2 c_k²)`, the DFS path's sum
/// regrouped by source column.
fn lu_symbolic_up_traversal(a: &CscMatrix, upper_ends: &[usize]) -> LuSymbolic {
    let n = a.n_cols();
    let upper = UpperPattern {
        starts: &a.col_ptr()[..n],
        ends: upper_ends,
        rows: a.row_idx(),
    };
    let f = up_traversal(upper, None, true);
    let flops = (0..n)
        .map(|k| {
            let c = (f.l_col_ptr[k + 1] - f.l_col_ptr[k] - 1) as u64;
            c + 2 * c * c
        })
        .sum();
    LuSymbolic {
        n,
        dfs_edges: (f.l_row_idx.len() - n) as u64,
        l_col_ptr: f.l_col_ptr,
        l_row_idx: f.l_row_idx,
        u_col_ptr: f.row_ptr,
        u_row_idx: f.row_idx,
        flops,
        strategy: LuStrategy::EtreeUpTraversal,
    }
}

/// The general path: column-by-column Gilbert–Peierls reach over the
/// growing, pruned `L` (module docs).
fn lu_symbolic_dfs(a: &CscMatrix) -> LuSymbolic {
    let n = a.n_cols();

    let mut l_col_ptr = Vec::with_capacity(n + 1);
    let mut l_row_idx: Vec<usize> = Vec::with_capacity(a.nnz());
    let mut u_col_ptr = Vec::with_capacity(n + 1);
    let mut u_row_idx: Vec<usize> = Vec::with_capacity(a.nnz());
    l_col_ptr.push(0);
    u_col_ptr.push(0);

    // `l_row_idx[l_col_ptr[k] + 1..adj_end[k]]` is the adjacency of a
    // finished column `k`; `pruned[k]` once it has been cut.
    let mut adj_end: Vec<usize> = Vec::with_capacity(n);
    let mut pruned = vec![false; n];
    let mut flops = 0u64;
    let mut dfs_edges = 0u64;

    // `mark[v] == j` while `v` is in column `j`'s reach. `reach` is
    // both the result and the worklist of the traversal.
    let mut mark = vec![usize::MAX; n];
    let mut reach: Vec<usize> = Vec::with_capacity(64);

    for j in 0..n {
        // --- Inspection: Reach_{L_j}(SP(A(:,j))). Nodes >= j have no
        // outgoing edges yet (their columns are future pivots), so
        // they are leaves.
        reach.clear();
        for &i in a.col_rows(j) {
            mark[i] = j;
            reach.push(i);
        }
        let mut next = 0;
        while next < reach.len() {
            let k = reach[next];
            next += 1;
            if k >= j {
                continue;
            }
            let adj = &l_row_idx[l_col_ptr[k] + 1..adj_end[k]];
            dfs_edges += adj.len() as u64;
            for &i in adj {
                if mark[i] != j {
                    mark[i] = j;
                    reach.push(i);
                }
            }
        }

        // --- Partition the reach into the factor patterns.
        // U(:, j): reached rows k < j ascending, then the diagonal.
        // L(:, j): diagonal first, then reached rows i > j ascending.
        // Sorting costs O(|pattern| log |pattern|); the patterns stay
        // sorted in the emitted CSC, which every consumer (and the
        // prefix pruning above) relies on.
        reach.sort_unstable();
        let n_upper = reach.partition_point(|&v| v < j);
        let n_lower = reach.len() - reach.partition_point(|&v| v <= j);
        u_row_idx.extend_from_slice(&reach[..n_upper]);
        u_row_idx.push(j);
        u_col_ptr.push(u_row_idx.len());
        l_row_idx.push(j);
        l_row_idx.extend_from_slice(&reach[reach.len() - n_lower..]);
        l_col_ptr.push(l_row_idx.len());
        adj_end.push(l_row_idx.len());

        // One division per sub-diagonal entry of L(:, j), one
        // multiply-subtract pair per entry of every update column.
        flops += n_lower as u64;
        for &k in &reach[..n_upper] {
            flops += 2 * (l_col_ptr[k + 1] - l_col_ptr[k] - 1) as u64;
            // --- Prune: U(k, j) != 0, so if also L(j, k) != 0 nothing
            // of L(:, k) below row j is needed again.
            if !pruned[k] {
                let adj = &l_row_idx[l_col_ptr[k] + 1..adj_end[k]];
                if let Ok(pos) = adj.binary_search(&j) {
                    adj_end[k] = l_col_ptr[k] + 1 + pos + 1;
                    pruned[k] = true;
                }
            }
        }
    }

    LuSymbolic {
        n,
        l_col_ptr,
        l_row_idx,
        u_col_ptr,
        u_row_idx,
        flops,
        dfs_edges,
        strategy: LuStrategy::Dfs,
    }
}

/// Reference for [`lu_symbolic`]: boolean Gaussian elimination without
/// pivoting — the exact structural fill as `(L columns, U columns)` in
/// ascending row order, O(n³) and meant for test sizes only.
pub fn dense_symbolic_lu(a: &CscMatrix) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let n = a.n_cols();
    let mut pat = vec![vec![false; n]; n]; // pat[j][i], column-major
    for j in 0..n {
        for &i in a.col_rows(j) {
            pat[j][i] = true;
        }
        pat[j][j] = true; // static pivot slot always exists
    }
    for k in 0..n {
        // Eliminate: for every i > k with (i,k) nonzero and every
        // j > k with (k,j) nonzero, (i,j) fills.
        for j in k + 1..n {
            if !pat[j][k] {
                continue;
            }
            for i in k + 1..n {
                if pat[k][i] {
                    pat[j][i] = true;
                }
            }
        }
    }
    let mut l_cols = Vec::with_capacity(n);
    let mut u_cols = Vec::with_capacity(n);
    for j in 0..n {
        l_cols.push((j..n).filter(|&i| pat[j][i]).collect());
        u_cols.push((0..=j).filter(|&i| pat[j][i]).collect());
    }
    (l_cols, u_cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympiler_sparse::gen;
    use sympiler_sparse::TripletMatrix;

    fn pattern_matrix(edges: &[(usize, usize)], n: usize) -> CscMatrix {
        let mut t = TripletMatrix::new(n, n);
        for j in 0..n {
            t.push(j, j, 2.0);
        }
        for &(i, j) in edges {
            t.push(i, j, 1.0);
        }
        t.to_csc().unwrap()
    }

    #[test]
    fn diagonal_matrix_has_no_fill_and_no_updates() {
        let a = CscMatrix::identity(6);
        let sym = lu_symbolic(&a);
        assert_eq!(sym.l_nnz(), 6);
        assert_eq!(sym.u_nnz(), 6);
        assert_eq!(sym.factor_flops(), 0);
        assert_eq!(sym.dfs_edges(), 0);
        for j in 0..6 {
            assert_eq!(sym.l_col_pattern(j), &[j]);
            assert_eq!(sym.u_col_pattern(j), &[j]);
        }
    }

    #[test]
    fn lower_triangular_input_needs_no_updates() {
        // A = diag + subdiagonal is already lower triangular: L takes
        // A's pattern, U stays diagonal, and no column solve has any
        // update to perform.
        let edges: Vec<(usize, usize)> = (1..6).map(|i| (i, i - 1)).collect();
        let a = pattern_matrix(&edges, 6);
        let sym = lu_symbolic(&a);
        for j in 0..6 {
            assert_eq!(sym.reach(j), &[] as &[usize]);
            assert_eq!(sym.u_col_pattern(j), &[j]);
        }
        assert_eq!(sym.l_nnz(), a.nnz());
    }

    #[test]
    fn upper_bidiagonal_chains_updates() {
        // A = diag + superdiagonal: U gets the superdiagonal, L stays
        // diagonal, and each column j > 0 is updated by column j - 1.
        let edges: Vec<(usize, usize)> = (1..6).map(|i| (i - 1, i)).collect();
        let a = pattern_matrix(&edges, 6);
        let sym = lu_symbolic(&a);
        for j in 1..6 {
            assert_eq!(sym.reach(j), &[j - 1]);
            assert_eq!(sym.u_col_pattern(j), &[j - 1, j]);
            assert_eq!(sym.l_col_pattern(j), &[j]);
        }
        assert_eq!(sym.reach(0), &[] as &[usize]);
    }

    #[test]
    fn arrow_matrix_fills_last_row_and_column() {
        // Dense first row + first column: no fill under this ordering
        // (arrow pointing down-right), every column updated by column 0
        // only through U, and L keeps the first column dense.
        let n = 7;
        let mut edges = Vec::new();
        for i in 1..n {
            edges.push((i, 0));
            edges.push((0, i));
        }
        let a = pattern_matrix(&edges, n);
        let sym = lu_symbolic(&a);
        let (l_ref, u_ref) = dense_symbolic_lu(&a);
        for j in 0..n {
            assert_eq!(sym.l_col_pattern(j), l_ref[j].as_slice(), "L col {j}");
            assert_eq!(sym.u_col_pattern(j), u_ref[j].as_slice(), "U col {j}");
        }
        // Reverse arrow (dense last row/col) is the worst case: here the
        // matrix is already dense in the relevant sense, so check the
        // other direction fills completely.
        let mut edges_rev = Vec::new();
        for i in 0..n - 1 {
            edges_rev.push((n - 1, i));
            edges_rev.push((i, n - 1));
        }
        let b = pattern_matrix(&edges_rev, n);
        let symb = lu_symbolic(&b);
        let (lb, ub) = dense_symbolic_lu(&b);
        for j in 0..n {
            assert_eq!(symb.l_col_pattern(j), lb[j].as_slice(), "L col {j}");
            assert_eq!(symb.u_col_pattern(j), ub[j].as_slice(), "U col {j}");
        }
    }

    #[test]
    fn random_unsymmetric_matches_dense_symbolic() {
        for seed in 0..12u64 {
            let a = gen::circuit_unsym(30, 3, 1, seed);
            let sym = lu_symbolic(&a);
            let (l_ref, u_ref) = dense_symbolic_lu(&a);
            for j in 0..30 {
                assert_eq!(
                    sym.l_col_pattern(j),
                    l_ref[j].as_slice(),
                    "seed {seed} L col {j}"
                );
                assert_eq!(
                    sym.u_col_pattern(j),
                    u_ref[j].as_slice(),
                    "seed {seed} U col {j}"
                );
            }
        }
    }

    #[test]
    fn reach_is_topological_and_consistent_with_patterns() {
        let a = gen::convection_diffusion_2d(6, 5, 0.8, 3);
        let sym = lu_symbolic(&a);
        for j in 0..a.n_cols() {
            let reach = sym.reach(j);
            // Reach members are exactly the off-diagonal U rows.
            let u_off = &sym.u_col_pattern(j)[..sym.u_col_pattern(j).len() - 1];
            assert_eq!(reach, u_off, "col {j}");
            // Strictly ascending: the canonical update order.
            assert!(reach.windows(2).all(|w| w[0] < w[1]), "col {j}");
            // Topological: if k' in reach appears after k and
            // L(k', k) != 0, order is violated.
            let pos: std::collections::HashMap<usize, usize> =
                reach.iter().enumerate().map(|(p, &k)| (k, p)).collect();
            for &k in reach {
                for &i in &sym.l_col_pattern(k)[1..] {
                    if let Some(&pi) = pos.get(&i) {
                        assert!(pos[&k] < pi, "col {j}: edge {k}->{i} out of order");
                    }
                }
            }
        }
    }

    #[test]
    fn symmetric_pattern_prunes_every_column_to_its_etree_parent() {
        // On a structurally symmetric pattern the first off-diagonal
        // of L(:, k) is k's elimination-tree parent p, U(k, p) is
        // nonzero by symmetry and no earlier column reaches k — so
        // column p reads L(:, k) in full and cuts it to the edge
        // k -> p, and every later update reads that one entry.
        // `lu_symbolic` sends this pattern to the up-traversal, so the
        // DFS is called directly.
        let lower = gen::grid2d_laplacian(7, 6, false, 2);
        let a = sympiler_sparse::ops::symmetrize_from_lower(&lower).unwrap();
        let sym = lu_symbolic_dfs(&a);
        assert_eq!(sym.strategy(), LuStrategy::Dfs);
        let (l_ref, u_ref) = dense_symbolic_lu(&a);
        for j in 0..a.n_cols() {
            assert_eq!(sym.l_col_pattern(j), l_ref[j].as_slice(), "L col {j}");
            assert_eq!(sym.u_col_pattern(j), u_ref[j].as_slice(), "U col {j}");
        }
        let n = sym.n;
        let non_roots = (0..n).filter(|&k| sym.l_col_pattern(k).len() > 1).count();
        let first_reads = sym.l_nnz() - n;
        let later_reads = sym.u_nnz() - n - non_roots;
        assert_eq!(sym.dfs_edges(), (first_reads + later_reads) as u64);
        // The up-traversal climbs one etree edge per entry of L below
        // the diagonal — the DFS's first reads alone.
        let up = lu_symbolic(&a);
        assert_eq!(up.strategy(), LuStrategy::EtreeUpTraversal);
        assert_same(&up, &sym, "grid");
        assert_eq!(up.dfs_edges(), first_reads as u64);
    }

    /// Every public field and the flop count agree; `dfs_edges` and
    /// `strategy` name the traversal and are not compared.
    fn assert_same(up: &LuSymbolic, dfs: &LuSymbolic, label: &str) {
        assert_eq!(up.n, dfs.n, "{label}: n");
        assert_eq!(up.l_col_ptr, dfs.l_col_ptr, "{label}: l_col_ptr");
        assert_eq!(up.l_row_idx, dfs.l_row_idx, "{label}: l_row_idx");
        assert_eq!(up.u_col_ptr, dfs.u_col_ptr, "{label}: u_col_ptr");
        assert_eq!(up.u_row_idx, dfs.u_row_idx, "{label}: u_row_idx");
        assert_eq!(up.factor_flops(), dfs.factor_flops(), "{label}: flops");
        assert!(up.dfs_edges() <= up.factor_flops() / 2, "{label}: edges");
    }

    /// `lu_symbolic` on `a`: a symmetric pattern takes the up-traversal
    /// and equals the DFS; any other takes the DFS.
    fn check_dispatch(a: &CscMatrix, label: &str) -> LuStrategy {
        let got = lu_symbolic(a);
        let dfs = lu_symbolic_dfs(a);
        if is_structurally_symmetric(a) {
            assert_eq!(got.strategy(), LuStrategy::EtreeUpTraversal, "{label}");
            assert_same(&got, &dfs, label);
        } else {
            assert_eq!(got, dfs, "{label}");
        }
        got.strategy()
    }

    /// Splitmix64: seeded patterns without a dependency.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn from_entries(n: usize, entries: &[(usize, usize)]) -> CscMatrix {
        let mut t = TripletMatrix::new(n, n);
        for &(i, j) in entries {
            t.push(i, j, 1.0);
        }
        t.to_csc().unwrap()
    }

    #[test]
    fn the_up_traversal_equals_the_dfs_on_the_lu_suite() {
        use crate::ordering::{compute_ordering, Ordering};
        use crate::transversal::{compute_pre_pivot, PrePivot};
        use sympiler_sparse::ops;
        use sympiler_sparse::suite::{unsym_suite, SuiteScale};
        // The bench-scale suite runs in release builds only.
        let scales: &[SuiteScale] = if cfg!(debug_assertions) {
            &[SuiteScale::Test]
        } else {
            &[SuiteScale::Test, SuiteScale::Bench]
        };
        let mut symmetric = 0;
        for &scale in scales {
            for p in unsym_suite(scale) {
                for ordering in [Ordering::Natural, Ordering::Colamd] {
                    for pre_pivot in [PrePivot::Off, PrePivot::WeightedMatching] {
                        let a = &p.matrix;
                        let rperm = compute_pre_pivot(a, pre_pivot).unwrap();
                        let pivoted = match &rperm {
                            Some(r) => ops::permute_rows(a, r).unwrap(),
                            None => a.clone(),
                        };
                        let b = match compute_ordering(&pivoted, ordering) {
                            Some(q) => ops::permute_rows_cols(&pivoted, &q).unwrap(),
                            None => pivoted,
                        };
                        let label = format!("{} {ordering:?} {pre_pivot:?}", p.name);
                        let strategy = check_dispatch(&b, &label);
                        symmetric += (strategy == LuStrategy::EtreeUpTraversal) as usize;
                        // The symmetrized pattern always takes the
                        // up-traversal.
                        let n = b.n_cols();
                        let mirrored: Vec<(usize, usize)> = (0..n)
                            .flat_map(|j| b.col_rows(j).iter().flat_map(move |&i| [(i, j), (j, i)]))
                            .collect();
                        let sum = from_entries(n, &mirrored);
                        let s = check_dispatch(&sum, &format!("{label} + transpose"));
                        assert_eq!(s, LuStrategy::EtreeUpTraversal, "{label}");
                    }
                }
            }
        }
        assert!(symmetric >= 8, "only {symmetric} suite cells are symmetric");
    }

    #[test]
    fn the_up_traversal_equals_the_dfs_on_random_symmetric_patterns() {
        let mut state = 7u64;
        for case in 0..300 {
            let n = 1 + (next(&mut state) % 40) as usize;
            let per_col = 1 + (next(&mut state) % 4) as usize;
            let mut entries = Vec::new();
            for j in 0..n {
                // Every third pattern has structurally zero diagonals.
                if case % 3 != 0 || next(&mut state).is_multiple_of(2) {
                    entries.push((j, j));
                }
                for _ in 0..per_col {
                    let i = (next(&mut state) % n as u64) as usize;
                    if i != j {
                        entries.extend([(i, j), (j, i)]);
                    }
                }
            }
            let a = from_entries(n, &entries);
            let label = format!("case {case}");
            assert!(is_structurally_symmetric(&a), "{label}");
            assert_eq!(check_dispatch(&a, &label), LuStrategy::EtreeUpTraversal);
            let sym = lu_symbolic(&a);
            let (l_ref, u_ref) = dense_symbolic_lu(&a);
            for j in 0..n {
                assert_eq!(sym.l_col_pattern(j), l_ref[j].as_slice(), "{label} L {j}");
                assert_eq!(sym.u_col_pattern(j), u_ref[j].as_slice(), "{label} U {j}");
            }
            // One mirror entry gone: the DFS path, still exact.
            let off: Vec<usize> = (0..entries.len())
                .filter(|&e| entries[e].0 != entries[e].1)
                .collect();
            if !off.is_empty() {
                let (i, j) = entries[off[(next(&mut state) % off.len() as u64) as usize]];
                let kept: Vec<(usize, usize)> =
                    entries.iter().copied().filter(|&e| e != (i, j)).collect();
                let b = from_entries(n, &kept);
                assert!(!is_structurally_symmetric(&b), "{label} without ({i}, {j})");
                assert_eq!(check_dispatch(&b, &label), LuStrategy::Dfs);
                let (l_ref, u_ref) = dense_symbolic_lu(&b);
                let sym = lu_symbolic(&b);
                for j in 0..n {
                    assert_eq!(sym.l_col_pattern(j), l_ref[j].as_slice(), "{label} L {j}");
                    assert_eq!(sym.u_col_pattern(j), u_ref[j].as_slice(), "{label} U {j}");
                }
            }
        }
    }

    #[test]
    fn every_pattern_of_order_zero_one_and_two_takes_the_right_path() {
        let empty = CscMatrix::zeros(0, 0);
        assert_eq!(
            check_dispatch(&empty, "n = 0"),
            LuStrategy::EtreeUpTraversal
        );
        assert_eq!(lu_symbolic(&empty).l_nnz(), 0);
        for diag in [false, true] {
            let a = from_entries(1, if diag { &[(0, 0)] } else { &[] });
            assert_eq!(check_dispatch(&a, "n = 1"), LuStrategy::EtreeUpTraversal);
            assert_eq!(lu_symbolic(&a).u_col_pattern(0), &[0]);
        }
        let slots = [(0, 0), (1, 1), (1, 0), (0, 1)];
        for mask in 0..16u32 {
            let entries: Vec<(usize, usize)> = (0..4)
                .filter(|&b| mask >> b & 1 == 1)
                .map(|b| slots[b])
                .collect();
            let a = from_entries(2, &entries);
            let mirrored = (mask >> 2 & 1) == (mask >> 3 & 1);
            let expect = if mirrored {
                LuStrategy::EtreeUpTraversal
            } else {
                LuStrategy::Dfs
            };
            assert_eq!(check_dispatch(&a, &format!("n = 2, {mask:04b}")), expect);
            let (l_ref, u_ref) = dense_symbolic_lu(&a);
            let sym = lu_symbolic(&a);
            for j in 0..2 {
                assert_eq!(sym.l_col_pattern(j), l_ref[j].as_slice(), "{mask:04b}");
                assert_eq!(sym.u_col_pattern(j), u_ref[j].as_slice(), "{mask:04b}");
            }
        }
    }

    #[test]
    fn without_a_symmetric_pair_nothing_is_pruned() {
        // Strictly-lower entries in the left half of the columns,
        // strictly-upper entries in disjoint positions whose mirror
        // images stay empty even after fill: the inspection reads the
        // whole of every update column, and the patterns are exact.
        let n = 12;
        let mut edges = Vec::new();
        for k in 0..n / 2 {
            edges.push((k + n / 2, k)); // L(k + n/2, k)
            if k + 1 < n / 2 {
                edges.push((k, k + 1)); // U(k, k + 1): L(k + 1, k) stays zero
            }
        }
        let a = pattern_matrix(&edges, n);
        let sym = lu_symbolic(&a);
        let (l_ref, u_ref) = dense_symbolic_lu(&a);
        let mut unpruned = 0u64;
        for j in 0..n {
            assert_eq!(sym.l_col_pattern(j), l_ref[j].as_slice(), "L col {j}");
            assert_eq!(sym.u_col_pattern(j), u_ref[j].as_slice(), "U col {j}");
            for &k in sym.reach(j) {
                assert!(!sym.l_col_pattern(k).contains(&j), "pair ({k}, {j})");
                unpruned += (sym.l_col_pattern(k).len() - 1) as u64;
            }
        }
        assert!(unpruned > 0, "the pattern must schedule updates");
        assert_eq!(sym.dfs_edges(), unpruned);
    }

    #[test]
    fn flop_count_matches_schedule() {
        let a = gen::circuit_unsym(40, 4, 2, 9);
        let sym = lu_symbolic(&a);
        let mut expect = 0u64;
        for j in 0..40 {
            expect += (sym.l_col_pattern(j).len() - 1) as u64; // divisions
            for &k in sym.reach(j) {
                expect += 2 * (sym.l_col_pattern(k).len() - 1) as u64;
            }
        }
        assert_eq!(sym.factor_flops(), expect);
        // Per-column resolution sums to the total and matches the
        // per-column definition.
        let per_col = sym.per_column_flops();
        assert_eq!(per_col.iter().sum::<u64>(), sym.factor_flops());
        for j in 0..40 {
            let mut c = (sym.l_col_pattern(j).len() - 1) as u64;
            for &k in sym.reach(j) {
                c += 2 * (sym.l_col_pattern(k).len() - 1) as u64;
            }
            assert_eq!(per_col[j], c, "col {j}");
        }
    }

    #[test]
    fn fully_dense_column_cascades_fill() {
        // Column 2 dense below the diagonal plus a superdiagonal chain:
        // the chain feeds each column its predecessor's pattern, so the
        // dense column's fill cascades through every later column.
        let n = 8;
        let mut edges = Vec::new();
        for i in 3..n {
            edges.push((i, 2));
        }
        for i in 1..n {
            edges.push((i - 1, i));
        }
        let a = pattern_matrix(&edges, n);
        let sym = lu_symbolic(&a);
        let (l_ref, u_ref) = dense_symbolic_lu(&a);
        for j in 0..n {
            assert_eq!(sym.l_col_pattern(j), l_ref[j].as_slice(), "L col {j}");
            assert_eq!(sym.u_col_pattern(j), u_ref[j].as_slice(), "U col {j}");
        }
        // Column 3 reads the dense column directly...
        assert!(sym.reach(3).contains(&2), "col 3 must be updated by col 2");
        // ...and every later column inherits the full trailing pattern.
        for j in 3..n {
            let expect: Vec<usize> = (j..n).collect();
            assert_eq!(
                sym.l_col_pattern(j),
                expect.as_slice(),
                "fill cascade at {j}"
            );
        }
    }

    #[test]
    fn one_by_one() {
        let a = pattern_matrix(&[], 1);
        let sym = lu_symbolic(&a);
        assert_eq!(sym.l_col_pattern(0), &[0]);
        assert_eq!(sym.u_col_pattern(0), &[0]);
        assert_eq!(sym.factor_flops(), 0);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn rejects_rectangular() {
        lu_symbolic(&CscMatrix::zeros(3, 2));
    }
}
