//! Supernode detection — the **block-set** inspectors of Table 1.
//!
//! Two strategies, one per algorithm:
//!
//! * **Cholesky** (§3.2): merge adjacent columns `j-1`, `j` of the
//!   predicted factor when their nonzero counts (ignoring `j-1`'s
//!   diagonal) are equal and `j-1` is the only child of `j` in the
//!   etree — the paper's merge rule, evaluated on `etree + ColCount(A)`
//!   with an up-traversal.
//! * **Triangular solve** (§3.1): node equivalence on the dependence
//!   graph `DG_L` — two adjacent columns merge when their outgoing edge
//!   sets (off-diagonal patterns) coincide, which makes the supernode a
//!   dense trapezoid that dense kernels can process.
//!
//! The strict Cholesky rule ([`supernodes_cholesky`]) never pads and is
//! the paper's experimental setting (§4.1: "Since Sympiler's current
//! version does not support node amalgamation, this setting is not
//! enabled in CHOLMOD"). [`supernodes_cholesky_relaxed`] adds **relaxed
//! node amalgamation** on top of it: a strict supernode is merged into
//! the strict supernode of its etree parent when the explicit zeros the
//! wider trapezoid must carry stay inside a budget — CHOLMOD's relaxed
//! supernodes, restricted to merges *along etree parent links* (see the
//! function for why the LU merge rule would be wrong here). A zero
//! budget reproduces the strict partition exactly. The budget
//! arithmetic ([`RelaxedPanels`], the graded fill allowance, the
//! trapezoid slot count) is shared with the LU panel detector,
//! [`crate::lu_supernode`].

use crate::symbolic::SymbolicFactor;
use sympiler_sparse::CscMatrix;

/// A partition of columns `0..n` into contiguous supernodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupernodePartition {
    /// `first_col[s]..first_col[s+1]` are the columns of supernode `s`;
    /// length is `n_supernodes + 1`.
    pub first_col: Vec<usize>,
    /// Map from column to its supernode.
    pub col_to_super: Vec<usize>,
}

impl SupernodePartition {
    /// Build from supernode start columns (must begin at 0, end at n).
    pub fn from_first_cols(first_col: Vec<usize>, n: usize) -> Self {
        assert!(!first_col.is_empty() && first_col[0] == 0);
        assert_eq!(*first_col.last().unwrap(), n, "partition must cover 0..n");
        debug_assert!(first_col.windows(2).all(|w| w[0] < w[1]));
        let mut col_to_super = vec![0usize; n];
        for s in 0..first_col.len() - 1 {
            for c in first_col[s]..first_col[s + 1] {
                col_to_super[c] = s;
            }
        }
        Self {
            first_col,
            col_to_super,
        }
    }

    /// Number of supernodes.
    #[inline]
    pub fn n_supernodes(&self) -> usize {
        self.first_col.len() - 1
    }

    /// Number of columns covered.
    #[inline]
    pub fn n_cols(&self) -> usize {
        *self.first_col.last().unwrap()
    }

    /// Columns of supernode `s`.
    #[inline]
    pub fn cols(&self, s: usize) -> std::ops::Range<usize> {
        self.first_col[s]..self.first_col[s + 1]
    }

    /// Width (number of columns) of supernode `s`.
    #[inline]
    pub fn width(&self, s: usize) -> usize {
        self.first_col[s + 1] - self.first_col[s]
    }

    /// Mean supernode width.
    pub fn avg_width(&self) -> f64 {
        if self.n_supernodes() == 0 {
            return 0.0;
        }
        self.n_cols() as f64 / self.n_supernodes() as f64
    }

    /// Mean supernode *size* in the paper's threshold sense: the number
    /// of stored entries of the supernodal panel (width × panel rows),
    /// averaged over supernodes with width > 1 ("participating"
    /// supernodes, §4.2). `col_count` gives `nnz(L(:,j))` per column.
    pub fn avg_participating_size(&self, col_count: &[usize]) -> f64 {
        let mut total = 0usize;
        let mut count = 0usize;
        for s in 0..self.n_supernodes() {
            let w = self.width(s);
            if w <= 1 {
                continue;
            }
            let first = self.first_col[s];
            // Panel rows = column count of the first (widest) column.
            total += w * col_count[first];
            count += 1;
        }
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    }
}

/// Supernodes of the predicted Cholesky factor (paper's merge rule).
/// `max_width` caps supernode width so panel buffers stay cache-sized
/// (0 means unlimited).
pub fn supernodes_cholesky(sym: &SymbolicFactor, max_width: usize) -> SupernodePartition {
    let n = sym.n;
    if n == 0 {
        return SupernodePartition::from_first_cols(vec![0], 0);
    }
    let child_counts = crate::etree::child_counts(&sym.parent);
    let mut first_col = vec![0usize];
    let mut width = 1usize;
    for j in 1..n {
        let only_child = sym.parent[j - 1] == j && child_counts[j] == 1;
        let counts_match = sym.col_count(j - 1) == sym.col_count(j) + 1;
        let fits = max_width == 0 || width < max_width;
        if only_child && counts_match && fits {
            width += 1;
        } else {
            first_col.push(j);
            width = 1;
        }
    }
    first_col.push(n);
    SupernodePartition::from_first_cols(first_col, n)
}

/// A (possibly relaxed) panel partition together with the padded
/// trapezoid layout each panel is executed over: per panel, the
/// ascending union of its member columns' factor rows. For a strict
/// panel the union is exactly the first column's pattern (nesting), so
/// the layout adds nothing; for an amalgamated panel the union includes
/// rows some member columns lack — those trapezoid slots hold explicit
/// zeros ([`Self::padded_zeros`] counts them).
///
/// Invariant: the first `width(s)` rows of panel `s` are always
/// `first_col(s) .. first_col(s) + width(s)` — every member column
/// contributes its own diagonal row, and factor rows never precede
/// their column — so the dense diagonal-block kernels address the block
/// at fixed offsets regardless of relaxation.
#[derive(Debug, Clone, PartialEq)]
pub struct RelaxedPanels {
    /// The column partition (strict or amalgamated).
    pub part: SupernodePartition,
    /// Per-panel offsets into [`Self::rows`], length `n_supernodes+1`.
    pub row_ptr: Vec<usize>,
    /// Concatenated per-panel union row lists, each ascending.
    pub rows: Vec<u32>,
    /// Total explicit zeros the padded trapezoids carry at or below
    /// the diagonal (0 for strict partitions).
    pub padded_zeros: usize,
}

impl RelaxedPanels {
    /// The union row list of panel `s`.
    pub fn panel_rows(&self, s: usize) -> &[u32] {
        &self.rows[self.row_ptr[s]..self.row_ptr[s + 1]]
    }

    /// Mean panel width — the quality metric relaxation exists to
    /// raise.
    pub fn mean_width(&self) -> f64 {
        self.part.avg_width()
    }
}

/// Trapezoid slots at or below the diagonal for a panel of width `w`
/// over `m` union rows: column `c` occupies `m - c` of them.
pub(crate) fn trapezoid_slots(w: usize, m: usize) -> usize {
    w * m - w * (w - 1) / 2
}

/// The width an amalgamated panel may grow to — `relax_cols`, min'd
/// with the strict cap when that is nonzero — or `None` when the knobs
/// disable amalgamation (`relax_fill <= 0` or `relax_cols < 2`). Strict
/// panels may already exceed it (up to `max_width`); they pass through
/// unmerged.
pub(crate) fn relax_cap(max_width: usize, relax_fill: f64, relax_cols: usize) -> Option<usize> {
    if relax_fill <= 0.0 || relax_cols < 2 {
        None
    } else if max_width == 0 {
        Some(relax_cols)
    } else {
        Some(relax_cols.min(max_width))
    }
}

/// The graded fill budget of one merge: `zeros` explicit zeros against
/// `nnz` structural nonzeros in a merged panel `width` columns wide are
/// accepted within `4 × relax_fill × nnz` while the panel is at most 4
/// columns wide, `relax_fill × nnz` beyond. The grading is CHOLMOD's
/// relaxed-amalgamation idea: gluing singleton columns into small
/// panels is where blocking gains the most and the padded trapezoids
/// stay trivially small, so tiny merges deserve a far looser budget
/// than wide ones (CHOLMOD merges ≤ 4-wide results unconditionally; the
/// `4×` factor keeps the knob meaningful there).
pub(crate) fn within_relax_budget(width: usize, zeros: usize, nnz: usize, relax_fill: f64) -> bool {
    let budget = if width <= 4 {
        4.0 * relax_fill
    } else {
        relax_fill
    };
    (zeros as f64) <= budget * nnz as f64
}

/// Relaxed (amalgamating) supernodes of the predicted Cholesky factor.
///
/// Starts from the strict partition of [`supernodes_cholesky`], then
/// walks it left to right and merges the open group with the next
/// strict supernode only when the etree parent of the group's last
/// column **is** the next supernode's first column — a child merged
/// into its parent, never two sibling subtrees that merely sit next to
/// each other in the ordering. Along a parent link the child's
/// sub-diagonal pattern is contained in the parent's pattern (Eq. 1),
/// so the merged row list is just `group columns ++ rows(next)` and the
/// left-looking invariant the numeric phase is built on survives: the
/// rows of any descendant at or below a target's first column are a
/// subset of the target's rows. The LU rule
/// ([`crate::lu_supernode::supernodes_lu_relaxed`]) unions the rows of
/// *any* adjacent panels; on a Cholesky factor that glues siblings,
/// whose union carries rows the common target does not have.
///
/// A merge must also keep the merged width within `relax_cols` (and
/// `max_width`, when nonzero) and its explicit zeros within the graded
/// budget LU panels use (`4 × relax_fill ×` structural nonzeros up to 4
/// columns, `relax_fill ×` beyond). `relax_fill <= 0` or
/// `relax_cols < 2` disables amalgamation: the result is then exactly
/// the strict partition with its padding-free row lists.
pub fn supernodes_cholesky_relaxed(
    sym: &SymbolicFactor,
    max_width: usize,
    relax_fill: f64,
    relax_cols: usize,
) -> RelaxedPanels {
    let strict = supernodes_cholesky(sym, max_width);
    let cap = relax_cap(max_width, relax_fill, relax_cols);
    let mut first_col = vec![0usize];
    let mut row_ptr = vec![0usize];
    let mut rows: Vec<u32> = Vec::with_capacity(sym.l_nnz());
    let mut padded_zeros = 0usize;
    // Close the group of columns `start..end` whose last strict member
    // begins at column `last`: its row list is the columns before
    // `last` followed by that member's (nesting) row list.
    let mut close = |start: usize, last: usize, end: usize, nnz: usize| {
        let at = rows.len();
        rows.extend((start..last).map(|c| c as u32));
        rows.extend(sym.col_pattern(last).iter().map(|&r| r as u32));
        padded_zeros += trapezoid_slots(end - start, rows.len() - at) - nnz;
        row_ptr.push(rows.len());
        first_col.push(end);
    };
    // The open group: its first column, width and structural nnz.
    let mut start = 0usize;
    let mut width = 0usize;
    let mut nnz = 0usize;
    for s in 0..strict.n_supernodes() {
        let f = strict.first_col[s];
        let v = strict.width(s);
        // Strict supernodes nest: column `f + c` has `m - c` rows.
        let m = sym.col_count(f);
        let np = trapezoid_slots(v, m);
        if width > 0 {
            let w2 = width + v;
            let merges = cap.is_some_and(|cap| w2 <= cap)
                && sym.parent[f - 1] == f
                && within_relax_budget(
                    w2,
                    trapezoid_slots(w2, width + m) - (nnz + np),
                    nnz + np,
                    relax_fill,
                );
            if merges {
                width = w2;
                nnz += np;
                continue;
            }
            close(start, strict.first_col[s - 1], f, nnz);
        }
        start = f;
        width = v;
        nnz = np;
    }
    if width > 0 {
        let last = strict.first_col[strict.n_supernodes() - 1];
        close(start, last, sym.n, nnz);
    }
    RelaxedPanels {
        part: SupernodePartition::from_first_cols(first_col, sym.n),
        row_ptr,
        rows,
        padded_zeros,
    }
}

/// Supernodes of an existing lower-triangular matrix via node
/// equivalence on `DG_L`: columns `j-1` and `j` merge when the
/// off-diagonal pattern of `j-1` equals the full pattern of `j`
/// (i.e. the supernode's diagonal block is dense and its off-diagonal
/// rows are shared). `max_width` caps width (0 = unlimited).
pub fn supernodes_trisolve(l: &CscMatrix, max_width: usize) -> SupernodePartition {
    assert!(
        l.is_lower_triangular_with_diag(),
        "trisolve supernodes need a lower-triangular matrix with diagonal"
    );
    let n = l.n_cols();
    if n == 0 {
        return SupernodePartition::from_first_cols(vec![0], 0);
    }
    let mut first_col = vec![0usize];
    let mut width = 1usize;
    for j in 1..n {
        let prev = l.col_rows(j - 1);
        let cur = l.col_rows(j);
        let equivalent = prev.len() == cur.len() + 1 && &prev[1..] == cur;
        let fits = max_width == 0 || width < max_width;
        if equivalent && fits {
            width += 1;
        } else {
            first_col.push(j);
            width = 1;
        }
    }
    first_col.push(n);
    SupernodePartition::from_first_cols(first_col, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::symbolic_cholesky;
    use sympiler_sparse::gen;

    fn check_partition_valid(p: &SupernodePartition, n: usize) {
        assert_eq!(p.n_cols(), n);
        assert_eq!(p.col_to_super.len(), n);
        for s in 0..p.n_supernodes() {
            for c in p.cols(s) {
                assert_eq!(p.col_to_super[c], s);
            }
        }
        let widths: usize = (0..p.n_supernodes()).map(|s| p.width(s)).sum();
        assert_eq!(widths, n);
    }

    #[test]
    fn banded_matrix_merges_exactly_the_trailing_block() {
        // Inside the steady band region, column patterns shift (col j
        // gains row j+band) so the strict no-amalgamation rule keeps
        // them separate; only the trailing dense triangle (last band+1
        // columns, where counts decrease by one and the etree is an
        // only-child chain) merges into one supernode.
        let (n, band) = (32usize, 4usize);
        let a = gen::banded_spd(n, band, 1);
        let sym = symbolic_cholesky(&a);
        let p = supernodes_cholesky(&sym, 0);
        check_partition_valid(&p, n);
        let last = p.n_supernodes() - 1;
        assert_eq!(p.width(last), band + 1, "trailing dense block merges");
        assert_eq!(
            p.n_supernodes(),
            (n - band - 1) + 1,
            "all other columns stay singletons"
        );
    }

    #[test]
    fn grid_factor_has_nontrivial_supernodes() {
        // Fill-in on a 2-D grid creates nesting column patterns; the
        // factor must contain at least one multi-column supernode.
        let a = gen::grid2d_laplacian(8, 8, false, 1);
        let sym = symbolic_cholesky(&a);
        let p = supernodes_cholesky(&sym, 0);
        check_partition_valid(&p, 64);
        assert!(
            (0..p.n_supernodes()).any(|s| p.width(s) > 1),
            "grid fill-in should produce at least one wide supernode"
        );
    }

    #[test]
    fn cholesky_supernode_columns_really_nest() {
        // Inside a supernode, column patterns must nest: the pattern of
        // column j equals the pattern of j-1 minus its first row.
        let a = gen::grid2d_laplacian(6, 6, false, 3);
        let sym = symbolic_cholesky(&a);
        let p = supernodes_cholesky(&sym, 0);
        check_partition_valid(&p, 36);
        for s in 0..p.n_supernodes() {
            let cols: Vec<usize> = p.cols(s).collect();
            for w in cols.windows(2) {
                let prev = sym.col_pattern(w[0]);
                let cur = sym.col_pattern(w[1]);
                assert_eq!(&prev[1..], cur, "supernode columns {w:?} must nest");
            }
        }
    }

    #[test]
    fn identity_matrix_all_singletons() {
        let a = sympiler_sparse::CscMatrix::identity(8);
        let sym = symbolic_cholesky(&a);
        let p = supernodes_cholesky(&sym, 0);
        assert_eq!(p.n_supernodes(), 8);
        assert_eq!(p.avg_width(), 1.0);
    }

    #[test]
    fn dense_first_column_arrow_single_supernode() {
        // Dense first column fills L completely: one big supernode.
        let mut t = sympiler_sparse::TripletMatrix::new(6, 6);
        for j in 0..6 {
            t.push(j, j, 10.0);
        }
        for i in 1..6 {
            t.push(i, 0, -1.0);
        }
        let a = t.to_csc().unwrap();
        let sym = symbolic_cholesky(&a);
        let p = supernodes_cholesky(&sym, 0);
        assert_eq!(p.n_supernodes(), 1, "fully dense L is one supernode");
        assert_eq!(p.width(0), 6);
    }

    #[test]
    fn max_width_caps_supernodes() {
        let mut t = sympiler_sparse::TripletMatrix::new(6, 6);
        for j in 0..6 {
            t.push(j, j, 10.0);
        }
        for i in 1..6 {
            t.push(i, 0, -1.0);
        }
        let a = t.to_csc().unwrap();
        let sym = symbolic_cholesky(&a);
        let p = supernodes_cholesky(&sym, 2);
        assert_eq!(p.n_supernodes(), 3);
        for s in 0..3 {
            assert!(p.width(s) <= 2);
        }
    }

    #[test]
    fn relaxation_merges_a_banded_chain_within_the_budget() {
        // The steady band region is one etree chain of singletons
        // (column j lacks row j+band+1 of column j+1): gluing two of
        // them pads one slot against 2·(band+1) nonzeros.
        let (n, band) = (32usize, 4usize);
        let sym = symbolic_cholesky(&gen::banded_spd(n, band, 1));
        let strict = supernodes_cholesky(&sym, 0);
        let relaxed = supernodes_cholesky_relaxed(&sym, 0, 0.3, 16);
        check_partition_valid(&relaxed.part, n);
        assert!(relaxed.part.n_supernodes() < strict.n_supernodes() / 2);
        assert!(relaxed.padded_zeros > 0);
        assert!((0..relaxed.part.n_supernodes()).all(|s| relaxed.part.width(s) <= 16));
        // Pairs: rows j, j+1 .. j+band+1 — one padded slot each, except
        // the trailing dense block, which already nests.
        let pairs = supernodes_cholesky_relaxed(&sym, 0, 0.3, 2);
        assert_eq!(pairs.panel_rows(0), [0, 1, 2, 3, 4, 5]);
        assert_eq!(pairs.padded_zeros, (n - band - 1) / 2);
        // The strict cap binds the merged width too.
        let capped = supernodes_cholesky_relaxed(&sym, 3, 0.3, 16);
        assert!((0..capped.part.n_supernodes()).all(|s| capped.part.width(s) <= 3));
    }

    #[test]
    fn relaxation_follows_parent_links_never_sibling_adjacency() {
        // Arrow matrix: columns 0, 1, 2 are sibling leaves under column
        // 3. The LU rule would glue {0, 1} (one padded slot); here only
        // the child-into-parent merge {2, 3} is legal — and it is free.
        let mut t = sympiler_sparse::TripletMatrix::new(4, 4);
        for j in 0..4 {
            t.push(j, j, 10.0);
        }
        for j in 0..3 {
            t.push(3, j, -1.0);
        }
        let sym = symbolic_cholesky(&t.to_csc().unwrap());
        assert_eq!(sym.parent[..3], [3, 3, 3]);
        assert_eq!(supernodes_cholesky(&sym, 0).n_supernodes(), 4);
        let relaxed = supernodes_cholesky_relaxed(&sym, 0, 1.0, 64);
        assert_eq!(relaxed.part.first_col, [0, 1, 2, 4]);
        assert_eq!(relaxed.panel_rows(2), [2, 3]);
        assert_eq!(relaxed.padded_zeros, 0);
    }

    #[test]
    fn relaxation_off_is_the_strict_partition() {
        for a in [
            gen::grid2d_laplacian(7, 6, false, 1),
            gen::random_spd(40, 4, 3),
            sympiler_sparse::CscMatrix::zeros(0, 0),
        ] {
            let sym = symbolic_cholesky(&a);
            for cap in [0usize, 3] {
                let strict = supernodes_cholesky(&sym, cap);
                for (fill, cols) in [(0.0, 16), (0.3, 1), (-1.0, 16)] {
                    let off = supernodes_cholesky_relaxed(&sym, cap, fill, cols);
                    assert_eq!(off.part, strict, "fill {fill} cols {cols}");
                    assert_eq!(off.padded_zeros, 0);
                    assert_eq!(off.rows.len(), off.row_ptr[strict.n_supernodes()]);
                }
            }
        }
    }

    #[test]
    fn trisolve_supernodes_on_dense_lower() {
        // Fully dense lower triangle: all columns equivalent.
        let n = 5;
        let mut t = sympiler_sparse::TripletMatrix::new(n, n);
        for j in 0..n {
            for i in j..n {
                t.push(i, j, if i == j { 2.0 } else { -0.1 });
            }
        }
        let l = t.to_csc().unwrap();
        let p = supernodes_trisolve(&l, 0);
        assert_eq!(p.n_supernodes(), 1);
    }

    #[test]
    fn trisolve_supernodes_on_identity() {
        let l = sympiler_sparse::CscMatrix::identity(7);
        let p = supernodes_trisolve(&l, 0);
        assert_eq!(p.n_supernodes(), 7);
    }

    #[test]
    fn trisolve_supernode_blocks_are_trapezoids() {
        // Use a real Cholesky-factor pattern for realism.
        let a = gen::banded_spd(30, 3, 5);
        let sym = symbolic_cholesky(&a);
        // Fabricate L with the symbolic pattern (values irrelevant).
        let l = sympiler_sparse::CscMatrix::try_new(
            30,
            30,
            sym.l_col_ptr.clone(),
            sym.l_row_idx.clone(),
            vec![1.0; sym.l_nnz()],
        )
        .unwrap();
        let p = supernodes_trisolve(&l, 0);
        check_partition_valid(&p, 30);
        for s in 0..p.n_supernodes() {
            let cols: Vec<usize> = p.cols(s).collect();
            for w in cols.windows(2) {
                assert_eq!(&l.col_rows(w[0])[1..], l.col_rows(w[1]));
            }
        }
    }

    #[test]
    fn cholesky_and_trisolve_detection_agree_on_factor_pattern() {
        // The etree rule (on the symbolic factor) and node equivalence
        // (on the materialized L pattern) find the same partition here.
        let a = gen::grid2d_laplacian(5, 5, false, 11);
        let sym = symbolic_cholesky(&a);
        let l = sympiler_sparse::CscMatrix::try_new(
            25,
            25,
            sym.l_col_ptr.clone(),
            sym.l_row_idx.clone(),
            vec![1.0; sym.l_nnz()],
        )
        .unwrap();
        let p_chol = supernodes_cholesky(&sym, 0);
        let p_tri = supernodes_trisolve(&l, 0);
        // Node equivalence can only merge *at least* as much as the
        // etree rule restricted by the only-child condition; on factor
        // patterns they coincide for these matrices except where a
        // column pair is equivalent without the etree child link. Check
        // that every etree supernode is contained in a node-equivalence
        // supernode.
        for s in 0..p_chol.n_supernodes() {
            let cols: Vec<usize> = p_chol.cols(s).collect();
            let supers: std::collections::BTreeSet<usize> =
                cols.iter().map(|&c| p_tri.col_to_super[c]).collect();
            assert_eq!(
                supers.len(),
                1,
                "etree supernode {s} split by node equivalence"
            );
        }
    }

    #[test]
    fn avg_participating_size() {
        let p = SupernodePartition::from_first_cols(vec![0, 2, 3, 6], 6);
        // widths 2, 1, 3; participating: s0 (width 2) and s2 (width 3).
        let col_count = vec![4, 3, 5, 3, 2, 1];
        // s0: 2 * col_count[0] = 8; s2: 3 * col_count[3] = 9 -> avg 8.5
        assert_eq!(p.avg_participating_size(&col_count), 8.5);
        let singles = SupernodePartition::from_first_cols(vec![0, 1, 2], 2);
        assert_eq!(singles.avg_participating_size(&[1, 1]), 0.0);
    }

    #[test]
    #[should_panic(expected = "cover")]
    fn partition_must_cover() {
        SupernodePartition::from_first_cols(vec![0, 2], 5);
    }
}
