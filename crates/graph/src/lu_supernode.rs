//! Supernode (column-panel) detection for sparse **LU** — the VS-Block
//! inspector of the unsymmetric pipeline.
//!
//! Adjacent columns `j-1`, `j` of the predicted `L` merge when the
//! sub-diagonal pattern of `j-1` equals the full pattern of `j` —
//! `L(:, j-1)` minus its top (diagonal) row *is* `L(:, j)` — the
//! [`crate::supernode::supernodes_cholesky`] nesting rule evaluated
//! directly on the Gilbert–Peierls factor pattern instead of the etree.
//! Inside such a panel the diagonal block of `L` is a full dense lower
//! triangle and every column shares the panel's sub-diagonal rows, so
//! the panel is a dense **trapezoid**: the numeric phase can factor its
//! diagonal block with an unpivoted dense GETRF, divide out the panel's
//! `U` with a dense TRSM, and push its updates into later panels with
//! dense GEMMs (paper §3.2, applied to LU).
//!
//! Detection comes in two flavors. The strict rule
//! ([`supernodes_lu`]) never pads: the `max_panel` knob only *caps*
//! panel width so trapezoid buffers stay cache-sized. The relaxed rule
//! ([`supernodes_lu_relaxed_from_parts`]) additionally **amalgamates**
//! adjacent panels whose patterns nearly nest — CHOLMOD's relaxed
//! supernodes / SuperLU's `relax` — trading a bounded number of
//! explicit zeros in the trapezoid for wider panels: a merge is
//! accepted when the padded slots stay under `relax_fill ×` the
//! panel's structural nonzeros and the merged width stays ≤
//! `relax_cols`. The padding is sound because every structurally-zero
//! position computes to an exact `±0.0` under the Gilbert–Peierls
//! pattern (all its update terms are themselves exact zeros), so the
//! dense kernels can run over the padded trapezoid and the strict CSC
//! factor layouts never change — only the workspace does.

use crate::lu_symbolic::LuSymbolic;
use crate::supernode::{relax_cap, trapezoid_slots, within_relax_budget, SupernodePartition};

/// The padded panel layout of a (possibly relaxed) LU partition — the
/// layout type the Cholesky detector shares.
pub use crate::supernode::RelaxedPanels as LuPanels;

/// Merge adjacent columns while their `L` patterns nest, given the
/// pattern as diagonal-first row lists per column.
fn detect_nesting<R: PartialEq>(
    n: usize,
    col_ptr: &[usize],
    row_idx: &[R],
    max_panel: usize,
) -> SupernodePartition {
    if n == 0 {
        return SupernodePartition::from_first_cols(vec![0], 0);
    }
    let mut first_col = vec![0usize];
    let mut width = 1usize;
    for j in 1..n {
        let prev = &row_idx[col_ptr[j - 1]..col_ptr[j]];
        let cur = &row_idx[col_ptr[j]..col_ptr[j + 1]];
        let nests = prev.len() == cur.len() + 1 && &prev[1..] == cur;
        let fits = max_panel == 0 || width < max_panel;
        if nests && fits {
            width += 1;
        } else {
            first_col.push(j);
            width = 1;
        }
    }
    first_col.push(n);
    SupernodePartition::from_first_cols(first_col, n)
}

/// Column panels of the predicted `L` of a symbolic LU factorization.
/// `max_panel` caps panel width (0 = unlimited). Panels of width 1
/// ("singletons") are simply scalar columns; the numeric payoff comes
/// from the wide panels, whose share of the factorization work
/// [`flop_share_in_wide_panels`] measures.
pub fn supernodes_lu(sym: &LuSymbolic, max_panel: usize) -> SupernodePartition {
    detect_nesting(sym.n, &sym.l_col_ptr, &sym.l_row_idx, max_panel)
}

/// [`supernodes_lu`] on raw factor-layout arrays (the compiled plan
/// stores its row indices narrowed to `u32`; detection only compares
/// patterns, so the index width is irrelevant).
pub fn supernodes_lu_from_parts(
    n: usize,
    l_col_ptr: &[usize],
    l_row_idx: &[u32],
    max_panel: usize,
) -> SupernodePartition {
    assert_eq!(l_col_ptr.len(), n + 1, "column pointer length");
    detect_nesting(n, l_col_ptr, l_row_idx, max_panel)
}

impl LuPanels {
    /// Split every wide panel `s` with `!keep(s)` back into singleton
    /// columns, each carrying its own `L` pattern (given as the factor
    /// layout the panels were detected on) and no padding. Panels that
    /// are kept, and singletons, pass through untouched — the hook for
    /// a cost model that decides, panel by panel, whether dense
    /// execution pays.
    pub fn dissolve_unless(
        &self,
        l_col_ptr: &[usize],
        l_row_idx: &[u32],
        keep: impl Fn(usize) -> bool,
    ) -> LuPanels {
        let n = self.part.n_cols();
        let mut first_col = Vec::with_capacity(self.part.first_col.len());
        let mut row_ptr = vec![0usize];
        let mut rows: Vec<u32> = Vec::with_capacity(self.rows.len());
        let mut padded_zeros = self.padded_zeros;
        for s in 0..self.part.n_supernodes() {
            let w = self.part.width(s);
            if w == 1 || keep(s) {
                first_col.push(self.part.first_col[s]);
                rows.extend_from_slice(self.panel_rows(s));
                row_ptr.push(rows.len());
                continue;
            }
            let nnz: usize = self
                .part
                .cols(s)
                .map(|j| l_col_ptr[j + 1] - l_col_ptr[j])
                .sum();
            padded_zeros -= trapezoid_slots(w, self.panel_rows(s).len()) - nnz;
            for j in self.part.cols(s) {
                first_col.push(j);
                rows.extend_from_slice(&l_row_idx[l_col_ptr[j]..l_col_ptr[j + 1]]);
                row_ptr.push(rows.len());
            }
        }
        first_col.push(n);
        LuPanels {
            part: SupernodePartition::from_first_cols(first_col, n),
            row_ptr,
            rows,
            padded_zeros,
        }
    }
}

/// Relaxed (amalgamating) LU panel detection on raw factor layouts.
///
/// First runs the strict nesting rule, then greedily merges adjacent
/// strict panels left to right: a merge is accepted when the merged
/// width stays within `relax_cols` (and `max_panel`, when nonzero) and
/// the explicit zeros of the merged trapezoid stay within the graded
/// budget — `4 × relax_fill ×` structural nonzeros while the merged
/// panel is at most 4 columns wide, `relax_fill ×` beyond (the budget
/// the Cholesky detector shares, `supernode::within_relax_budget`).
/// `relax_fill <= 0` or `relax_cols < 2` disables amalgamation
/// entirely — the result is then exactly the strict partition with its
/// (padding-free) row lists, so the knob's zero setting is
/// bitwise-inert downstream.
pub fn supernodes_lu_relaxed_from_parts(
    n: usize,
    l_col_ptr: &[usize],
    l_row_idx: &[u32],
    max_panel: usize,
    relax_fill: f64,
    relax_cols: usize,
) -> LuPanels {
    assert_eq!(l_col_ptr.len(), n + 1, "column pointer length");
    let strict = detect_nesting(n, l_col_ptr, l_row_idx, max_panel);
    // Strict panels nest, so each panel's union row list is its first
    // column's pattern verbatim.
    let strict_rows = |s: usize| {
        let f = strict.cols(s).start;
        &l_row_idx[l_col_ptr[f]..l_col_ptr[f + 1]]
    };
    let Some(cap) = relax_cap(max_panel, relax_fill, relax_cols) else {
        let mut row_ptr = Vec::with_capacity(strict.n_supernodes() + 1);
        let mut rows = Vec::new();
        row_ptr.push(0);
        for s in 0..strict.n_supernodes() {
            rows.extend_from_slice(strict_rows(s));
            row_ptr.push(rows.len());
        }
        return LuPanels {
            part: strict,
            row_ptr,
            rows,
            padded_zeros: 0,
        };
    };
    let panel_nnz = |s: usize| -> usize {
        strict
            .cols(s)
            .map(|j| l_col_ptr[j + 1] - l_col_ptr[j])
            .sum()
    };
    let mut first_col = vec![0usize];
    let mut row_ptr = vec![0usize];
    let mut rows: Vec<u32> = Vec::new();
    let mut padded_zeros = 0usize;
    // The open group: its union row list, width, and structural nnz.
    let mut union: Vec<u32> = Vec::new();
    let mut merged: Vec<u32> = Vec::new();
    let mut width = 0usize;
    let mut nnz = 0usize;
    for s in 0..strict.n_supernodes() {
        let v = strict.width(s);
        let r = strict_rows(s);
        let np = panel_nnz(s);
        if width > 0 {
            let w2 = width + v;
            if w2 <= cap {
                merged.clear();
                merge_sorted(&union, r, &mut merged);
                let zeros = trapezoid_slots(w2, merged.len()) - (nnz + np);
                if within_relax_budget(w2, zeros, nnz + np, relax_fill) {
                    std::mem::swap(&mut union, &mut merged);
                    width = w2;
                    nnz += np;
                    continue;
                }
            }
            // Reject: close the open group.
            padded_zeros += trapezoid_slots(width, union.len()) - nnz;
            rows.extend_from_slice(&union);
            row_ptr.push(rows.len());
            first_col.push(first_col.last().unwrap() + width);
        }
        union.clear();
        union.extend_from_slice(r);
        width = v;
        nnz = np;
    }
    if width > 0 {
        padded_zeros += trapezoid_slots(width, union.len()) - nnz;
        rows.extend_from_slice(&union);
        row_ptr.push(rows.len());
        first_col.push(first_col.last().unwrap() + width);
    }
    debug_assert_eq!(*first_col.last().unwrap(), n, "panels must cover");
    LuPanels {
        part: SupernodePartition::from_first_cols(first_col, n),
        row_ptr,
        rows,
        padded_zeros,
    }
}

/// Merge two ascending row lists into `out` (cleared by the caller),
/// dropping duplicates — the union-row computation of a panel merge.
fn merge_sorted(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    let (mut i, mut j) = (0usize, 0usize);
    out.reserve(a.len() + b.len());
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// [`supernodes_lu_relaxed_from_parts`] on a symbolic analysis —
/// narrows the row indices once; detection and layout are otherwise
/// identical.
pub fn supernodes_lu_relaxed(
    sym: &LuSymbolic,
    max_panel: usize,
    relax_fill: f64,
    relax_cols: usize,
) -> LuPanels {
    let narrowed: Vec<u32> = sym.l_row_idx.iter().map(|&r| r as u32).collect();
    supernodes_lu_relaxed_from_parts(
        sym.n,
        &sym.l_col_ptr,
        &narrowed,
        max_panel,
        relax_fill,
        relax_cols,
    )
}

/// Per-panel factorization flops: the exact per-column counts of the
/// symbolic analysis summed over each panel's columns — the cost model
/// for balancing panel-level DAG schedules across workers, the panel
/// analogue of [`LuSymbolic::per_column_flops`].
pub fn panel_flops(sym: &LuSymbolic, part: &SupernodePartition) -> Vec<u64> {
    let per_col = sym.per_column_flops();
    (0..part.n_supernodes())
        .map(|s| part.cols(s).map(|j| per_col[j]).sum())
        .collect()
}

/// Fraction of the factorization's flops carried by columns living in
/// wide (width ≥ 2) panels — the share of the numeric phase the
/// supernodal engine routes through dense GETRF/TRSM/GEMM kernels
/// instead of scalar scatter loops. 0.0 when the factorization has no
/// flops at all.
pub fn flop_share_in_wide_panels(sym: &LuSymbolic, part: &SupernodePartition) -> f64 {
    flop_share_impl(part, &sym.l_col_ptr, |j| {
        sym.u_col_pattern(j)[..sym.u_col_pattern(j).len() - 1]
            .iter()
            .copied()
    })
}

/// [`flop_share_in_wide_panels`] on raw factor layouts (the compiled
/// plan's `u32` row indices): the update set of column `j` is exactly
/// the off-diagonal pattern of `U(:, j)` (diagonal stored last), so
/// the `L`/`U` layouts alone determine the per-column flop counts —
/// no reach sets needed. This is the engine-side entry point; keeping
/// it here keeps the cost model in one place.
pub fn flop_share_in_wide_panels_from_parts(
    part: &SupernodePartition,
    l_col_ptr: &[usize],
    u_col_ptr: &[usize],
    u_row_idx: &[u32],
) -> f64 {
    flop_share_impl(part, l_col_ptr, |j| {
        u_row_idx[u_col_ptr[j]..u_col_ptr[j + 1] - 1]
            .iter()
            .map(|&k| k as usize)
    })
}

/// The shared cost model: column `j` costs its `L` off-diagonal count
/// (divisions) plus two flops per off-diagonal `L` entry of every
/// update column (the multiply-subtract pairs) — the same accounting
/// as [`LuSymbolic::per_column_flops`].
fn flop_share_impl<I: Iterator<Item = usize>>(
    part: &SupernodePartition,
    l_col_ptr: &[usize],
    updates_of: impl Fn(usize) -> I,
) -> f64 {
    let off = |k: usize| (l_col_ptr[k + 1] - l_col_ptr[k] - 1) as u64;
    let col_flops = |j: usize| off(j) + updates_of(j).map(|k| 2 * off(k)).sum::<u64>();
    let mut total = 0u64;
    let mut wide = 0u64;
    for s in 0..part.n_supernodes() {
        let is_wide = part.width(s) > 1;
        for j in part.cols(s) {
            let c = col_flops(j);
            total += c;
            if is_wide {
                wide += c;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        wide as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu_symbolic::lu_symbolic;
    use sympiler_sparse::{gen, CscMatrix, TripletMatrix};

    fn check_partition_valid(p: &SupernodePartition, n: usize) {
        assert_eq!(p.n_cols(), n);
        assert_eq!(p.col_to_super.len(), n);
        let widths: usize = (0..p.n_supernodes()).map(|s| p.width(s)).sum();
        assert_eq!(widths, n);
    }

    /// Every panel's columns must truly nest: pattern(j) equals
    /// pattern(j-1) minus its diagonal row.
    fn check_panels_nest(sym: &crate::lu_symbolic::LuSymbolic, p: &SupernodePartition) {
        for s in 0..p.n_supernodes() {
            let cols: Vec<usize> = p.cols(s).collect();
            for w in cols.windows(2) {
                let prev = sym.l_col_pattern(w[0]);
                let cur = sym.l_col_pattern(w[1]);
                assert_eq!(&prev[1..], cur, "panel columns {w:?} must nest");
            }
        }
    }

    #[test]
    fn diagonal_matrix_all_singletons() {
        let sym = lu_symbolic(&CscMatrix::identity(7));
        let p = supernodes_lu(&sym, 0);
        assert_eq!(p.n_supernodes(), 7);
        assert_eq!(p.avg_width(), 1.0);
    }

    #[test]
    fn dense_matrix_is_one_panel() {
        let n = 6;
        let mut t = TripletMatrix::new(n, n);
        for j in 0..n {
            for i in 0..n {
                t.push(i, j, if i == j { 10.0 } else { 1.0 });
            }
        }
        let sym = lu_symbolic(&t.to_csc().unwrap());
        let p = supernodes_lu(&sym, 0);
        assert_eq!(p.n_supernodes(), 1, "dense L is one panel");
        assert_eq!(p.width(0), n);
        assert!((flop_share_in_wide_panels(&sym, &p) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn max_panel_caps_width() {
        let n = 6;
        let mut t = TripletMatrix::new(n, n);
        for j in 0..n {
            for i in 0..n {
                t.push(i, j, if i == j { 10.0 } else { 1.0 });
            }
        }
        let sym = lu_symbolic(&t.to_csc().unwrap());
        let p = supernodes_lu(&sym, 2);
        assert_eq!(p.n_supernodes(), 3);
        for s in 0..3 {
            assert_eq!(p.width(s), 2);
        }
    }

    #[test]
    fn fill_cascade_produces_trailing_panel() {
        // A dense column + superdiagonal chain fills the trailing
        // block of L completely — those columns must merge.
        let n = 8;
        let mut t = TripletMatrix::new(n, n);
        for j in 0..n {
            t.push(j, j, 4.0);
            if j + 1 < n {
                t.push(j, j + 1, 1.0);
            }
        }
        for i in 3..n {
            t.push(i, 2, -1.0);
        }
        let sym = lu_symbolic(&t.to_csc().unwrap());
        let p = supernodes_lu(&sym, 0);
        check_partition_valid(&p, n);
        check_panels_nest(&sym, &p);
        let last = p.n_supernodes() - 1;
        assert!(p.width(last) >= n - 2, "fill cascade must merge the tail");
        assert!(flop_share_in_wide_panels(&sym, &p) > 0.5);
    }

    #[test]
    fn convection_diffusion_has_wide_panels_that_nest() {
        let a = gen::convection_diffusion_2d(8, 7, 1.5, 3);
        let sym = lu_symbolic(&a);
        let p = supernodes_lu(&sym, 0);
        check_partition_valid(&p, a.n_cols());
        check_panels_nest(&sym, &p);
        assert!(
            (0..p.n_supernodes()).any(|s| p.width(s) > 1),
            "grid fill-in should produce at least one wide LU panel"
        );
        // The capped partition still nests and respects the cap.
        let capped = supernodes_lu(&sym, 3);
        check_panels_nest(&sym, &capped);
        assert!((0..capped.n_supernodes()).all(|s| capped.width(s) <= 3));
    }

    #[test]
    fn from_parts_agrees_with_symbolic_detection() {
        let a = gen::circuit_unsym(60, 4, 2, 5);
        let sym = lu_symbolic(&a);
        let narrowed: Vec<u32> = sym.l_row_idx.iter().map(|&r| r as u32).collect();
        let p1 = supernodes_lu(&sym, 4);
        let p2 = supernodes_lu_from_parts(sym.n, &sym.l_col_ptr, &narrowed, 4);
        assert_eq!(p1, p2);
    }

    #[test]
    fn flop_share_entry_points_agree() {
        // The symbolic-side and layout-side entry points must compute
        // the identical share: the update schedule of a column is
        // exactly the off-diagonal pattern of U(:, j).
        for a in [
            gen::convection_diffusion_2d(7, 6, 1.5, 4),
            gen::circuit_unsym(70, 4, 2, 8),
        ] {
            let sym = lu_symbolic(&a);
            let narrowed: Vec<u32> = sym.u_row_idx.iter().map(|&r| r as u32).collect();
            for cap in [0usize, 4] {
                let p = supernodes_lu(&sym, cap);
                let via_sym = flop_share_in_wide_panels(&sym, &p);
                let via_parts = flop_share_in_wide_panels_from_parts(
                    &p,
                    &sym.l_col_ptr,
                    &sym.u_col_ptr,
                    &narrowed,
                );
                assert!((via_sym - via_parts).abs() < 1e-15, "cap {cap}");
            }
        }
    }

    #[test]
    fn panel_flops_sum_to_factor_flops() {
        let a = gen::convection_diffusion_2d(6, 6, 1.0, 9);
        let sym = lu_symbolic(&a);
        for cap in [0usize, 2, 5] {
            let p = supernodes_lu(&sym, cap);
            let pf = panel_flops(&sym, &p);
            assert_eq!(pf.len(), p.n_supernodes());
            assert_eq!(pf.iter().sum::<u64>(), sym.factor_flops(), "cap {cap}");
        }
    }

    /// Relaxed-layout invariants shared by every relaxed test: valid
    /// cover, ascending union rows starting with the diagonal run
    /// `f..f+w`, every member column's rows contained in the union,
    /// and the padded-zero census consistent with the trapezoid sizes.
    fn check_relaxed_layout(sym: &crate::lu_symbolic::LuSymbolic, p: &LuPanels) {
        check_partition_valid(&p.part, sym.n);
        assert_eq!(p.row_ptr.len(), p.part.n_supernodes() + 1);
        let mut zeros = 0usize;
        for s in 0..p.part.n_supernodes() {
            let f = p.part.cols(s).start;
            let w = p.part.width(s);
            let rows = p.panel_rows(s);
            assert!(rows.windows(2).all(|x| x[0] < x[1]), "rows ascending");
            for (c, &r) in rows.iter().take(w).enumerate() {
                assert_eq!(r as usize, f + c, "diagonal run leads the panel");
            }
            let mut nnz = 0usize;
            for j in p.part.cols(s) {
                for &r in sym.l_col_pattern(j) {
                    assert!(
                        rows.binary_search(&(r as u32)).is_ok(),
                        "column {j} row {r} missing from panel union"
                    );
                }
                nnz += sym.l_col_pattern(j).len();
            }
            zeros += trapezoid_slots(w, rows.len()) - nnz;
        }
        assert_eq!(zeros, p.padded_zeros, "padded-zero census");
    }

    #[test]
    fn relax_disabled_reproduces_the_strict_partition() {
        for a in [
            gen::circuit_unsym(70, 4, 2, 8),
            gen::convection_diffusion_2d(8, 7, 1.5, 3),
        ] {
            let sym = lu_symbolic(&a);
            for cap in [0usize, 4] {
                let strict = supernodes_lu(&sym, cap);
                for (fill, cols) in [(0.0, 16), (0.4, 1), (-1.0, 16)] {
                    let relaxed = supernodes_lu_relaxed(&sym, cap, fill, cols);
                    assert_eq!(relaxed.part, strict, "fill {fill} cols {cols}");
                    assert_eq!(relaxed.padded_zeros, 0);
                    check_relaxed_layout(&sym, &relaxed);
                }
            }
        }
    }

    #[test]
    fn relaxation_merges_nearly_nesting_columns() {
        // Column 0 {0, 2} does not nest against {1, 2}, so the strict
        // rule leaves it a singleton beside the {1, 2} panel. The
        // merged 3-wide trapezoid needs exactly one explicit zero
        // (position (1, 0)) against 5 structural nonzeros; the merged
        // width ≤ 4 takes the graded 4× budget, so acceptance needs
        // `1 ≤ 4·fill·5` — a 25% budget accepts the merge, a 4%
        // budget rejects it.
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 4.0);
        t.push(2, 0, 1.0);
        t.push(1, 1, 4.0);
        t.push(2, 1, 1.0);
        t.push(2, 2, 4.0);
        t.push(0, 2, 1.0);
        let a = t.to_csc().unwrap();
        let sym = lu_symbolic(&a);
        let strict = supernodes_lu(&sym, 0);
        assert_eq!(strict.n_supernodes(), 2, "column 0 stays a singleton");
        let merged = supernodes_lu_relaxed(&sym, 0, 0.25, 8);
        assert_eq!(merged.part.n_supernodes(), 1, "budget admits the merge");
        assert_eq!(merged.part.width(0), 3);
        assert_eq!(merged.padded_zeros, 1);
        check_relaxed_layout(&sym, &merged);
        let tight = supernodes_lu_relaxed(&sym, 0, 0.04, 8);
        assert_eq!(tight.part, strict, "tight budget must reject");
    }

    #[test]
    fn relaxation_widens_suite_panels_within_budget() {
        for a in [
            gen::circuit_unsym(80, 4, 2, 5),
            gen::convection_diffusion_2d(9, 8, 1.5, 2),
        ] {
            let sym = lu_symbolic(&a);
            let strict = supernodes_lu(&sym, 32);
            let relaxed = supernodes_lu_relaxed(&sym, 32, 0.3, 8);
            check_relaxed_layout(&sym, &relaxed);
            assert!(
                relaxed.mean_width() >= strict.avg_width(),
                "amalgamation can only widen panels"
            );
            assert!(
                relaxed.part.n_supernodes() < strict.n_supernodes(),
                "suite patterns must admit at least one merge"
            );
            // relax_cols caps amalgamation; wider panels can only be
            // strict panels passing through unmerged.
            let strict_starts: std::collections::BTreeMap<usize, usize> = (0..strict
                .n_supernodes())
                .map(|s| (strict.cols(s).start, strict.width(s)))
                .collect();
            for s in 0..relaxed.part.n_supernodes() {
                let w = relaxed.part.width(s);
                let f = relaxed.part.cols(s).start;
                assert!(
                    w <= 8 || strict_starts.get(&f) == Some(&w),
                    "panel at {f} width {w} exceeds relax_cols without being strict"
                );
            }
        }
    }

    #[test]
    fn dissolving_panels_keeps_the_layout_invariants() {
        let a = gen::circuit_unsym(80, 4, 2, 5);
        let sym = lu_symbolic(&a);
        let narrowed: Vec<u32> = sym.l_row_idx.iter().map(|&r| r as u32).collect();
        let relaxed = supernodes_lu_relaxed(&sym, 32, 0.3, 8);
        assert!(relaxed.padded_zeros > 0, "the pattern must pad");
        // Keep everything: an exact copy.
        let same = relaxed.dissolve_unless(&sym.l_col_ptr, &narrowed, |_| true);
        assert_eq!(same, relaxed);
        // Dissolve every other wide panel: still a valid layout with a
        // consistent padded-zero census, kept panels untouched.
        let half = relaxed.dissolve_unless(&sym.l_col_ptr, &narrowed, |s| s % 2 == 0);
        check_relaxed_layout(&sym, &half);
        assert!(half.part.n_supernodes() > relaxed.part.n_supernodes());
        for s in (0..relaxed.part.n_supernodes()).step_by(2) {
            let f = relaxed.part.first_col[s];
            let t = half.part.col_to_super[f];
            assert_eq!(half.part.width(t), relaxed.part.width(s));
            assert_eq!(half.panel_rows(t), relaxed.panel_rows(s));
        }
        // Dissolve all: singletons carrying their own patterns.
        let none = relaxed.dissolve_unless(&sym.l_col_ptr, &narrowed, |_| false);
        assert_eq!(none.part.n_supernodes(), sym.n);
        assert_eq!(none.padded_zeros, 0);
        check_relaxed_layout(&sym, &none);
    }

    const RECORDED_LAYOUTS: [u64; 12] = [
        0x035a_7767_7a2e_89de,
        0x2362_1df8_8a34_5f48,
        0xcce9_921e_4d75_12a9,
        0x7e1a_f9ec_400c_7bdb,
        0xc968_9e9a_20c6_e9bd,
        0x3bd1_ee52_dd7e_d471,
        0xc77a_8415_cb8c_beb8,
        0xb27e_6e12_474b_04ac,
        0x367a_9b9b_4d8a_83de,
        0x20c2_b228_6882_9db9,
        0x9223_cea9_7e60_2999,
        0xd697_8ee0_ca46_0b09,
    ];

    /// FNV-1a over a relaxed layout: partition, row lists and census.
    fn layout_hash(p: &LuPanels) -> u64 {
        let words = (p.part.first_col.iter().map(|&c| c as u64))
            .chain(p.row_ptr.iter().map(|&r| r as u64))
            .chain(p.rows.iter().map(|&r| r as u64))
            .chain([p.padded_zeros as u64]);
        words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x100_0000_01b3)
        })
    }

    #[test]
    fn relaxed_layouts_match_the_recorded_ones() {
        // Recorded before the budget arithmetic moved into
        // `supernode` to be shared with the Cholesky detector: the LU
        // layouts must not move by a single row.
        let fixtures = [
            gen::circuit_unsym(80, 4, 2, 5),
            gen::convection_diffusion_2d(9, 8, 1.5, 2),
            gen::circuit_unsym(70, 4, 2, 8),
        ];
        let knobs = [
            (32usize, 0.3f64, 8usize),
            (0, 0.3, 16),
            (4, 1.0, 64),
            (32, 0.05, 16),
        ];
        let mut got = Vec::new();
        for a in &fixtures {
            let sym = lu_symbolic(a);
            for &(cap, fill, cols) in &knobs {
                got.push(layout_hash(&supernodes_lu_relaxed(&sym, cap, fill, cols)));
            }
        }
        assert_eq!(got, RECORDED_LAYOUTS, "got {got:#x?}");
    }

    #[test]
    fn empty_matrix() {
        let sym = lu_symbolic(&CscMatrix::zeros(0, 0));
        let p = supernodes_lu(&sym, 0);
        assert_eq!(p.n_supernodes(), 0);
        assert_eq!(flop_share_in_wide_panels(&sym, &p), 0.0);
        assert!(panel_flops(&sym, &p).is_empty());
    }

    // ---- SupernodePartition::from_first_cols edge cases (the
    // constructor every detector funnels through). ----

    #[test]
    fn partition_n_zero() {
        let p = SupernodePartition::from_first_cols(vec![0], 0);
        assert_eq!(p.n_supernodes(), 0);
        assert_eq!(p.n_cols(), 0);
        assert_eq!(p.avg_width(), 0.0);
        assert!(p.col_to_super.is_empty());
    }

    #[test]
    fn partition_all_singletons() {
        let n = 5;
        let p = SupernodePartition::from_first_cols((0..=n).collect(), n);
        assert_eq!(p.n_supernodes(), n);
        for s in 0..n {
            assert_eq!(p.width(s), 1);
            assert_eq!(p.cols(s).collect::<Vec<_>>(), vec![s]);
        }
        assert_eq!(p.avg_width(), 1.0);
    }

    #[test]
    fn partition_one_giant_panel() {
        let n = 9;
        let p = SupernodePartition::from_first_cols(vec![0, n], n);
        assert_eq!(p.n_supernodes(), 1);
        assert_eq!(p.width(0), n);
        assert!(p.col_to_super.iter().all(|&s| s == 0));
        assert_eq!(p.avg_width(), n as f64);
    }

    #[test]
    #[should_panic(expected = "cover")]
    fn partition_must_cover_all_columns() {
        SupernodePartition::from_first_cols(vec![0, 3], 7);
    }
}
