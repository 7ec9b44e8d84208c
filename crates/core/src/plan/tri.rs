//! The executable triangular-solve plan — the paper's Figure 1e as a
//! data structure.
//!
//! `TriSolvePlan::build` runs at "compile time": it consumes the
//! inspection sets (reach-set from VI-Prune, block-set from VS-Block),
//! decides peeling and kernel tiers (the enabled low-level
//! transformations), and **packs the matrix values it will touch into
//! execution-order storage** (the "temporary block storage" of §2.3.2).
//! The resulting `solve` touches only numeric data: no DFS, no column
//! pointer chasing outside the schedule, no `x[j] != 0` guards.

use crate::inspector::{TriVIPruneInspector, TriVSBlockInspector};
use sympiler_dense::small::{gemv_sub_small, trsv_small};
use sympiler_dense::{gemv_sub, trsv_lower};
use sympiler_sparse::{CscMatrix, SparseVec};

/// Peeling threshold of the low-level tier: a reach-set column with
/// more than this many stored nonzeros is peeled into unguarded,
/// unrolled code — Figure 1e peels the columns with more than 2. The
/// LU plan applies the same rule to its column updates (an update
/// peels when its source column of `L` has more than this many
/// off-diagonal entries). Read by [`crate::SympilerTriSolve::compile`]
/// and [`super::lu::LuPlan::build`];
/// [`TriSolvePlan::build`] takes it as an argument.
pub const PEEL_COL_COUNT: usize = 2;

/// VS-Block is skipped when the average participating supernode size
/// (width × panel rows) is below this. "This parameter is currently
/// hand-tuned and is set to 160" (§4.2) — the paper's value, applied
/// by [`crate::SympilerTriSolve::compile`]; [`TriSolvePlan::build`]
/// takes the decision as [`TriVariant::vs_block`].
pub const VS_BLOCK_MIN_AVG_SIZE: f64 = 160.0;

/// Which transformations the plan applies — mirrors the stacked bars of
/// the paper's Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriVariant {
    /// Apply VS-Block (supernodal panels).
    pub vs_block: bool,
    /// Apply VI-Prune (reach-set pruning).
    pub vi_prune: bool,
    /// Apply the enabled low-level transformations (peeling + unrolled
    /// small kernels).
    pub low_level: bool,
}

impl TriVariant {
    /// Everything on — the full Sympiler configuration.
    pub fn full() -> Self {
        Self {
            vs_block: true,
            vi_prune: true,
            low_level: true,
        }
    }

    /// VS-Block only (first bar of Figure 6).
    pub fn vs_block_only() -> Self {
        Self {
            vs_block: true,
            vi_prune: false,
            low_level: false,
        }
    }

    /// VS-Block + VI-Prune (second bar of Figure 6).
    pub fn vs_block_vi_prune() -> Self {
        Self {
            vs_block: true,
            vi_prune: true,
            low_level: false,
        }
    }

    /// VI-Prune only (used when the supernode-size threshold rejects
    /// VS-Block, like the paper's matrices 3, 4, 5, 7).
    pub fn vi_prune_only() -> Self {
        Self {
            vs_block: false,
            vi_prune: true,
            low_level: false,
        }
    }
}

/// One scheduled operation. All indices are pre-resolved into the
/// plan-owned storage arrays.
#[derive(Debug, Clone, Copy)]
enum TriOp {
    /// A single column executed through packed scalar storage:
    /// divide by the diagonal, then a scatter-axpy of `len` entries.
    Col { j: u32, off: u32, len: u32 },
    /// A peeled single column with an unrolled/vectorizable update
    /// (low-level tier; semantics identical to `Col`).
    PeeledCol { j: u32, off: u32, len: u32 },
    /// A supernodal panel: dense triangular solve on the `width`-wide
    /// diagonal block, then a panel-vector product scattered to the
    /// shared off-diagonal row list.
    Panel {
        first_col: u32,
        width: u32,
        ld: u32,
        rows_off: u32,
        val_off: u32,
        specialized: bool,
    },
}

/// Reusable solve scratch (gather buffer for panel updates).
#[derive(Debug, Default, Clone)]
pub struct TriScratch {
    gather: Vec<f64>,
}

/// A compiled, value-bound triangular solve specialized to one matrix
/// pattern and one RHS pattern.
#[derive(Debug, Clone)]
pub struct TriSolvePlan {
    n: usize,
    variant: TriVariant,
    ops: Vec<TriOp>,
    /// Packed scalar columns: off-diagonal rows and values in execution
    /// order; the diagonal value of op `Col`/`PeeledCol` number `k` is
    /// `col_diag[k_th scalar op]` — stored inline before each column's
    /// values instead, at `col_vals[off - 1]`... kept simple: diagonal
    /// values parallel array indexed by scalar op order.
    col_rows: Vec<u32>,
    col_vals: Vec<f64>,
    col_diag: Vec<f64>,
    /// Packed panels (column-major, ld x width each).
    panel_rows: Vec<u32>,
    panel_vals: Vec<f64>,
    /// Columns the solution can touch (for O(reach) result reset).
    touched: Vec<u32>,
    /// Useful flop count of the pruned solve (for GFLOP/s reporting).
    flops: u64,
    /// Flops the schedule actually executes (>= `flops`: whole-supernode
    /// execution and dense diagonal blocks do extra work).
    executed_flops: u64,
    max_panel_rows: usize,
}

impl TriSolvePlan {
    /// Compile a plan for lower-triangular `l` and the RHS pattern
    /// `beta` (sorted nonzero indices of `b`). `max_width` caps
    /// supernode width (0 = unlimited); `peel_col_count` is the paper's
    /// peeling threshold (Figure 1e uses 2).
    pub fn build(
        l: &CscMatrix,
        beta: &[usize],
        variant: TriVariant,
        max_width: usize,
        peel_col_count: usize,
    ) -> Self {
        assert!(
            l.is_lower_triangular_with_diag(),
            "triangular solve needs lower-triangular L with diagonal-first columns"
        );
        let n = l.n_cols();

        // --- Inspection ---
        // VI-Prune set: reached columns (ascending order is topological
        // for a lower-triangular system).
        let mut reached: Vec<usize> = if variant.vi_prune {
            let mut r = TriVIPruneInspector.inspect(l, beta).reach;
            r.sort_unstable();
            r
        } else {
            (0..n).collect()
        };
        // VS-Block set: supernode partition.
        let partition = variant
            .vs_block
            .then(|| TriVSBlockInspector.inspect(l, max_width).partition);

        // --- Scheduling + packing ---
        let mut ops = Vec::new();
        let mut col_rows: Vec<u32> = Vec::new();
        let mut col_vals: Vec<f64> = Vec::new();
        let mut col_diag: Vec<f64> = Vec::new();
        let mut panel_rows: Vec<u32> = Vec::new();
        let mut panel_vals: Vec<f64> = Vec::new();
        let mut max_panel_rows = 0usize;

        let push_col = |ops: &mut Vec<TriOp>,
                        col_rows: &mut Vec<u32>,
                        col_vals: &mut Vec<f64>,
                        col_diag: &mut Vec<f64>,
                        j: usize| {
            let rows = l.col_rows(j);
            let vals = l.col_values(j);
            let off = col_rows.len() as u32;
            let len = (rows.len() - 1) as u32;
            col_diag.push(vals[0]);
            col_rows.extend(rows[1..].iter().map(|&r| r as u32));
            col_vals.extend_from_slice(&vals[1..]);
            // Peel columns with more than `peel_col_count` stored
            // nonzeros (Figure 1e's "more than 2 nonzeros" rule).
            let peeled = variant.low_level && rows.len() > peel_col_count;
            if peeled {
                ops.push(TriOp::PeeledCol {
                    j: j as u32,
                    off,
                    len,
                });
            } else {
                ops.push(TriOp::Col {
                    j: j as u32,
                    off,
                    len,
                });
            }
        };

        match &partition {
            Some(part) => {
                // Execute at supernode granularity; a supernode runs if
                // any of its columns is reached.
                let mut k = 0usize;
                let mut sched: Vec<usize> = Vec::new();
                while k < reached.len() {
                    let s = part.col_to_super[reached[k]];
                    sched.push(s);
                    let end = part.first_col[s + 1];
                    while k < reached.len() && reached[k] < end {
                        k += 1;
                    }
                }
                for s in sched {
                    let first = part.first_col[s];
                    let width = part.width(s);
                    if width == 1 {
                        push_col(&mut ops, &mut col_rows, &mut col_vals, &mut col_diag, first);
                        continue;
                    }
                    // Pack the trapezoidal panel: rows = pattern of the
                    // first column; nested columns padded with zeros in
                    // the (unused) upper-triangular corner.
                    let rows = l.col_rows(first);
                    let ld = rows.len();
                    max_panel_rows = max_panel_rows.max(ld - width);
                    let rows_off = panel_rows.len() as u32;
                    panel_rows.extend(rows.iter().map(|&r| r as u32));
                    let val_off = panel_vals.len() as u32;
                    panel_vals.resize(panel_vals.len() + ld * width, 0.0);
                    for c in 0..width {
                        let vals = l.col_values(first + c);
                        let dst_base = val_off as usize + c * ld + c;
                        panel_vals[dst_base..dst_base + vals.len()].copy_from_slice(vals);
                    }
                    ops.push(TriOp::Panel {
                        first_col: first as u32,
                        width: width as u32,
                        ld: ld as u32,
                        rows_off,
                        val_off,
                        specialized: variant.low_level && width <= 4,
                    });
                }
                // The touched set grows to whole supernodes.
                reached = ops
                    .iter()
                    .flat_map(|op| match *op {
                        TriOp::Col { j, .. } | TriOp::PeeledCol { j, .. } => {
                            (j as usize)..(j as usize + 1)
                        }
                        TriOp::Panel {
                            first_col, width, ..
                        } => (first_col as usize)..(first_col as usize + width as usize),
                    })
                    .collect();
            }
            None => {
                for &j in &reached {
                    push_col(&mut ops, &mut col_rows, &mut col_vals, &mut col_diag, j);
                }
            }
        }

        let flops = reached
            .iter()
            .map(|&j| 1 + 2 * (l.col_nnz(j) as u64 - 1))
            .sum();
        let executed_flops = ops
            .iter()
            .map(|op| match *op {
                TriOp::Col { len, .. } | TriOp::PeeledCol { len, .. } => 1 + 2 * len as u64,
                TriOp::Panel { width, ld, .. } => {
                    let (w, ld) = (width as u64, ld as u64);
                    // dense trsv on the diagonal block + panel GEMV
                    w * w + 2 * (ld - w) * w
                }
            })
            .sum();
        Self {
            n,
            variant,
            ops,
            col_rows,
            col_vals,
            col_diag,
            panel_rows,
            panel_vals,
            touched: reached.iter().map(|&j| j as u32).collect(),
            flops,
            executed_flops,
            max_panel_rows,
        }
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The variant this plan was compiled with.
    pub fn variant(&self) -> TriVariant {
        self.variant
    }

    /// Useful flops of the pruned solve (paper's Figure 6 accounting).
    pub fn flops(&self) -> u64 {
        self.flops
    }

    /// Flops the schedule actually executes (>= [`Self::flops`]; an
    /// unpruned or supernodal schedule does extra work).
    pub fn executed_flops(&self) -> u64 {
        self.executed_flops
    }

    /// Number of scheduled operations.
    pub fn n_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of panel (supernode) operations.
    pub fn n_panels(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, TriOp::Panel { .. }))
            .count()
    }

    /// Number of peeled iterations (Figure 1e's straight-line columns).
    pub fn n_peeled(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, TriOp::PeeledCol { .. }))
            .count()
    }

    /// Columns the solution may occupy.
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// Solve `L x = b` into `x`, which must be zero on entry (use
    /// [`Self::reset`] between repeated solves). `scratch` is reused
    /// across calls.
    ///
    /// This is the numeric-only code path: every branch below
    /// dispatches on *compile-time* decisions baked into the op stream.
    pub fn solve(&self, b: &SparseVec, x: &mut [f64], scratch: &mut TriScratch) {
        assert_eq!(x.len(), self.n, "x length mismatch");
        debug_assert!(x.iter().all(|&v| v == 0.0), "x must be zeroed");
        for (i, v) in b.iter() {
            x[i] = v;
        }
        scratch.gather.resize(self.max_panel_rows, 0.0);
        let mut scalar_idx = 0usize;
        for op in &self.ops {
            match *op {
                TriOp::Col { j, off, len } => {
                    let xj = x[j as usize] / self.col_diag[scalar_idx];
                    scalar_idx += 1;
                    x[j as usize] = xj;
                    if xj != 0.0 {
                        let rows = &self.col_rows[off as usize..(off + len) as usize];
                        let vals = &self.col_vals[off as usize..(off + len) as usize];
                        for (&r, &v) in rows.iter().zip(vals) {
                            x[r as usize] -= v * xj;
                        }
                    }
                }
                TriOp::PeeledCol { j, off, len } => {
                    // Peeled: no zero guard (the reach-set guarantees
                    // work), unrolled by two like the emitted C.
                    let xj = x[j as usize] / self.col_diag[scalar_idx];
                    scalar_idx += 1;
                    x[j as usize] = xj;
                    let rows = &self.col_rows[off as usize..(off + len) as usize];
                    let vals = &self.col_vals[off as usize..(off + len) as usize];
                    let mut k = 0;
                    while k + 1 < rows.len() {
                        let r0 = rows[k] as usize;
                        let r1 = rows[k + 1] as usize;
                        let v0 = vals[k];
                        let v1 = vals[k + 1];
                        x[r0] -= v0 * xj;
                        x[r1] -= v1 * xj;
                        k += 2;
                    }
                    if k < rows.len() {
                        x[rows[k] as usize] -= vals[k] * xj;
                    }
                }
                TriOp::Panel {
                    first_col,
                    width,
                    ld,
                    rows_off,
                    val_off,
                    specialized,
                } => {
                    let (first, w, ld) = (first_col as usize, width as usize, ld as usize);
                    let panel = &self.panel_vals[val_off as usize..val_off as usize + ld * w];
                    let xseg = &mut x[first..first + w];
                    if specialized {
                        trsv_small(w, panel, ld, xseg);
                    } else {
                        trsv_lower(w, panel, ld, xseg);
                    }
                    let m = ld - w;
                    if m == 0 {
                        continue;
                    }
                    // Gather: t = panel_offdiag * xseg (dense GEMV), then
                    // scatter-subtract through the shared row list.
                    let t = &mut scratch.gather[..m];
                    t.fill(0.0);
                    // gemv_sub computes t -= P * xseg, so t = -(P xseg).
                    let off_panel = &panel[w..];
                    let xseg = &x[first..first + w];
                    if specialized {
                        gemv_sub_small(m, w, off_panel, ld, xseg, t);
                    } else {
                        gemv_sub(m, w, off_panel, ld, xseg, t);
                    }
                    let rows = &self.panel_rows[rows_off as usize + w..rows_off as usize + ld];
                    for (&r, &tv) in rows.iter().zip(t.iter()) {
                        x[r as usize] += tv;
                    }
                }
            }
        }
    }

    /// Zero exactly the entries a previous [`Self::solve`] may have
    /// written — O(|reach|), preserving the decoupled complexity.
    ///
    /// Correctness: any row receiving a *nonzero* scatter contribution
    /// is the head of an edge from an executed column with nonzero
    /// solution — and the reach set is closed under such edges, so that
    /// row is itself a scheduled column, i.e. a member of `touched`.
    /// Extra columns pulled in by whole-supernode execution carry zero
    /// solution values and therefore scatter only zeros.
    pub fn reset(&self, x: &mut [f64]) {
        for &j in &self.touched {
            x[j as usize] = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympiler_sparse::gen::random_lower_triangular;
    use sympiler_sparse::rhs;

    fn reference_solution(l: &CscMatrix, b: &SparseVec) -> Vec<f64> {
        let mut x = b.to_dense();
        sympiler_solvers::trisolve::naive_forward(l, &mut x);
        x
    }

    fn check_variant(l: &CscMatrix, b: &SparseVec, variant: TriVariant) {
        let plan = TriSolvePlan::build(l, b.indices(), variant, 0, 2);
        let mut x = vec![0.0; l.n_cols()];
        let mut scratch = TriScratch::default();
        plan.solve(b, &mut x, &mut scratch);
        let expect = reference_solution(l, b);
        for i in 0..l.n_cols() {
            assert!(
                (x[i] - expect[i]).abs() < 1e-11,
                "variant {variant:?}: x[{i}] = {} vs {}",
                x[i],
                expect[i]
            );
        }
    }

    #[test]
    fn all_variants_match_reference() {
        for seed in 0..8u64 {
            let l = random_lower_triangular(60, 3, seed);
            let b = rhs::random_sparse_rhs(60, 0.05, seed + 50);
            check_variant(&l, &b, TriVariant::full());
            check_variant(&l, &b, TriVariant::vs_block_only());
            check_variant(&l, &b, TriVariant::vs_block_vi_prune());
            check_variant(&l, &b, TriVariant::vi_prune_only());
        }
    }

    #[test]
    fn supernodal_factor_pattern_exercises_panels() {
        // Use a banded factor pattern so real multi-column supernodes
        // appear (trailing dense block).
        let a = sympiler_sparse::gen::banded_spd(40, 5, 3);
        let l = sympiler_solvers::SimplicialCholesky::analyze(&a)
            .unwrap()
            .factor(&a)
            .unwrap();
        let b = rhs::rhs_from_column_pattern(&l, 2, 7);
        let plan = TriSolvePlan::build(&l, b.indices(), TriVariant::full(), 0, 2);
        assert!(plan.n_panels() > 0, "expected panel ops on banded factor");
        check_variant(&l, &b, TriVariant::full());
    }

    #[test]
    fn pruned_plan_is_smaller_than_full() {
        let l = random_lower_triangular(200, 2, 9);
        let b = rhs::random_sparse_rhs(200, 0.02, 1);
        let pruned = TriSolvePlan::build(&l, b.indices(), TriVariant::vi_prune_only(), 0, 2);
        let unpruned = TriSolvePlan::build(
            &l,
            b.indices(),
            TriVariant {
                vs_block: false,
                vi_prune: false,
                low_level: false,
            },
            0,
            2,
        );
        assert!(pruned.n_ops() < unpruned.n_ops());
        assert_eq!(unpruned.n_ops(), 200);
        assert!(pruned.flops() <= unpruned.flops());
    }

    #[test]
    fn peeling_fires_on_heavy_columns() {
        let l = random_lower_triangular(50, 6, 4); // ~6 off-diag per col
        let b = rhs::random_sparse_rhs(50, 0.1, 2);
        let plan = TriSolvePlan::build(&l, b.indices(), TriVariant::full(), 0, 2);
        assert!(plan.n_peeled() > 0, "columns with >2 entries must peel");
        check_variant(&l, &b, TriVariant::full());
    }

    #[test]
    fn reset_restores_zero_buffer() {
        let l = random_lower_triangular(80, 3, 5);
        let b = rhs::random_sparse_rhs(80, 0.05, 6);
        let plan = TriSolvePlan::build(&l, b.indices(), TriVariant::full(), 0, 2);
        let mut x = vec![0.0; 80];
        let mut scratch = TriScratch::default();
        plan.solve(&b, &mut x, &mut scratch);
        plan.reset(&mut x);
        assert!(x.iter().all(|&v| v == 0.0), "reset must zero the buffer");
        // And solving again gives the same answer.
        plan.solve(&b, &mut x, &mut scratch);
        let expect = reference_solution(&l, &b);
        for i in 0..80 {
            assert!((x[i] - expect[i]).abs() < 1e-11);
        }
    }

    #[test]
    fn flop_count_matches_reach_set() {
        let l = random_lower_triangular(60, 3, 8);
        let b = rhs::random_sparse_rhs(60, 0.05, 3);
        let plan = TriSolvePlan::build(&l, b.indices(), TriVariant::vi_prune_only(), 0, 2);
        let reach = sympiler_graph::reach(&l, b.indices());
        let expect = sympiler_solvers::trisolve::trisolve_flops(&l, &reach);
        assert_eq!(plan.flops(), expect);
    }

    #[test]
    fn dense_rhs_full_plan_still_correct() {
        let l = random_lower_triangular(30, 3, 11);
        let dense_b: Vec<f64> = (0..30).map(|i| 1.0 + i as f64).collect();
        let b = SparseVec::from_dense(&dense_b);
        check_variant(&l, &b, TriVariant::full());
    }
}
