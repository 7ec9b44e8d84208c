//! The executable Cholesky plan: a left-looking supernodal
//! factorization with **all symbolic work hoisted to compile time**.
//!
//! Compared to the CHOLMOD-like baseline
//! (`sympiler_solvers::SupernodalCholesky`), the plan's `factor`:
//!
//! * performs **no transpose** of `A` — assembly positions are
//!   precomputed source/destination index pairs (§4.2: "both the reach
//!   function and the matrix transpose operations are removed from the
//!   numeric code");
//! * walks **no descendant lists** — the update schedule, including
//!   `lo/hi` row windows and relative indices, is precomputed per
//!   target supernode (the prune-set made executable);
//! * performs **no relative-index computation** — the row positions
//!   and column offsets of every update are baked in;
//! * runs **no gather → GEMM → scatter round trip** — each target
//!   supernode is built in a row-major `ld × w` accumulator, and a
//!   descendant update is one call of the fused kernel supernodal LU
//!   uses ([`sympiler_dense::panel_update_sub`]): the descendant's row
//!   list is walked once and `L_d(I, :) · L_d(J, :)ᵀ` is subtracted
//!   straight into the accumulator rows, SIMD lanes along the target's
//!   columns. A transposing write-back of the lower trapezoid then
//!   puts the panel into the column-major factor storage, where the
//!   dense `potrf` + `trsm` finish it;
//! * dispatches to **specialized unrolled kernels** for small blocks,
//!   chosen at compile time (§4.2's generated small dense sub-kernels).
//!
//! Supernodes come from
//! [`sympiler_graph::supernode::supernodes_cholesky_relaxed`]: the
//! paper's strict merge rule plus relaxed amalgamation along etree
//! parent links, so the schedule is hundreds of panel updates instead
//! of tens of thousands of single-column ones. Padded trapezoid slots
//! compute to exact `±0.0` (every product that lands on one has an
//! exact-zero factor) and are dropped *by structure* when the factor
//! is extracted ([`CholFactor::to_csc`]).
//!
//! One host factors one matrix to the same bits every time (each panel
//! runs one fixed operation sequence). Across hosts the update kernel
//! uses fused multiply-add where the CPU has it, so an FMA and a
//! non-FMA host agree to rounding, not bitwise.

use super::pattern::CompiledPattern;
use crate::inspector::CholVIPruneInspector;
use crate::report::{timed, SymbolicReport};
use std::sync::Arc;
use sympiler_dense::small::potrf_small;
use sympiler_dense::{
    panel_update_sub, potrf_lower, trsm_right_lower_trans, trsv_lower, trsv_lower_trans,
};
use sympiler_graph::supernode::{supernodes_cholesky_relaxed, RelaxedPanels, SupernodePartition};
use sympiler_graph::symbolic::SymbolicFactor;
use sympiler_sparse::CscMatrix;

/// Cap on supernode width (0 = unlimited) for the Cholesky and
/// triangular-solve plans [`crate::SympilerCholesky::compile`] and
/// [`crate::SympilerTriSolve::compile`] build. 64 is the cap the
/// CHOLMOD-like baseline runs with in the Figure 7 engines
/// (`SupernodalCholesky::analyze(a, 64)`), so the strict bars compare
/// like partitions; amalgamated supernodes stop at
/// [`super::lu_supernodal::RELAX_COLS`] first. [`CholPlan::build`] and
/// [`super::tri::TriSolvePlan::build`] take it as an argument, and
/// width 1 there is non-supernodal execution.
pub const MAX_SUPERNODE_WIDTH: usize = 64;

/// Factorization error (mirrors the baseline error type; kept separate
/// so `sympiler-core` does not depend on `sympiler-solvers`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CholPlanError {
    /// Not positive definite at this column.
    NotPositiveDefinite { column: usize },
    /// The numeric input does not match the compiled pattern.
    PatternMismatch,
    /// Bad input shape/storage.
    BadInput(String),
    /// Compile time: supernode `descendant` updates supernode `target`
    /// at `row`, which the target's row list lacks — the partition
    /// breaks the left-looking invariant (a descendant's rows at or
    /// below a target's first column are a subset of the target's
    /// rows), e.g. by merging sibling subtrees.
    RowOutsideTarget {
        descendant: usize,
        target: usize,
        row: usize,
    },
}

impl std::fmt::Display for CholPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CholPlanError::NotPositiveDefinite { column } => {
                write!(f, "matrix not positive definite at column {column}")
            }
            CholPlanError::PatternMismatch => write!(f, "pattern mismatch"),
            CholPlanError::BadInput(m) => write!(f, "bad input: {m}"),
            CholPlanError::RowOutsideTarget {
                descendant,
                target,
                row,
            } => write!(
                f,
                "supernode {descendant} updates supernode {target} at row {row}, \
                 which is not in the target's row list"
            ),
        }
    }
}

impl std::error::Error for CholPlanError {}

/// One precomputed descendant update: subtract
/// `L_d(I, :) * L_d(J, :)^T` from the target's accumulator at baked-in
/// row positions and column offsets.
#[derive(Debug, Clone)]
struct UpdateOp {
    /// Source supernode.
    d: u32,
    /// Row-window of `d`'s row list: `I = rows[lo..]`, `J = rows[lo..hi]`.
    lo: u32,
    hi: u32,
    /// Offset into `scatter_pool`: `m = d_ld - lo` row positions in the
    /// target panel followed by `hi - lo` ascending target column
    /// offsets.
    scatter_off: u32,
}

/// Per-supernode compiled schedule.
#[derive(Debug, Clone)]
struct SnSchedule {
    /// Assembly range into `asm_src`/`asm_dst`. The destinations are
    /// row-major accumulator offsets (`row · w + c`) when the supernode
    /// has updates, column-major panel offsets (`c · ld + row`) when it
    /// has none and assembles straight into the factor.
    asm_range: (u32, u32),
    /// Update range into `updates`.
    upd_range: (u32, u32),
    /// Kernel tier for the diagonal block.
    specialized: bool,
}

/// The supernodal layout of `L`, shared by a plan and every factor it
/// produces.
#[derive(Debug)]
struct CholLayout {
    n: usize,
    part: SupernodePartition,
    /// Elimination tree, kept for sparse-RHS solves: the pattern of the
    /// forward-solve solution is the union of etree paths from the
    /// nonzeros of `b` (the reach-set specialized to Cholesky factors).
    parent: Vec<usize>,
    /// Panel row lists (`rows_ptr[s]..rows_ptr[s+1]`).
    rows_ptr: Vec<usize>,
    rows: Vec<u32>,
    /// Panel value offsets (column-major `ld × w` per panel).
    val_ptr: Vec<usize>,
    /// The symbolic pattern of `L` column by column — what separates a
    /// structural entry of an amalgamated panel from a padded slot.
    l_col_ptr: Vec<usize>,
    l_row_idx: Vec<u32>,
}

impl CholLayout {
    /// Supernode `s`: first column, width, row list, value range.
    fn panel(&self, s: usize) -> (usize, usize, &[u32], std::ops::Range<usize>) {
        let rows = &self.rows[self.rows_ptr[s]..self.rows_ptr[s + 1]];
        (
            self.part.first_col[s],
            self.part.width(s),
            rows,
            self.val_ptr[s]..self.val_ptr[s + 1],
        )
    }
}

/// The executable tables [`CholPlan::compile_schedule`] bakes.
#[derive(Debug, Clone)]
struct CholSchedule {
    /// Assembly maps: `target[asm_dst[k]] = a_values[asm_src[k]]`.
    asm_src: Vec<u32>,
    asm_dst: Vec<u32>,
    /// Update schedule + its row-position / column-offset pool.
    updates: Vec<UpdateOp>,
    scatter_pool: Vec<u32>,
    per_supernode: Vec<SnSchedule>,
    /// Largest `ld · w` of a supernode with updates (accumulator size).
    max_acc: usize,
    /// Largest `v · window` of an update (`bt` scratch size).
    max_bt: usize,
}

/// A compiled Cholesky factorization specialized to one pattern.
#[derive(Debug, Clone)]
pub struct CholPlan {
    /// The compiled pattern, checked on every `factor` call — the
    /// static-sparsity contract (§1.2) made enforceable: free for the
    /// compiled matrix and its clones, O(|A|) for any other input.
    pattern: CompiledPattern,
    layout: Arc<CholLayout>,
    schedule: CholSchedule,
    /// Explicit zeros the amalgamated trapezoids carry.
    padded_zeros: usize,
    /// Largest diagonal block (TRSM scratch size).
    max_width: usize,
    /// Exact factorization flops (for Figure 7's GFLOP/s).
    flops: u64,
    /// Symbolic phase report (inspection timings, set sizes).
    report: SymbolicReport,
}

/// A numeric factor produced by [`CholPlan::factor`].
#[derive(Debug, Clone)]
pub struct CholFactor {
    layout: Arc<CholLayout>,
    values: Vec<f64>,
}

impl CholPlan {
    /// Compile a plan for the SPD matrix `a_lower` (lower storage).
    /// `max_width` caps supernode width (0 = unlimited); `relax_fill`
    /// and `relax_cols` are the amalgamation budget of
    /// [`supernodes_cholesky_relaxed`] (`relax_fill <= 0` keeps the
    /// paper's strict supernodes); when `low_level` is set, small
    /// diagonal blocks use the specialized kernel tier.
    pub fn build(
        a_lower: &CscMatrix,
        max_width: usize,
        relax_fill: f64,
        relax_cols: usize,
        low_level: bool,
    ) -> Result<Self, CholPlanError> {
        if !a_lower.is_square() {
            return Err(CholPlanError::BadInput("matrix must be square".into()));
        }
        if !a_lower.is_lower_storage() {
            return Err(CholPlanError::BadInput(
                "matrix must be in lower-triangular storage".into(),
            ));
        }
        // Row indices and the compiled pattern narrow to u32.
        if a_lower.n_cols() as u64 >= 1 << 32 || a_lower.nnz() as u64 >= 1 << 32 {
            return Err(CholPlanError::BadInput(format!(
                "matrix order {} / {} entries exceed the plan's 2^32 - 1 index limit",
                a_lower.n_cols(),
                a_lower.nnz()
            )));
        }
        let mut report = SymbolicReport::default();

        // --- Inspection (Table 1) ---
        let prune = timed(&mut report, "inspect: etree + row patterns", || {
            CholVIPruneInspector.inspect(a_lower)
        });
        let panels = timed(&mut report, "inspect: supernodes (block-set)", || {
            supernodes_cholesky_relaxed(&prune.symbolic, max_width, relax_fill, relax_cols)
        });
        Self::from_panels(a_lower, prune.symbolic, panels, low_level, report)
    }

    /// Lay out and compile the plan over a given panel partition.
    fn from_panels(
        a_lower: &CscMatrix,
        sym: SymbolicFactor,
        panels: RelaxedPanels,
        low_level: bool,
        mut report: SymbolicReport,
    ) -> Result<Self, CholPlanError> {
        let flops = sym.factor_flops();
        let RelaxedPanels {
            part,
            row_ptr: rows_ptr,
            rows,
            padded_zeros,
        } = panels;
        report.set_size("nnz(A) lower", a_lower.nnz());
        report.set_size("nnz(L)", sym.l_nnz());
        report.set_size("supernodes", part.n_supernodes());
        report.set_size("padded zeros", padded_zeros);

        let ns = part.n_supernodes();
        let mut val_ptr = Vec::with_capacity(ns + 1);
        val_ptr.push(0usize);
        for s in 0..ns {
            let ld = rows_ptr[s + 1] - rows_ptr[s];
            val_ptr.push(val_ptr[s] + ld * part.width(s));
        }
        let max_width = (0..ns).map(|s| part.width(s)).max().unwrap_or(0);
        let layout = CholLayout {
            n: sym.n,
            part,
            parent: sym.parent,
            rows_ptr,
            rows,
            val_ptr,
            l_col_ptr: sym.l_col_ptr,
            l_row_idx: sym.l_row_idx.iter().map(|&r| r as u32).collect(),
        };

        let schedule = timed(&mut report, "compile: schedules + scatter maps", || {
            Self::compile_schedule(a_lower, &layout, low_level)
        })?;
        report.set_size("update ops", schedule.updates.len());
        report.set_size("scatter pool", schedule.scatter_pool.len());

        Ok(Self {
            pattern: CompiledPattern::new(a_lower),
            layout: Arc::new(layout),
            schedule,
            padded_zeros,
            max_width,
            flops,
            report,
        })
    }

    fn compile_schedule(
        a_lower: &CscMatrix,
        layout: &CholLayout,
        low_level: bool,
    ) -> Result<CholSchedule, CholPlanError> {
        let part = &layout.part;
        let ns = part.n_supernodes();
        let mut asm_src = Vec::with_capacity(a_lower.nnz());
        let mut asm_dst = Vec::with_capacity(a_lower.nnz());
        let mut updates: Vec<UpdateOp> = Vec::new();
        let mut scatter_pool: Vec<u32> = Vec::new();
        let mut per_supernode = Vec::with_capacity(ns);
        let (mut max_acc, mut max_bt) = (0usize, 0usize);

        // pos[row] = offset within the current target panel's rows;
        // ABSENT for every row the panel does not have.
        const ABSENT: u32 = u32::MAX;
        let mut pos = vec![ABSENT; layout.n];
        // Symbolic replay of the descendant lists (same walk the
        // baseline does numerically; here it runs once, at compile
        // time).
        const NONE: usize = usize::MAX;
        let mut head = vec![NONE; ns];
        let mut next = vec![NONE; ns];
        let mut desc_ptr = vec![0usize; ns];

        for s in 0..ns {
            let (first, width, s_rows, _) = layout.panel(s);
            let s_end = first + width;
            let ld = s_rows.len();
            for (r, &row) in s_rows.iter().enumerate() {
                pos[row as usize] = r as u32;
            }

            // Update schedule: replay the descendant lists.
            let upd_start = updates.len() as u32;
            let mut d = head[s];
            head[s] = NONE;
            while d != NONE {
                let d_next = next[d];
                let (_, d_width, d_rows, _) = layout.panel(d);
                let d_ld = d_rows.len();
                let lo = desc_ptr[d];
                let mut hi = lo;
                while hi < d_ld && (d_rows[hi] as usize) < s_end {
                    hi += 1;
                }
                // m row positions, then the J rows' column offsets.
                let scatter_off = scatter_pool.len() as u32;
                for &r in &d_rows[lo..] {
                    if pos[r as usize] == ABSENT {
                        return Err(CholPlanError::RowOutsideTarget {
                            descendant: d,
                            target: s,
                            row: r as usize,
                        });
                    }
                    scatter_pool.push(pos[r as usize]);
                }
                for &r in &d_rows[lo..hi] {
                    scatter_pool.push((r as usize - first) as u32);
                }
                let window = (d_rows[hi - 1] - d_rows[lo]) as usize + 1;
                max_bt = max_bt.max(d_width * window);
                updates.push(UpdateOp {
                    d: d as u32,
                    lo: lo as u32,
                    hi: hi as u32,
                    scatter_off,
                });
                if hi < d_ld {
                    desc_ptr[d] = hi;
                    let owner = part.col_to_super[d_rows[hi] as usize];
                    next[d] = head[owner];
                    head[owner] = d;
                }
                d = d_next;
            }
            let upd_end = updates.len() as u32;
            let has_updates = upd_end > upd_start;
            if has_updates {
                max_acc = max_acc.max(ld * width);
            }

            // Assembly map for A's columns in this supernode, relative
            // to the accumulator (row-major) or the panel base.
            let asm_start = asm_src.len() as u32;
            for c in 0..width {
                let j = first + c;
                for (k, &i) in a_lower.col_rows(j).iter().enumerate() {
                    let r = pos[i] as usize;
                    let dst = if has_updates {
                        r * width + c
                    } else {
                        c * ld + r
                    };
                    asm_src.push((a_lower.col_ptr()[j] + k) as u32);
                    asm_dst.push(dst as u32);
                }
            }
            let asm_end = asm_src.len() as u32;

            if ld > width {
                desc_ptr[s] = width;
                let owner = part.col_to_super[s_rows[width] as usize];
                next[s] = head[owner];
                head[owner] = s;
            }
            per_supernode.push(SnSchedule {
                asm_range: (asm_start, asm_end),
                upd_range: (upd_start, upd_end),
                specialized: low_level && width <= 4,
            });
            for &row in s_rows {
                pos[row as usize] = ABSENT;
            }
        }
        Ok(CholSchedule {
            asm_src,
            asm_dst,
            updates,
            scatter_pool,
            per_supernode,
            max_acc,
            max_bt,
        })
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.layout.n
    }

    /// Exact factorization flops for GFLOP/s reporting (structural: the
    /// arithmetic on padded zeros is not counted).
    pub fn flops(&self) -> u64 {
        self.flops
    }

    /// The symbolic report (inspection timings, set sizes).
    pub fn report(&self) -> &SymbolicReport {
        &self.report
    }

    /// The supernode partition the plan compiled.
    pub fn partition(&self) -> &SupernodePartition {
        &self.layout.part
    }

    /// Explicit zeros the amalgamated panels carry at or below the
    /// diagonal (0 when amalgamation is off).
    pub fn padded_zeros(&self) -> usize {
        self.padded_zeros
    }

    /// Numeric factorization: pure loads/stores/flops over precomputed
    /// indices.
    pub fn factor(&self, a_lower: &CscMatrix) -> Result<CholFactor, CholPlanError> {
        if !self.pattern.matches(a_lower) {
            return Err(CholPlanError::PatternMismatch);
        }
        let layout = &*self.layout;
        let a_values = a_lower.values();
        let sched = &self.schedule;
        let mut values = vec![0.0f64; *layout.val_ptr.last().unwrap()];
        let mut acc_buf = vec![0.0f64; sched.max_acc];
        let mut bt_buf = vec![0.0f64; sched.max_bt];
        let mut diag_buf = vec![0.0f64; self.max_width * self.max_width];

        for (s, sn) in sched.per_supernode.iter().enumerate() {
            let (first, width, s_rows, range) = layout.panel(s);
            let ld = s_rows.len();
            // Descendants are finished panels before this one.
            let (done, rest) = values.split_at_mut(range.start);
            let panel = &mut rest[..ld * width];

            let (a0, a1) = (sn.asm_range.0 as usize, sn.asm_range.1 as usize);
            let asm = sched.asm_src[a0..a1].iter().zip(&sched.asm_dst[a0..a1]);
            let (u0, u1) = (sn.upd_range.0 as usize, sn.upd_range.1 as usize);
            if u0 == u1 {
                // Assembly: straight indexed copies into the panel.
                for (&src, &dst) in asm {
                    panel[dst as usize] = a_values[src as usize];
                }
            } else {
                // Row-major accumulator: entry (r, c) at r · width + c.
                let acc = &mut acc_buf[..ld * width];
                acc.fill(0.0);
                for (&src, &dst) in asm {
                    acc[dst as usize] = a_values[src as usize];
                }
                // Descendant updates: one fused kernel call each.
                for upd in &sched.updates[u0..u1] {
                    let (_, v, d_rows, d_range) = layout.panel(upd.d as usize);
                    let d_ld = d_rows.len();
                    let d_panel = &done[d_range];
                    let (lo, hi) = (upd.lo as usize, upd.hi as usize);
                    let (m, ncols) = (d_ld - lo, hi - lo);
                    let sc = upd.scatter_off as usize;
                    let row_pos = &sched.scatter_pool[sc..sc + m];
                    let col_off = &sched.scatter_pool[sc + m..sc + m + ncols];
                    // The update touches the window of target columns
                    // the J rows span; bt is L_d(J, :)ᵀ placed at the
                    // J rows' columns of that window, zero between.
                    let c0 = col_off[0] as usize;
                    let window = col_off[ncols - 1] as usize - c0 + 1;
                    let bt = &mut bt_buf[..v * window];
                    if window > ncols {
                        bt.fill(0.0);
                    }
                    for k in 0..v {
                        let src = &d_panel[k * d_ld + lo..k * d_ld + hi];
                        let dst = &mut bt[k * window..(k + 1) * window];
                        for (&c, &l_jk) in col_off.iter().zip(src) {
                            dst[c as usize - c0] = l_jk;
                        }
                    }
                    panel_update_sub(
                        window,
                        v,
                        row_pos,
                        &d_panel[lo..],
                        d_ld,
                        bt,
                        &mut acc[c0..],
                        width,
                    );
                }
                // Transposing write-back of the lower trapezoid.
                for (c, col) in panel.chunks_exact_mut(ld).enumerate() {
                    for (r, dst) in col.iter_mut().enumerate().skip(c) {
                        *dst = acc[r * width + c];
                    }
                }
            }

            // Dense factorization with the compile-time kernel choice.
            let res = if sn.specialized {
                potrf_small(width, panel, ld)
            } else {
                potrf_lower(width, panel, ld)
            };
            res.map_err(|c| CholPlanError::NotPositiveDefinite { column: first + c })?;
            if ld > width {
                let diag = &mut diag_buf[..width * width];
                for c in 0..width {
                    for r in c..width {
                        diag[c * width + r] = panel[c * ld + r];
                    }
                }
                trsm_right_lower_trans(ld - width, width, diag, width, &mut panel[width..], ld);
            }
        }
        Ok(CholFactor {
            layout: Arc::clone(&self.layout),
            values,
        })
    }
}

impl CholFactor {
    /// Matrix order.
    pub fn n(&self) -> usize {
        self.layout.n
    }

    /// Supernode `s`: first column, width, row list, column-major panel.
    fn panel(&self, s: usize) -> (usize, usize, &[u32], &[f64]) {
        let (first, width, rows, range) = self.layout.panel(s);
        (first, width, rows, &self.values[range])
    }

    /// Extract the factor as CSC (verification / interop): exactly the
    /// symbolic pattern of `L` — the padded slots of amalgamated panels
    /// are dropped by structure, whatever their value.
    pub fn to_csc(&self) -> CscMatrix {
        let layout = &*self.layout;
        let mut values = Vec::with_capacity(layout.l_row_idx.len());
        for s in 0..layout.part.n_supernodes() {
            let (first, width, rows, panel) = self.panel(s);
            let ld = rows.len();
            for c in 0..width {
                let j = first + c;
                // Both lists ascend and the pattern is a subset of the
                // panel rows from the diagonal on.
                let mut r = c;
                for &row in &layout.l_row_idx[layout.l_col_ptr[j]..layout.l_col_ptr[j + 1]] {
                    while rows[r] != row {
                        r += 1;
                    }
                    values.push(panel[c * ld + r]);
                }
            }
        }
        CscMatrix::try_new(
            layout.n,
            layout.n,
            layout.l_col_ptr.clone(),
            layout.l_row_idx.iter().map(|&r| r as usize).collect(),
            values,
        )
        .expect("the symbolic pattern of L is a valid CSC layout")
    }

    /// Forward-substitute through supernode `s` in place.
    fn forward_panel(&self, s: usize, x: &mut [f64]) {
        let (first, width, rows, panel) = self.panel(s);
        let ld = rows.len();
        trsv_lower(width, panel, ld, &mut x[first..first + width]);
        for c in 0..width {
            let xc = x[first + c];
            if xc == 0.0 {
                continue;
            }
            let col = &panel[c * ld + width..(c + 1) * ld];
            for (&row, &v) in rows[width..].iter().zip(col) {
                x[row as usize] -= v * xc;
            }
        }
    }

    /// Forward solve `L y = x` in place.
    pub fn forward_solve(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.n(), "x length mismatch");
        for s in 0..self.layout.part.n_supernodes() {
            self.forward_panel(s, x);
        }
    }

    /// Backward solve `L^T y = x` in place.
    pub fn backward_solve(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.n(), "x length mismatch");
        for s in (0..self.layout.part.n_supernodes()).rev() {
            let (first, width, rows, panel) = self.panel(s);
            let ld = rows.len();
            for c in 0..width {
                let col = &panel[c * ld + width..(c + 1) * ld];
                let mut dot = 0.0;
                for (&row, &v) in rows[width..].iter().zip(col) {
                    dot += v * x[row as usize];
                }
                x[first + c] -= dot;
            }
            trsv_lower_trans(width, panel, ld, &mut x[first..first + width]);
        }
    }

    /// Solve `A x = b`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.forward_solve(&mut x);
        self.backward_solve(&mut x);
        x
    }

    /// The supernodes a sparse forward solve must visit: for a Cholesky
    /// factor, the solution pattern of `L y = b` is the union of etree
    /// paths from the nonzeros of `b` (the reach-set specialized to
    /// filled patterns). Returned in ascending (topological) order.
    ///
    /// The columns of a supernode — strict or amalgamated — form one
    /// etree chain ending at its last column, so a path that enters a
    /// supernode leaves it through the parent of that column.
    pub fn reach_supernodes(&self, beta: &[usize]) -> Vec<usize> {
        let part = &self.layout.part;
        let mut seen = vec![false; part.n_supernodes()];
        const NONE: usize = usize::MAX;
        for &i in beta {
            let mut s = part.col_to_super[i];
            while s != NONE && !seen[s] {
                seen[s] = true;
                let last = part.first_col[s + 1] - 1;
                let p = self.layout.parent[last];
                s = if p == NONE {
                    NONE
                } else {
                    part.col_to_super[p]
                };
            }
        }
        (0..seen.len()).filter(|&s| seen[s]).collect()
    }

    /// Forward solve `L y = b` for a **sparse** `b`, visiting only the
    /// reached supernodes — the paper's §1.1 pipeline (triangular solve
    /// as a sub-kernel after factorization). `x` must be zeroed; the
    /// result's nonzeros lie within the reached supernodes' columns.
    pub fn forward_solve_sparse(&self, b: &sympiler_sparse::SparseVec, x: &mut [f64]) {
        assert_eq!(x.len(), self.n(), "x length mismatch");
        for (i, v) in b.iter() {
            x[i] = v;
        }
        for s in self.reach_supernodes(b.indices()) {
            self.forward_panel(s, x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::pattern::{moved_one_row, rebuilt};
    use sympiler_solvers::SimplicialCholesky;
    use sympiler_sparse::suite::nd_grid3d;
    use sympiler_sparse::{gen, ops};

    /// `(relax_fill, relax_cols)`: the paper's strict setting, the
    /// compile default, and a budget loose enough to merge whole
    /// etree chains.
    const RELAX: [(f64, usize); 3] = [(0.0, 0), (0.3, 16), (1.0, 64)];

    /// The factor has exactly the simplicial factor's pattern and its
    /// values to 1e-9, and solves to a componentwise backward error of
    /// 1e-10 — under every amalgamation budget.
    fn check_matches_simplicial(a: &CscMatrix, max_width: usize, low_level: bool) {
        let l_ref = SimplicialCholesky::analyze(a).unwrap().factor(a).unwrap();
        let full = ops::symmetrize_from_lower(a).unwrap();
        let b: Vec<f64> = (0..a.n_cols())
            .map(|i| (i as f64 * 0.7).sin() + 1.5)
            .collect();
        for (fill, cols) in RELAX {
            let what = format!("max_width {max_width} relax {fill}/{cols} low_level {low_level}");
            let plan = CholPlan::build(a, max_width, fill, cols, low_level).unwrap();
            let f = plan.factor(a).unwrap();
            let l_plan = f.to_csc();
            assert!(l_plan.same_pattern(&l_ref), "{what}: patterns differ");
            for (p, q) in l_plan.values().iter().zip(l_ref.values()) {
                assert!((p - q).abs() < 1e-9, "{what}: {p} vs {q}");
            }
            let berr = ops::componentwise_berr(&full, &f.solve(&b), &b);
            assert!(berr <= 1e-10, "{what}: backward error {berr}");
        }
    }

    #[test]
    fn matches_simplicial_on_random() {
        for seed in 0..6u64 {
            let a = gen::random_spd(40, 4, seed);
            for max_width in [1, 3, 0] {
                check_matches_simplicial(&a, max_width, true);
                check_matches_simplicial(&a, max_width, false);
            }
        }
    }

    #[test]
    fn matches_simplicial_on_structured() {
        for a in [
            gen::grid2d_laplacian(7, 6, false, 1),
            gen::grid2d_laplacian(5, 5, true, 2),
            gen::banded_spd(35, 5, 3),
            gen::circuit_like(60, 4, 2, 4),
            gen::tridiagonal_spd(25),
            nd_grid3d(5, 5, 5, 6),
        ] {
            for max_width in [1, 3, 0] {
                check_matches_simplicial(&a, max_width, true);
                check_matches_simplicial(&a, max_width, false);
            }
        }
    }

    #[test]
    fn width_cap_respected_and_correct() {
        let a = gen::banded_spd(30, 4, 7);
        check_matches_simplicial(&a, 2, true);
        check_matches_simplicial(&a, 3, false);
        for (fill, cols) in RELAX {
            let plan = CholPlan::build(&a, 3, fill, cols, true).unwrap();
            let part = plan.partition();
            assert!((0..part.n_supernodes()).all(|s| part.width(s) <= 3));
        }
    }

    #[test]
    fn amalgamation_shrinks_the_schedule_and_pads_within_budget() {
        let a = nd_grid3d(6, 6, 6, 2);
        let strict = CholPlan::build(&a, 64, 0.0, 0, true).unwrap();
        let relaxed = CholPlan::build(&a, 64, 0.3, 16, true).unwrap();
        assert_eq!(strict.padded_zeros(), 0);
        let size = |p: &CholPlan, k: &str| p.report().size_of(k).unwrap();
        assert!(size(&relaxed, "supernodes") * 2 < size(&strict, "supernodes"));
        assert!(size(&relaxed, "update ops") * 2 < size(&strict, "update ops"));
        assert!(size(&relaxed, "scatter pool") * 2 < size(&strict, "scatter pool"));
        assert_eq!(size(&relaxed, "padded zeros"), relaxed.padded_zeros());
        assert!(relaxed.padded_zeros() > 0);
        assert!(relaxed.padded_zeros() * 4 < size(&relaxed, "nnz(L)"));
    }

    #[test]
    fn repeated_factorization_same_pattern_new_values() {
        let a1 = gen::grid2d_laplacian(6, 6, false, 9);
        let plan = CholPlan::build(&a1, 0, 0.3, 16, true).unwrap();
        let mut a2 = a1.clone();
        for v in a2.values_mut() {
            *v *= 3.0;
        }
        let f2 = plan.factor(&a2).unwrap();
        let l_ref = SimplicialCholesky::analyze(&a2)
            .unwrap()
            .factor(&a2)
            .unwrap();
        for (p, q) in f2.to_csc().values().iter().zip(l_ref.values()) {
            assert!((p - q).abs() < 1e-9);
        }
    }

    #[test]
    fn repeated_calls_are_bitwise_identical() {
        let a = nd_grid3d(5, 5, 5, 4);
        for (fill, cols) in RELAX {
            let plan = CholPlan::build(&a, 8, fill, cols, true).unwrap();
            let first = plan.factor(&a).unwrap();
            for _ in 0..3 {
                let again = plan.factor(&a).unwrap();
                assert!(first
                    .values
                    .iter()
                    .zip(&again.values)
                    .all(|(p, q)| p.to_bits() == q.to_bits()));
            }
        }
    }

    #[test]
    fn padded_slots_hold_exact_zeros_and_leave_the_pattern() {
        let a = gen::banded_spd(40, 4, 2);
        let plan = CholPlan::build(&a, 0, 1.0, 64, false).unwrap();
        assert!(plan.padded_zeros() > 0);
        let f = plan.factor(&a).unwrap();
        let stored = f.values.iter().filter(|v| **v != 0.0).count();
        let l = f.to_csc();
        assert_eq!(l.nnz(), plan.report().size_of("nnz(L)").unwrap());
        // Every nonzero the panels hold is a structural entry.
        assert_eq!(stored, l.values().iter().filter(|v| **v != 0.0).count());
    }

    #[test]
    fn solve_end_to_end() {
        let a = gen::grid2d_laplacian(6, 7, false, 11);
        let plan = CholPlan::build(&a, 0, 0.3, 16, true).unwrap();
        let f = plan.factor(&a).unwrap();
        let b: Vec<f64> = (0..42).map(|i| (i as f64 * 0.3).sin() + 2.0).collect();
        let x = f.solve(&b);
        let resid = sympiler_sparse::ops::rel_residual_sym_lower(&a, &x, &b);
        assert!(resid < 1e-12, "residual {resid}");
    }

    #[test]
    fn rejects_indefinite() {
        let mut t = sympiler_sparse::TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 0, 2.0);
        t.push(1, 1, 1.0);
        let a = t.to_csc().unwrap();
        for (fill, cols) in RELAX {
            let plan = CholPlan::build(&a, 0, fill, cols, true).unwrap();
            assert_eq!(
                plan.factor(&a).err(),
                Some(CholPlanError::NotPositiveDefinite { column: 1 })
            );
        }
    }

    #[test]
    fn indefinite_column_is_named_inside_a_merged_supernode() {
        // A tridiagonal factor is one etree chain; a loose budget
        // merges it into wide panels, and the failing pivot must still
        // be reported as the original column, wherever in a panel it
        // falls.
        let a = gen::tridiagonal_spd(24);
        let plan = CholPlan::build(&a, 0, 1.0, 8, false).unwrap();
        let part = plan.partition();
        assert!((0..part.n_supernodes()).all(|s| part.width(s) > 1));
        for bad_col in [0usize, 5, 8, 15, 23] {
            let mut bad = a.clone();
            let p = bad.find(bad_col, bad_col).unwrap();
            bad.values_mut()[p] = -1.0;
            assert_eq!(
                plan.factor(&bad).err(),
                Some(CholPlanError::NotPositiveDefinite { column: bad_col }),
                "column {bad_col} sits at offset {} of its panel",
                bad_col - part.cols(part.col_to_super[bad_col]).start
            );
        }
    }

    #[test]
    fn rejects_pattern_mismatch() {
        let a = gen::random_spd(20, 3, 1);
        let b = gen::random_spd(21, 3, 2);
        let plan = CholPlan::build(&a, 0, 0.3, 16, true).unwrap();
        assert!(matches!(
            plan.factor(&b),
            Err(CholPlanError::PatternMismatch)
        ));
    }

    /// The identity handle is never a false hit: once the compiled
    /// matrix and every clone are gone the plan names no live pattern,
    /// and a different pattern of the same order and entry count is
    /// refused.
    #[test]
    fn identity_is_never_a_false_hit() {
        let a = gen::grid2d_laplacian(6, 6, false, 9);
        let moved = moved_one_row(&a);
        assert_eq!((moved.n_cols(), moved.nnz()), (a.n_cols(), a.nnz()));
        let compiled = rebuilt(&a); // a pattern of its own
        let plan = CholPlan::build(&compiled, 0, 0.3, 16, true).unwrap();
        let copies = vec![compiled.clone(), compiled.clone()];
        let id = compiled.pattern_id();
        drop((compiled, copies));
        assert!(!id.is_live(), "the plan keeps the caller's indices alive");
        assert_eq!(
            plan.factor(&moved).err(),
            Some(CholPlanError::PatternMismatch)
        );
    }

    /// The compiled pattern rebuilt from fresh arrays takes the full
    /// compare, passes it, and factors to the bits of a clone of the
    /// compiled matrix.
    #[test]
    fn a_rebuilt_pattern_factors_like_a_clone() {
        let a = gen::grid2d_laplacian(6, 6, false, 9);
        let plan = CholPlan::build(&a, 0, 0.3, 16, true).unwrap();
        let fresh = rebuilt(&a);
        assert!(!a.pattern_id().is_pattern_of(&fresh));
        let (via_clone, via_rebuilt) = (
            plan.factor(&a.clone()).unwrap(),
            plan.factor(&fresh).unwrap(),
        );
        let bits = |f: &CholFactor| f.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&via_clone), bits(&via_rebuilt));
    }

    #[test]
    fn sibling_merging_partition_fails_the_build() {
        // Columns 0 and 1 are leaves of different subtrees (parents 3
        // and 2). Glued into one panel — what the LU merge rule would
        // do — their union reaches row 3 while updating supernode {2},
        // whose rows are {2, 4}: before the check this baked a stale
        // position into the scatter pool without complaint.
        let mut t = sympiler_sparse::TripletMatrix::new(5, 5);
        for j in 0..5 {
            t.push(j, j, 10.0);
        }
        t.push(3, 0, -1.0);
        t.push(2, 1, -1.0);
        t.push(4, 2, -1.0);
        t.push(4, 3, -1.0);
        let a = t.to_csc().unwrap();
        let sym = sympiler_graph::symbolic_cholesky(&a);
        assert_eq!(sym.parent[..4], [3, 2, 4, 4]);
        let glued = RelaxedPanels {
            part: SupernodePartition::from_first_cols(vec![0, 2, 3, 4, 5], 5),
            row_ptr: vec![0, 4, 6, 8, 9],
            rows: vec![0, 1, 2, 3, 2, 4, 3, 4, 4],
            padded_zeros: 3,
        };
        let built = CholPlan::from_panels(&a, sym, glued, true, SymbolicReport::default());
        assert_eq!(
            built.err(),
            Some(CholPlanError::RowOutsideTarget {
                descendant: 0,
                target: 1,
                row: 3
            })
        );
        // The detector never produces such a partition.
        assert!(CholPlan::build(&a, 0, 1.0, 64, true).is_ok());
    }

    #[test]
    fn report_contains_inspection_stages() {
        let a = gen::grid2d_laplacian(5, 5, false, 3);
        let plan = CholPlan::build(&a, 0, 0.3, 16, true).unwrap();
        let r = plan.report();
        assert!(r.stages.len() >= 3, "expected inspection + compile stages");
        assert!(r.size_of("nnz(L)").unwrap() >= a.nnz());
        assert!(r.size_of("supernodes").unwrap() >= 1);
    }

    #[test]
    fn flops_match_symbolic_prediction() {
        let a = gen::grid2d_laplacian(5, 4, false, 5);
        let sym = sympiler_graph::symbolic_cholesky(&a);
        for (fill, cols) in RELAX {
            let plan = CholPlan::build(&a, 0, fill, cols, true).unwrap();
            assert_eq!(plan.flops(), sym.factor_flops());
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut t = sympiler_sparse::TripletMatrix::new(2, 3);
        t.push(0, 0, 1.0);
        let rect = t.to_csc().unwrap();
        assert!(matches!(
            CholPlan::build(&rect, 0, 0.3, 16, true),
            Err(CholPlanError::BadInput(_))
        ));
    }

    #[test]
    fn sparse_forward_solve_matches_dense() {
        let a = gen::grid2d_laplacian(7, 7, false, 13);
        for (fill, cols) in RELAX {
            let plan = CholPlan::build(&a, 0, fill, cols, true).unwrap();
            let f = plan.factor(&a).unwrap();
            let b = sympiler_sparse::SparseVec::try_new(49, vec![3, 20], vec![2.0, -1.0]).unwrap();
            let mut x_sparse = vec![0.0; 49];
            f.forward_solve_sparse(&b, &mut x_sparse);
            let mut x_dense = b.to_dense();
            f.forward_solve(&mut x_dense);
            for i in 0..49 {
                assert!(
                    (x_sparse[i] - x_dense[i]).abs() < 1e-12,
                    "x[{i}]: {} vs {}",
                    x_sparse[i],
                    x_dense[i]
                );
            }
        }
    }

    #[test]
    fn reach_supernodes_is_minimal_and_sufficient() {
        let a = gen::random_spd(40, 4, 17);
        for (fill, cols) in RELAX {
            let plan = CholPlan::build(&a, 0, fill, cols, true).unwrap();
            let f = plan.factor(&a).unwrap();
            let l = f.to_csc();
            // Reference reach on the extracted factor.
            let reach_cols = sympiler_graph::reach(&l, &[5]);
            let reach_supers = f.reach_supernodes(&[5]);
            // Every reached column's supernode must be visited.
            for &j in &reach_cols {
                assert!(
                    reach_supers.contains(&plan.partition().col_to_super[j]),
                    "column {j} reached but its supernode not visited"
                );
            }
            // And visited supernodes contain at least one reached column
            // (path minimality at supernode granularity).
            for &s in &reach_supers {
                let cols = plan.partition().cols(s);
                assert!(
                    cols.clone().any(|c| reach_cols.contains(&c)),
                    "supernode {s} visited without any reached column"
                );
            }
        }
    }

    #[test]
    fn factor_error_cleanup_is_safe() {
        // An indefinite late pivot must not poison a reused plan.
        let a = gen::random_spd(15, 3, 8);
        let l_ref = SimplicialCholesky::analyze(&a).unwrap().factor(&a).unwrap();
        for (fill, cols) in RELAX {
            let plan = CholPlan::build(&a, 0, fill, cols, true).unwrap();
            let good = plan.factor(&a).unwrap();
            let mut bad = a.clone();
            // Make the last diagonal entry very negative.
            let n = bad.n_cols();
            if let Some(p) = bad.find(n - 1, n - 1) {
                bad.values_mut()[p] = -1000.0;
            }
            assert!(plan.factor(&bad).is_err());
            // The plan still produces the same correct factor.
            let f = plan.factor(&a).unwrap();
            assert_eq!(f.values, good.values);
            for (p, q) in f.to_csc().values().iter().zip(l_ref.values()) {
                assert!((p - q).abs() < 1e-9);
            }
        }
    }
}
