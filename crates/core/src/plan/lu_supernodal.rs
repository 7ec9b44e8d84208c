//! Supernodal (VS-Block) LU: the dense **panel** kernel of the compiled
//! LU pipeline, beside the scalar column kernel of
//! [`super::lu::LuPlan`].
//!
//! The paper's VS-Block transformation (§3.2) converts column-at-a-time
//! sparse kernels into blocked code over supernodes so the numeric
//! phase runs on dense kernels. Applied to left-looking LU:
//!
//! * **Inspection** — adjacent columns of the predicted `L` whose
//!   patterns nest ([`sympiler_graph::lu_supernode`]) form a column
//!   **panel**: a dense trapezoid whose diagonal block is a full square
//!   and whose sub-diagonal rows are shared by every column. Panel
//!   layouts (trapezoid extents, value offsets, the panel-level update
//!   DAG) are all baked here at compile time.
//! * **Numeric phase** — panel by panel: scatter the panel's columns
//!   into a **row-major** block accumulator (`x[row · ldx + c]`, stride
//!   `ldx` = the panel's own width `w` rounded up to the update
//!   kernel's 4-column register tile (`acc_stride`), so one
//!   accumulator row of the panel is one contiguous, tile-aligned run
//!   whose `ldx − w` **pad columns** hold exact zeros from scatter to
//!   write-back); apply each *source* panel's accumulated
//!   updates with a dense TRSM
//!   ([`sympiler_dense::trsm_right_lower_trans_unit`], the source's
//!   internal solve, in place on the accumulator rows of the source's
//!   diagonal block) followed by **one fused update kernel**
//!   ([`sympiler_dense::panel_update_sub`]) that walks the source's row
//!   list once and subtracts `L · Bt` straight into the accumulator
//!   rows — no gather into a contiguous block, no scatter back; a
//!   singleton source column is the `v = 1` case of the same kernel.
//!   Then pack the panel's rows into its trapezoid, factor the diagonal
//!   block with an unpivoted dense GETRF
//!   ([`sympiler_dense::getrf_nopiv`]) and divide out its `U` with a
//!   dense TRSM ([`sympiler_dense::trsm_right_upper`]). Width-1 panels
//!   fall back to the scalar per-column kernel
//!   (`LuPlan::column_numeric`), so sparsity that never blocks costs
//!   nothing extra — and [`crate::SympilerLu::compile`] dissolves wide
//!   panels too thin to pay for the dense path into such columns at
//!   compile time ([`SupernodalLuPlan::dissolve_thin_panels`]).
//! * **Order** — panels run in index order on the calling thread:
//!   every source of panel `s` is a panel `t < s`, so its values (and
//!   its trapezoid, at a lower offset of the arena) are final before
//!   `s` reads them.
//!
//! Results are **not** bit-identical to the scalar plans — dense
//! kernels reassociate the update sums — but agree to ~1e-12 relative
//! (verified across the suite by `lu_compare` and the property tests),
//! and the zero-pivot column reported is the same. They **are**
//! bit-identical with profiling on or off on one host: every panel
//! runs one fixed operation sequence. Across
//! hosts the update kernel uses fused multiply-add where the CPU has
//! it (run-time detection), so factors from an FMA and a non-FMA host
//! differ in the last bits — within the same backward-error gate.

use super::lu::{LuFactor, LuPlan, LuPlanError, LuWorkspace, PerturbReport};
use sympiler_dense::{
    getrf_nopiv_perturbed, panel_update_sub, trsm_right_lower_trans_unit, trsm_right_upper,
};
use sympiler_graph::lu_supernode::{supernodes_lu_relaxed_from_parts, LuPanels};
use sympiler_graph::supernode::SupernodePartition;
use sympiler_sparse::CscMatrix;

/// A compiled LU factorization whose numeric phase executes panel by
/// panel over the supernodes of the predicted `L`, with dense
/// GETRF/TRSM/GEMM kernels on the wide panels.
#[derive(Debug, Clone)]
pub struct SupernodalLuPlan {
    plan: LuPlan,
    /// Column panels of the predicted factor (ordered coordinates):
    /// the partition plus each panel's baked **union** row list. Under
    /// strict nesting every member column's pattern equals the union;
    /// under relaxed amalgamation ([`Self::detect_panels`]) the union
    /// is wider and the extra trapezoid slots hold explicit zeros,
    /// counted in `panels.padded_zeros`.
    panels: LuPanels,
    /// Trapezoid value offsets: wide panel `s` owns the column-major
    /// `m × w` block `sx[sx_ptr[s]..sx_ptr[s+1]]` of the supernodal
    /// workspace, `m` its row count, `w` its width; singleton panels
    /// own nothing (their columns live only in the CSC factor arrays).
    sx_ptr: Vec<usize>,
    /// Panel-level update schedule: panel `s` consumes the panels
    /// `upd_panels[upd_ptr[s]..upd_ptr[s+1]]`, ascending — exactly the
    /// predecessors of `s` in the panel DAG.
    upd_ptr: Vec<usize>,
    upd_panels: Vec<u32>,
    /// Widest panel (workspace sizing).
    max_width: usize,
    /// Fraction of factorization flops carried by wide panels — the
    /// share the dense kernels execute.
    dense_flop_share: f64,
    /// Exact compile-time flops per panel (the sum of its columns'
    /// flops) — what profiled panel spans report achieved GFLOP/s
    /// against, and what the flop-accounting gate charges dense vs.
    /// scalar work with.
    panel_flops: Vec<u64>,
    /// Exact flops the wide panels **execute** through the dense
    /// kernels — padded slots, all-columns updates and diagonal-block
    /// solves included — against the structural
    /// `Σ panel_flops[wide]`: the waste the dense path is charged.
    dense_executed_flops: u64,
}

/// [`crate::SympilerLu::compile`]'s per-panel rule: a wide panel stays dense
/// when its structural flops reach this many per accumulator entry the
/// dense path moves for it (see
/// [`SupernodalLuPlan::dissolve_thin_panels`]). The scalar column
/// kernel does exactly 2 flops per entry it touches and touches only
/// structural entries; the dense path moves every column of every row
/// a source reaches, far cheaper per entry, so it is ahead as soon as
/// that traffic carries at least the scalar kernel's intensity — wide
/// sources, columns that share them. Measured (`ablation_thresholds`):
/// fill-free circuits, whose panels merge columns with disjoint
/// singleton sources, sit below 1 and keep no dense panel; on
/// heavy-fill circuits and grids 98–99.9 % of the flops sit in panels
/// above 2, and factor time is flat for thresholds 0–2 and climbs
/// from 3.
pub const DENSE_PANEL_MIN_FLOPS_PER_ENTRY: f64 = 2.0;

/// Cap on LU panel width [`crate::SympilerLu::compile`] detects panels
/// with (the supernodal relaxation knob: wider panels amortize more
/// scalar work into dense kernels but grow the dense block accumulator,
/// `n × MAX_PANEL` doubles). Amalgamated panels stop at
/// [`RELAX_COLS`] first, so 32 binds only on strictly nesting panels —
/// dense trailing blocks. [`SupernodalLuPlan::detect_panels`] takes it
/// as an argument (0 = unlimited).
pub const MAX_PANEL: usize = 32;

/// Relative fill budget for **relaxed supernode amalgamation**
/// (CHOLMOD/SuperLU's `relax`), governing both factorizations. LU:
/// adjacent strictly-nesting panels merge into one wider panel when
/// the explicit zeros the merged trapezoid must pad stay within
/// `RELAX_FILL` × the panel's structural nonzeros (4× that up to 4
/// columns). Cholesky: the same budget, but a supernode merges only
/// into the supernode of its **etree parent**
/// ([`sympiler_graph::supernode::supernodes_cholesky_relaxed`]).
/// Padded slots compute to exact ±0.0 and never reach an extracted
/// factor (LU pads dense workspace only; `CholFactor::to_csc` drops
/// padding by structure), buying wider panels — more dense-kernel work
/// per schedule entry — for a bounded amount of wasted arithmetic.
/// Measured (`ablation_thresholds`' Cholesky sweep over the
/// nested-dissection Laplacian and three suite matrices): 0.3 with
/// [`RELAX_COLS`] 16 is within ~10 % of the best cell on all four,
/// while caps ≥ 32 with budgets ≥ 0.3 cost the blocked-banded patterns
/// 25–300 %; on COLAMD circuits it widens LU panels from ~1.3–1.9 to
/// ~3.5–4.2 mean width. [`SupernodalLuPlan::detect_panels`] and
/// [`crate::plan::chol::CholPlan::build`] take it as an argument, where
/// `<= 0.0` disables merging: LU panels are bitwise the strict ones and
/// Cholesky supernodes are the paper's strict partition (§4.1's
/// like-for-like setting).
pub const RELAX_FILL: f64 = 0.3;

/// Cap on the width an amalgamated panel or supernode may grow to
/// (min'd with [`MAX_PANEL`] for LU,
/// [`crate::plan::chol::MAX_SUPERNODE_WIDTH`] for Cholesky). Cap 8 is
/// too small on every pattern of the sweep behind [`RELAX_FILL`]. `< 2`
/// disables merging where the constructors take it as an argument.
pub const RELAX_COLS: usize = 16;

/// Row stride of the accumulator for a panel of width `w`: `w` rounded
/// up to the update kernel's 4-column register tile. At the panel's own
/// width a remainder of 1–3 columns would run in the kernel's 1-column
/// tiles, at a third of its speed (`w = 15` against 16 in
/// `results/ablation_dense_kernels.csv`); with the stride rounded up the
/// kernel is handed `ldx` columns and never enters them.
///
/// **Pad-column invariant.** Columns `w..ldx` of every accumulator row
/// are zero when a panel starts (the accumulator is all zeros between
/// panels), nothing scatters into them, the source-diagonal solve and
/// the update only ever subtract `l · 0` from them, and neither pack
/// nor write-back reads them — so they are zero again when the panel
/// ends, without a clearing pass. A non-finite `l` breaks that
/// (`Inf · 0`), exactly as it breaks the zeros of entries no column's
/// pattern owns; [`SupernodalLuPlan::factor_with`] restores the
/// accumulator wholesale in that case.
fn acc_stride(w: usize) -> usize {
    w.next_multiple_of(4)
}

impl SupernodalLuPlan {
    /// Panel detection alone on a compiled plan's `L` layout — `O(nnz(L))`,
    /// no schedule built. What a compile driver inspects (and may thin
    /// out with [`Self::dissolve_thin_panels`]) before committing to
    /// [`Self::from_panels`]. `max_panel` caps panel width (0 =
    /// unlimited).
    ///
    /// Adjacent columns whose patterns nest strictly always form a
    /// panel. CHOLMOD/SuperLU-style **relaxed amalgamation** then
    /// merges adjacent strict panels into one wider panel when the
    /// merged width stays within `relax_cols` (min'd with `max_panel`
    /// when that cap is nonzero) and the explicit zeros the merged
    /// trapezoid must carry stay within `relax_fill` × the panel's
    /// structural nonzeros. Padding lives **only** in the dense
    /// trapezoid workspace: padded slots provably compute to exact ±0.0
    /// (every term feeding a structurally-zero position has a
    /// structurally-zero factor, and IEEE propagates those zeros
    /// exactly), the CSC factor layouts and patterns are untouched, and
    /// write-back walks each column's own pattern. `relax_fill <= 0` or
    /// `relax_cols < 2` disables merging and leaves the strict panels.
    pub fn detect_panels(
        plan: &LuPlan,
        max_panel: usize,
        relax_fill: f64,
        relax_cols: usize,
    ) -> LuPanels {
        supernodes_lu_relaxed_from_parts(
            plan.n(),
            &plan.structure.l_col_ptr,
            &plan.structure.l_row_idx,
            max_panel,
            relax_fill,
            relax_cols,
        )
    }

    /// Dissolve every wide panel whose structural flops per accumulator
    /// entry the dense path moves fall below `min_flops_per_entry`
    /// into scalar columns ([`crate::SympilerLu::compile`] passes
    /// [`DENSE_PANEL_MIN_FLOPS_PER_ENTRY`]). Exact compile-time
    /// quantities only: the panel's flops (sum of its columns'), and
    /// `stride × (union rows + Σ rows of every source panel)` with the
    /// accumulator stride the kernels really walk (`acc_stride`) —
    /// each source's update rewrites that many accumulator entries,
    /// the pack pass the panel's own rows.
    pub fn dissolve_thin_panels(
        plan: &LuPlan,
        panels: &LuPanels,
        min_flops_per_entry: f64,
    ) -> LuPanels {
        let part = &panels.part;
        let col_flops = plan.per_column_flops();
        // Rows a source panel's update walks: its union rows, or the
        // CSC column of a singleton.
        let source_rows = |t: usize| {
            if part.width(t) > 1 {
                panels.panel_rows(t).len()
            } else {
                let g = part.first_col[t];
                plan.structure.l_col_ptr[g + 1] - plan.structure.l_col_ptr[g]
            }
        };
        let mut seen = vec![usize::MAX; part.n_supernodes()];
        let mut keep = vec![true; part.n_supernodes()];
        for s in (0..part.n_supernodes()).filter(|&s| part.width(s) > 1) {
            let mut rows_moved = panels.panel_rows(s).len();
            let mut flops = 0u64;
            for j in part.cols(s) {
                flops += col_flops[j];
                for k in plan.schedule(j) {
                    let t = part.col_to_super[k];
                    if t != s && seen[t] != s {
                        seen[t] = s;
                        rows_moved += source_rows(t);
                    }
                }
            }
            let entries = acc_stride(part.width(s)) * rows_moved;
            keep[s] = flops as f64 >= min_flops_per_entry * entries as f64;
        }
        panels.dissolve_unless(&plan.structure.l_col_ptr, &plan.structure.l_row_idx, |s| {
            keep[s]
        })
    }

    /// Bake the panel layouts for a panel partition of `plan`'s
    /// columns: one [`Self::detect_panels`] produced, possibly thinned
    /// by [`Self::dissolve_thin_panels`]. Pure schedule construction —
    /// no symbolic analysis re-runs. The scalar fallback of singleton
    /// panels, the permutations, scalings, perturbation tolerance and
    /// profiler are `plan`'s ([`LuPlan::build`]); position tables
    /// `plan` itself carries serve [`Self::serial`] alone, never the
    /// panel walk.
    pub fn from_panels(plan: LuPlan, panels: LuPanels) -> Self {
        assert_eq!(panels.part.n_cols(), plan.n(), "panels must cover the plan");
        let part = &panels.part;
        let n_panels = part.n_supernodes();

        // Trapezoid layout: wide panels own an m × w value block, `m`
        // the panel's union row count (≥ any member column's CSC
        // length; equal under strict nesting).
        let mut sx_ptr = Vec::with_capacity(n_panels + 1);
        sx_ptr.push(0usize);
        let mut max_width = 1usize;
        for s in 0..n_panels {
            let w = part.width(s);
            let m = panels.panel_rows(s).len();
            let mut size = 0;
            if w > 1 {
                size = m * w;
                max_width = max_width.max(w);
            }
            sx_ptr.push(sx_ptr[s] + size);
        }

        // Panel-level update schedule = panel DAG predecessors: map
        // every column's baked schedule through col_to_super, dedup.
        let mut upd_ptr = Vec::with_capacity(n_panels + 1);
        let mut upd_panels: Vec<u32> = Vec::new();
        upd_ptr.push(0usize);
        let mut seen = vec![usize::MAX; n_panels];
        for s in 0..n_panels {
            let start = upd_panels.len();
            for j in part.cols(s) {
                for k in plan.schedule(j) {
                    let t = part.col_to_super[k];
                    if t != s && seen[t] != s {
                        seen[t] = s;
                        upd_panels.push(t as u32);
                    }
                }
            }
            upd_panels[start..].sort_unstable();
            upd_ptr.push(upd_panels.len());
        }

        // Dense flop share: the shared cost model from the graph
        // crate, read off the plan's compiled layouts. Charged against
        // **structural** column flops, never padded dense extents, so
        // profiled flop accounting still closes exactly.
        let dense_flop_share = sympiler_graph::lu_supernode::flop_share_in_wide_panels_from_parts(
            part,
            &plan.structure.l_col_ptr,
            &plan.structure.u_col_ptr,
            &plan.structure.u_row_idx,
        );

        let col_flops = plan.per_column_flops();
        let panel_flops: Vec<u64> = (0..n_panels)
            .map(|s| part.cols(s).map(|j| col_flops[j]).sum())
            .collect();

        // What the wide panels execute (divisions 1 flop, multiply-
        // subtract pairs 2 — the structural count's convention): per
        // source the internal solve and the all-columns update over
        // the source's whole row list, both across the accumulator's
        // `ldx` columns (pad columns included), then the panel's own
        // GETRF and sub-diagonal solve over its whole trapezoid.
        let mut dense_executed_flops = 0u64;
        for s in (0..n_panels).filter(|&s| part.width(s) > 1) {
            let w = part.width(s) as u64;
            let ldx = acc_stride(part.width(s)) as u64;
            let m = panels.panel_rows(s).len() as u64;
            for &t in &upd_panels[upd_ptr[s]..upd_ptr[s + 1]] {
                let t = t as usize;
                let v = part.width(t) as u64;
                let m_sub = if v == 1 {
                    let g = part.first_col[t];
                    (plan.structure.l_col_ptr[g + 1] - plan.structure.l_col_ptr[g] - 1) as u64
                } else {
                    panels.panel_rows(t).len() as u64 - v
                };
                dense_executed_flops += ldx * v * (v - 1) + 2 * m_sub * ldx * v;
            }
            let getrf = w * (w - 1) / 2 + (w - 1) * w * (2 * w - 1) / 3;
            dense_executed_flops += getrf + (m - w) * w * w;
        }

        Self {
            plan,
            panels,
            sx_ptr,
            upd_ptr,
            upd_panels,
            max_width,
            dense_flop_share,
            panel_flops,
            dense_executed_flops,
        }
    }

    /// The underlying serial plan (shared symbolic analysis, layouts,
    /// flop counts, scalar kernel).
    pub fn serial(&self) -> &LuPlan {
        &self.plan
    }

    /// The compiled panel partition.
    pub fn partition(&self) -> &SupernodePartition {
        &self.panels.part
    }

    /// The compiled panel layout: partition plus per-panel union row
    /// lists and the padded-zero census.
    pub fn panel_layout(&self) -> &LuPanels {
        &self.panels
    }

    /// Explicit zeros the relaxed amalgamation padded into trapezoid
    /// workspace across all panels (0 when relaxation is off or
    /// nothing merged). Padding never reaches the CSC factors.
    pub fn padded_zeros(&self) -> usize {
        self.panels.padded_zeros
    }

    /// Resident size, in bytes, of the supernodal tables this plan
    /// keeps alive beyond the serial plan's ([`LuPlan::table_bytes`]):
    /// panel row lists (padded layouts included), trapezoid offsets and
    /// the panel-level update schedule. What a plan cache charges a
    /// supernodal entry for.
    pub fn table_bytes(&self) -> usize {
        use std::mem::size_of;
        let usz = size_of::<usize>();
        self.plan.table_bytes()
            + self.panels.rows.len() * 4
            + self.panels.row_ptr.len() * usz
            + (self.panels.part.first_col.len() + self.panels.part.col_to_super.len()) * usz
            + self.sx_ptr.len() * usz
            + self.upd_ptr.len() * usz
            + self.upd_panels.len() * 4
            + self.panel_flops.len() * 8
    }

    /// Number of panels.
    pub fn n_panels(&self) -> usize {
        self.panels.part.n_supernodes()
    }

    /// Mean panel width (columns per panel).
    pub fn mean_panel_width(&self) -> f64 {
        if self.n_panels() == 0 {
            0.0
        } else {
            self.plan.n() as f64 / self.n_panels() as f64
        }
    }

    /// Widest compiled panel.
    pub fn max_panel_width(&self) -> usize {
        self.max_width
    }

    /// Number of wide (width ≥ 2) panels — the ones the dense kernels
    /// execute.
    pub fn n_wide_panels(&self) -> usize {
        (0..self.n_panels())
            .filter(|&s| self.panels.part.width(s) > 1)
            .count()
    }

    /// Fraction of factorization flops carried by wide panels (the
    /// dense-kernel share of the numeric phase).
    pub fn dense_flop_share(&self) -> f64 {
        self.dense_flop_share
    }

    /// Structural flops of the columns living in wide panels —
    /// `dense_flop_share × flops`, exactly.
    pub fn dense_structural_flops(&self) -> u64 {
        (0..self.n_panels())
            .filter(|&s| self.panels.part.width(s) > 1)
            .map(|s| self.panel_flops[s])
            .sum()
    }

    /// Flops the wide panels execute through the dense kernels for
    /// those [`Self::dense_structural_flops`]: padded trapezoid slots,
    /// updates applied to every panel column whether or not its own
    /// pattern asks for them, and the diagonal-block solves all count.
    /// The ratio of the two is the waste blocking is charged.
    pub fn dense_executed_flops(&self) -> u64 {
        self.dense_executed_flops
    }

    /// Execute one panel: the scalar column kernel for singletons, the
    /// dense TRSM / fused-update / GETRF pipeline for wide panels.
    /// Returns the smallest zero-pivot column, or `usize::MAX` when
    /// clean; values are always fully written (IEEE semantics on zero
    /// pivots). The accumulator is all zeros again on return whenever
    /// every value the panel read was finite.
    ///
    /// `lx` / `ux` / `sx` are the full factor and trapezoid value
    /// arrays, with every source panel of `s` already written: sources
    /// are panels `t < s`, whose columns sit at lower offsets of `lx`
    /// and whose trapezoids sit below `sx_ptr[s]` in `sx`, so the reads
    /// and the writes are sequential borrows or a split of `sx`. `x`
    /// must be an all-zeros accumulator of `n × acc_stride(max_width)`
    /// doubles (restored to zeros before returning, given finite
    /// values) — panel `s` of width `w` addresses its leading `n × ldx`
    /// doubles **row-major** (`x[row · ldx + c]`, `ldx = acc_stride(w)`),
    /// a singleton its leading `n` as a plain column — and `bt`
    /// `acc_stride(max_width)²` doubles, for the solved source block
    /// handed to the update kernel and for the diagonal-block copy.
    fn panel_numeric(
        &self,
        s: usize,
        a: &CscMatrix,
        x: &mut [f64],
        bt: &mut [f64],
        lx: &mut [f64],
        ux: &mut [f64],
        sx: &mut [f64],
        thresh: f64,
        perturbed: &mut Vec<usize>,
    ) -> usize {
        let plan = &self.plan;
        let n = plan.n();
        let f = self.panels.part.first_col[s];
        let w = self.panels.part.width(s);

        if w == 1 {
            // Scalar fallback: the shared per-column kernel, reading
            // and writing the CSC factor arrays directly.
            return plan
                .column_numeric(f, a, &mut x[..n], lx, ux, thresh)
                .report(f, perturbed);
        }

        // Wide-panel observability: one `panel` span with achieved
        // GFLOP/s vs. the compile-time flop count, and child spans
        // around each dense kernel call. Pure timing — no numeric
        // effect, and a single branch per call site when disabled.
        let prof = plan.profiler().as_ref();
        let enabled = prof.is_enabled();
        let panel_span = if enabled {
            prof.begin(0, "panel")
        } else {
            None
        };
        let panel_t0 = prof.now_ns();

        let l_ptr = &plan.structure.l_col_ptr;
        let l_rows = &plan.structure.l_row_idx;
        // The panel's baked union row list: under strict nesting this
        // is exactly the leading column's CSC pattern; under relaxed
        // amalgamation it is the union over member columns, and the
        // first `w` entries are always the diagonal run `f..f+w`.
        let rows = self.panels.panel_rows(s);
        let m = rows.len();
        // Plan invariants every index below rests on. The accumulator
        // and trapezoid accesses are bounds-checked slices either way;
        // these name the broken invariant instead of an index.
        debug_assert!(
            rows.iter().all(|&r| (r as usize) < n),
            "panel {s}: row index out of range (n = {n})"
        );
        debug_assert!(
            rows[..w]
                .iter()
                .enumerate()
                .all(|(c, &r)| r as usize == f + c),
            "panel {s}: diagonal run must lead the union rows"
        );

        // The panel's row-major view of the accumulator: row `r` is the
        // contiguous run `x[r * ldx..(r + 1) * ldx]`, its `w` columns
        // first, then the zero pad columns (see `acc_stride`).
        let ldx = acc_stride(w);
        let x = &mut x[..n * ldx];
        // Every source trapezoid lies below this panel's own.
        let (sx_sources, sx_own) = sx.split_at_mut(self.sx_ptr[s]);

        // --- Scatter the panel's (ordered) input columns.
        for c in 0..w {
            plan.scatter_a_column(f + c, a, x, ldx, c);
        }

        // --- Source-panel updates, ascending (a valid topological
        // order: every dependence edge points to a higher column).
        for &t in &self.upd_panels[self.upd_ptr[s]..self.upd_ptr[s + 1]] {
            let t = t as usize;
            let g = self.panels.part.first_col[t];
            let v = self.panels.part.width(t);
            // The accumulator rows at the source's diagonal block are
            // consecutive (g..g+v), hence one contiguous `v × ldx`
            // row-major block — column-major `ldx × v` to the TRSM.
            let diag = g * ldx..(g + v) * ldx;
            // Sub-diagonal rows and values of the source, all final.
            let (sub_rows, sub_vals, ldl) = if v == 1 {
                // Singleton source column: its CSC column below the
                // unit diagonal; nothing to solve.
                let range = l_ptr[g] + 1..l_ptr[g + 1];
                (&l_rows[range.clone()], &lx[range.clone()], range.len())
            } else {
                // Wide source panel: its trapezoid holds the unit-lower
                // diagonal block (strict lower part; U values sit on
                // the diagonal) and the sub-diagonal L rows over the
                // panel's union row list. Amalgamation-padded slots
                // hold exact ±0.0, so they contribute nothing.
                let rows_t = self.panels.panel_rows(t);
                let m_t = rows_t.len();
                let sx_t = &sx_sources[self.sx_ptr[t]..][..m_t * v];
                // Internal solve of the source panel applied to all
                // target columns at once, in place:
                // Bt := Bt · L_dd^{-T}  ⇔  B := L_dd^{-1} B. The solved
                // rows are the final U values of the target columns.
                let t0 = if enabled { prof.now_ns() } else { 0 };
                trsm_right_lower_trans_unit(ldx, v, sx_t, m_t, &mut x[diag.clone()], ldx);
                if enabled {
                    let t1 = prof.now_ns();
                    prof.add_span(
                        0,
                        "trsm",
                        t0,
                        t1 - t0,
                        &[
                            ("m", ldx as f64),
                            ("n", v as f64),
                            ("flops", (ldx * v * (v - 1)) as f64),
                        ],
                    );
                }
                (&rows_t[v..], &sx_t[v..], m_t)
            };
            let m_sub = sub_rows.len();
            if m_sub == 0 {
                continue;
            }
            // The update reads the solved block while it writes other
            // rows of the same accumulator: hand it a copy.
            let bt = &mut bt[..v * ldx];
            bt.copy_from_slice(&x[diag]);
            let t0 = if enabled { prof.now_ns() } else { 0 };
            panel_update_sub(ldx, v, sub_rows, sub_vals, ldl, bt, x, ldx);
            if enabled {
                let t1 = prof.now_ns();
                let flops = 2.0 * m_sub as f64 * ldx as f64 * v as f64;
                prof.add_span(
                    0,
                    "gemm",
                    t0,
                    t1 - t0,
                    &[
                        ("m", m_sub as f64),
                        ("n", ldx as f64),
                        ("k", v as f64),
                        ("flops", flops),
                        ("gflops", flops / (t1 - t0).max(1) as f64),
                    ],
                );
            }
        }

        // --- The panel's own dense factorization, in its trapezoid
        // (column-major `m × w`, the layout it is later read in as a
        // source). Packing a row clears it: the union rows cover every
        // accumulator entry at or below the diagonal run; the pad
        // columns are zero already and stay out of the trapezoid.
        let trap = &mut sx_own[..m * w];
        for (i, &r) in rows.iter().enumerate() {
            let xr = &mut x[r as usize * ldx..][..w];
            for (c, xv) in xr.iter_mut().enumerate() {
                trap[c * m + i] = std::mem::take(xv);
            }
        }
        let mut first_bad = usize::MAX;
        let t0 = if enabled { prof.now_ns() } else { 0 };
        // `Vec::new` never allocates until a perturbation actually
        // fires, so the clean path costs one stack slot.
        let mut block_perturbed = Vec::new();
        if let Err(c) = getrf_nopiv_perturbed(w, trap, m, thresh, &mut block_perturbed) {
            first_bad = f + c;
        }
        perturbed.extend(block_perturbed.into_iter().map(|c| f + c));
        if enabled {
            let t1 = prof.now_ns();
            prof.add_span(
                0,
                "getrf",
                t0,
                t1 - t0,
                &[("width", w as f64), ("rows", m as f64)],
            );
        }
        if m > w {
            // Divide the sub-diagonal rows by the panel's U: copy the
            // factored diagonal block aside (TRSM reads U while writing
            // the sub-block of the same buffer).
            let db = &mut bt[..w * w];
            for c in 0..w {
                for r in 0..=c {
                    db[c * w + r] = trap[c * m + r];
                }
            }
            let t0 = if enabled { prof.now_ns() } else { 0 };
            trsm_right_upper(m - w, w, db, w, &mut trap[w..], m);
            if enabled {
                let t1 = prof.now_ns();
                prof.add_span(
                    0,
                    "trsm",
                    t0,
                    t1 - t0,
                    &[
                        ("m", (m - w) as f64),
                        ("n", w as f64),
                        ("flops", ((m - w) * w * w) as f64),
                    ],
                );
            }
        }

        // --- Write back through the fixed CSC layouts.
        let u_ptr = &plan.structure.u_col_ptr;
        let u_rows = &plan.structure.u_row_idx;
        for c in 0..w {
            let j = f + c;
            let trap_c = &trap[c * m..][..m];
            // U above the panel comes from (and clears) the
            // accumulator — its rows sit above the diagonal run, which
            // the packing pass never visits; U inside the diagonal
            // block comes from the trapezoid.
            let u_range = u_ptr[j]..u_ptr[j + 1];
            for (u, &r) in ux[u_range.clone()].iter_mut().zip(&u_rows[u_range]) {
                let r = r as usize;
                *u = if r < f {
                    std::mem::take(&mut x[r * ldx + c])
                } else {
                    trap_c[r - f]
                };
            }
            // L write-back walks the column's own CSC pattern and
            // two-pointer-merges it against the panel's union rows
            // (both ascending; the CSC pattern is a subset). Under
            // strict nesting the merge degenerates to the contiguous
            // suffix c+1..m; under relaxed amalgamation it skips the
            // padded slots, which never reach the CSC factor.
            let l_range = l_ptr[j]..l_ptr[j + 1];
            let (l_diag, l_sub) = lx[l_range.clone()]
                .split_first_mut()
                .expect("L(:, j) holds its diagonal");
            *l_diag = 1.0;
            let mut ri = c + 1;
            for (l, &r) in l_sub
                .iter_mut()
                .zip(&l_rows[l_range.start + 1..l_range.end])
            {
                while rows[ri] != r {
                    ri += 1;
                }
                *l = trap_c[ri];
                ri += 1;
            }
            // The structural pivot is the diagonal of the panel's U.
            if trap_c[c] == 0.0 {
                first_bad = first_bad.min(j);
            }
        }
        if enabled {
            let dur = prof.now_ns().saturating_sub(panel_t0);
            let fl = self.panel_flops[s] as f64;
            // GFLOP/s == flops / ns numerically.
            let gf = if dur > 0 { fl / dur as f64 } else { 0.0 };
            prof.end_with(
                panel_span,
                &[
                    ("panel", s as f64),
                    ("width", w as f64),
                    ("flops", fl),
                    ("gflops", gf),
                ],
            );
        }
        first_bad
    }

    /// Supernodal numeric factorization. Matches the serial plan to
    /// ~1e-12 (dense kernels reassociate sums; patterns and the
    /// zero-pivot column are identical) and is deterministic — each
    /// panel executes one fixed operation sequence.
    ///
    /// Allocates fresh scratch per call; a caller factoring in a loop
    /// should hold a [`LuWorkspace`] and use [`Self::factor_with`].
    pub fn factor(&self, a: &CscMatrix) -> Result<LuFactor, LuPlanError> {
        self.factor_with(a, &mut LuWorkspace::new())
    }

    /// [`Self::factor`] against a caller-held [`LuWorkspace`] — bitwise
    /// identical results. The block accumulator, solve block and
    /// trapezoid arena live in `ws`, so the only per-call allocation is
    /// the factor value array.
    pub fn factor_with(
        &self,
        a: &CscMatrix,
        ws: &mut LuWorkspace,
    ) -> Result<LuFactor, LuPlanError> {
        self.plan.check_pattern(a)?;
        let mut vals = self.plan.new_values();
        let (lx, ux) = vals.split_at_mut(self.plan.l_nnz());
        let sx_len = *self.sx_ptr.last().unwrap_or(&0);
        let thresh = self.plan.perturb_threshold(a);
        let ldx = acc_stride(self.max_width);
        let (x, bt, sx) = ws.ensure_panels(self.plan.n() * ldx, ldx * ldx, sx_len);
        let prof = self.plan.profiler().as_ref();
        let span = prof.begin(0, "factor:supernodal");
        // Panels in index order: every source of a panel precedes it.
        let mut perturbed = Vec::new();
        let bad = (0..self.n_panels())
            .map(|s| self.panel_numeric(s, a, x, bt, lx, ux, sx, thresh, &mut perturbed))
            .find(|&bad| bad != usize::MAX);
        prof.end_with(span, &[("flops", self.plan.flops() as f64)]);
        let walked = bad.map_or(Ok(perturbed), Err);
        // The update kernel writes every column of a row it touches,
        // and only finite products keep the entries no column's pattern
        // owns at zero: after a zero pivot (its quotients are ±Inf/NaN)
        // or non-finite input, restore the caller's all-zeros
        // accumulator wholesale.
        if walked.is_err() || !all_finite(&vals) {
            ws.clear();
        }
        let columns = walked.map_err(|column| LuPlanError::ZeroPivot { column })?;
        if prof.is_enabled() {
            // Every panel ran, whatever its pivots: the executed flops
            // are compile-time totals, dense for the wide panels'
            // columns and scalar for the rest.
            let dense = self.dense_structural_flops();
            prof.counter("flops.dense").add(dense);
            prof.counter("flops.scalar").add(self.plan.flops() - dense);
        }
        Ok(self.plan.finish(
            a,
            vals,
            PerturbReport {
                columns,
                threshold: thresh,
            },
        ))
    }
}

/// True when no entry is NaN or ±Inf. Branch-free (vectorizable)
/// within a block, early exit between blocks.
fn all_finite(vals: &[f64]) -> bool {
    vals.chunks(64)
        .all(|block| block.iter().fold(true, |ok, v| ok & v.is_finite()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SympilerOptions;
    use sympiler_graph::ordering::Ordering as FillOrdering;
    use sympiler_sparse::{gen, ops};

    /// The in-order scalar plan of `a` under `ordering`, default knobs
    /// otherwise (peeled tier on at 2).
    fn scalar_plan(a: &CscMatrix, ordering: FillOrdering) -> LuPlan {
        let opts = SympilerOptions {
            ordering,
            ..Default::default()
        };
        LuPlan::build(a, &opts).unwrap()
    }

    /// `plan`'s strictly nesting panels (relaxation off) capped at
    /// `max_panel` columns.
    fn strict_panels(plan: LuPlan, max_panel: usize) -> SupernodalLuPlan {
        let panels = SupernodalLuPlan::detect_panels(&plan, max_panel, 0.0, 0);
        SupernodalLuPlan::from_panels(plan, panels)
    }

    fn assert_close(a: &LuFactor, b: &LuFactor, tol: f64, what: &str) {
        assert!(a.l().same_pattern(b.l()), "{what}: L pattern");
        assert!(a.u().same_pattern(b.u()), "{what}: U pattern");
        for (x, y) in a.l().values().iter().zip(b.l().values()) {
            assert!(
                (x - y).abs() <= tol * (1.0 + y.abs()),
                "{what}: L {x} vs {y}"
            );
        }
        for (x, y) in a.u().values().iter().zip(b.u().values()) {
            assert!(
                (x - y).abs() <= tol * (1.0 + y.abs()),
                "{what}: U {x} vs {y}"
            );
        }
    }

    #[test]
    fn supernodal_matches_serial_on_grids_and_circuits() {
        for (label, a) in [
            ("convdiff", gen::convection_diffusion_2d(9, 8, 1.5, 3)),
            ("circuit", gen::circuit_unsym(150, 4, 2, 7)),
            ("random", gen::random_unsym(120, 4, 11)),
        ] {
            let serial = scalar_plan(&a, FillOrdering::Natural);
            let f_serial = serial.factor(&a).unwrap();
            for max_panel in [0usize, 4] {
                let sup = strict_panels(serial.clone(), max_panel);
                let f_sup = sup.factor(&a).unwrap();
                assert_close(
                    &f_sup,
                    &f_serial,
                    1e-12,
                    &format!("{label} cap {max_panel}"),
                );
            }
        }
    }

    #[test]
    fn grid_problems_produce_wide_panels() {
        let a = gen::convection_diffusion_2d(10, 10, 1.0, 5);
        let sup = strict_panels(scalar_plan(&a, FillOrdering::Natural), 0);
        assert!(sup.n_wide_panels() > 0, "grid fill must block");
        assert!(sup.mean_panel_width() > 1.0);
        assert!(sup.max_panel_width() > 1);
        assert!(sup.dense_flop_share() > 0.0 && sup.dense_flop_share() <= 1.0);
    }

    #[test]
    fn ordered_supernodal_matches_ordered_serial() {
        let a = gen::circuit_unsym(140, 4, 2, 9);
        for ordering in [FillOrdering::Rcm, FillOrdering::Colamd] {
            let serial = scalar_plan(&a, ordering);
            let f_serial = serial.factor(&a).unwrap();
            let sup = strict_panels(serial, 16);
            let f_sup = sup.factor(&a).unwrap();
            assert_close(&f_sup, &f_serial, 1e-12, &format!("{ordering:?}"));
            // And the solve still answers the original system.
            let n = a.n_cols();
            let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
            let x = f_sup.solve(&b);
            assert!(ops::rel_residual(&a, &x, &b) < 1e-10, "{ordering:?}");
        }
    }

    #[test]
    fn odd_widths_follow_the_padded_stride_in_every_workspace() {
        // Widest panels of 13, 15 and 21 columns address their
        // accumulators at strides 16, 16 and 24: a fresh workspace and
        // one reused across the widths must be sized for the rounded
        // width, the factors must not depend on which one ran, and the
        // pad columns must be zero again when the factor returns.
        let a = gen::convection_diffusion_2d(24, 6, 1.5, 5);
        let serial = scalar_plan(&a, FillOrdering::Natural);
        let mut reused = LuWorkspace::new();
        for width in [13usize, 15, 21] {
            let one = strict_panels(serial.clone(), width);
            assert_eq!(one.max_panel_width(), width, "the cap must bind");
            assert!(acc_stride(width) > width);
            let mut ws = LuWorkspace::new();
            let f1 = one.factor_with(&a, &mut ws).unwrap();
            assert!(ws.capacity() >= a.n_cols() * acc_stride(width));
            assert!(ws.is_clear(), "width {width}: pad columns left dirty");
            assert_close(&f1, &serial.factor(&a).unwrap(), 1e-12, "vs serial");
            let f2 = one.factor_with(&a, &mut reused).unwrap();
            assert_eq!(bits(&f2), bits(&f1), "width {width}, reused workspace");
            assert!(reused.is_clear());
        }
    }

    #[test]
    fn source_panels_precede_their_targets() {
        // The in-order walk reads a source panel's values and trapezoid
        // before the target's own offsets: every source must be a
        // lower-numbered panel, whose trapezoid ends where a later
        // one's begins.
        let a = gen::circuit_unsym(90, 4, 2, 3);
        let sup = strict_panels(scalar_plan(&a, FillOrdering::Colamd), 8);
        assert!(sup.n_wide_panels() > 0);
        for s in 0..sup.n_panels() {
            for &t in &sup.upd_panels[sup.upd_ptr[s]..sup.upd_ptr[s + 1]] {
                assert!((t as usize) < s, "source panel {t} must precede {s}");
            }
            assert!(sup.sx_ptr[s] <= sup.sx_ptr[s + 1]);
        }
    }

    fn fnv(words: impl Iterator<Item = u64>) -> u64 {
        words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x100_0000_01b3)
        })
    }

    /// FNV-1a over a plan's panel update schedule: per panel its
    /// width and its source panels — the table the in-order walk reads.
    fn schedule_hash(sup: &SupernodalLuPlan) -> u64 {
        let mut words: Vec<u64> = Vec::new();
        for s in 0..sup.n_panels() {
            let sources = &sup.upd_panels[sup.upd_ptr[s]..sup.upd_ptr[s + 1]];
            words.push(sup.panels.part.width(s) as u64);
            words.push(sources.len() as u64);
            words.extend(sources.iter().map(|&t| t as u64));
        }
        fnv(words.into_iter())
    }

    const RECORDED_PANEL_SCHEDULES: [u64; 3] = [
        0xed8b_a3cb_8575_3b54,
        0x3bee_106a_088b_b0f5,
        0xea47_cb92_f13b_ab53,
    ];

    /// Factor values on a host whose dense kernels run the `avx2,fma`
    /// instantiation (the portable one rounds the updates twice).
    const RECORDED_FACTORS_AVX2_FMA: [u64; 3] = [
        0x20cf_3009_5b4b_556f,
        0xc40c_aeeb_867b_f9ee,
        0x67f9_85bf_c60f_b2df,
    ];

    #[test]
    fn schedules_and_factors_match_the_recorded_ones() {
        // The panel update schedule and the supernodal factor of the
        // partition `SympilerLu::compile` keeps (singletons and wide
        // panels mixed), pinned by hash: a change to panel detection,
        // the schedule build, the panel kernels or their walk that
        // moves one entry or one bit must re-record these on purpose.
        let fixtures = [
            (gen::circuit_unsym(150, 4, 2, 7), FillOrdering::Colamd),
            (
                gen::convection_diffusion_2d(9, 8, 1.5, 3),
                FillOrdering::Natural,
            ),
            (gen::random_unsym(120, 4, 11), FillOrdering::Natural),
        ];
        let (mut schedules, mut factors) = (Vec::new(), Vec::new());
        for (a, ordering) in &fixtures {
            let plan = scalar_plan(a, *ordering);
            let detected = SupernodalLuPlan::detect_panels(&plan, 32, 0.3, 16);
            let kept = SupernodalLuPlan::dissolve_thin_panels(
                &plan,
                &detected,
                DENSE_PANEL_MIN_FLOPS_PER_ENTRY,
            );
            let sup = SupernodalLuPlan::from_panels(plan, kept);
            assert!(sup.n_wide_panels() > 0 && sup.n_wide_panels() < sup.n_panels());
            schedules.push(schedule_hash(&sup));
            factors.push(fnv(bits(&sup.factor(a).unwrap()).into_iter()));
        }
        assert_eq!(schedules, RECORDED_PANEL_SCHEDULES, "got {schedules:#x?}");
        #[cfg(target_arch = "x86_64")]
        if sympiler_dense::isa::detect() == sympiler_dense::isa::Isa::Avx2Fma {
            assert_eq!(factors, RECORDED_FACTORS_AVX2_FMA, "got {factors:#x?}");
        }
    }

    #[test]
    fn zero_pivot_reported_like_serial() {
        // Zero a diagonal value inside what becomes a wide panel: the
        // supernodal engine must report the same column as serial.
        let n = 6;
        let mut t = sympiler_sparse::TripletMatrix::new(n, n);
        for j in 0..n {
            for i in 0..n {
                t.push(i, j, if i == j { 10.0 } else { 1.0 });
            }
        }
        let a0 = t.to_csc().unwrap();
        let serial = scalar_plan(&a0, FillOrdering::Natural);
        let sup = strict_panels(serial.clone(), 0);
        assert_eq!(sup.n_panels(), 1, "dense matrix is one panel");
        let f_ok = sup.factor(&a0).unwrap();
        assert_close(&f_ok, &serial.factor(&a0).unwrap(), 1e-12, "dense");
        // A singular leading 2x2 block: A[1,1] chosen so the second
        // pivot cancels exactly under the first elimination step.
        let mut a = a0.clone();
        let a_dense = a.to_dense();
        let (a00, a01, a10) = (a_dense[0], a_dense[n], a_dense[1]);
        let idx = a.find(1, 1).unwrap();
        a.values_mut()[idx] = a10 * a01 / a00;
        let serial_err = serial.factor(&a).unwrap_err();
        let sup_err = sup.factor(&a).unwrap_err();
        assert_eq!(serial_err, sup_err);
        assert!(matches!(sup_err, LuPlanError::ZeroPivot { column: 1 }));
    }

    #[test]
    fn singleton_only_patterns_degenerate_to_scalar() {
        // A diagonal matrix never blocks: every panel is a singleton
        // and the engine is exactly the scalar plan.
        let a = CscMatrix::identity(9);
        let sup = strict_panels(scalar_plan(&a, FillOrdering::Natural), 0);
        assert_eq!(sup.n_wide_panels(), 0);
        assert_eq!(sup.dense_flop_share(), 0.0);
        let f = sup.factor(&a).unwrap();
        assert_eq!(f.solve(&[3.0; 9]), vec![3.0; 9]);
    }

    #[test]
    fn repeated_factorization_reuses_the_panel_schedule() {
        let a0 = gen::convection_diffusion_2d(7, 7, 1.0, 2);
        let sup = strict_panels(scalar_plan(&a0, FillOrdering::Natural), 8);
        let mut a = a0.clone();
        for round in 1..=3 {
            for v in a.values_mut() {
                *v *= 1.0 + 0.03 / round as f64;
            }
            let serial = scalar_plan(&a, FillOrdering::Natural).factor(&a).unwrap();
            let f = sup.factor(&a).unwrap();
            assert_close(&f, &serial, 1e-12, &format!("round {round}"));
        }
    }

    fn bits(f: &LuFactor) -> Vec<u64> {
        f.l()
            .values()
            .iter()
            .chain(f.u().values())
            .map(|v| v.to_bits())
            .collect()
    }

    #[test]
    fn caller_workspace_is_honoured_and_left_all_zero_across_plans() {
        // One workspace through two different plans (different n,
        // different widest panel): bitwise the fresh-scratch factors,
        // the accumulator all-zero after every call, and no growth on
        // the second factorization of a pattern.
        let a1 = gen::convection_diffusion_2d(9, 8, 1.5, 3);
        let a2 = gen::circuit_unsym(150, 4, 2, 7);
        let sup1 = strict_panels(scalar_plan(&a1, FillOrdering::Natural), 8);
        let sup2 = strict_panels(scalar_plan(&a2, FillOrdering::Colamd), 32);
        assert!(sup1.n_wide_panels() > 0 && sup2.n_wide_panels() > 0);
        let mut ws = LuWorkspace::new();
        for round in 0..2 {
            for (sup, a) in [(&sup1, &a1), (&sup2, &a2)] {
                let before = ws.capacity();
                let f = sup.factor_with(a, &mut ws).unwrap();
                assert_eq!(bits(&f), bits(&sup.factor(a).unwrap()), "round {round}");
                assert!(ws.is_clear(), "accumulator must be all-zero again");
                if round == 1 {
                    assert_eq!(ws.capacity(), before, "steady state allocates nothing");
                }
            }
        }
        // The scalar tier shares the same accumulator.
        let serial = sup2.serial().factor_with(&a2, &mut ws).unwrap();
        assert_eq!(bits(&serial), bits(&sup2.serial().factor(&a2).unwrap()));
        assert!(ws.is_clear());
    }

    #[test]
    fn zero_pivot_abort_leaves_the_workspace_clean() {
        // Same singular-leading-block construction as above: the
        // division by the zero pivot floods the trapezoid with ±Inf and
        // NaN; the caller's accumulator must come back all-zero and
        // keep producing bitwise-clean factors.
        let n = 12;
        let mut t = sympiler_sparse::TripletMatrix::new(n, n);
        for j in 0..n {
            for i in 0..n {
                if i == j || (i + j) % 3 != 0 {
                    t.push(i, j, if i == j { 10.0 } else { 1.0 });
                }
            }
        }
        let a0 = t.to_csc().unwrap();
        let sup = strict_panels(scalar_plan(&a0, FillOrdering::Natural), 4);
        assert!(
            sup.n_wide_panels() > 1,
            "need a wide source and a wide target"
        );
        let good = sup.factor(&a0).unwrap();
        let mut bad = a0.clone();
        let d = a0.to_dense();
        let idx = bad.find(1, 1).unwrap();
        bad.values_mut()[idx] = d[1] * d[n] / d[0];
        let mut ws = LuWorkspace::new();
        sup.factor_with(&a0, &mut ws).unwrap();
        let err = sup.factor_with(&bad, &mut ws).unwrap_err();
        assert_eq!(err, LuPlanError::ZeroPivot { column: 1 });
        assert!(ws.is_clear(), "abort must restore the all-zero accumulator");
        assert_eq!(bits(&sup.factor_with(&a0, &mut ws).unwrap()), bits(&good));
    }

    #[test]
    fn non_finite_input_cannot_poison_a_reused_workspace() {
        // A NaN in A reaches, through the all-columns update kernel,
        // accumulator entries no column's pattern clears. The factor
        // is (rightly) full of NaN; the workspace must not carry it
        // into the next request.
        let a = gen::circuit_unsym(150, 4, 2, 7);
        let sup = strict_panels(scalar_plan(&a, FillOrdering::Colamd), 32);
        let good = sup.factor(&a).unwrap();
        let mut ws = LuWorkspace::new();
        for poison in [f64::NAN, f64::INFINITY] {
            let mut bad = a.clone();
            bad.values_mut()[0] = poison;
            let f = sup.factor_with(&bad, &mut ws).expect("no zero pivot");
            assert!(
                f.l()
                    .values()
                    .iter()
                    .chain(f.u().values())
                    .any(|v| !v.is_finite()),
                "the poison must be visible in the factor"
            );
            assert!(ws.is_clear(), "{poison}: accumulator restored");
            assert_eq!(bits(&sup.factor_with(&a, &mut ws).unwrap()), bits(&good));
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "row index out of range")]
    fn out_of_range_panel_row_trips_the_invariant_check_not_the_index() {
        // A deliberately inconsistent plan: the last union row of the
        // first wide panel points past the matrix. The debug invariant
        // check must name it before any accumulator index does.
        let a = gen::convection_diffusion_2d(7, 7, 1.0, 2);
        let mut sup = strict_panels(scalar_plan(&a, FillOrdering::Natural), 8);
        let s = (0..sup.n_panels())
            .find(|&s| sup.panels.part.width(s) > 1)
            .expect("grid blocks");
        let last = sup.panels.row_ptr[s + 1] - 1;
        sup.panels.rows[last] = a.n_cols() as u32;
        let _ = sup.factor(&a);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "diagonal run must lead")]
    fn broken_diagonal_run_trips_the_invariant_check() {
        let a = gen::convection_diffusion_2d(7, 7, 1.0, 2);
        let mut sup = strict_panels(scalar_plan(&a, FillOrdering::Natural), 8);
        let s = (0..sup.n_panels())
            .find(|&s| sup.panels.part.width(s) > 1)
            .expect("grid blocks");
        let first = sup.panels.row_ptr[s];
        sup.panels.rows.swap(first, first + 1);
        let _ = sup.factor(&a);
    }

    #[test]
    fn executed_flops_count_the_padding_and_dissolving_removes_it() {
        // Every detected panel dense: the dense path executes at least
        // the structural flops, and the census closes (dense share ×
        // total == structural dense flops). Dissolving at an infinite
        // threshold leaves a scalar-only schedule that executes no
        // dense flop and still factors bitwise like the serial plan.
        let a = gen::circuit_unsym(150, 4, 2, 7);
        let plan = scalar_plan(&a, FillOrdering::Colamd);
        let detected = SupernodalLuPlan::detect_panels(&plan, 32, 0.3, 16);
        let all = SupernodalLuPlan::from_panels(plan.clone(), detected.clone());
        assert!(all.dense_executed_flops() >= all.dense_structural_flops());
        assert_eq!(
            all.dense_structural_flops(),
            (all.dense_flop_share() * plan.flops() as f64).round() as u64
        );
        let kept = SupernodalLuPlan::dissolve_thin_panels(
            &plan,
            &detected,
            DENSE_PANEL_MIN_FLOPS_PER_ENTRY,
        );
        let auto = SupernodalLuPlan::from_panels(plan.clone(), kept);
        assert!(auto.n_wide_panels() > 0 && auto.n_wide_panels() < all.n_wide_panels());
        assert!(auto.padded_zeros() <= all.padded_zeros());
        assert_close(
            &auto.factor(&a).unwrap(),
            &plan.factor(&a).unwrap(),
            1e-12,
            "auto-thinned panels",
        );
        let none = SupernodalLuPlan::dissolve_thin_panels(&plan, &detected, f64::INFINITY);
        assert_eq!(none.part.n_supernodes(), plan.n());
        assert_eq!(none.padded_zeros, 0);
        let scalar = SupernodalLuPlan::from_panels(plan.clone(), none);
        assert_eq!(scalar.dense_executed_flops(), 0);
        assert_eq!(
            bits(&scalar.factor(&a).unwrap()),
            bits(&plan.factor(&a).unwrap())
        );
    }

    #[test]
    fn empty_matrix() {
        let a = CscMatrix::zeros(0, 0);
        let sup = strict_panels(scalar_plan(&a, FillOrdering::Natural), 0);
        assert_eq!(sup.n_panels(), 0);
        assert_eq!(sup.mean_panel_width(), 0.0);
        let f = sup.factor(&a).unwrap();
        assert_eq!(f.l().nnz(), 0);
    }
}
