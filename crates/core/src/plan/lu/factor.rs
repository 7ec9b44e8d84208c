//! The factor object an LU plan produces — values over the plan's
//! shared structure — and its solves.

use super::positions::SolveSweeps;
#[cfg(doc)]
use super::LuPlan;
use super::{refine_with, LuStructure, PerturbReport, RefineReport, ScalePair};
use std::sync::{Arc, OnceLock};
use sympiler_obs::LuHealth;
use sympiler_sparse::{CscMatrix, SparseVec};

/// A numeric factorization produced by [`LuPlan::factor`]:
/// `Qᵀ·P·A·Q = L U` with unit-lower-triangular `L` (diagonal-first
/// columns) and upper-triangular `U` (diagonal-last columns), where
/// `P` is the plan's static pre-pivot and `Q` its compiled ordering
/// (both the identity by default, in which case this is plainly
/// `A = L U`). [`Self::solve`] handles the permutations transparently:
/// it takes and returns vectors in the **original** coordinates of
/// `A`.
///
/// A factor is **values only**: the sparsity structure is the producing
/// plan's, shared through an `Arc`, and the solves walk it in place.
/// [`Self::l`] / [`Self::u`] / [`Self::into_parts`] hand out ordinary
/// CSC matrices, materialised on first use.
#[derive(Debug, Clone)]
pub struct LuFactor {
    /// The plan's factor structure (shared, never copied per factor).
    pub(super) structure: Arc<LuStructure>,
    /// Values of `L` then `U` in one array, laid out by `structure`.
    pub(super) vals: Vec<f64>,
    /// The level-grouped row streams of both triangular solves, shared
    /// with the producing plan when it carries position tables; `None`
    /// runs [`Self::solve`]'s column sweeps.
    pub(super) sweeps: Option<Arc<SolveSweeps>>,
    /// The `(L, U)` CSC pair behind [`Self::l`] / [`Self::u`], built on
    /// first use — a factor that is only solved with never builds it.
    pub(super) csc: OnceLock<(CscMatrix, CscMatrix)>,
    /// Composed row gather `rperm[new] = old` (`P·Q`); `None` when no
    /// permutation was compiled. Shared with the producing plan
    /// (`Arc`), not copied per factor.
    pub(super) rperm: Option<std::sync::Arc<[usize]>>,
    /// `irperm[old] = new`, shared likewise; present iff `rperm` is.
    pub(super) irperm: Option<std::sync::Arc<[usize]>>,
    /// Column gather `cperm[new] = old` (`Q` alone); `None` whenever
    /// no *ordering* was compiled — in particular under a pre-pivot
    /// alone, where the column map is the identity — matching
    /// [`LuPlan::col_perm`]'s contract exactly (and skipping the
    /// then-pointless scatter pass in [`Self::solve`]).
    pub(super) cperm: Option<std::sync::Arc<[usize]>>,
    /// MC64 scalings the factors were computed under (`Some` iff the
    /// plan carries them, [`LuPlan::mc64_scaling`]); solves apply
    /// `Dr` to the RHS and `Dc` to the solution so callers stay in
    /// unscaled original coordinates throughout.
    pub(super) scaling: Option<ScalePair>,
    /// Numerical-health monitors, recorded only when the producing
    /// plan was compiled with profiling enabled.
    pub(super) health: Option<LuHealth>,
    /// Which columns (if any) had their pivot statically perturbed.
    pub(super) perturb: PerturbReport,
}

impl LuFactor {
    /// The unit lower-triangular factor (pivoted/ordered coordinates).
    pub fn l(&self) -> &CscMatrix {
        &self.csc().0
    }

    /// The upper-triangular factor (pivoted/ordered coordinates).
    pub fn u(&self) -> &CscMatrix {
        &self.csc().1
    }

    fn csc(&self) -> &(CscMatrix, CscMatrix) {
        self.csc.get_or_init(|| {
            let (lx, ux) = self.values();
            self.structure.to_csc(lx.to_vec(), ux.to_vec())
        })
    }

    /// The value array split into its `L` and `U` halves.
    pub(super) fn values(&self) -> (&[f64], &[f64]) {
        self.vals.split_at(self.structure.l_nnz())
    }

    /// The column map the factors live under (`cperm[new] = old` —
    /// the ordering `Q`), or `None` for natural column order — the
    /// same contract as [`LuPlan::col_perm`], so a pre-pivot alone
    /// reports `None` here while [`Self::row_perm`] reports the row
    /// moves.
    pub fn col_perm(&self) -> Option<&[usize]> {
        self.cperm.as_deref()
    }

    /// The composed row map the factors live under (`rperm[new] =
    /// old`, the row of `A` that became row `new` of the factored
    /// system — pre-pivot and ordering combined), or `None` when no
    /// permutation is baked. Equal to [`Self::col_perm`] when no
    /// pre-pivot moved rows.
    pub fn row_perm(&self) -> Option<&[usize]> {
        self.rperm.as_deref()
    }

    /// Numerical-health monitors (pivot growth, min/max pivot,
    /// matched-diagonal quality) recorded during `factor()` —
    /// `Some` only when the plan was compiled with
    /// `SympilerOptions::profile`. For an on-demand computation on an
    /// unprofiled factor, see [`LuPlan::health_of`].
    pub fn health(&self) -> Option<&LuHealth> {
        self.health.as_ref()
    }

    /// The static pivot perturbations this factorization applied —
    /// empty unless the producing plan had perturbation enabled *and*
    /// at least one pivot fell below the threshold. A non-empty report
    /// means the factors belong to a nearby matrix; pair with
    /// [`Self::solve_refined`] to recover solutions of the original.
    pub fn perturb_report(&self) -> &PerturbReport {
        &self.perturb
    }

    /// Consume into `(L, U)`.
    pub fn into_parts(self) -> (CscMatrix, CscMatrix) {
        match self.csc.into_inner() {
            Some(pair) => pair,
            None => {
                let mut lx = self.vals;
                let ux = lx.split_off(self.structure.l_nnz());
                lx.shrink_to_fit();
                self.structure.to_csc(lx, ux)
            }
        }
    }

    /// Solve `A x = b` in original coordinates: gather `b` through the
    /// composed row map (`Qᵀ·P·b`, scaled by `Dr` first when the plan
    /// compiled MC64 scaling), run `L y = Qᵀ·P·Dr·b` then `U z = y`,
    /// and scatter back through the column map, unscaling by `Dc`
    /// (`x = Dc·Q·z`). The permutation and scaling applications are
    /// O(n) gathers — no per-solve symbolic work of any kind. A factor
    /// of a plan with position tables runs the triangular solves as
    /// the plan's level-grouped row streams, any other as column
    /// sweeps; the answers are the same to the bit.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.structure.n();
        assert_eq!(b.len(), n, "rhs length mismatch");
        let mut x = vec![0.0f64; n];
        self.gather_rhs_into(b, &mut x);
        self.solve_in_factor_coords(&mut x);
        if self.cperm.is_none() && self.scaling.is_none() {
            return x;
        }
        let mut out = vec![0.0f64; n];
        self.scatter_solution_into(&x, &mut out);
        out
    }

    /// Map one RHS from original coordinates into factor coordinates:
    /// scale by `Dr` (when scaling is compiled) and gather through the
    /// composed row map. The scale factor multiplies the *original*
    /// row's entry — `x[new] = dr[old]·b[old]` for `old = rperm[new]`.
    fn gather_rhs_into(&self, b: &[f64], x: &mut [f64]) {
        match (&self.scaling, &self.rperm) {
            (None, None) => x.copy_from_slice(b),
            (None, Some(p)) => {
                for (d, &old) in x.iter_mut().zip(p.iter()) {
                    *d = b[old];
                }
            }
            (Some(s), None) => {
                for ((d, &v), &dr) in x.iter_mut().zip(b).zip(s.dr.iter()) {
                    *d = dr * v;
                }
            }
            (Some(s), Some(p)) => {
                for (d, &old) in x.iter_mut().zip(p.iter()) {
                    *d = s.dr[old] * b[old];
                }
            }
        }
    }

    /// Map one solved vector from factor coordinates back to original
    /// coordinates: scatter through the column map and unscale by `Dc`
    /// (the factored unknown is `Dc⁻¹x`, so `out[old] = dc[old]·z[new]`
    /// for `old = cperm[new]`).
    fn scatter_solution_into(&self, z: &[f64], out: &mut [f64]) {
        match (&self.scaling, &self.cperm) {
            (None, None) => out.copy_from_slice(z),
            (None, Some(q)) => {
                for (&v, &old) in z.iter().zip(q.iter()) {
                    out[old] = v;
                }
            }
            (Some(s), None) => {
                for ((o, &v), &dc) in out.iter_mut().zip(z).zip(s.dc.iter()) {
                    *o = dc * v;
                }
            }
            (Some(s), Some(q)) => {
                for (&v, &old) in z.iter().zip(q.iter()) {
                    out[old] = s.dc[old] * v;
                }
            }
        }
    }

    /// Solve `A X = B` for a block of right-hand sides stored
    /// column-major (`b[r*n..(r+1)*n]` is RHS `r`), returning the
    /// solutions in the same layout. The triangular sweeps are
    /// **blocked**: each factor column is loaded once per sweep and
    /// applied to every RHS while it is hot in cache, instead of
    /// re-streaming both factors per RHS the way an [`Self::solve`]
    /// loop would. Per RHS, the arithmetic order (including the skip
    /// of structurally-zero columns) is exactly [`Self::solve`]'s, so
    /// each returned column is bitwise identical to a one-at-a-time
    /// solve of that RHS.
    pub fn solve_multi(&self, b: &[f64], nrhs: usize) -> Vec<f64> {
        let n = self.structure.n();
        assert_eq!(b.len(), n * nrhs, "rhs block length mismatch");
        let mut x = vec![0.0f64; n * nrhs];
        for r in 0..nrhs {
            self.gather_rhs_into(&b[r * n..(r + 1) * n], &mut x[r * n..(r + 1) * n]);
        }
        self.column_sweeps(&mut x);
        if self.cperm.is_none() && self.scaling.is_none() {
            return x;
        }
        let mut out = vec![0.0f64; n * nrhs];
        for r in 0..nrhs {
            self.scatter_solution_into(&x[r * n..(r + 1) * n], &mut out[r * n..(r + 1) * n]);
        }
        out
    }

    /// [`Self::solve_multi`] over a slice of independent right-hand
    /// sides — packs them into one column-major block, runs the
    /// blocked sweeps, and unpacks. Each returned vector is bitwise
    /// identical to `self.solve(&rhs[r])`, which is what a single
    /// right-hand side runs: there is nothing to block, so nothing is
    /// packed.
    ///
    /// ```
    /// use sympiler_core::{SympilerLu, SympilerOptions};
    /// use sympiler_sparse::gen;
    ///
    /// let a = gen::circuit_unsym(40, 4, 2, 7);
    /// let lu = SympilerLu::compile(&a, &SympilerOptions::default())?;
    /// let f = lu.factor(&a)?;
    ///
    /// let rhs = vec![vec![1.0; 40], vec![-2.0; 40]];
    /// let xs = f.solve_batch(&rhs);
    /// assert_eq!(xs[0], f.solve(&rhs[0]));
    /// assert_eq!(xs[1], f.solve(&rhs[1]));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn solve_batch<S: AsRef<[f64]>>(&self, rhs: &[S]) -> Vec<Vec<f64>> {
        if let [one] = rhs {
            return vec![self.solve(one.as_ref())];
        }
        let n = self.structure.n();
        if n == 0 {
            return rhs.iter().map(|_| Vec::new()).collect();
        }
        let mut block = Vec::with_capacity(n * rhs.len());
        for r in rhs {
            assert_eq!(r.as_ref().len(), n, "rhs length mismatch");
            block.extend_from_slice(r.as_ref());
        }
        let flat = self.solve_multi(&block, rhs.len());
        flat.chunks(n).map(<[f64]>::to_vec).collect()
    }

    /// The two triangular sweeps, entirely in the factors' (ordered)
    /// coordinate system: the plan's level-grouped row streams when it
    /// baked them, else [`Self::column_sweeps`] on one right-hand side.
    /// Both apply each row's terms in the same order, so they agree to
    /// the bit.
    fn solve_in_factor_coords(&self, x: &mut [f64]) {
        if let Some(sweeps) = &self.sweeps {
            return sweeps.solve(&self.structure, &self.vals, x);
        }
        self.column_sweeps(x);
    }

    /// Both triangular sweeps by columns over a block `x` of
    /// right-hand sides in factor coordinates, stored column-major
    /// (`n` entries each): each factor column is loaded once and
    /// applied to every right-hand side, whose terms (including the
    /// skip of a zero `x[j]`) run in one fixed order per right-hand
    /// side.
    fn column_sweeps(&self, x: &mut [f64]) {
        let st = &*self.structure;
        let (lx, ux) = self.values();
        let n = st.n();
        // Forward: L has diagonal-first unit columns; the column's
        // rows/values are hoisted out of the RHS loop.
        for j in 0..n {
            let range = st.l_col_ptr[j] + 1..st.l_col_ptr[j + 1];
            let rows = &st.l_row_idx[range.clone()];
            let vals = &lx[range];
            for xr in x.chunks_exact_mut(n) {
                let xj = xr[j]; // unit diagonal: no division
                if xj != 0.0 {
                    for (&i, &lij) in rows.iter().zip(vals) {
                        xr[i as usize] -= lij * xj;
                    }
                }
            }
        }
        // Backward: U has diagonal-last columns.
        for j in (0..n).rev() {
            let range = st.u_col_ptr[j]..st.u_col_ptr[j + 1] - 1;
            let rows = &st.u_row_idx[range.clone()];
            let vals = &ux[range.clone()];
            let pivot = ux[range.end];
            for xr in x.chunks_exact_mut(n) {
                let xj = xr[j] / pivot;
                xr[j] = xj;
                if xj != 0.0 {
                    for (&i, &uij) in rows.iter().zip(vals) {
                        xr[i as usize] -= uij * xj;
                    }
                }
            }
        }
    }

    /// Solve `A x = b` for a **sparse** right-hand side, touching only
    /// the reach sets of `b`'s pattern on the factors' dependence
    /// graphs — the Gilbert–Peierls theory (§1.1) applied at solve
    /// time, with the same DFS machinery the symbolic LU inspection
    /// uses ([`sympiler_graph::dfs`]).
    ///
    /// Two reach computations schedule the two sweeps: the forward
    /// solve visits `Reach_{DG_L}(SP(b))`, the backward solve
    /// `Reach_{DG_U}` of the intermediate's pattern (edges of `DG_U`
    /// point *up*: column `j` of `U` feeds rows `i < j`). Arithmetic
    /// and pattern traversal are `O(|b| + flops of the pruned solve)`;
    /// only the dense scratch initialization is `O(n)`.
    ///
    /// Takes and returns **original** coordinates, exactly like
    /// [`Self::solve`]: under baked permutations the input pattern
    /// maps through the inverse row map (`(P·Q)⁻¹`) and the result
    /// pattern back through the column map (`Q`). The returned
    /// vector's pattern is the structural reach — entries that cancel
    /// numerically are stored as explicit zeros.
    pub fn solve_sparse(&self, b: &SparseVec) -> SparseVec {
        // The reach DFS wants `usize` adjacency slices: this solve runs
        // on the materialised CSC pair, not the shared `u32` structure.
        let (l, u) = (self.l(), self.u());
        let n = l.n_cols();
        assert_eq!(b.dim(), n, "rhs dimension mismatch");
        let mut x = vec![0.0f64; n];
        // Pattern and values of Qᵀ·P·(Dr·b) in factor coordinates —
        // the row scaling (identity without compiled MC64 scaling)
        // touches values only, never the pattern.
        let dr = |i: usize| self.scaling.as_ref().map_or(1.0, |s| s.dr[i]);
        let beta: Vec<usize> = match &self.irperm {
            None => {
                for (i, v) in b.iter() {
                    x[i] = dr(i) * v;
                }
                b.indices().to_vec()
            }
            Some(ip) => {
                let mut idx: Vec<usize> = b.indices().iter().map(|&i| ip[i]).collect();
                for (&i, &v) in b.indices().iter().zip(b.values()) {
                    x[ip[i]] = dr(i) * v;
                }
                idx.sort_unstable();
                idx
            }
        };
        let mut ws = sympiler_graph::dfs::ReachWorkspace::new(n);
        let mut order: Vec<usize> = Vec::with_capacity(beta.len() * 4);
        // Forward: L y = Qᵀ b over Reach_{DG_L}(SP(b)), topological.
        sympiler_graph::dfs::reach_adjacency_into(
            n,
            &beta,
            |v| &l.col_rows(v)[1..],
            &mut ws,
            &mut order,
        );
        let (col_ptr, row_idx, values) = (l.col_ptr(), l.row_idx(), l.values());
        for &j in &order {
            let xj = x[j]; // unit diagonal
            if xj != 0.0 {
                for (&i, &lij) in row_idx[col_ptr[j] + 1..col_ptr[j + 1]]
                    .iter()
                    .zip(&values[col_ptr[j] + 1..col_ptr[j + 1]])
                {
                    x[i] -= lij * xj;
                }
            }
        }
        // Backward: U z = y over Reach_{DG_U}(SP(y)); U's columns
        // store the diagonal last, so the edge set of node v is every
        // stored row but the last.
        let beta_u = std::mem::take(&mut order);
        let mut order_u: Vec<usize> = Vec::with_capacity(beta_u.len() * 2);
        sympiler_graph::dfs::reach_adjacency_into(
            n,
            &beta_u,
            |v| {
                let rows = u.col_rows(v);
                &rows[..rows.len() - 1]
            },
            &mut ws,
            &mut order_u,
        );
        let (col_ptr, row_idx, values) = (u.col_ptr(), u.row_idx(), u.values());
        for &j in &order_u {
            let range = col_ptr[j]..col_ptr[j + 1];
            let xj = x[j] / values[range.end - 1];
            x[j] = xj;
            if xj != 0.0 {
                for (&i, &uij) in row_idx[range.start..range.end - 1]
                    .iter()
                    .zip(&values[range.start..range.end - 1])
                {
                    x[i] -= uij * xj;
                }
            }
        }
        // Gather the solution pattern back to original coordinates,
        // unscaling by Dc (the solution lives on the column side:
        // x = Dc·Q·z).
        let dc = |i: usize| self.scaling.as_ref().map_or(1.0, |s| s.dc[i]);
        let mut pairs: Vec<(usize, f64)> = match &self.cperm {
            None => order_u.iter().map(|&j| (j, dc(j) * x[j])).collect(),
            Some(q) => order_u.iter().map(|&j| (q[j], dc(q[j]) * x[j])).collect(),
        };
        pairs.sort_unstable_by_key(|&(i, _)| i);
        let (indices, vals): (Vec<usize>, Vec<f64>) = pairs.into_iter().unzip();
        SparseVec::try_new(n, indices, vals).expect("reach emits unique in-range indices")
    }

    /// Solve `A x = b` with iterative refinement against the caller's
    /// **original** matrix: the direct [`Self::solve`], then
    /// residual/correction sweeps (`x += solve(b - A·x)`) until the
    /// componentwise backward error reaches `tol`, `max_iter`
    /// corrections have run, or the error stagnates. Returns the best
    /// iterate together with a [`RefineReport`].
    ///
    /// This is the recovery ladder's second rung: it repairs both
    /// static pivot perturbation ([`Self::perturb_report`]) and the
    /// element growth a pattern-only pre-pivot can admit — at the cost
    /// of a few O(nnz) sweeps, with **no** recompilation and no
    /// refactorization. `a` must be the matrix this factor was
    /// computed from (any same-pattern matrix is accepted; the report
    /// then describes backward error with respect to the matrix
    /// given).
    pub fn solve_refined(
        &self,
        a: &CscMatrix,
        b: &[f64],
        tol: f64,
        max_iter: usize,
    ) -> (Vec<f64>, RefineReport) {
        refine_with(a, b, tol, max_iter, |rhs| self.solve(rhs))
    }

    /// Magnitude of `det(A)`: the product of `U`'s diagonal.
    pub fn det_magnitude(&self) -> f64 {
        let ux = self.values().1;
        self.structure.u_col_ptr[1..]
            .iter()
            .map(|&end| ux[end - 1].abs())
            .product()
    }
}
