//! The user-facing Sympiler driver: take a numerical method + a
//! sparsity pattern, run the symbolic inspectors, and hand back a
//! specialized executable (plan) with the inspection sets and the
//! transformation decisions baked in.

use crate::plan::chol::{CholFactor, CholPlan, CholPlanError, MAX_SUPERNODE_WIDTH};
use crate::plan::lu::{
    BatchError, LuFactor, LuPlan, LuPlanError, LuWorkspace, POSITION_MAX_OPS_PER_ENTRY,
};
use crate::plan::lu_supernodal::{MAX_PANEL, RELAX_COLS, RELAX_FILL};
use crate::plan::tri::{
    TriScratch, TriSolvePlan, TriVariant, PEEL_COL_COUNT, VS_BLOCK_MIN_AVG_SIZE,
};
use crate::report::{timed, SymbolicReport};
use sympiler_graph::supernode::supernodes_trisolve;
use sympiler_sparse::{CscMatrix, SparseVec};

pub use sympiler_graph::ordering::Ordering;
pub use sympiler_graph::transversal::PrePivot;

/// What the caller asks of the compiler: the problem's switches, not
/// the compiler's thresholds.
///
/// The thresholds the paper treats as compiler constants (§4.2) are
/// constants here too, read by the `compile` calls and taken as
/// arguments by the plan constructors that sweep or force them:
/// [`PEEL_COL_COUNT`], [`VS_BLOCK_MIN_AVG_SIZE`],
/// [`MAX_SUPERNODE_WIDTH`], [`MAX_PANEL`], [`RELAX_FILL`] and
/// [`RELAX_COLS`]. The transformation decisions are the compiler's
/// too: VS-Block and the low-level tier are taken from the inspection
/// sets (see [`SympilerLu::compile`]), never from an option; code that
/// forces a tier builds it through the plan constructors
/// ([`LuPlan::build`], [`crate::plan::lu_supernodal::SupernodalLuPlan`],
/// [`CholPlan::build`], [`TriSolvePlan::build`]).
///
/// The LU pipeline's compile-time knobs compose: a static pre-pivot
/// ([`Self::pre_pivot`]) makes the diagonal usable, a fill-reducing
/// ordering ([`Self::ordering`]) shrinks the factors, and
/// [`Self::n_threads`] levels the numeric engine the compiler picked —
/// all resolved once per pattern.
///
/// ```
/// use sympiler_core::{Ordering, PrePivot, SympilerLu, SympilerOptions};
///
/// // A saddle-point (KKT) system: its trailing block has no diagonal,
/// // so the default options cannot factor it — but a weighted-matching
/// // pre-pivot composed with COLAMD can.
/// let a = sympiler_sparse::gen::saddle_point_2x2(40, 8, 1);
/// let opts = SympilerOptions {
///     pre_pivot: PrePivot::WeightedMatching,
///     ordering: Ordering::Colamd,
///     ..Default::default()
/// };
/// let lu = SympilerLu::compile(&a, &opts).unwrap();
/// let x = lu.factor(&a).unwrap().solve(&vec![1.0; 48]);
/// assert!(sympiler_sparse::ops::rel_residual(&a, &x, &vec![1.0; 48]) < 1e-10);
/// ```
///
/// Plan-cache identity is the 5 fields that change the plan
/// [`SympilerLu::compile`] builds (`n_threads`, `ordering`,
/// `mc64_scale`, `pre_pivot`, `pivot_perturb`), each normalised to the
/// plan it compiles (`n_threads` 0 is 1, `pivot_perturb` −0.0 is 0.0):
/// a [`crate::serve::PlanCache`] entry matches a request only when
/// those compare equal to the ones the entry was compiled with (the
/// structural hash alone is not trusted).
/// Requests that differ only elsewhere share one plan:
/// [`Self::recovery`] is read while a request runs and never reaches
/// `compile`, and the cache compiles every entry with
/// [`Self::profile`] off, recording onto its own profiler instead.
#[derive(Debug, Clone, PartialEq)]
pub struct SympilerOptions {
    /// Worker threads for the LU numeric phase. `1` (the default; `0`
    /// means the same) walks columns (or panels) in order on the
    /// calling thread; higher values level the column elimination DAG
    /// (or the panel DAG, on the supernodal tier) and bake
    /// cost-balanced per-thread chunks
    /// ([`crate::plan::level_schedule::LevelSchedule`]).
    pub n_threads: usize,
    /// Fill-reducing ordering for the LU pipeline, computed once at
    /// inspection time and baked into the plan (applied symmetrically,
    /// `Qᵀ A Q`, so static diagonal pivoting keeps its diagonal).
    /// Defaults to [`Ordering::Natural`] — reorder nothing — because
    /// the compiled pattern contract is per-matrix and callers may
    /// already order upstream; [`Ordering::Colamd`] is the recommended
    /// setting for unordered unsymmetric systems, cutting both fill
    /// (numeric flops) and elimination-DAG depth (what the parallel
    /// executor scales on). Every computed ordering (`Rcm`, `Colamd`)
    /// is postordered by the elimination tree of the symmetrized
    /// permuted pattern before it is baked
    /// ([`sympiler_graph::ordering::postorder_by_etree`]): fill, flops
    /// and the elimination DAG are unchanged, etree subtrees become
    /// contiguous, and panel detection finds wider panels on them.
    pub ordering: Ordering,
    /// Finish MC64: derive row/column equilibration scalings `Dr`/`Dc`
    /// from the weighted-matching dual potentials and fold them into
    /// the plan's baked gather maps — the numeric phase factors
    /// `Qᵀ·P·(Dr·A·Dc)·Q` (every matched diagonal exactly 1, every
    /// entry ≤ 1) at zero per-factorization cost, and solves unscale
    /// transparently in original coordinates. Collapses pivot growth
    /// from ~1e8 to O(1) on zero-diagonal problems, making the strict
    /// verification bar hold under the pattern-only transversal too.
    /// Scalings are computed from the compile-time matrix values (the
    /// static MC64 contract — recompile to re-equilibrate). Default
    /// `false`: factors then stay comparable with unscaled baselines.
    pub mc64_scale: bool,
    /// Static pre-pivoting for the LU pipeline: compute a row
    /// permutation `P` at inspection time (maximum transversal or
    /// MC64-like weighted matching) so `P·A` has a structurally
    /// zero-free — and, for the weighted variant, numerically large —
    /// diagonal, then factor `Qᵀ·P·A·Q`. This is what lets the
    /// static-diagonal-pivot contract cover saddle-point/KKT and
    /// circuit matrices whose diagonals are structurally zero (hard
    /// errors otherwise). Defaults to [`PrePivot::Off`]; structurally
    /// singular inputs fail compilation with a typed error instead of
    /// a numeric-phase zero pivot. Zero per-factorization cost: the
    /// permutation rides the same baked gather maps as the ordering.
    pub pre_pivot: PrePivot,
    /// Attach an enabled [`sympiler_obs::Profiler`] to the compiled LU
    /// plan: compile stages, numeric-phase spans (per-level work,
    /// barriers, dense panel kernels), kernel counters, and
    /// numerical-health gauges all land on one trace, retrievable via
    /// [`SympilerLu::profiler`]. `false` (the default) compiles a
    /// disabled profiler whose hooks are single-branch no-ops — the
    /// numeric phase stays bitwise identical either way (all
    /// instrumentation is observational). Not plan-cache identity:
    /// [`crate::serve::PlanCache`] compiles every entry with it off.
    pub profile: bool,
    /// Static pivot perturbation tolerance (layer 1 of the recovery
    /// ladder, SuperLU_DIST's idea under the static-pivoting
    /// contract): during the numeric phase, a pivot whose magnitude
    /// falls below `pivot_perturb · max|A values|` is replaced by
    /// `±pivot_perturb · max|A values|` and recorded in the factor's
    /// [`crate::plan::lu::PerturbReport`]; factorization continues
    /// instead of failing with a zero pivot. The perturbed factors
    /// solve a *nearby* system — follow with
    /// [`crate::plan::lu::LuFactor::solve_refined`] (or drive through
    /// [`crate::robust::RobustLu`]) to repair the answer. `0.0` (the
    /// default) disables the guard entirely: the numeric phase is
    /// bitwise identical to a build without this feature. A typical
    /// enabled value is `1e-8` (≈√ε). A negative, NaN or infinite
    /// value fails compilation with [`LuPlanError::BadInput`].
    pub pivot_perturb: f64,
    /// Escalation policy for [`crate::robust::RobustLu`] (layer 3 of
    /// the recovery ladder) and, when
    /// [`RecoveryPolicy::serve_escalate`] is set, for per-request
    /// retry in [`crate::serve::FactorService`]. Run-time policy, not
    /// plan-cache identity — it is read from the request, and changing
    /// it never recompiles.
    ///
    /// [`RecoveryPolicy::serve_escalate`]: crate::robust::RecoveryPolicy::serve_escalate
    pub recovery: crate::robust::RecoveryPolicy,
}

impl Default for SympilerOptions {
    fn default() -> Self {
        Self {
            n_threads: 1,
            ordering: Ordering::Natural,
            mc64_scale: false,
            pre_pivot: PrePivot::Off,
            profile: false,
            pivot_perturb: 0.0,
            recovery: crate::robust::RecoveryPolicy::default(),
        }
    }
}

/// The part of [`SympilerOptions`] that is plan-cache identity: every
/// field that changes the plan [`SympilerLu::compile`] builds, each
/// normalised so that values compiling one plan key alike (`f64`s then
/// by bit pattern, so the derived `Eq`/`Hash` are exact), and nothing
/// that is only read while a request runs or that the cache turns off.
/// [`crate::serve::structural_hash`] hashes it and
/// [`crate::serve::PlanCache`] compares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CompileKey {
    n_threads: usize,
    ordering: Ordering,
    mc64_scale: bool,
    pre_pivot: PrePivot,
    pivot_perturb: u64,
}

impl SympilerOptions {
    /// The cache identity of these options. The destructuring is
    /// exhaustive on purpose (no `..`): a new option field does not
    /// compile until someone decides here whether it changes the
    /// compiled LU plan (it joins the key) or not (it is named and
    /// dropped, like `recovery`).
    pub(crate) fn compile_key(&self) -> CompileKey {
        let Self {
            n_threads,
            ordering,
            mc64_scale,
            pre_pivot,
            // `PlanCache` compiles every entry unprofiled and records
            // onto its own profiler: keyed on, a profiled request would
            // file a bit-identical plan under a second entry.
            profile: _,
            // A perturbed plan carries a pivot threshold (the service's
            // escalation relies on it being a distinct entry).
            pivot_perturb,
            // Run-time policy: read from the request's own options by
            // `FactorService` and `RobustLu`, never by `compile`.
            recovery:
                crate::robust::RecoveryPolicy {
                    berr_tol: _,
                    max_refine_iters: _,
                    allow_refactor: _,
                    serve_escalate: _,
                },
        } = *self;
        CompileKey {
            // `compile` runs 0 threads as 1.
            n_threads: n_threads.max(1),
            ordering,
            mc64_scale,
            pre_pivot,
            // −0.0 disables the guard like 0.0: adding +0.0 maps it to
            // +0.0 and leaves every other value's bits as they are.
            pivot_perturb: (pivot_perturb + 0.0).to_bits(),
        }
    }
}

/// A compiled sparse triangular solve, specialized to one `L` pattern
/// (and values) and one RHS pattern.
#[derive(Debug, Clone)]
pub struct SympilerTriSolve {
    plan: TriSolvePlan,
    reach: Vec<usize>,
    n: usize,
    report: SymbolicReport,
    scratch: TriScratch,
}

impl SympilerTriSolve {
    /// Compile for lower-triangular `l` and RHS pattern `beta`.
    ///
    /// Applies the paper's transformation ordering: VS-Block first
    /// (when the supernode-size threshold [`VS_BLOCK_MIN_AVG_SIZE`]
    /// admits it), then VI-Prune, then the low-level transformations
    /// (columns with more than [`PEEL_COL_COUNT`] entries peeled).
    /// Every decision is the compiler's: `opts` is accepted for
    /// signature stability and no field of it is read. Other variants
    /// and thresholds are built with [`TriSolvePlan::build`].
    pub fn compile(l: &CscMatrix, beta: &[usize], _opts: &SympilerOptions) -> Self {
        let mut report = SymbolicReport::default();
        // Inspection: reach-set (VI-Prune set).
        let reach = timed(&mut report, "inspect: reach-set (DFS)", || {
            let mut r = sympiler_graph::reach(l, beta);
            r.sort_unstable();
            r
        });
        report.set_size("reach-set", reach.len());
        // Inspection: block-set + threshold decision.
        let start = std::time::Instant::now();
        let part = supernodes_trisolve(l, MAX_SUPERNODE_WIDTH);
        let col_counts: Vec<usize> = (0..l.n_cols()).map(|j| l.col_nnz(j)).collect();
        let avg = part.avg_participating_size(&col_counts);
        report.stage("inspect: supernodes (node equiv)", start.elapsed());
        report.set_size("supernodes", part.n_supernodes());
        let variant = TriVariant {
            vs_block: avg >= VS_BLOCK_MIN_AVG_SIZE,
            ..TriVariant::full()
        };
        let plan = timed(&mut report, "transform + pack (plan build)", || {
            TriSolvePlan::build(l, beta, variant, MAX_SUPERNODE_WIDTH, PEEL_COL_COUNT)
        });
        Self {
            plan,
            reach,
            n: l.n_cols(),
            report,
            scratch: TriScratch::default(),
        }
    }

    /// Solve `L x = b` into a zeroed buffer `x` (numeric-only path).
    pub fn solve_into(&mut self, b: &SparseVec, x: &mut [f64]) {
        // Split borrows: plan and scratch are disjoint fields.
        let Self { plan, scratch, .. } = self;
        plan.solve(b, x, scratch);
    }

    /// Solve and return a fresh vector.
    pub fn solve(&mut self, b: &SparseVec) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x);
        x
    }

    /// Zero the entries the previous solve touched (O(|reach|)).
    pub fn reset(&self, x: &mut [f64]) {
        self.plan.reset(x);
    }

    /// The compiled plan.
    pub fn plan(&self) -> &TriSolvePlan {
        &self.plan
    }

    /// The reach set (ascending).
    pub fn reach(&self) -> &[usize] {
        &self.reach
    }

    /// Useful flops of the pruned solve.
    pub fn flops(&self) -> u64 {
        self.plan.flops()
    }

    /// Symbolic (compile-time) report.
    pub fn report(&self) -> &SymbolicReport {
        &self.report
    }
}

/// A compiled sparse Cholesky, specialized to one SPD pattern.
#[derive(Debug, Clone)]
pub struct SympilerCholesky {
    plan: CholPlan,
}

impl SympilerCholesky {
    /// Compile for the SPD matrix `a` in lower-triangular storage:
    /// supernodes capped at [`MAX_SUPERNODE_WIDTH`] and amalgamated
    /// under [`RELAX_FILL`] / [`RELAX_COLS`], specialized kernels on
    /// the small diagonal blocks. Every decision is the compiler's:
    /// `opts` is accepted for signature stability and no field of it
    /// is read. Other widths, budgets and kernel tiers are built with
    /// [`CholPlan::build`].
    pub fn compile(a_lower: &CscMatrix, _opts: &SympilerOptions) -> Result<Self, CholPlanError> {
        let plan = CholPlan::build(a_lower, MAX_SUPERNODE_WIDTH, RELAX_FILL, RELAX_COLS, true)?;
        Ok(Self { plan })
    }

    /// Numeric factorization (no symbolic work).
    pub fn factor(&self, a_lower: &CscMatrix) -> Result<CholFactor, CholPlanError> {
        self.plan.factor(a_lower)
    }

    /// The compiled plan.
    pub fn plan(&self) -> &CholPlan {
        &self.plan
    }

    /// Exact factorization flops.
    pub fn flops(&self) -> u64 {
        self.plan.flops()
    }

    /// Symbolic (compile-time) report.
    pub fn report(&self) -> &SymbolicReport {
        self.plan.report()
    }
}

/// A compiled sparse LU, specialized to one (generally unsymmetric)
/// pattern under static diagonal pivoting — optionally pre-pivoted
/// (row matching) and fill-reduced (column ordering), both baked at
/// compile time.
///
/// One compile, many numeric factorizations:
///
/// ```
/// use sympiler_core::{SympilerLu, SympilerOptions};
///
/// let mut a = sympiler_sparse::gen::circuit_unsym(60, 4, 2, 7);
/// let lu = SympilerLu::compile(&a, &SympilerOptions::default()).unwrap();
///
/// // Values change, pattern fixed: refactor without symbolic work.
/// for round in 0..3 {
///     for v in a.values_mut() {
///         *v *= 1.0 + 0.01 * round as f64;
///     }
///     let f = lu.factor(&a).unwrap();
///     let b = vec![1.0; 60];
///     let x = f.solve(&b);
///     assert!(sympiler_sparse::ops::rel_residual(&a, &x, &b) < 1e-10);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct SympilerLu {
    exec: LuExec,
}

/// The item kernel [`SympilerLu::compile`] selects from the panels it
/// detects; either runs in index order or, with
/// [`SympilerOptions::n_threads`] `> 1`, leveled over its DAG.
#[derive(Debug, Clone)]
enum LuExec {
    /// Scalar columns.
    Scalar(Box<LuPlan>),
    /// Column panels routed through dense kernels.
    Supernodal(Box<crate::plan::lu_supernodal::SupernodalLuPlan>),
}

impl SympilerLu {
    /// Compile for the square matrix `a` (full storage). The compiler
    /// picks the tier from the inspection sets (§4.2): update columns
    /// with more than [`PEEL_COL_COUNT`] entries run peeled
    /// ([`LuPlan::build`]), and the supernodal (VS-Block) tier, which
    /// routes wide column panels of the predicted `L` through dense
    /// GETRF/TRSM/GEMM kernels, engages only when a panel pays for it:
    /// panels are detected under [`MAX_PANEL`], [`RELAX_FILL`] and
    /// [`RELAX_COLS`], every wide panel with fewer structural flops
    /// per accumulator entry moved than
    /// [`DENSE_PANEL_MIN_FLOPS_PER_ENTRY`] is dissolved into scalar
    /// columns, and the scalar plan runs unless a wide panel survives.
    /// `pre_pivot` and `ordering` select the
    /// static row pre-pivot and fill-reducing ordering computed at
    /// inspection time and baked into the plan ([`LuPlan::build`]);
    /// `factor` still takes the original matrix, and
    /// [`LuFactor::solve`] speaks original coordinates. With
    /// `n_threads > 1` the numeric phase is additionally leveled over
    /// the column elimination DAG (the panel DAG on the supernodal
    /// tier) and executed by that many workers — results stay bitwise
    /// identical to the one-thread plan of the same tier.
    ///
    /// ```
    /// use sympiler_core::{Ordering, SympilerLu, SympilerOptions};
    /// use sympiler_sparse::gen;
    ///
    /// let opts = SympilerOptions {
    ///     ordering: Ordering::Colamd,
    ///     ..Default::default()
    /// };
    /// // A grid's fill amalgamates into panels dense enough to pay.
    /// let grid = gen::convection_diffusion_2d(8, 8, 1.0, 6);
    /// assert!(SympilerLu::compile(&grid, &opts).unwrap().is_supernodal());
    /// // A circuit that COLAMD keeps fill-free has no panel worth a
    /// // dense kernel.
    /// let circuit = gen::circuit_unsym(200, 1, 0, 1);
    /// assert!(!SympilerLu::compile(&circuit, &opts).unwrap().is_supernodal());
    /// ```
    ///
    /// [`DENSE_PANEL_MIN_FLOPS_PER_ENTRY`]: crate::plan::lu_supernodal::DENSE_PANEL_MIN_FLOPS_PER_ENTRY
    pub fn compile(a: &CscMatrix, opts: &SympilerOptions) -> Result<Self, LuPlanError> {
        let plan = LuPlan::build(a, opts)?;
        let n_threads = opts.n_threads.max(1);
        // Supernodal tier. Panel detection runs once; every wide panel
        // too thin to pay for the dense path is dissolved into scalar
        // columns, and the tier engages only if a dense panel survives
        // — otherwise the scalar plan, which carries no panel tables at
        // all, runs the same columns.
        use crate::plan::lu_supernodal::{SupernodalLuPlan, DENSE_PANEL_MIN_FLOPS_PER_ENTRY};
        let kept = SupernodalLuPlan::dissolve_thin_panels(
            &plan,
            &SupernodalLuPlan::detect_panels(&plan, MAX_PANEL, RELAX_FILL, RELAX_COLS),
            DENSE_PANEL_MIN_FLOPS_PER_ENTRY,
        );
        // Fewer panels than columns ⇔ a wide panel survived.
        let panels = (kept.part.n_supernodes() < plan.n()).then_some(kept);
        let exec = match panels {
            Some(panels) => LuExec::Supernodal(Box::new(SupernodalLuPlan::from_panels(
                plan, panels, n_threads,
            ))),
            // In-order columns alone can use the position-addressed
            // walker: its tables are baked here, where the pattern
            // keeps them small ([`POSITION_MAX_OPS_PER_ENTRY`]);
            // otherwise, and leveled, they run the accumulator kernel.
            None => LuExec::Scalar(Box::new(if n_threads == 1 {
                plan.with_position_tables(POSITION_MAX_OPS_PER_ENTRY)
            } else {
                plan.leveled(n_threads)
            })),
        };
        Ok(Self { exec })
    }

    /// Numeric factorization (no symbolic work): `A = L U`.
    ///
    /// For high-rate callers: [`Self::factor_with`] reuses a
    /// caller-held workspace, [`Self::factor_batch`] does so over a
    /// same-pattern batch, and [`crate::serve::PlanCache`] /
    /// [`crate::serve::FactorService`] layer caching and a thread-pool
    /// front end on top.
    pub fn factor(&self, a: &CscMatrix) -> Result<LuFactor, LuPlanError> {
        self.factor_with(a, &mut LuWorkspace::new())
    }

    /// [`Self::factor`] against a caller-held [`LuWorkspace`] —
    /// bitwise identical results, minus the per-call scratch
    /// allocation: the dense accumulator on the scalar tier (none at
    /// all, and the workspace untouched, when the plan carries position
    /// tables); the block accumulator, solve block and trapezoid arena
    /// on the supernodal tier. Plans compiled for `n_threads > 1` run
    /// their first lane against the workspace and allocate the scratch
    /// of every further lane per call.
    pub fn factor_with(
        &self,
        a: &CscMatrix,
        ws: &mut LuWorkspace,
    ) -> Result<LuFactor, LuPlanError> {
        match &self.exec {
            LuExec::Scalar(plan) => plan.factor_with(a, ws),
            LuExec::Supernodal(sup) => sup.factor_with(a, ws),
        }
    }

    /// Factor a batch of same-pattern matrices: one matrix at a time
    /// through the compiled tier's own engine, against one shared
    /// workspace. Every tier returns factors bitwise identical to
    /// looping [`Self::factor`], and the batch is all-or-nothing: the
    /// first failure aborts with a [`BatchError`] naming the matrix.
    pub fn factor_batch(&self, mats: &[&CscMatrix]) -> Result<Vec<LuFactor>, BatchError> {
        crate::plan::lu::factor_each(mats, |a, ws| self.factor_with(a, ws))
    }

    /// The compiled scalar plan: symbolic analysis, schedules, flop
    /// counts — the whole executor on the scalar tier, the supernodal
    /// plan's foundation otherwise.
    pub fn plan(&self) -> &LuPlan {
        match &self.exec {
            LuExec::Scalar(plan) => plan,
            LuExec::Supernodal(sup) => sup.serial(),
        }
    }

    /// Worker threads the numeric phase was compiled for.
    pub fn n_threads(&self) -> usize {
        match &self.exec {
            LuExec::Scalar(plan) => plan.n_threads(),
            LuExec::Supernodal(sup) => sup.n_threads(),
        }
    }

    /// True when the supernodal (VS-Block) engine was compiled in.
    pub fn is_supernodal(&self) -> bool {
        matches!(self.exec, LuExec::Supernodal(_))
    }

    /// The compiled supernodal plan, when the supernodal engine is the
    /// selected executor (panel statistics, panel-DAG schedule).
    pub fn supernodal(&self) -> Option<&crate::plan::lu_supernodal::SupernodalLuPlan> {
        match &self.exec {
            LuExec::Supernodal(sup) => Some(sup),
            LuExec::Scalar(_) => None,
        }
    }

    /// Exact factorization flops.
    pub fn flops(&self) -> u64 {
        self.plan().flops()
    }

    /// Resident bytes of the compiled tables for the tier actually
    /// executing, level schedule included — the supernodal tier adds
    /// its panel layouts (amalgamation padding included) and update
    /// schedule on top of the scalar plan's tables.
    pub fn table_bytes(&self) -> usize {
        match &self.exec {
            LuExec::Scalar(plan) => plan.table_bytes(),
            LuExec::Supernodal(sup) => sup.table_bytes(),
        }
    }

    /// The ordering strategy compiled into the plan.
    pub fn ordering(&self) -> Ordering {
        self.plan().ordering()
    }

    /// The compiled ordering `Q` (`perm[new] = old`), or `None` for
    /// natural order.
    pub fn col_perm(&self) -> Option<&[usize]> {
        self.plan().col_perm()
    }

    /// The pre-pivoting strategy compiled into the plan.
    pub fn pre_pivot(&self) -> PrePivot {
        self.plan().pre_pivot()
    }

    /// The composed row map (`rperm[new] = old`, pre-pivot and
    /// ordering combined), or `None` when neither knob moved anything.
    pub fn row_perm(&self) -> Option<&[usize]> {
        self.plan().row_perm()
    }

    /// Count of columns whose compiled pivot position is structurally
    /// present in `A` — `n` after any successful pre-pivot. See
    /// [`LuPlan::matched_diagonals`].
    pub fn matched_diagonals(&self) -> usize {
        self.plan().matched_diagonals()
    }

    /// Fill ratio `nnz(L + U) / nnz(A)` of the compiled factorization.
    pub fn fill_ratio(&self) -> f64 {
        self.plan().fill_ratio()
    }

    /// Symbolic (compile-time) report.
    pub fn report(&self) -> &SymbolicReport {
        self.plan().report()
    }

    /// The profiler attached at compile time (disabled unless
    /// [`SympilerOptions::profile`] was set). Snapshot it after one or
    /// more `factor` calls to get the combined compile + numeric trace.
    pub fn profiler(&self) -> &std::sync::Arc<sympiler_obs::Profiler> {
        self.plan().profiler()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympiler_sparse::{gen, rhs};

    #[test]
    fn trisolve_compile_and_solve() {
        let l = gen::random_lower_triangular(60, 3, 1);
        let b = rhs::random_sparse_rhs(60, 0.05, 2);
        let mut ts = SympilerTriSolve::compile(&l, b.indices(), &SympilerOptions::default());
        let x = ts.solve(&b);
        let mut expect = b.to_dense();
        sympiler_solvers::trisolve::naive_forward(&l, &mut expect);
        for (p, q) in x.iter().zip(&expect) {
            assert!((p - q).abs() < 1e-11);
        }
        assert!(ts.report().total().as_nanos() > 0);
        assert!(ts.flops() > 0);
    }

    #[test]
    fn trisolve_threshold_disables_vs_block() {
        // A very sparse random L has tiny supernodes; with the paper's
        // 160 threshold VS-Block must be skipped.
        let l = gen::random_lower_triangular(100, 2, 3);
        let b = rhs::random_sparse_rhs(100, 0.04, 4);
        let mut ts = SympilerTriSolve::compile(&l, b.indices(), &SympilerOptions::default());
        assert!(
            !ts.plan().variant().vs_block,
            "threshold must reject VS-Block"
        );
        // The plan constructor, which takes the decision instead of the
        // threshold, still blocks and solves the same.
        let plan = TriSolvePlan::build(
            &l,
            b.indices(),
            TriVariant::full(),
            MAX_SUPERNODE_WIDTH,
            PEEL_COL_COUNT,
        );
        assert!(plan.variant().vs_block);
        let mut x = vec![0.0; 100];
        plan.solve(&b, &mut x, &mut TriScratch::default());
        for (p, q) in x.iter().zip(&ts.solve(&b)) {
            assert!((p - q).abs() < 1e-11);
        }
    }

    #[test]
    fn cholesky_compile_factor_solve() {
        let a = gen::grid2d_laplacian(7, 7, false, 1);
        let chol = SympilerCholesky::compile(&a, &SympilerOptions::default()).unwrap();
        let f = chol.factor(&a).unwrap();
        let b = vec![1.0; 49];
        let x = f.solve(&b);
        let resid = sympiler_sparse::ops::rel_residual_sym_lower(&a, &x, &b);
        assert!(resid < 1e-12);
    }

    #[test]
    fn cholesky_no_vs_block_still_correct() {
        let a = gen::circuit_like(50, 4, 2, 2);
        // Width-1 supernodes == non-supernodal execution.
        let plan = CholPlan::build(&a, 1, RELAX_FILL, RELAX_COLS, true).unwrap();
        let f = plan.factor(&a).unwrap();
        let l_ref = sympiler_solvers::SimplicialCholesky::analyze(&a)
            .unwrap()
            .factor(&a)
            .unwrap();
        for (p, q) in f.to_csc().values().iter().zip(l_ref.values()) {
            assert!((p - q).abs() < 1e-9);
        }
    }

    #[test]
    fn lu_compile_factor_solve() {
        let a = gen::convection_diffusion_2d(6, 6, 1.5, 2);
        let lu = SympilerLu::compile(&a, &SympilerOptions::default()).unwrap();
        let f = lu.factor(&a).unwrap();
        let n = a.n_cols();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let x = f.solve(&b);
        assert!(sympiler_sparse::ops::rel_residual(&a, &x, &b) < 1e-12);
        assert!(lu.flops() > 0);
        assert!(lu.report().total().as_nanos() > 0);
    }

    #[test]
    fn lu_matches_gplu_baseline() {
        let a = gen::circuit_unsym(40, 4, 2, 6);
        let lu = SympilerLu::compile(&a, &SympilerOptions::default()).unwrap();
        let f = lu.factor(&a).unwrap();
        let base =
            sympiler_solvers::lu::GpLu::factor(&a, sympiler_solvers::lu::Pivoting::None).unwrap();
        assert!(f.l().same_pattern(&base.l));
        for (p, q) in f.u().values().iter().zip(base.u.values()) {
            assert!((p - q).abs() < 1e-10);
        }
    }

    #[test]
    fn default_options_match_paper() {
        assert_eq!(VS_BLOCK_MIN_AVG_SIZE, 160.0);
        assert_eq!(PEEL_COL_COUNT, 2);
        assert_eq!(MAX_SUPERNODE_WIDTH, 64);
        let o = SympilerOptions::default();
        assert_eq!(o.n_threads, 1, "serial numeric phase by default");
        assert_eq!(o.ordering, Ordering::Natural, "no reordering by default");
        assert_eq!(MAX_PANEL, 32, "panel cap keeps block buffers small");
        assert_eq!(RELAX_FILL, 0.3, "CHOLMOD-style relaxation budget");
        assert_eq!(RELAX_COLS, 16, "amalgamated panels stay cache-sized");
        assert!(!o.mc64_scale, "factors comparable with unscaled baselines");
        assert_eq!(o.pre_pivot, PrePivot::Off, "no pre-pivot by default");
        assert!(!o.profile, "observability off by default");
        assert_eq!(o.pivot_perturb, 0.0, "perturbation off = bitwise seed");
        let r = &o.recovery;
        assert_eq!(r.berr_tol, 1e-12, "recovery targets full precision");
        assert_eq!(r.max_refine_iters, 10, "bounded refinement");
        assert!(r.allow_refactor, "baseline fallback on by default");
        assert!(!r.serve_escalate, "serving keeps its bitwise contract");
    }

    #[test]
    fn profile_option_attaches_an_enabled_profiler() {
        let a = gen::circuit_unsym(60, 1, 0, 6);
        let lu = SympilerLu::compile(
            &a,
            &SympilerOptions {
                profile: true,
                ordering: Ordering::Colamd,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!lu.is_supernodal(), "the circuit compiles scalar");
        assert!(lu.profiler().is_enabled());
        let f = lu.factor(&a).unwrap();
        assert!(f.health().is_some(), "profiled factor carries health");
        let snap = lu.profiler().snapshot("t");
        assert_eq!(snap.spans_named("factor:serial").count(), 1);
        assert!(snap.spans.iter().any(|s| s.name.starts_with("compile: ")));
        assert_eq!(snap.counter("flops.scalar"), Some(lu.flops()));
        // Default compile: everything off, factor unprofiled.
        let off = SympilerLu::compile(&a, &SympilerOptions::default()).unwrap();
        assert!(!off.profiler().is_enabled());
        assert!(off.factor(&a).unwrap().health().is_none());
    }

    /// A pattern whose factor blocks heavily: a dense trailing block
    /// appended to a bidiagonal chain — one wide panel carrying nearly
    /// every flop, far above `Auto`'s per-panel threshold.
    fn heavily_blocking_matrix() -> CscMatrix {
        let n = 24;
        let mut t = sympiler_sparse::TripletMatrix::new(n, n);
        for j in 0..n {
            t.push(j, j, 10.0);
            if j + 1 < n {
                t.push(j + 1, j, -1.0);
            }
        }
        for j in n / 3..n {
            for i in n / 3..n {
                if i != j && i != j + 1 {
                    t.push(i, j, 0.5);
                }
            }
        }
        t.to_csc().unwrap()
    }

    #[test]
    fn compile_blocks_only_where_a_panel_pays() {
        // The dense trailing block is a panel that pays: compile must
        // keep it dense and engage the supernodal engine, and agree
        // with the scalar plan of the same pattern to 1e-12.
        let a = heavily_blocking_matrix();
        let lu = SympilerLu::compile(&a, &SympilerOptions::default()).unwrap();
        assert!(lu.is_supernodal(), "dense trailing block must block");
        let sup = lu.supernodal().unwrap();
        assert!(sup.mean_panel_width() >= 2.0);
        assert!(sup.dense_flop_share() > 0.5, "dense kernels carry the work");
        let f_sup = lu.factor(&a).unwrap();
        let scalar = LuPlan::build(&a, &SympilerOptions::default()).unwrap();
        let f_scalar = scalar.factor(&a).unwrap();
        for (x, y) in f_sup.u().values().iter().zip(f_scalar.u().values()) {
            assert!((x - y).abs() <= 1e-12 * (1.0 + y.abs()));
        }
        // A grid pattern blocks too sparsely under strict nesting
        // (mean width ~1.1): with relaxation disabled every wide panel
        // is too thin to pay and all are dissolved. The default
        // amalgamation budget merges the near-nesting grid columns
        // into panels that do pay, so compile blocks — relaxation is
        // exactly what makes such patterns blockable. The strict
        // panels, forced dense, stay correct.
        use crate::plan::lu_supernodal::{SupernodalLuPlan, DENSE_PANEL_MIN_FLOPS_PER_ENTRY};
        let g = gen::convection_diffusion_2d(8, 8, 1.0, 6);
        let plan = LuPlan::build(&g, &SympilerOptions::default()).unwrap();
        let strict = SupernodalLuPlan::detect_panels(&plan, MAX_PANEL, 0.0, RELAX_COLS);
        let never =
            SupernodalLuPlan::dissolve_thin_panels(&plan, &strict, DENSE_PANEL_MIN_FLOPS_PER_ENTRY);
        assert_eq!(
            never.part.n_supernodes(),
            plan.n(),
            "strict sparse blocking must not pay"
        );
        let relaxed = SympilerLu::compile(&g, &SympilerOptions::default()).unwrap();
        assert!(
            relaxed.is_supernodal(),
            "default amalgamation budget blocks the grid"
        );
        let f_scalar = plan.factor(&g).unwrap();
        let forced = SupernodalLuPlan::from_panels(plan, strict, 1);
        assert!(forced.n_wide_panels() > 0);
        let f_forced = forced.factor(&g).unwrap();
        for (x, y) in f_forced.u().values().iter().zip(f_scalar.u().values()) {
            assert!((x - y).abs() <= 1e-12 * (1.0 + y.abs()));
        }
        // A circuit that COLAMD keeps fill-free has no panel that pays.
        let colamd = SympilerOptions {
            ordering: Ordering::Colamd,
            ..Default::default()
        };
        let c = gen::circuit_unsym(200, 1, 0, 1);
        assert!(!SympilerLu::compile(&c, &colamd).unwrap().is_supernodal());
    }

    #[test]
    fn lu_ordering_knob_cuts_fill_and_keeps_solutions() {
        let a = gen::circuit_unsym(120, 4, 2, 13);
        let n = a.n_cols();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 4) as f64).collect();
        let natural = SympilerLu::compile(&a, &SympilerOptions::default()).unwrap();
        assert!(natural.col_perm().is_none());
        let x_nat = natural.factor(&a).unwrap().solve(&b);
        for ordering in [Ordering::Rcm, Ordering::Colamd] {
            let opts = SympilerOptions {
                ordering,
                ..Default::default()
            };
            let lu = SympilerLu::compile(&a, &opts).unwrap();
            assert_eq!(lu.ordering(), ordering);
            assert!(lu.col_perm().is_some());
            assert!(
                lu.fill_ratio() < natural.fill_ratio(),
                "{ordering:?} must reduce fill on the circuit pattern"
            );
            let x = lu.factor(&a).unwrap().solve(&b);
            assert!(sympiler_sparse::ops::rel_residual(&a, &x, &b) < 1e-12);
            for (p, q) in x.iter().zip(&x_nat) {
                assert!((p - q).abs() < 1e-9, "{ordering:?} solution drift");
            }
        }
    }

    #[test]
    fn lu_ordering_combines_with_parallel_executor_bitwise() {
        let a = gen::circuit_unsym(90, 4, 2, 17);
        for ordering in [Ordering::Rcm, Ordering::Colamd] {
            let serial = SympilerLu::compile(
                &a,
                &SympilerOptions {
                    ordering,
                    ..Default::default()
                },
            )
            .unwrap();
            let f_s = serial.factor(&a).unwrap();
            for threads in [2usize, 4] {
                let par = SympilerLu::compile(
                    &a,
                    &SympilerOptions {
                        ordering,
                        n_threads: threads,
                        ..Default::default()
                    },
                )
                .unwrap();
                let f_p = par.factor(&a).unwrap();
                for (x, y) in f_s
                    .l()
                    .values()
                    .iter()
                    .chain(f_s.u().values())
                    .zip(f_p.l().values().iter().chain(f_p.u().values()))
                {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{ordering:?} @ {threads}T must stay bitwise serial"
                    );
                }
            }
        }
    }

    #[test]
    fn lu_n_threads_knob_selects_parallel_executor() {
        let a = gen::circuit_unsym(60, 4, 2, 8);
        let serial = SympilerLu::compile(&a, &SympilerOptions::default()).unwrap();
        assert_eq!(serial.n_threads(), 1);
        let opts = SympilerOptions {
            n_threads: 4,
            ..Default::default()
        };
        let par = SympilerLu::compile(&a, &opts).unwrap();
        assert_eq!(par.n_threads(), 4);
        // Identical symbolic products and bitwise-identical factors.
        assert_eq!(par.flops(), serial.flops());
        let f_s = serial.factor(&a).unwrap();
        let f_p = par.factor(&a).unwrap();
        for (x, y) in f_s
            .l()
            .values()
            .iter()
            .chain(f_s.u().values())
            .zip(f_p.l().values().iter().chain(f_p.u().values()))
        {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "thread count must not change bits"
            );
        }
    }
}
