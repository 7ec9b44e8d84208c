//! The executable LU plan: left-looking Gilbert–Peierls factorization
//! with **all symbolic work hoisted to compile time**.
//!
//! Compared to the runtime baseline (`sympiler-solvers`' GPLU), the
//! plan's `factor`:
//!
//! * runs **no DFS** — every column's update schedule (its reach set in
//!   topological order) is the sorted off-diagonal pattern of
//!   `U(:, j)`, VI-Prune applied to the column updates exactly as
//!   `plan/tri.rs` applies it to the solve loop;
//! * allocates **nothing per column** — the patterns of `L` and `U`
//!   are precomputed, so one value array (`L` then `U`) is laid out
//!   once and values stream into fixed slots;
//! * needs **no pivot search** — static diagonal pivoting is the
//!   compiled contract (the paper's fixed-pattern premise), with the
//!   numeric value checked and reported per column;
//! * applies the low-level tier to heavy updates: columns whose
//!   off-diagonal count exceeds the peel threshold execute unguarded
//!   and unrolled by two, mirroring `TriOp::PeeledCol`;
//! * optionally bakes a **fill-reducing ordering**
//!   ([`SympilerOptions::ordering`]):
//!   `Q` is computed once at inspection time, the symbolic analysis
//!   runs on `Qᵀ A Q`, and the numeric phase reads the caller's
//!   original matrix through compiled maps — so ordered plans carry
//!   less fill (fewer flops) at zero per-factorization permutation
//!   cost, and [`LuFactor::solve`] still speaks the original
//!   coordinates.
//!
//! Two numeric kernels walk one plan and produce `to_bits`-identical
//! factors. The **accumulator kernel** (`LuPlan::column_numeric`)
//! scatters a column of `A` into a dense vector, applies the schedule,
//! gathers `U` and `L` and clears; the one walker of
//! [`super::level_schedule`] runs it column by column, in order or —
//! after [`LuPlan::leveled`] — level by level over the column
//! elimination DAG across threads. The **position-addressed walker**
//! (the `positions` module, [`LuPlan::with_position_tables`]) resolves
//! every index at compile time instead and runs the column DAG level
//! by level as flat streams, for one thread only; its factors solve by
//! level-grouped row streams baked beside it. Its tables cost 12 bytes
//! per multiply-add plus about 11 per factor entry, so
//! [`crate::SympilerLu`] bakes them only on patterns with at most
//! [`POSITION_MAX_OPS_PER_ENTRY`] multiply-adds per factor entry.

mod error;
mod factor;
mod positions;
mod workspace;

pub use error::{refine_with, BatchError, LuPlanError, PerturbReport, RefineReport};
pub use factor::LuFactor;
pub use positions::POSITION_MAX_OPS_PER_ENTRY;
pub use workspace::LuWorkspace;

use super::level_schedule::{walk, LaneScratch, LevelSchedule, SharedValues, WalkLabels};
use super::pattern::CompiledPattern;
use super::tri::PEEL_COL_COUNT;
use crate::compile::SympilerOptions;
use crate::inspector::LuVIPruneInspector;
use crate::report::{timed_traced, SymbolicReport};
use std::sync::{Arc, OnceLock};
use sympiler_graph::colamd;
use sympiler_graph::ordering::Ordering;
use sympiler_graph::transversal::PrePivot;
use sympiler_obs::{LuHealth, Profiler};
use sympiler_sparse::CscMatrix;

/// Per-column pivot outcome of the shared column kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PivotStatus {
    /// Pivot used as computed.
    Clean,
    /// Pivot magnitude fell below the perturbation threshold and was
    /// replaced by `±threshold`.
    Perturbed,
    /// Pivot exactly zero with perturbation off — the column failed.
    Zero,
}

impl PivotStatus {
    /// The outcome of column `j` as the walker's item kernels report
    /// it: a perturbed column joins `perturbed`, a failed one is
    /// returned (`usize::MAX` when the pivot was usable).
    pub(crate) fn report(self, j: usize, perturbed: &mut Vec<usize>) -> usize {
        match self {
            PivotStatus::Clean => usize::MAX,
            PivotStatus::Perturbed => {
                perturbed.push(j);
                usize::MAX
            }
            PivotStatus::Zero => j,
        }
    }
}

/// The batch loop every tier shares: `factor` each matrix in order
/// against one workspace, stopping at the first failure and naming it
/// by its batch index.
pub(crate) fn factor_each(
    mats: &[&CscMatrix],
    mut factor: impl FnMut(&CscMatrix, &mut LuWorkspace) -> Result<LuFactor, LuPlanError>,
) -> Result<Vec<LuFactor>, BatchError> {
    let mut ws = LuWorkspace::new();
    mats.iter()
        .enumerate()
        .map(|(index, a)| factor(a, &mut ws).map_err(|error| BatchError { index, error }))
        .collect()
}

/// The compile-time permutations baked into a plan: a composed **row**
/// gather map and a **column** gather map (`perm[new] = old` on both
/// sides), from the static pre-pivot `P` and/or the fill-reducing
/// ordering `Q`. The plan factors `B = Qᵀ·P·A·Q`, i.e. `B[i, j] =
/// A[rperm[i], cperm[j]]` with `rperm[new] = P[Q[new]]` and `cperm =
/// Q` — under an ordering alone the two maps coincide (the historical
/// symmetric application), under a pre-pivot alone `cperm` is the
/// identity.
///
/// The numeric phase reads the caller's *original* matrix through
/// these gather maps, so applying either permutation costs nothing per
/// factorization — one extra index indirection during the scatter of
/// `A`'s columns, on memory the scatter touches anyway. The maps are
/// `Arc`-shared with every [`LuFactor`] the plan produces, so repeated
/// factorization never copies them.
#[derive(Debug, Clone)]
pub(crate) struct BakedPerm {
    /// `rperm[new] = old` row of `A` — the composed row map `P·Q`.
    /// Under an ordering alone it *is* `cperm`: one allocation, two
    /// handles.
    pub(crate) rperm: std::sync::Arc<[usize]>,
    /// `irperm[old] = new` — the inverse row map, `Arc`-shared with
    /// the factors so sparse-RHS solves can map input patterns without
    /// re-inverting.
    pub(crate) irperm: std::sync::Arc<[usize]>,
    /// `cperm[new] = old` column of `A` — the ordering `Q` (identity
    /// when only a pre-pivot is baked).
    pub(crate) cperm: std::sync::Arc<[usize]>,
}

/// MC64 equilibration scalings derived from the weighted-matching dual
/// potentials, stored in **original** coordinates: the compiled system
/// becomes `Qᵀ·P·(Dr·A·Dc)·Q`, with every matched diagonal scaled to
/// exactly 1 and every entry to magnitude ≤ 1. The diagonal matrices
/// never materialize — the numeric scatter multiplies entries on the
/// fly (`B[i, j] = dr[r]·A[r, c]·dc[c]` for `r = rperm[i]`, `c =
/// cperm[j]`), so a scaled factorization costs zero extra passes, and
/// solves scale `b` by `Dr` on the way in and the solution by `Dc` on
/// the way out (`(Dr·A·Dc)(Dc⁻¹x) = Dr·b`). `Arc`-shared with every
/// factor, like the baked permutations.
#[derive(Debug, Clone)]
pub(crate) struct ScalePair {
    /// `dr[old_row]` — row scaling of `A`'s original rows.
    pub(crate) dr: std::sync::Arc<[f64]>,
    /// `dc[old_col]` — column scaling of `A`'s original columns.
    pub(crate) dc: std::sync::Arc<[f64]>,
}

impl ScalePair {
    /// Finish MC64: the scalings from the weighted-matching dual
    /// potentials of `a`. Computed from `a`'s *values*, once, at
    /// compile time; later `factor` calls on same-pattern matrices
    /// with different values reuse them (the usual static-MC64
    /// contract — re-compile to re-equilibrate). Pairs naturally with
    /// `PrePivot::WeightedMatching` (the duals then belong to the baked
    /// matching), but is valid under any compiled permutation — the
    /// `≤ 1` entry bound holds regardless, which is what the growth
    /// monitors and perturbation thresholds rely on.
    fn mc64(a: &CscMatrix) -> Result<Self, LuPlanError> {
        let scaled =
            sympiler_graph::transversal::weighted_matching_scaled(a).map_err(|e| match e {
                sympiler_sparse::SparseError::StructurallySingular { n, structural_rank } => {
                    LuPlanError::StructurallySingular { n, structural_rank }
                }
                other => LuPlanError::BadInput(format!("mc64 scaling: {other}")),
            })?;
        Ok(Self {
            dr: scaled.row_scale.into(),
            dc: scaled.col_scale.into(),
        })
    }
}

/// The sparsity structure of the factors, decided at compile time:
/// `L` with diagonal-first columns, `U` with diagonal-last columns, row
/// indices narrowed to `u32` (the plan rejects `n ≥ 2³¹`). Built once
/// per plan and `Arc`-shared with every [`LuFactor`] the plan produces,
/// like the baked permutations — the plan owns structure, a factor is
/// values, and a numeric factorization copies no index at all. The
/// `Arc` also keeps the structure alive for a factor that outlives its
/// plan (a cache eviction between factor and solve).
///
/// The values of a factor live in **one** array laid out by this
/// structure, `L` then `U`: entry `p` of `L` is value `p`, entry `q` of
/// `U` is value `l_nnz() + q` — a *position* is one index into it.
#[derive(Debug)]
pub(crate) struct LuStructure {
    pub(crate) l_col_ptr: Vec<usize>,
    pub(crate) l_row_idx: Vec<u32>,
    pub(crate) u_col_ptr: Vec<usize>,
    pub(crate) u_row_idx: Vec<u32>,
}

impl LuStructure {
    fn n(&self) -> usize {
        self.l_col_ptr.len() - 1
    }

    /// Stored entries of `L` — where `U`'s values start in a factor's
    /// value array.
    pub(crate) fn l_nnz(&self) -> usize {
        self.l_row_idx.len()
    }

    /// Length of a factor's value array.
    pub(crate) fn n_values(&self) -> usize {
        self.l_row_idx.len() + self.u_row_idx.len()
    }

    /// Materialise the `(L, U)` CSC pair over the given value arrays:
    /// the one place a factor's row indices are widened, paid by callers
    /// that want matrices ([`LuFactor::l`], [`LuFactor::u`],
    /// [`LuFactor::into_parts`]), never by a factorization or a solve.
    fn to_csc(&self, lx: Vec<f64>, ux: Vec<f64>) -> (CscMatrix, CscMatrix) {
        let n = self.n();
        let widen = |rows: &[u32]| rows.iter().map(|&r| r as usize).collect();
        (
            CscMatrix::from_parts_unchecked(
                n,
                n,
                self.l_col_ptr.clone(),
                widen(&self.l_row_idx),
                lx,
            ),
            CscMatrix::from_parts_unchecked(
                n,
                n,
                self.u_col_ptr.clone(),
                widen(&self.u_row_idx),
                ux,
            ),
        )
    }
}

/// A compiled LU factorization specialized to one sparsity pattern
/// (static diagonal pivoting), optionally under a fill-reducing
/// ordering applied symmetrically (`Qᵀ A Q`) so the diagonal-pivot
/// contract survives.
#[derive(Debug, Clone)]
pub struct LuPlan {
    pub(crate) n: usize,
    a_nnz: usize,
    /// Compiled input pattern, checked on every `factor` call (the
    /// static-sparsity contract made enforceable, like `CholPlan`).
    /// Always the **original** (unordered) pattern: callers hand
    /// `factor` the same matrix they compiled for, and the baked
    /// permutation is the plan's internal affair. Its indices are
    /// narrowed to `u32` (the plan rejects `nnz(A) ≥ 2³²`).
    pattern: CompiledPattern,
    /// Which ordering strategy contributed to [`Self::baked`].
    ordering: Ordering,
    /// Which pre-pivoting strategy contributed to [`Self::baked`].
    pre_pivot: PrePivot,
    /// Count of columns whose compiled pivot position is structurally
    /// present in `A` (the matched diagonals, `n` after any successful
    /// pre-pivot) — the deterministic quantity the perf gate tracks.
    matched_diag: usize,
    /// Static pivot-perturbation tolerance: a pivot whose magnitude
    /// falls below `perturb_tol · max|A values|` is replaced by the
    /// signed threshold and recorded, instead of failing (or silently
    /// amplifying). `0.0` disables perturbation entirely — the guard
    /// `|pivot| < 0` never fires, so the numeric phase is bitwise the
    /// unperturbed code path.
    perturb_tol: f64,
    /// The compiled permutations, `None` when both knobs resolve to
    /// the identity. All factor layouts and schedules below live in
    /// pivoted + ordered coordinates.
    baked: Option<BakedPerm>,
    /// MC64 row/column scalings, `None` unless
    /// [`SympilerOptions::mc64_scale`] compiled them in. Purely
    /// numeric: the factor patterns, schedules, and permutations above
    /// are unaffected.
    scaling: Option<ScalePair>,
    /// Factor layouts (patterns fixed at compile time), shared with
    /// every factor this plan produces and read by every tier. The
    /// update schedule is not stored a second time: column `j` applies
    /// the columns `k` of `U(:, j)`'s sorted off-diagonal pattern,
    /// ascending ([`Self::schedule`]).
    pub(crate) structure: Arc<LuStructure>,
    /// The low-level tier decision, resolved per update from the
    /// layout: an update by column `k` runs peeled (unguarded,
    /// unrolled) iff `L(:, k)` has more than this many sub-diagonal
    /// entries: [`PEEL_COL_COUNT`], unless a crate test moved it
    /// (`usize::MAX` compiles the tier out).
    peel_above: usize,
    /// Exact factorization flops.
    flops: u64,
    /// Baked positions for the accumulator-free walker, present only
    /// after [`Self::with_position_tables`] admitted the pattern.
    positions: Option<positions::PositionTables>,
    /// The column elimination DAG leveled over worker threads, present
    /// only after [`Self::leveled`]: the accumulator kernel then runs
    /// level by level instead of in column order.
    levels: Option<LevelSchedule>,
    report: SymbolicReport,
    /// The observability sink every numeric phase built from this plan
    /// records into. Disabled (a no-op) unless the plan was compiled
    /// with profiling on; `Arc`-shared so plan clones — and the
    /// supernodal plan wrapping one — feed one trace.
    profiler: Arc<Profiler>,
}

impl LuPlan {
    /// Compile a plan for the square (generally unsymmetric) matrix
    /// `a` — the one constructor. The peeled update tier is always
    /// compiled in: update columns with more than [`PEEL_COL_COUNT`]
    /// off-diagonal entries unroll, Figure 1e's rule applied to
    /// factorization updates. Of `opts` it reads exactly
    /// [`ordering`](SympilerOptions::ordering) and
    /// [`pre_pivot`](SympilerOptions::pre_pivot),
    /// [`mc64_scale`](SympilerOptions::mc64_scale),
    /// [`pivot_perturb`](SympilerOptions::pivot_perturb) (a negative,
    /// NaN or infinite value is a [`LuPlanError::BadInput`]) and
    /// [`profile`](SympilerOptions::profile); the execution tier
    /// (`n_threads`, and whether panels go dense) belongs to
    /// [`crate::SympilerLu::compile`], which calls this and then
    /// [`Self::leveled`], [`Self::with_position_tables`] or
    /// [`super::lu_supernodal::SupernodalLuPlan::from_panels`] — the
    /// calls that force a tier on any pattern.
    ///
    /// Pre-pivot and ordering are pure symbolic-phase decisions: the
    /// row matching `P` (maximum transversal / weighted matching) and
    /// the ordering `Q` are computed once here, the symbolic
    /// factorization runs on `Qᵀ·P·A·Q`, and the composed gather maps
    /// are baked into the plan — [`Self::factor`] still takes the
    /// **original** matrix and pays no per-factorization permutation
    /// cost. A [`LuPlanError::ZeroPivot`] column index is reported in
    /// pivoted + ordered coordinates (the coordinates of the factors
    /// themselves); a structurally singular pattern fails here, at
    /// compile time, with [`LuPlanError::StructurallySingular`].
    ///
    /// With `profile` set the plan carries an enabled [`Profiler`]
    /// ([`Self::profiler`]; `Arc::clone` it to keep a handle): compile
    /// stages land on it as `compile: ...` spans, inspection-set sizes
    /// as `sets.*` gauges, and every numeric phase of the plan, its
    /// clones and the supernodal plan built from it records its spans,
    /// counters and health monitors into the same trace. Otherwise the
    /// profiler is disabled and all of that is a no-op.
    pub fn build(a: &CscMatrix, opts: &SympilerOptions) -> Result<Self, LuPlanError> {
        let (ordering, pre_pivot) = (opts.ordering, opts.pre_pivot);
        if !(opts.pivot_perturb >= 0.0 && opts.pivot_perturb.is_finite()) {
            return Err(LuPlanError::BadInput(format!(
                "pivot_perturb {} must be finite and non-negative",
                opts.pivot_perturb
            )));
        }
        let profiler = Arc::new(if opts.profile {
            Profiler::enabled()
        } else {
            Profiler::disabled()
        });
        if !a.is_square() {
            return Err(LuPlanError::BadInput("matrix must be square".into()));
        }
        let n = a.n_cols();
        // Rows and the compiled pattern narrow to u32 — reject sizes
        // where that would silently corrupt instead of erroring.
        if n >= (1 << 31) || a.nnz() as u64 >= 1 << 32 {
            return Err(LuPlanError::BadInput(format!(
                "matrix order {n} / {} entries exceed the plan's 2^31 - 1 / 2^32 - 1 index limits",
                a.nnz()
            )));
        }
        // COLAMD indexes both of its arenas with u32; it asserts the
        // limit itself, so a pattern past it is turned away here.
        if ordering == Ordering::Colamd && !colamd::index_limit_ok(n, n, a.nnz()) {
            return Err(LuPlanError::BadInput(format!(
                "matrix order {n} / {} entries exceed the COLAMD ordering's index limit \
                 2*nnz + 2*n < 2^32",
                a.nnz()
            )));
        }
        let mut report = SymbolicReport::default();

        // --- Inspection: static pre-pivot (row matching) and
        // fill-reducing ordering (both resolved once), then per-column
        // reach sets (Gilbert–Peierls symbolic factorization) of the
        // pivoted + ordered pattern.
        let sets = timed_traced(
            &mut report,
            &profiler,
            "inspect: pre-pivot + ordering + LU reach sets (DFS)",
            || LuVIPruneInspector.inspect_pivoted(a, ordering, pre_pivot),
        );
        let sets = sets.map_err(|e| match e {
            sympiler_sparse::SparseError::StructurallySingular { n, structural_rank } => {
                LuPlanError::StructurallySingular { n, structural_rank }
            }
            other => LuPlanError::BadInput(format!("inspection: {other}")),
        })?;
        let baked = match (&sets.row_perm, &sets.col_perm) {
            (None, None) => None,
            (rowp, q) => {
                // Compose: row new of the factored system is row
                // rowp[q[new]] of A; the column side is q alone.
                // Inverting through the sparse helper doubles as the
                // bijection check every permutation must pass.
                let identity: Vec<usize>;
                let q = match q {
                    Some(q) => &q[..],
                    None => {
                        identity = (0..n).collect();
                        &identity[..]
                    }
                };
                let cperm: Arc<[usize]> = q.into();
                let rperm: Arc<[usize]> = match rowp {
                    Some(p) => q.iter().map(|&jq| p[jq]).collect(),
                    None => Arc::clone(&cperm),
                };
                let irperm = sympiler_sparse::ops::inverse_permutation(&rperm)
                    .expect("composed row map is a valid permutation");
                Some(BakedPerm {
                    rperm,
                    irperm: irperm.into(),
                    cperm,
                })
            }
        };
        // The deterministic pre-pivot quality stat: how many compiled
        // pivot positions are structurally present in A. Any
        // successful matching makes this n; Off on a zero-diag
        // pattern leaves it short.
        let matched_diag = match &baked {
            None => n - sympiler_sparse::ops::structurally_zero_diagonals(a),
            Some(bp) => (0..n)
                .filter(|&j| a.find(bp.rperm[j], bp.cperm[j]).is_some())
                .count(),
        };
        let sym = sets.symbolic;
        report.set_size("nnz(A)", a.nnz());
        report.set_size("nnz(L)", sym.l_nnz());
        report.set_size("nnz(U)", sym.u_nnz());
        report.set_size("update ops", sym.u_nnz() - n);
        report.set_size("symbolic dfs edges", sym.dfs_edges() as usize);

        // --- Transform + pack: the symbolic patterns *are* the
        // schedule (VI-Prune made executable); packing narrows them.
        let flops = sym.factor_flops();
        let narrow = |idx: &[usize]| idx.iter().map(|&i| i as u32).collect::<Vec<u32>>();
        let (pattern, structure) = timed_traced(
            &mut report,
            &profiler,
            "transform + pack (schedule)",
            || {
                let structure = LuStructure {
                    l_row_idx: narrow(&sym.l_row_idx),
                    u_row_idx: narrow(&sym.u_row_idx),
                    l_col_ptr: sym.l_col_ptr,
                    u_col_ptr: sym.u_col_ptr,
                };
                (CompiledPattern::new(a), structure)
            },
        );
        let mut plan = Self {
            n,
            a_nnz: a.nnz(),
            pattern,
            ordering,
            pre_pivot,
            matched_diag,
            perturb_tol: opts.pivot_perturb,
            baked,
            scaling: if opts.mc64_scale {
                Some(ScalePair::mc64(a)?)
            } else {
                None
            },
            structure: Arc::new(structure),
            peel_above: PEEL_COL_COUNT,
            flops,
            positions: None,
            levels: None,
            report: SymbolicReport::default(),
            profiler,
        };
        report.set_size("peeled updates", plan.n_peeled());
        report.export_gauges(&plan.profiler);
        plan.report = report;
        Ok(plan)
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Predicted nonzeros of `L`.
    pub fn l_nnz(&self) -> usize {
        self.structure.l_row_idx.len()
    }

    /// Predicted nonzeros of `U`.
    pub fn u_nnz(&self) -> usize {
        self.structure.u_row_idx.len()
    }

    /// Exact factorization flops.
    pub fn flops(&self) -> u64 {
        self.flops
    }

    /// Number of scheduled column updates: the off-diagonal entries
    /// of `U`.
    pub fn n_updates(&self) -> usize {
        self.u_nnz() - self.n
    }

    /// Number of updates compiled to the peeled (unrolled) tier.
    pub fn n_peeled(&self) -> usize {
        (0..self.n)
            .map(|j| self.schedule_with_tiers(j).filter(|&(_, p)| p).count())
            .sum()
    }

    /// Multiply-adds of one factorization: [`Self::flops`] less one
    /// division per sub-diagonal entry of `L`, halved.
    pub fn n_multiply_adds(&self) -> u64 {
        (self.flops - (self.l_nnz() - self.n) as u64) / 2
    }

    /// The ordering strategy this plan was compiled with.
    pub fn ordering(&self) -> Ordering {
        self.ordering
    }

    /// The pre-pivoting strategy this plan was compiled with.
    pub fn pre_pivot(&self) -> PrePivot {
        self.pre_pivot
    }

    /// The compiled MC64 scalings `(Dr, Dc)` in original coordinates,
    /// or `None` when scaling is off.
    pub fn mc64_scaling(&self) -> Option<(&[f64], &[f64])> {
        self.scaling.as_ref().map(|s| (&s.dr[..], &s.dc[..]))
    }

    /// The magnitude of `A[i, j]` as the compiled numeric phase sees
    /// it — scaled by `dr[i]·dc[j]` when MC64 scaling is compiled,
    /// plain `|v|` otherwise. Indices are original coordinates.
    fn scaled_abs(&self, i: usize, j: usize, v: f64) -> f64 {
        match &self.scaling {
            None => v.abs(),
            Some(s) => (s.dr[i] * v * s.dc[j]).abs(),
        }
    }

    /// Max entry magnitude of `a` as the numeric phase sees it (the
    /// scaled matrix when scaling is compiled) — the reference value
    /// for pivot-perturbation thresholds and growth monitors.
    fn max_abs_compiled(&self, a: &CscMatrix) -> f64 {
        match &self.scaling {
            None => a.values().iter().fold(0.0f64, |m, v| m.max(v.abs())),
            Some(_) => {
                let mut m = 0.0f64;
                for j in 0..a.n_cols() {
                    for (i, v) in a.col_iter(j) {
                        m = m.max(self.scaled_abs(i, j, v));
                    }
                }
                m
            }
        }
    }

    /// The absolute replacement threshold for one factorization of
    /// `a`: `perturb_tol · max|A values|` (0 when perturbation is off
    /// — the column kernels' `|pivot| < 0` guard then never fires).
    pub(crate) fn perturb_threshold(&self, a: &CscMatrix) -> f64 {
        if self.perturb_tol == 0.0 {
            return 0.0;
        }
        self.perturb_tol * self.max_abs_compiled(a)
    }

    /// The compiled ordering `Q` (`perm[new] = old`), or `None` for
    /// natural order.
    pub fn col_perm(&self) -> Option<&[usize]> {
        self.baked
            .as_ref()
            .filter(|_| self.ordering != Ordering::Natural)
            .map(|b| &b.cperm[..])
    }

    /// The composed row map (`rperm[new] = old`, pre-pivot and
    /// ordering combined), or `None` when neither knob moved anything.
    /// Equal to [`Self::col_perm`] when no pre-pivot moved rows.
    pub fn row_perm(&self) -> Option<&[usize]> {
        self.baked.as_ref().map(|b| &b.rperm[..])
    }

    /// Count of columns whose compiled pivot position `(rperm[j],
    /// cperm[j])` is structurally present in `A` — `n` after any
    /// successful pre-pivot, short of `n` exactly when the numeric
    /// phase is guaranteed to hit [`LuPlanError::ZeroPivot`].
    /// Deterministic (pattern + knobs only), so it gates pre-pivot
    /// quality in CI the way fill gain gates ordering quality.
    pub fn matched_diagonals(&self) -> usize {
        self.matched_diag
    }

    /// Count of rows the static pre-pivot moved: positions where the
    /// composed row map differs from the column map. Zero without a
    /// pre-pivot (or on its identity fast path).
    pub fn moved_rows(&self) -> usize {
        match &self.baked {
            None => 0,
            Some(b) => (0..self.n).filter(|&j| b.rperm[j] != b.cperm[j]).count(),
        }
    }

    /// Fill ratio `nnz(L + U) / nnz(A)` of the compiled factorization
    /// (diagonal counted once) — the headline number a fill-reducing
    /// ordering exists to shrink.
    pub fn fill_ratio(&self) -> f64 {
        if self.a_nnz == 0 {
            return 0.0;
        }
        (self.l_nnz() + self.u_nnz() - self.n) as f64 / self.a_nnz as f64
    }

    /// Exact per-column factorization flops (sums to [`Self::flops`]):
    /// a column's divisions plus a multiply-subtract pair per
    /// sub-diagonal entry of every column in its schedule. Read off
    /// the layouts on demand — only plan construction asks.
    pub fn per_column_flops(&self) -> Vec<u64> {
        let l_ptr = &self.structure.l_col_ptr;
        let off = |k: usize| (l_ptr[k + 1] - l_ptr[k] - 1) as u64;
        (0..self.n)
            .map(|j| off(j) + self.schedule(j).map(|k| 2 * off(k)).sum::<u64>())
            .collect()
    }

    /// The observability sink attached at compile time — disabled (a
    /// no-op) unless the plan was built with
    /// [`SympilerOptions::profile`]. `Arc::clone` it to read the trace
    /// of this plan, its clones and the supernodal plan built from it.
    pub fn profiler(&self) -> &Arc<Profiler> {
        &self.profiler
    }

    /// Symbolic (compile-time) report.
    pub fn report(&self) -> &SymbolicReport {
        &self.report
    }

    /// The update schedule of column `j`: the sorted off-diagonal
    /// pattern of `U(:, j)`, ascending — a topological order.
    pub fn schedule(&self, j: usize) -> impl Iterator<Item = usize> + '_ {
        let st = &*self.structure;
        st.u_row_idx[st.u_col_ptr[j]..st.u_col_ptr[j + 1] - 1]
            .iter()
            .map(|&k| k as usize)
    }

    /// The update schedule of column `j` with the low-level tier
    /// decision per update (`true` = peeled).
    fn schedule_with_tiers(&self, j: usize) -> impl Iterator<Item = (usize, bool)> + '_ {
        let l_ptr = &self.structure.l_col_ptr;
        self.schedule(j)
            .map(move |k| (k, l_ptr[k + 1] - l_ptr[k] - 1 > self.peel_above))
    }

    /// Check that `a` carries exactly the compiled sparsity pattern
    /// (every numeric phase runs it first, and the plan cache runs it
    /// on every candidate hit): free for the compiled matrix and the
    /// value sets cloned from it, a full compare for any other input
    /// ([`CompiledPattern::matches`]).
    pub(crate) fn check_pattern(&self, a: &CscMatrix) -> Result<(), LuPlanError> {
        self.pattern
            .matches(a)
            .then_some(())
            .ok_or(LuPlanError::PatternMismatch)
    }

    /// Wrap a filled value array (`L` then `U`, laid out by the
    /// compiled patterns — [`Self::new_values`]) into the factor object
    /// — the epilogue shared by both kernels. The factor
    /// takes `Arc` clones of the plan's structure, permutations and
    /// scalings and the value array as it is: no index is copied. When
    /// the profiler is enabled, the numerical-health monitors are
    /// computed from the filled `U` values, recorded as `health.*`
    /// gauges and surfaced on the factor; the values are untouched
    /// either way, so results stay bitwise identical.
    pub(crate) fn finish(&self, a: &CscMatrix, vals: Vec<f64>, perturb: PerturbReport) -> LuFactor {
        let health = if self.profiler.is_enabled() {
            let h = self.compute_health(a, &vals[self.l_nnz()..]);
            self.profiler.gauge("health.growth", h.growth);
            self.profiler.gauge("health.min_pivot", h.min_pivot);
            self.profiler.gauge("health.max_pivot", h.max_pivot);
            self.profiler
                .gauge("health.min_matched_diag", h.min_matched_diag);
            Some(h)
        } else {
            None
        };
        if !perturb.is_empty() {
            self.profiler
                .counter("lu.perturbed_cols")
                .add(perturb.count() as u64);
        }
        LuFactor {
            structure: Arc::clone(&self.structure),
            vals,
            sweeps: self.positions.as_ref().map(|t| Arc::clone(&t.sweeps)),
            csc: OnceLock::new(),
            rperm: self.baked.as_ref().map(|b| b.rperm.clone()),
            irperm: self.baked.as_ref().map(|b| b.irperm.clone()),
            // One contract with `LuPlan::col_perm`: the column map is
            // only reported (and only applied in solves) when an
            // ordering actually reordered columns.
            cperm: self
                .baked
                .as_ref()
                .filter(|_| self.ordering != Ordering::Natural)
                .map(|b| b.cperm.clone()),
            scaling: self.scaling.clone(),
            health,
            perturb,
        }
    }

    /// Numerical-health monitors of a completed factorization of `a`
    /// by this plan: element growth `max|U| / max|A|`, min/max pivot
    /// magnitude on `U`'s diagonal, and the smallest magnitude the
    /// static matching placed on the diagonal (`min_j |A[rperm[j],
    /// cperm[j]]|`). Works on any factor the plan produced, profiled
    /// or not — `lu_compare` uses it to put recorded growth numbers in
    /// the comparison table.
    pub fn health_of(&self, a: &CscMatrix, f: &LuFactor) -> LuHealth {
        self.compute_health(a, f.values().1)
    }

    fn compute_health(&self, a: &CscMatrix, ux: &[f64]) -> LuHealth {
        // Growth is measured against the matrix the numeric phase
        // actually factored — the scaled one when scaling is compiled.
        let max_abs_a = self.max_abs_compiled(a);
        let max_abs_u = ux.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let mut min_pivot = f64::INFINITY;
        let mut max_pivot = 0.0f64;
        for j in 0..self.n {
            let p = ux[self.structure.u_col_ptr[j + 1] - 1].abs();
            min_pivot = min_pivot.min(p);
            max_pivot = max_pivot.max(p);
        }
        let mut min_matched_diag = f64::INFINITY;
        for j in 0..self.n {
            let (r, c) = match &self.baked {
                None => (j, j),
                Some(bp) => (bp.rperm[j], bp.cperm[j]),
            };
            let v = a
                .find(r, c)
                .map_or(0.0, |p| self.scaled_abs(r, c, a.values()[p]));
            min_matched_diag = min_matched_diag.min(v);
        }
        if self.n == 0 {
            min_pivot = 0.0;
            min_matched_diag = 0.0;
        }
        LuHealth {
            max_abs_a,
            max_abs_u,
            growth: if max_abs_a > 0.0 {
                max_abs_u / max_abs_a
            } else {
                0.0
            },
            min_pivot,
            max_pivot,
            min_matched_diag,
        }
    }

    /// Scatter column `j` of the compiled system into a dense
    /// accumulator: `A(:, j)` directly when nothing is baked, or
    /// column `cperm[j]` of the caller's original matrix with rows
    /// mapped through the inverse row map under baked permutations
    /// (`B[i, j] = A[rperm[i], cperm[j]]`). Row `i` lands at
    /// `x[i * stride + offset]`: the per-column kernel below passes
    /// `(1, 0)`, the supernodal plan's row-major panel accumulator
    /// `(panel width, column within the panel)`.
    #[inline]
    pub(crate) fn scatter_a_column(
        &self,
        j: usize,
        a: &CscMatrix,
        x: &mut [f64],
        stride: usize,
        offset: usize,
    ) {
        // With compiled MC64 scaling, entries are multiplied by
        // dr[row]·dc[col] (original coordinates) as they scatter —
        // the diagonal scaling matrices never materialize. The
        // expression shape `dr·v·dc` (left-to-right) is fixed: the
        // position-addressed walker evaluates the identical sequence,
        // so its scaled factors stay bitwise equal to this kernel's.
        match (&self.baked, &self.scaling) {
            (None, None) => {
                for (i, v) in a.col_iter(j) {
                    x[i * stride + offset] = v;
                }
            }
            (None, Some(s)) => {
                let dcj = s.dc[j];
                for (i, v) in a.col_iter(j) {
                    x[i * stride + offset] = s.dr[i] * v * dcj;
                }
            }
            (Some(bp), None) => {
                for (i, v) in a.col_iter(bp.cperm[j]) {
                    x[bp.irperm[i] * stride + offset] = v;
                }
            }
            (Some(bp), Some(s)) => {
                let oc = bp.cperm[j];
                let dcj = s.dc[oc];
                for (i, v) in a.col_iter(oc) {
                    x[bp.irperm[i] * stride + offset] = s.dr[i] * v * dcj;
                }
            }
        }
    }

    /// The accumulator kernel — the per-column numeric solve every
    /// executor can run: scatter `A(:, j)`, apply the update schedule in
    /// topological order, gather `U(:, j)`/`L(:, j)` through the fixed
    /// layouts, and clear the accumulator back to zero. `thresh` is
    /// the absolute pivot-perturbation threshold for this
    /// factorization ([`Self::perturb_threshold`]); a pivot below it
    /// is replaced by the signed threshold and reported as
    /// [`PivotStatus::Perturbed`]. Returns [`PivotStatus::Zero`] on a
    /// zero pivot with perturbation off; the column's values are still
    /// written (division by zero is IEEE-defined), so a parallel
    /// caller may keep going and report the error after the fact.
    ///
    /// Keeping this in one place is what makes the leveled plan
    /// **bitwise deterministic**: every walk performs the exact same
    /// operation sequence per column, whatever the thread count.
    ///
    /// # Safety
    /// `lx` and `ux` must point to the plan's full factor value arrays
    /// (`l_nnz()` / `u_nnz()` elements). The caller must guarantee that
    /// (a) no other thread accesses column `j`'s value ranges during
    /// the call, and (b) every update column scheduled for `j` has been
    /// fully written and synchronized before the call. The walker of
    /// [`super::level_schedule`] provides both: in index order
    /// trivially, and over a [`LevelSchedule`] built from
    /// [`Self::schedule`] by the four facts `LevelSchedule::validate`
    /// checks — `j` sits in one level and one worker's chunk of it (a),
    /// its update columns in strictly earlier levels, and a barrier
    /// separates two levels unless worker 0 owns both wholesale (b).
    /// `x` must be an all-zeros dense accumulator of length `n`
    /// (restored to zeros before returning).
    pub(crate) unsafe fn column_numeric(
        &self,
        j: usize,
        a: &CscMatrix,
        x: &mut [f64],
        lx: *mut f64,
        ux: *mut f64,
        thresh: f64,
    ) -> PivotStatus {
        // Scatter A(:, j) (fixed pattern, numeric-only). Under a baked
        // ordering, column j of Qᵀ A Q is column perm[j] of the
        // caller's original matrix with rows mapped through Q⁻¹ — the
        // permutation is applied here, inside the scatter the column
        // solve performs anyway, so ordered plans pay zero extra
        // passes over the data.
        let st = &*self.structure;
        self.scatter_a_column(j, a, x, 1, 0);
        // Apply the update schedule — U(:, j)'s off-diagonal pattern —
        // in topological (ascending) order.
        let u_range = st.u_col_ptr[j]..st.u_col_ptr[j + 1];
        for &k in &st.u_row_idx[u_range.start..u_range.end - 1] {
            let k = k as usize;
            let xk = x[k];
            let range = st.l_col_ptr[k] + 1..st.l_col_ptr[k + 1];
            let rows = &st.l_row_idx[range.clone()];
            // SAFETY: column k precedes j in the schedule, so by the
            // caller's contract its values are final and no thread
            // writes them concurrently.
            let vals = std::slice::from_raw_parts(lx.add(range.start), range.len());
            if rows.len() > self.peel_above {
                // Peeled tier: no zero guard (the reach set
                // guarantees structural work), unrolled by two.
                let mut t = 0;
                while t + 1 < rows.len() {
                    let (r0, r1) = (rows[t] as usize, rows[t + 1] as usize);
                    let (v0, v1) = (vals[t], vals[t + 1]);
                    x[r0] -= v0 * xk;
                    x[r1] -= v1 * xk;
                    t += 2;
                }
                if t < rows.len() {
                    x[rows[t] as usize] -= vals[t] * xk;
                }
            } else if xk != 0.0 {
                for (&r, &v) in rows.iter().zip(vals) {
                    x[r as usize] -= v * xk;
                }
            }
        }
        // Gather U(:, j) through the fixed layout; diagonal last.
        for p in u_range.clone() {
            *ux.add(p) = x[st.u_row_idx[p] as usize];
        }
        let mut pivot = *ux.add(u_range.end - 1);
        let mut status = PivotStatus::Clean;
        // Static perturbation: with thresh == 0.0 (perturbation off)
        // the strict `<` can never hold, so this branch compiles to
        // the historical code path bit for bit.
        if pivot.abs() < thresh {
            pivot = if pivot.is_sign_negative() {
                -thresh
            } else {
                thresh
            };
            *ux.add(u_range.end - 1) = pivot;
            status = PivotStatus::Perturbed;
        } else if pivot == 0.0 {
            status = PivotStatus::Zero;
        }
        // Gather L(:, j): unit diagonal, scaled sub-diagonal.
        let l_range = st.l_col_ptr[j]..st.l_col_ptr[j + 1];
        *lx.add(l_range.start) = 1.0;
        for p in l_range.start + 1..l_range.end {
            *lx.add(p) = x[st.l_row_idx[p] as usize] / pivot;
        }
        // Clear the accumulator (touch only the column's pattern).
        for p in u_range {
            x[st.u_row_idx[p] as usize] = 0.0;
        }
        for p in l_range.start + 1..l_range.end {
            x[st.l_row_idx[p] as usize] = 0.0;
        }
        status
    }

    /// A zeroed value array for one factorization (`L` then `U`), to be
    /// filled and handed to [`Self::finish`].
    pub(crate) fn new_values(&self) -> Vec<f64> {
        vec![0.0f64; self.structure.n_values()]
    }

    /// Numeric factorization — no DFS, no allocation besides the factor
    /// value array (and, for the accumulator kernel, one dense vector),
    /// no pivot search. A caller factoring through the accumulator
    /// kernel in a loop (or a serving worker) should hold a
    /// [`LuWorkspace`] and use [`Self::factor_with`] to skip that
    /// `O(n)` allocation.
    pub fn factor(&self, a: &CscMatrix) -> Result<LuFactor, LuPlanError> {
        self.factor_with(a, &mut LuWorkspace::new())
    }

    /// [`Self::factor`] against a caller-held [`LuWorkspace`]: the
    /// plan stays immutable (`&self`, freely shared behind an `Arc`
    /// across threads), all mutable per-factorization state lives in
    /// `ws`. Results are bitwise identical to [`Self::factor`] — the
    /// workspace only replaces the accumulator allocation, never the
    /// operation order. A plan carrying position tables
    /// ([`Self::with_position_tables`]) needs no accumulator and leaves
    /// `ws` untouched; a [`Self::leveled`] plan runs its first lane
    /// against `ws` and allocates one accumulator per further lane.
    pub fn factor_with(
        &self,
        a: &CscMatrix,
        ws: &mut LuWorkspace,
    ) -> Result<LuFactor, LuPlanError> {
        self.check_pattern(a)?;
        let mut vals = self.new_values();
        let thresh = self.perturb_threshold(a);
        // Instrumentation is purely observational and its totals are
        // compile-time constants, so profiled and unprofiled runs
        // execute the same numeric loop and produce bitwise-identical
        // factors.
        let prof = &*self.profiler;
        let walked = match &self.positions {
            Some(tables) => {
                let span = prof.begin(0, "factor:serial");
                let walked = self.walk_positions(tables, a, &mut vals, thresh);
                prof.end_with(span, &[("flops", self.flops as f64)]);
                walked
            }
            None => self.walk_accumulator(a, ws.ensure(self.n), &mut vals, thresh),
        };
        let columns = walked?;
        if prof.is_enabled() {
            prof.counter("flops.scalar").add(self.flops);
            prof.counter("scalar.scatter_elems").add(self.a_nnz as u64);
        }
        Ok(self.finish(
            a,
            vals,
            PerturbReport {
                columns,
                threshold: thresh,
            },
        ))
    }

    /// The accumulator kernel over every column through the one walker
    /// — in column order, or over the level schedule of a
    /// [`Self::leveled`] plan; `x` is the first lane's accumulator.
    /// Returns the perturbed columns.
    fn walk_accumulator(
        &self,
        a: &CscMatrix,
        x: &mut [f64],
        vals: &mut [f64],
        thresh: f64,
    ) -> Result<Vec<usize>, LuPlanError> {
        let (lx, ux) = vals.split_at_mut(self.l_nnz());
        let values = SharedValues {
            lx: lx.as_mut_ptr(),
            ux: ux.as_mut_ptr(),
            sx: std::ptr::null_mut(),
        };
        let labels = WalkLabels {
            span: match self.levels {
                Some(_) => "factor:parallel",
                None => "factor:serial",
            },
            lanes: "par",
            flops: self.flops,
        };
        let scratch = LaneScratch { x, bt: &mut [] };
        let levels = self.levels.as_ref();
        let prof = &self.profiler;
        walk(
            levels,
            self.n,
            prof,
            labels,
            &values,
            scratch,
            |j, _lane, values, scratch, perturbed| {
                // SAFETY: `values` points at the two halves of a full
                // value array that outlives the walk. The walk runs
                // each column exactly once, and only after every column
                // of its schedule — the predecessors `leveled` built
                // the level schedule from, all smaller indices for the
                // in-order walk — is final and synchronized
                // (`SharedValues`); the lane's accumulator is all zeros
                // between columns.
                let status =
                    unsafe { self.column_numeric(j, a, scratch.x, values.lx, values.ux, thresh) };
                status.report(j, perturbed)
            },
        )
        .map_err(|column| LuPlanError::ZeroPivot { column })
    }

    /// Level the column elimination DAG over `n_threads` workers: the
    /// numeric phase then runs the accumulator kernel level by level
    /// ([`LevelSchedule`]) instead of in column order, with factors
    /// bitwise identical to the in-order plan's at any thread count.
    /// Pure schedule re-arrangement — no symbolic analysis re-runs: the
    /// DAG is read straight off [`Self::schedule`], the per-column
    /// costs off the layouts. Position tables are dropped (they resolve
    /// the in-order walk only). One thread is the in-order plan: no
    /// schedule is built and nothing is dropped.
    ///
    /// This is where orderings pay twice: less fill means fewer numeric
    /// flops, and the reordered DAG is shallower and bushier, so the
    /// leveling finds real concurrency where the natural order yields
    /// near-chains.
    pub fn leveled(mut self, n_threads: usize) -> Self {
        assert!(n_threads >= 1, "need at least one thread");
        if n_threads == 1 {
            self.levels = None;
            return self;
        }
        let costs = self.per_column_costs(&self.per_column_flops());
        let levels = LevelSchedule::build(self.n, n_threads, |j| self.schedule(j), &costs);
        self.levels = Some(levels);
        self.positions = None;
        self
    }

    /// The level schedule of a [`Self::leveled`] plan; `None` for a
    /// plan that walks its columns in order.
    pub fn levels(&self) -> Option<&LevelSchedule> {
        self.levels.as_ref()
    }

    /// Threads the numeric phase runs on: the level schedule's worker
    /// count, 1 without one.
    pub fn n_threads(&self) -> usize {
        self.levels.as_ref().map_or(1, LevelSchedule::n_threads)
    }

    /// Factor a batch of **same-pattern** matrices, one after another
    /// against one workspace. Every returned factor is **bitwise
    /// identical** to factoring that matrix alone, and the batch is
    /// all-or-nothing: the first failure (in batch order) aborts with a
    /// [`BatchError`] naming the offending matrix and no factors are
    /// returned.
    ///
    /// ```
    /// use sympiler_core::plan::lu::LuPlan;
    /// use sympiler_core::SympilerOptions;
    /// use sympiler_sparse::gen;
    ///
    /// let a = gen::circuit_unsym(40, 4, 2, 7);
    /// let plan = LuPlan::build(&a, &SympilerOptions::default())?;
    ///
    /// // Three same-pattern matrices with different values.
    /// let mut mats = vec![a.clone(), a.clone(), a.clone()];
    /// for (k, m) in mats.iter_mut().enumerate() {
    ///     for v in m.values_mut() {
    ///         *v *= 1.0 + 0.25 * k as f64;
    ///     }
    /// }
    /// let refs: Vec<&_> = mats.iter().collect();
    /// let factors = plan.factor_batch(&refs)?;
    ///
    /// // Bitwise identical to the one-at-a-time loop.
    /// for (m, f) in mats.iter().zip(&factors) {
    ///     let single = plan.factor(m)?;
    ///     assert_eq!(single.l().values(), f.l().values());
    ///     assert_eq!(single.u().values(), f.u().values());
    /// }
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn factor_batch(&self, mats: &[&CscMatrix]) -> Result<Vec<LuFactor>, BatchError> {
        factor_each(mats, |a, ws| self.factor_with(a, ws))
    }

    /// Resident size, in bytes, of the compiled tables this plan keeps
    /// alive: factor layouts, the pattern copy backing
    /// [`Self::factor`]'s pattern check, permutation maps, and
    /// the walker's position tables when baked, and the level schedule
    /// of a [`Self::leveled`] plan. This is the footprint a plan cache
    /// charges an entry for — factor *values* are per-call and not
    /// counted.
    pub fn table_bytes(&self) -> usize {
        use std::mem::size_of;
        let usz = size_of::<usize>();
        let st = &*self.structure;
        let mut bytes = (st.l_col_ptr.len() + st.u_col_ptr.len()) * usz
            + (st.l_row_idx.len() + st.u_row_idx.len()) * 4
            + self.pattern.bytes();
        if let Some(bp) = &self.baked {
            // irperm + cperm, and rperm unless it is cperm's allocation.
            let maps = if Arc::ptr_eq(&bp.rperm, &bp.cperm) {
                2
            } else {
                3
            };
            bytes += maps * self.n * usz;
        }
        if self.scaling.is_some() {
            // Dr + Dc, each n f64s.
            bytes += 2 * self.n * 8;
        }
        if let Some(tables) = &self.positions {
            bytes += tables.bytes();
        }
        if let Some(levels) = &self.levels {
            bytes += levels.bytes();
        }
        bytes
    }

    /// Per-column cost model for balancing the parallel numeric phase:
    /// the column's exact flops ([`Self::per_column_flops`], passed in
    /// so a caller that needs both computes them once) plus its
    /// pattern size (memory traffic of the scatter/gather), so
    /// structurally trivial columns still carry nonzero weight.
    pub(crate) fn per_column_costs(&self, col_flops: &[u64]) -> Vec<u64> {
        let st = &*self.structure;
        let pattern = |j: usize| {
            st.l_col_ptr[j + 1] - st.l_col_ptr[j] + st.u_col_ptr[j + 1] - st.u_col_ptr[j]
        };
        (0..self.n)
            .map(|j| col_flops[j] + pattern(j) as u64)
            .collect()
    }
}

#[cfg(test)]
impl LuPlan {
    /// This plan with its peeled tier resolved at `peel_above` instead
    /// of [`PEEL_COL_COUNT`] — how tests reach the thresholds no option
    /// sets. Call it before baking tables.
    pub(crate) fn with_peel_above(mut self, peel_above: usize) -> Self {
        self.peel_above = peel_above;
        let n_peeled = self.n_peeled();
        for (name, size) in &mut self.report.set_sizes {
            if name == "peeled updates" {
                *size = n_peeled;
            }
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::pattern::{moved_one_row, rebuilt};
    use sympiler_solvers::lu::{GpLu, Pivoting};
    use sympiler_sparse::{gen, ops, SparseVec};

    /// Default options under the given ordering and pre-pivot.
    fn pivoted(ordering: Ordering, pre_pivot: PrePivot) -> SympilerOptions {
        SympilerOptions {
            ordering,
            pre_pivot,
            ..Default::default()
        }
    }

    fn check_against_baseline(a: &CscMatrix) {
        let plan = LuPlan::build(a, &SympilerOptions::default()).unwrap();
        let f = plan.factor(a).unwrap();
        let base = GpLu::factor(a, Pivoting::None).unwrap();
        assert!(f.l().same_pattern(&base.l), "L pattern");
        assert!(f.u().same_pattern(&base.u), "U pattern");
        for (p, q) in f.l().values().iter().zip(base.l.values()) {
            assert!((p - q).abs() < 1e-10, "L value {p} vs {q}");
        }
        for (p, q) in f.u().values().iter().zip(base.u.values()) {
            assert!((p - q).abs() < 1e-10, "U value {p} vs {q}");
        }
    }

    #[test]
    fn plan_reproduces_baseline_factors() {
        for seed in 0..6u64 {
            check_against_baseline(&gen::circuit_unsym(40, 3, 2, seed));
            check_against_baseline(&gen::random_unsym(35, 4, seed + 100));
        }
        check_against_baseline(&gen::convection_diffusion_2d(7, 6, 1.5, 3));
    }

    #[test]
    fn factor_solve_has_small_residual() {
        let a = gen::convection_diffusion_2d(8, 8, 2.0, 5);
        let plan = LuPlan::build(&a, &SympilerOptions::default()).unwrap();
        let f = plan.factor(&a).unwrap();
        let n = a.n_cols();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 4) as f64).collect();
        let x = f.solve(&b);
        assert!(ops::rel_residual(&a, &x, &b) < 1e-12);
        assert!(f.det_magnitude() > 0.0);
    }

    #[test]
    fn repeated_factorization_with_changing_values() {
        // The core premise: one compile, many numeric factorizations.
        let a0 = gen::circuit_unsym(50, 4, 2, 7);
        let plan = LuPlan::build(&a0, &SympilerOptions::default()).unwrap();
        let mut a = a0.clone();
        for round in 1..=4 {
            for v in a.values_mut() {
                *v *= 1.0 + 0.05 / round as f64;
            }
            let f = plan.factor(&a).unwrap();
            let base = GpLu::factor(&a, Pivoting::None).unwrap();
            for (p, q) in f.u().values().iter().zip(base.u.values()) {
                assert!((p - q).abs() < 1e-9, "round {round}");
            }
        }
    }

    #[test]
    fn pattern_mismatch_rejected() {
        let a = gen::random_unsym(20, 3, 1);
        let plan = LuPlan::build(&a, &SympilerOptions::default()).unwrap();
        let other = gen::random_unsym(20, 3, 2);
        assert!(matches!(
            plan.factor(&other),
            Err(LuPlanError::PatternMismatch)
        ));
        let smaller = gen::random_unsym(10, 3, 1);
        assert!(matches!(
            plan.factor(&smaller),
            Err(LuPlanError::PatternMismatch)
        ));
    }

    /// Bitwise image of a factor's values.
    fn bits(f: &LuFactor) -> Vec<u64> {
        let (l, u) = f.values();
        l.iter().chain(u).map(|v| v.to_bits()).collect()
    }

    /// The identity handle is never a false hit: once the compiled
    /// matrix and every clone are gone the plan names no live pattern,
    /// and a different pattern of the same order and entry count is
    /// refused.
    #[test]
    fn identity_is_never_a_false_hit() {
        let a = gen::circuit_unsym(60, 4, 2, 3);
        let moved = moved_one_row(&a);
        assert_eq!((moved.n_cols(), moved.nnz()), (a.n_cols(), a.nnz()));
        for opts in [
            SympilerOptions::default(),
            pivoted(Ordering::Colamd, PrePivot::Off),
        ] {
            let compiled = rebuilt(&a); // a pattern of its own
            let plan = LuPlan::build(&compiled, &opts).unwrap();
            let copies = vec![compiled.clone(), compiled.clone()];
            let id = compiled.pattern_id();
            drop((compiled, copies));
            assert!(!id.is_live(), "the plan keeps the caller's indices alive");
            assert_eq!(
                plan.factor(&moved).unwrap_err(),
                LuPlanError::PatternMismatch
            );
        }
    }

    /// The compiled pattern rebuilt from fresh arrays takes the full
    /// compare, passes it, and factors to the bits of a clone of the
    /// compiled matrix.
    #[test]
    fn a_rebuilt_pattern_factors_like_a_clone() {
        let a = gen::circuit_unsym(60, 4, 2, 3);
        let plan = LuPlan::build(&a, &pivoted(Ordering::Colamd, PrePivot::Off)).unwrap();
        let fresh = rebuilt(&a);
        assert!(!a.pattern_id().is_pattern_of(&fresh));
        let clone = a.clone();
        let (via_clone, via_rebuilt) = (plan.factor(&clone).unwrap(), plan.factor(&fresh).unwrap());
        assert_eq!(bits(&via_clone), bits(&via_rebuilt));
    }

    #[test]
    fn zero_pivot_reported() {
        let mut t = sympiler_sparse::TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 1, 1.0);
        let a0 = t.to_csc().unwrap();
        let plan = LuPlan::build(&a0, &SympilerOptions::default()).unwrap();
        let mut a = a0.clone();
        a.values_mut()[1] = 0.0;
        assert!(matches!(
            plan.factor(&a),
            Err(LuPlanError::ZeroPivot { column: 1 })
        ));
    }

    #[test]
    fn low_level_tier_fires_and_stays_correct() {
        // Heavy columns appear once fill cascades.
        let a = gen::convection_diffusion_2d(9, 9, 1.0, 2);
        let full = LuPlan::build(&a, &SympilerOptions::default()).unwrap();
        assert!(full.n_peeled() > 0, "expected peeled updates");
        let plain = full.clone().with_peel_above(usize::MAX);
        assert_eq!(plain.n_peeled(), 0);
        let f1 = full.factor(&a).unwrap();
        let f2 = plain.factor(&a).unwrap();
        for (p, q) in f1.u().values().iter().zip(f2.u().values()) {
            assert!((p - q).abs() < 1e-12);
        }
    }

    #[test]
    fn flops_match_symbolic() {
        let a = gen::circuit_unsym(30, 3, 1, 4);
        let plan = LuPlan::build(&a, &SympilerOptions::default()).unwrap();
        let sym = sympiler_graph::lu_symbolic(&a);
        assert_eq!(plan.flops(), sym.factor_flops());
        assert_eq!(plan.n_updates(), sym.u_nnz() - sym.n);
        assert!(plan.report().total().as_nanos() > 0);
        assert_eq!(plan.report().size_of("nnz(L)"), Some(sym.l_nnz()));
    }

    #[test]
    fn inspection_reads_no_more_than_twice_the_factor_pattern() {
        // The complexity gate for the pruned symbolic, as a count that
        // repeats exactly: on the COLAMD-ordered benchmark patterns the
        // inspection reads about one adjacency entry per factor entry
        // (the unpruned traversal read ~77 per entry on the first).
        for (a, pre_pivot) in [
            (gen::circuit_unsym(1200, 4, 2, 1), PrePivot::Off),
            (
                gen::circuit_zero_diag(800, 4, 2, 1),
                PrePivot::WeightedMatching,
            ),
        ] {
            let plan = LuPlan::build(&a, &pivoted(Ordering::Colamd, pre_pivot)).unwrap();
            let edges = plan.report().size_of("symbolic dfs edges").unwrap();
            assert!(edges > 0);
            assert!(
                edges <= 2 * (plan.l_nnz() + plan.u_nnz()),
                "{edges} reads for {} factor entries",
                plan.l_nnz() + plan.u_nnz()
            );
        }
    }

    #[test]
    fn ordered_plan_matches_baseline_on_permuted_matrix() {
        // An ordered plan factors Qᵀ A Q; GPLU handed that matrix
        // directly must produce the same factors to 1e-10.
        for ordering in [Ordering::Rcm, Ordering::Colamd] {
            for seed in 0..3u64 {
                let a = gen::circuit_unsym(50, 4, 2, seed);
                let plan = LuPlan::build(&a, &pivoted(ordering, PrePivot::Off)).unwrap();
                let f = plan.factor(&a).unwrap();
                let perm = plan.col_perm().expect("non-natural ordering");
                let b = ops::permute_rows_cols(&a, perm).unwrap();
                let base = GpLu::factor(&b, Pivoting::None).unwrap();
                assert!(f.l().same_pattern(&base.l), "{ordering:?} L pattern");
                assert!(f.u().same_pattern(&base.u), "{ordering:?} U pattern");
                for (p, q) in f.u().values().iter().zip(base.u.values()) {
                    assert!((p - q).abs() < 1e-10, "{ordering:?} value drift");
                }
            }
        }
    }

    #[test]
    fn ordered_factor_solves_original_system() {
        // factor() takes the original matrix and solve() speaks
        // original coordinates — the permutation is invisible outside.
        let a = gen::circuit_unsym(60, 4, 2, 5);
        let n = a.n_cols();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let natural = LuPlan::build(&a, &SympilerOptions::default()).unwrap();
        let x_nat = natural.factor(&a).unwrap().solve(&b);
        for ordering in [Ordering::Rcm, Ordering::Colamd] {
            let plan = LuPlan::build(&a, &pivoted(ordering, PrePivot::Off)).unwrap();
            let f = plan.factor(&a).unwrap();
            let x = f.solve(&b);
            assert!(
                ops::rel_residual(&a, &x, &b) < 1e-12,
                "{ordering:?} residual"
            );
            for (p, q) in x.iter().zip(&x_nat) {
                assert!((p - q).abs() < 1e-9, "{ordering:?}: {p} vs {q}");
            }
        }
    }

    #[test]
    fn colamd_plan_reduces_fill_and_flops_on_circuits() {
        let a = gen::circuit_unsym(200, 4, 2, 9);
        let natural = LuPlan::build(&a, &SympilerOptions::default()).unwrap();
        let ordered = LuPlan::build(&a, &pivoted(Ordering::Colamd, PrePivot::Off)).unwrap();
        assert!(
            ordered.l_nnz() + ordered.u_nnz() < natural.l_nnz() + natural.u_nnz(),
            "colamd must cut fill: {} vs {}",
            ordered.l_nnz() + ordered.u_nnz(),
            natural.l_nnz() + natural.u_nnz()
        );
        assert!(ordered.flops() < natural.flops());
        assert!(ordered.fill_ratio() < natural.fill_ratio());
        assert_eq!(ordered.ordering(), Ordering::Colamd);
        assert_eq!(natural.col_perm(), None);
    }

    #[test]
    fn ordered_plan_checks_original_pattern() {
        // The compiled-pattern contract is stated on the matrix the
        // caller compiled, not its permuted image.
        let a = gen::random_unsym(40, 3, 3);
        let plan = LuPlan::build(&a, &pivoted(Ordering::Colamd, PrePivot::Off)).unwrap();
        assert!(plan.factor(&a).is_ok());
        let perm = plan.col_perm().unwrap();
        assert!(
            perm.iter().enumerate().any(|(new, &old)| new != old),
            "this pattern must not order to the identity"
        );
        let permuted = ops::permute_rows_cols(&a, perm).unwrap();
        assert!(matches!(
            plan.factor(&permuted),
            Err(LuPlanError::PatternMismatch)
        ));
    }

    #[test]
    fn solve_sparse_matches_dense_solve() {
        for ordering in [Ordering::Natural, Ordering::Rcm, Ordering::Colamd] {
            for seed in 0..4u64 {
                let a = gen::circuit_unsym(80, 4, 2, seed);
                let n = a.n_cols();
                let plan = LuPlan::build(&a, &pivoted(ordering, PrePivot::Off)).unwrap();
                let f = plan.factor(&a).unwrap();
                // A sparse RHS with a handful of scattered entries.
                let idx: Vec<usize> = (0..n)
                    .filter(|i| (i * 13 + seed as usize).is_multiple_of(29))
                    .collect();
                let vals: Vec<f64> = idx.iter().map(|&i| 1.0 + (i % 5) as f64).collect();
                let b = SparseVec::try_new(n, idx, vals).unwrap();
                let xs = f.solve_sparse(&b);
                let xd = f.solve(&b.to_dense());
                // Every dense-solve nonzero must appear in the sparse
                // pattern, and stored values must agree.
                let dense_of_sparse = xs.to_dense();
                for i in 0..n {
                    assert!(
                        (dense_of_sparse[i] - xd[i]).abs() < 1e-11,
                        "{ordering:?} seed {seed} row {i}: {} vs {}",
                        dense_of_sparse[i],
                        xd[i]
                    );
                }
                // The pattern is the structural reach: no index may be
                // *missing* where the dense solve is materially nonzero.
                for i in 0..n {
                    if xd[i].abs() > 1e-9 {
                        assert!(
                            xs.indices().binary_search(&i).is_ok(),
                            "{ordering:?} seed {seed}: nonzero row {i} missing from sparse pattern"
                        );
                    }
                }
                assert!(
                    xs.nnz() <= n,
                    "pattern is a subset of the dimension by construction"
                );
            }
        }
    }

    #[test]
    fn solve_sparse_touches_only_the_reach_on_chains() {
        // Bidiagonal L-shaped system: b = e_k solves to a suffix
        // pattern; earlier rows must not appear.
        let n = 12;
        let mut t = sympiler_sparse::TripletMatrix::new(n, n);
        for j in 0..n {
            t.push(j, j, 2.0);
            if j + 1 < n {
                t.push(j + 1, j, -1.0);
            }
        }
        let a = t.to_csc().unwrap();
        let plan = LuPlan::build(&a, &SympilerOptions::default()).unwrap();
        let f = plan.factor(&a).unwrap();
        let b = SparseVec::try_new(n, vec![7], vec![3.0]).unwrap();
        let x = f.solve_sparse(&b);
        assert!(
            x.indices().iter().all(|&i| i >= 7),
            "lower-bidiagonal reach of e_7 is the suffix, got {:?}",
            x.indices()
        );
        let xd = f.solve(&b.to_dense());
        for (i, v) in x.iter() {
            assert!((v - xd[i]).abs() < 1e-13);
        }
    }

    #[test]
    fn prepivoted_plan_matches_baseline_on_composed_matrix() {
        // A pre-pivoted (and possibly ordered) plan factors Qᵀ·P·A·Q;
        // GPLU handed that matrix directly must produce the same
        // factors to 1e-10. Also checks the composed-map accessors.
        for ordering in [Ordering::Natural, Ordering::Rcm, Ordering::Colamd] {
            for pre_pivot in [PrePivot::Transversal, PrePivot::WeightedMatching] {
                for seed in 0..2u64 {
                    let a = gen::circuit_zero_diag(60, 4, 2, seed);
                    let plan = LuPlan::build(&a, &pivoted(ordering, pre_pivot)).unwrap();
                    assert_eq!(plan.pre_pivot(), pre_pivot);
                    assert_eq!(plan.matched_diagonals(), 60, "matching must cover all");
                    assert!(plan.moved_rows() > 0, "zero diagonals force row moves");
                    let rperm = plan.row_perm().expect("row map baked");
                    let cperm: Vec<usize> = match plan.col_perm() {
                        Some(q) => q.to_vec(),
                        None => (0..60).collect(),
                    };
                    let f = plan.factor(&a).unwrap();
                    let b = ops::permute_general(&a, rperm, &cperm).unwrap();
                    let base = GpLu::factor(&b, Pivoting::None).unwrap();
                    assert!(f.l().same_pattern(&base.l), "{ordering:?}+{pre_pivot:?} L");
                    assert!(f.u().same_pattern(&base.u), "{ordering:?}+{pre_pivot:?} U");
                    // Relative tolerance: the pattern-only transversal
                    // may pivot on small entries, so factor values can
                    // grow — agreement is per-value relative, like the
                    // supernodal tier's contract.
                    for (p, q) in f.u().values().iter().zip(base.u.values()) {
                        assert!(
                            (p - q).abs() < 1e-10 * (1.0 + q.abs()),
                            "{ordering:?}+{pre_pivot:?} drift: {p} vs {q}"
                        );
                    }
                    // And the solve speaks original coordinates.
                    let rhs: Vec<f64> = (0..60).map(|i| 1.0 + (i % 5) as f64).collect();
                    let x = f.solve(&rhs);
                    assert!(ops::rel_residual(&a, &x, &rhs) < 1e-10);
                }
            }
        }
    }

    #[test]
    fn off_on_zero_diag_fails_numerically_prepivot_succeeds() {
        // The historical contract: without a pre-pivot the plan
        // compiles (the symbolic phase forces the diagonal slot) and
        // the numeric phase hits the structural zero. With one, it
        // factors.
        let a = gen::circuit_zero_diag(40, 4, 1, 3);
        let off = LuPlan::build(&a, &SympilerOptions::default()).unwrap();
        assert!(off.matched_diagonals() < 40, "Off must report the gap");
        assert!(matches!(off.factor(&a), Err(LuPlanError::ZeroPivot { .. })));
        let on = LuPlan::build(&a, &pivoted(Ordering::Natural, PrePivot::Transversal)).unwrap();
        assert!(on.factor(&a).is_ok());
    }

    #[test]
    fn identity_fast_path_bakes_nothing() {
        // Zero-free diagonal + Transversal: the matching is the
        // identity, so the plan must carry no permutation at all and
        // produce the exact plan Off would.
        let a = gen::circuit_unsym(50, 4, 2, 9);
        let plan = LuPlan::build(&a, &pivoted(Ordering::Natural, PrePivot::Transversal)).unwrap();
        assert!(plan.row_perm().is_none(), "identity matching bakes no map");
        assert_eq!(plan.moved_rows(), 0);
        assert_eq!(plan.matched_diagonals(), 50);
        let off = LuPlan::build(&a, &SympilerOptions::default()).unwrap();
        let (f1, f2) = (plan.factor(&a).unwrap(), off.factor(&a).unwrap());
        for (x, y) in f1.u().values().iter().zip(f2.u().values()) {
            assert_eq!(x.to_bits(), y.to_bits(), "fast path must be a no-op");
        }
    }

    #[test]
    fn structurally_singular_is_a_compile_error() {
        // Two columns sharing one row: no perfect matching exists, so
        // compilation must fail with the typed diagnosis — the numeric
        // phase is never reached.
        let mut t = sympiler_sparse::TripletMatrix::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(0, 1, 2.0);
        t.push(1, 2, 3.0);
        t.push(2, 2, 4.0);
        let a = t.to_csc().unwrap();
        for pre_pivot in [PrePivot::Transversal, PrePivot::WeightedMatching] {
            let err = LuPlan::build(&a, &pivoted(Ordering::Natural, pre_pivot)).unwrap_err();
            assert_eq!(
                err,
                LuPlanError::StructurallySingular {
                    n: 3,
                    structural_rank: 2
                },
                "{pre_pivot:?}"
            );
        }
        // Off still compiles — and fails only at the numeric phase.
        let off = LuPlan::build(&a, &SympilerOptions::default()).unwrap();
        assert!(matches!(off.factor(&a), Err(LuPlanError::ZeroPivot { .. })));
    }

    #[test]
    fn prepivoted_solve_sparse_matches_dense_solve() {
        for pre_pivot in [PrePivot::Transversal, PrePivot::WeightedMatching] {
            let a = gen::circuit_zero_diag(70, 4, 2, 11);
            let plan = LuPlan::build(&a, &pivoted(Ordering::Colamd, pre_pivot)).unwrap();
            let f = plan.factor(&a).unwrap();
            let idx: Vec<usize> = (0..70).filter(|i| i % 17 == 3).collect();
            let vals: Vec<f64> = idx.iter().map(|&i| 1.0 + (i % 3) as f64).collect();
            let b = SparseVec::try_new(70, idx, vals).unwrap();
            let xs = f.solve_sparse(&b).to_dense();
            let xd = f.solve(&b.to_dense());
            for i in 0..70 {
                assert!(
                    (xs[i] - xd[i]).abs() < 1e-11,
                    "{pre_pivot:?} row {i}: {} vs {}",
                    xs[i],
                    xd[i]
                );
            }
        }
    }

    #[test]
    fn trivial_systems() {
        // 1x1.
        let mut t = sympiler_sparse::TripletMatrix::new(1, 1);
        t.push(0, 0, 4.0);
        let a = t.to_csc().unwrap();
        let plan = LuPlan::build(&a, &SympilerOptions::default()).unwrap();
        let f = plan.factor(&a).unwrap();
        assert_eq!(f.solve(&[8.0]), vec![2.0]);
        // Diagonal.
        let d = CscMatrix::identity(5);
        let plan = LuPlan::build(&d, &SympilerOptions::default()).unwrap();
        let f = plan.factor(&d).unwrap();
        assert_eq!(plan.n_updates(), 0);
        assert_eq!(
            f.solve(&[1.0, 2.0, 3.0, 4.0, 5.0]),
            vec![1.0, 2.0, 3.0, 4.0, 5.0]
        );
    }
    #[test]
    fn the_schedule_is_the_pattern_of_u() {
        let a = gen::convection_diffusion_2d(9, 9, 1.0, 2);
        let sym = sympiler_graph::lu_symbolic(&a);
        for peel in [2, 0, usize::MAX] {
            let plan = LuPlan::build(&a, &SympilerOptions::default())
                .unwrap()
                .with_peel_above(peel);
            let mut peeled = 0;
            for j in 0..plan.n() {
                assert!(plan.schedule(j).eq(sym.reach(j).iter().copied()));
                for (k, tier) in plan.schedule_with_tiers(j) {
                    let heavy = sym.l_col_pattern(k).len() - 1 > peel;
                    assert_eq!(tier, heavy);
                    peeled += tier as usize;
                }
            }
            assert_eq!(plan.n_peeled(), peeled);
            assert_eq!(plan.report().size_of("peeled updates"), Some(peeled));
            assert_eq!(plan.per_column_flops(), sym.per_column_flops());
        }
    }
}
